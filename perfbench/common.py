"""Paths, environment and output canonicalization shared by the benchmark.

The benchmark drives the program from outside: it never relies on an
installed ``repro`` package, only on ``src/`` of the checkout it sits in.
"""

import hashlib
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: run artifacts (span dumps, full reports); ignored by git
OUT_DIR = ROOT / ".perfbench-out"


class ProgramMissing(RuntimeError):
    """The checkout holds no ``src/repro`` to benchmark."""


def require_program():
    """Fail fast unless ``src/repro`` exists; make it the ``repro`` we run.

    Puts ``src`` first on ``sys.path`` and on ``PYTHONPATH``, so this
    process and every ``repro`` child it starts use this checkout.
    """
    if not (SRC / "repro" / "__init__.py").is_file():
        raise ProgramMissing(
            "no program to benchmark: {} is missing".format(
                SRC / "repro" / "__init__.py"
            )
        )
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    paths = os.environ.get("PYTHONPATH", "").split(os.pathsep)
    if paths[0] != str(SRC):
        os.environ["PYTHONPATH"] = os.pathsep.join([str(SRC)] + [p for p in paths if p])


def canonical_json(payload):
    """The one serialization every oracle digest is taken over."""
    return json.dumps(payload, sort_keys=True, separators=(",", ":"))


def digest(text):
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


#: ``RunStats.counters`` entries that count the engine's own work rather
#: than simulated events: the scalar engine counts its dispatch passes,
#: the fast tiers report 0 (``repro.models.fastengine``)
ENGINE_WORK_COUNTERS = ("dispatch_passes",)

#: keys ``/v1/run`` adds to ``run_stats_dict``
SERVE_EXTRAS = ("workload", "signature")


def simulated_run(payload):
    """The simulated results of a ``run_stats_dict`` or ``/v1/run`` payload.

    Drops the daemon's envelope extras and the engine-work counters, so
    every engine tier and every entry point must give the same bytes.
    """
    simulated = {k: v for k, v in payload.items() if k not in SERVE_EXTRAS}
    simulated["counters"] = {
        k: v for k, v in payload["counters"].items()
        if k not in ENGINE_WORK_COUNTERS
    }
    return simulated
