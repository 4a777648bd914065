"""The committed oracle: expected output digests for every timed cell.

Every operation the benchmark times is checked against a digest in
``oracle.json``; a mismatch counts as a failed operation, so a
performance change cannot win by drifting simulated results.

* ``run/<workload>/<model>`` — sha256 of the canonical JSON of
  ``repro.obs.report.run_stats_dict`` for one registry cell (all 12
  registry workloads x the 7 roster models), without the engine-work
  counter ``counters.dispatch_passes`` (see
  :func:`perfbench.common.simulated_run`);
* ``critpath/<workload>/<model>`` and ``telemetry/<workload>/<model>`` —
  sha256 of the canonical critpath / telemetry report JSON for the
  observer cells the ``serve`` workload requests.

The digests were generated once with both fast paths pinned to their
scalar oracles (``REPRO_ENGINE=reference REPRO_FASTPATH=reference``),
through a spawned ``repro serve`` daemon.  Regenerate with::

    python3 perfbench/oracle.py            # refuses to overwrite
    python3 perfbench/oracle.py --force    # overwrite oracle.json
    python3 perfbench/oracle.py --out FILE # write elsewhere, e.g. to cmp
"""

import argparse
import json
import os
import sys
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench.common import (  # noqa: E402
    canonical_json,
    digest,
    require_program,
    simulated_run,
)

ORACLE_PATH = Path(__file__).with_name("oracle.json")
ORACLE_KIND = "perfbench-oracle"
REFERENCE_ENV = {"REPRO_ENGINE": "reference", "REPRO_FASTPATH": "reference"}

#: observer cells (critpath and telemetry reports) on the cold walk
OBSERVER_CELLS = tuple(
    (kind, workload, "consumer3")
    for kind in ("critpath", "telemetry")
    for workload in ("hs", "lud", "fft")
)


def cell_key(kind, workload, model):
    return "{}/{}/{}".format(kind, workload, model)


def load_oracle(path=ORACLE_PATH):
    """``{cell key: sha256}`` from a committed oracle file."""
    with open(path) as handle:
        payload = json.load(handle)
    if payload.get("kind") != ORACLE_KIND:
        raise ValueError("{} is not a {} file".format(path, ORACLE_KIND))
    return dict(payload["cells"])


class Tally:
    """Attempted/failed operation counts plus the first few failures."""

    MAX_NOTES = 20

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.notes = []

    def record(self, ok, what=""):
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.notes) < self.MAX_NOTES:
                self.notes.append(what)
        return ok

    def merge(self, other):
        self.attempted += other.attempted
        self.failed += other.failed
        self.notes.extend(other.notes[: self.MAX_NOTES - len(self.notes)])


def matches(oracle, key, payload):
    """``(ok, note)``: does ``payload`` hash to the oracle digest of ``key``?

    ``run/...`` payloads are compared on their simulated results only.
    """
    expected = oracle.get(key)
    if expected is None:
        return False, "{}: no oracle digest".format(key)
    if key.startswith("run/"):
        payload = simulated_run(payload)
    actual = digest(canonical_json(payload))
    return actual == expected, "{}: digest {} != oracle {}".format(
        key, actual[:12], expected[:12]
    )


def check_payload(oracle, key, payload, tally):
    """Record one operation whose output ``payload`` must match ``key``."""
    return tally.record(*matches(oracle, key, payload))


def generate():
    """Query a reference-pinned daemon for every oracle cell."""
    require_program()
    os.environ.update(REFERENCE_ENV)
    from repro.experiments.common import STANDARD_MODELS
    from repro.workloads import all_workloads

    from perfbench.serving import spawned_daemon

    cells = {}
    with spawned_daemon() as (_daemon, client):
        for spec in all_workloads():
            for model, _factory, _reorder, _window in STANDARD_MODELS:
                envelope = client.run(spec.name, model=model)
                cells[cell_key("run", spec.name, model)] = digest(
                    canonical_json(simulated_run(envelope["result"]))
                )
                print("oracle:", spec.name, model, file=sys.stderr)
        for kind, workload, model in OBSERVER_CELLS:
            envelope = getattr(client, kind)(workload, model=model)
            cells[cell_key(kind, workload, model)] = digest(
                canonical_json(envelope["result"])
            )
            print("oracle:", kind, workload, model, file=sys.stderr)
    return {
        "kind": ORACLE_KIND,
        "generated_under": REFERENCE_ENV,
        "canonical_json": "json.dumps(sort_keys=True, separators=(',', ':'))",
        "cells": cells,
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--out", default=str(ORACLE_PATH), metavar="FILE")
    parser.add_argument(
        "--force", action="store_true", help="overwrite an existing file"
    )
    args = parser.parse_args(argv)
    if os.path.exists(args.out) and not args.force:
        print(
            "error: {} exists; pass --force to overwrite it".format(args.out),
            file=sys.stderr,
        )
        return 2
    payload = generate()
    with open(args.out, "w") as handle:
        json.dump(payload, handle, indent=1, sort_keys=True)
        handle.write("\n")
    print("wrote {} ({} cells)".format(args.out, len(payload["cells"])))
    return 0


if __name__ == "__main__":
    sys.exit(main())
