"""Bench report schema: metadata construction and structural validation.

A bench report is a single schema-versioned JSON document,
``BENCH_<UTC-timestamp>.json``, written at the repository root (or a
chosen directory).  Shape::

    {
      "kind": "repro-bench-report",
      "schema_version": 2,
      "created_utc": "2026-08-05T10:15:30Z",
      "host": {...},                # platform / python / cpu metadata
      "git": {...},                 # commit, branch, dirty flag
      "config": {...},              # repeats, warmup, models, jobs, ...
      "cache": {                    # optional: cache-enabled runs only
        "dir": "...", "counters": {"cache.summary.hits": ..., ...}
      },
      "fastpath": {                 # optional: graph-build tier census
        "mode": "auto", "counters": {"analysis.fastpath.closed_form": ...}
      },
      "engine": {                   # optional: simulation-engine tier census
        "mode": "auto", "counters": {"engine.tier.vectorized": ...}
      },
      "workloads": {
        "<workload>": {
          "models": {
            "<model>": {
              "wall": {
                "total_s": {p50, p95, max, mean, repeats},
                "phases": {"parse"|"analyze"|"encode"|"simulate": <same>}
              },
              "simulated": {"makespan_ns": ..., ...},   # zero-tolerance
              "critpath": {                             # optional: --critpath
                "attribution_ns": {...}, "attribution_fraction": {...},
                "num_segments": ...
              },
              "telemetry": {                            # optional: --telemetry
                "mean_occupancy_tbs": ..., "wavefront_efficiency": ...,
                "total_overlap_ns": ..., "idle_bubble_ns": ...,
                "pair_overlap": {"k0->k1": ...}         # zero-tolerance
              },
              "profile": [{"func", "ncalls", "tottime_s", "cumtime_s"}]
            }
          }
        }
      }
    }

Validation is structural and dependency-free (no ``jsonschema``):
:func:`validate_report` returns a list of ``"path: problem"`` strings,
empty when the document is valid.  ``repro bench diff`` and the CI
``bench-smoke`` job both gate on it.
"""

import json
import os
import subprocess
import time

SCHEMA_VERSION = 2
#: versions :func:`validate_report` accepts — v1 reports (no optional
#: "telemetry" sections) stay loadable so history remains diffable
SUPPORTED_SCHEMA_VERSIONS = (1, 2)
REPORT_KIND = "repro-bench-report"
FILE_PREFIX = "BENCH_"

#: phase keys every wall-clock block must carry (PR 1 tracer spans)
PHASE_KEYS = ("parse", "analyze", "encode", "simulate")

#: statistics every percentile block must carry
PERCENTILE_KEYS = ("p50", "p95", "max", "mean", "repeats")

#: critical-path components an optional "critpath" section may attribute
CRITPATH_COMPONENT_KEYS = (
    "exec",
    "launch",
    "dependency",
    "occupancy",
    "barrier",
    "copy",
    "host",
    "other",
)

#: numeric keys an optional "telemetry" section must carry (schema v2);
#: all derived from simulated time, so ``bench diff`` treats every one
#: as zero-tolerance drift
TELEMETRY_SUMMARY_KEYS = (
    "mean_occupancy_tbs",
    "p95_occupancy_tbs",
    "wavefront_efficiency",
    "busy_fraction",
    "total_overlap_ns",
    "mean_overlap_fraction",
    "idle_bubble_ns",
    "idle_bubble_count",
)

#: simulated metrics every model entry must carry (zero-tolerance set)
REQUIRED_SIMULATED_KEYS = (
    "makespan_ns",
    "busy_ns",
    "avg_tb_concurrency",
    "num_tbs",
    "num_kernels",
    "stall_q1",
    "stall_median",
    "stall_q3",
    "speedup_vs_baseline",
)


# ----------------------------------------------------------------------
# construction
# ----------------------------------------------------------------------
def utc_timestamp(when=None):
    """ISO-8601 UTC second-resolution stamp (``2026-08-05T10:15:30Z``)."""
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(when))


def bench_filename(when=None):
    """``BENCH_20260805T101530Z.json`` — sorts chronologically by name."""
    return "{}{}.json".format(
        FILE_PREFIX, time.strftime("%Y%m%dT%H%M%SZ", time.gmtime(when))
    )


def host_metadata():
    """Where the numbers came from — wall clock is hardware-dependent."""
    import platform

    return {
        "platform": platform.platform(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cpu_count": os.cpu_count() or 0,
    }


def _git(args, cwd):
    try:
        out = subprocess.run(
            ["git"] + args,
            cwd=cwd,
            stdout=subprocess.PIPE,
            stderr=subprocess.DEVNULL,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    if out.returncode != 0:
        return None
    return out.stdout.decode("utf-8", "replace").strip()


def git_metadata(cwd=None):
    """Commit/branch/dirty of the benchmarked tree (best effort)."""
    cwd = cwd or os.getcwd()
    commit = _git(["rev-parse", "HEAD"], cwd)
    if commit is None:
        return {"commit": None, "branch": None, "dirty": None}
    branch = _git(["rev-parse", "--abbrev-ref", "HEAD"], cwd)
    status = _git(["status", "--porcelain"], cwd)
    return {
        "commit": commit,
        "branch": branch,
        "dirty": bool(status) if status is not None else None,
    }


def load_report(path):
    """Load and validate one report; raises ``ValueError`` on problems."""
    try:
        with open(path) as handle:
            payload = json.load(handle)
    except (OSError, ValueError) as exc:
        raise ValueError("{}: {}".format(path, exc)) from None
    errors = validate_report(payload)
    if errors:
        raise ValueError(
            "{}: not a valid bench report: {}".format(path, "; ".join(errors[:5]))
        )
    return payload


# ----------------------------------------------------------------------
# validation
# ----------------------------------------------------------------------
def _is_number(value):
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def _check_percentile_block(block, where, errors):
    if not isinstance(block, dict):
        errors.append("{}: expected a percentile block, got {}".format(
            where, type(block).__name__))
        return
    for key in PERCENTILE_KEYS:
        if key not in block:
            errors.append("{}: missing {!r}".format(where, key))
        elif not _is_number(block[key]):
            errors.append("{}.{}: not a number".format(where, key))
    repeats = block.get("repeats")
    if _is_number(repeats) and repeats < 1:
        errors.append("{}.repeats: must be >= 1".format(where))


def validate_report(payload):
    """Structural validation; returns a list of problems (empty = valid)."""
    errors = []
    if not isinstance(payload, dict):
        return ["report: expected a JSON object"]
    if payload.get("kind") != REPORT_KIND:
        errors.append("kind: expected {!r}".format(REPORT_KIND))
    version = payload.get("schema_version")
    if version not in SUPPORTED_SCHEMA_VERSIONS:
        errors.append(
            "schema_version: expected one of {}, got {!r}".format(
                SUPPORTED_SCHEMA_VERSIONS, version
            )
        )
    if not isinstance(payload.get("created_utc"), str):
        errors.append("created_utc: missing or not a string")
    for section in ("host", "git", "config"):
        if not isinstance(payload.get(section), dict):
            errors.append("{}: missing or not an object".format(section))
    config = payload.get("config") or {}
    if isinstance(config, dict):
        if not isinstance(config.get("repeats"), int) or config.get("repeats", 0) < 1:
            errors.append("config.repeats: must be an int >= 1")
        if not isinstance(config.get("warmup"), int) or config.get("warmup", 0) < 0:
            errors.append("config.warmup: must be an int >= 0")
        models = config.get("models")
        if not (isinstance(models, list) and models
                and all(isinstance(m, str) for m in models)):
            errors.append("config.models: must be a non-empty list of strings")
    # optional counter sections: cache-enabled runs record the cache
    # dir, and runs where any fast-path/engine tier counter fired the mode
    for section, field in (
        ("cache", "dir"), ("fastpath", "mode"), ("engine", "mode"),
    ):
        entry = payload.get(section)
        if entry is None:
            continue
        if not isinstance(entry, dict):
            errors.append("{}: not an object".format(section))
            continue
        if not isinstance(entry.get(field), str):
            errors.append(
                "{}.{}: missing or not a string".format(section, field)
            )
        counters = entry.get("counters")
        if not isinstance(counters, dict):
            errors.append(
                "{}.counters: missing or not an object".format(section)
            )
            continue
        for name, value in counters.items():
            if not _is_number(value):
                errors.append(
                    "{}.counters.{}: not a number".format(section, name)
                )
    workloads = payload.get("workloads")
    if not isinstance(workloads, dict) or not workloads:
        errors.append("workloads: missing or empty")
        return errors
    for wname, wentry in workloads.items():
        wpath = "workloads.{}".format(wname)
        if not isinstance(wentry, dict) or not isinstance(
            wentry.get("models"), dict
        ) or not wentry["models"]:
            errors.append("{}: missing non-empty 'models' object".format(wpath))
            continue
        for mname, mentry in wentry["models"].items():
            mpath = "{}.models.{}".format(wpath, mname)
            if not isinstance(mentry, dict):
                errors.append("{}: not an object".format(mpath))
                continue
            wall = mentry.get("wall")
            if not isinstance(wall, dict):
                errors.append("{}.wall: missing or not an object".format(mpath))
            else:
                _check_percentile_block(
                    wall.get("total_s"), mpath + ".wall.total_s", errors
                )
                phases = wall.get("phases")
                if not isinstance(phases, dict):
                    errors.append("{}.wall.phases: missing".format(mpath))
                else:
                    for phase in PHASE_KEYS:
                        _check_percentile_block(
                            phases.get(phase),
                            "{}.wall.phases.{}".format(mpath, phase),
                            errors,
                        )
            simulated = mentry.get("simulated")
            if not isinstance(simulated, dict):
                errors.append("{}.simulated: missing or not an object".format(mpath))
            else:
                for key in REQUIRED_SIMULATED_KEYS:
                    if key not in simulated:
                        errors.append("{}.simulated.{}: missing".format(mpath, key))
                    elif not _is_number(simulated[key]):
                        errors.append(
                            "{}.simulated.{}: not a number".format(mpath, key)
                        )
            critpath = mentry.get("critpath")
            if critpath is not None:  # optional: --critpath runs only
                cpath = mpath + ".critpath"
                if not isinstance(critpath, dict):
                    errors.append("{}: not an object".format(cpath))
                else:
                    for section in ("attribution_ns", "attribution_fraction"):
                        block = critpath.get(section)
                        if not isinstance(block, dict):
                            errors.append(
                                "{}.{}: missing or not an object".format(
                                    cpath, section
                                )
                            )
                            continue
                        for comp, value in block.items():
                            if comp not in CRITPATH_COMPONENT_KEYS:
                                errors.append(
                                    "{}.{}.{}: unknown component".format(
                                        cpath, section, comp
                                    )
                                )
                            elif not _is_number(value):
                                errors.append(
                                    "{}.{}.{}: not a number".format(
                                        cpath, section, comp
                                    )
                                )
                    if not _is_number(critpath.get("num_segments")):
                        errors.append(
                            "{}.num_segments: missing or not a number".format(cpath)
                        )
            telemetry = mentry.get("telemetry")
            if telemetry is not None:  # optional: --telemetry runs only
                tpath = mpath + ".telemetry"
                if not isinstance(telemetry, dict):
                    errors.append("{}: not an object".format(tpath))
                else:
                    for key in TELEMETRY_SUMMARY_KEYS:
                        if key not in telemetry:
                            errors.append("{}.{}: missing".format(tpath, key))
                        elif not _is_number(telemetry[key]):
                            errors.append(
                                "{}.{}: not a number".format(tpath, key)
                            )
                    pair_overlap = telemetry.get("pair_overlap")
                    if not isinstance(pair_overlap, dict):
                        errors.append(
                            "{}.pair_overlap: missing or not an object".format(
                                tpath
                            )
                        )
                    else:
                        for pair, value in pair_overlap.items():
                            if not _is_number(value):
                                errors.append(
                                    "{}.pair_overlap.{}: not a number".format(
                                        tpath, pair
                                    )
                                )
            profile = mentry.get("profile")
            if profile is not None:
                if not isinstance(profile, list):
                    errors.append("{}.profile: not a list".format(mpath))
                else:
                    for i, row in enumerate(profile):
                        if not isinstance(row, dict) or "func" not in row \
                                or "cumtime_s" not in row:
                            errors.append(
                                "{}.profile[{}]: needs 'func' and 'cumtime_s'".format(
                                    mpath, i
                                )
                            )
    return errors
