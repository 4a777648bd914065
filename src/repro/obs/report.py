"""Report artifacts: RunStats serialization, blame tables, experiment JSON.

This module is the single serializer for run results — ``repro run
--json``, ``repro compare --json``, ``repro trace``'s metrics sidecar
and ``experiments.runner --out`` all go through it, so every artifact
speaks the same schema.

The *blame* view is modelled on ``systemd-analyze blame`` /
``cloud-init analyze blame``: one line per unit, worst first, with the
time attribution that explains *why* it cost that much.  Here the units
are kernels (simulated time split into queue wait / launch overhead /
dependency stall / execution / in-order completion drain) and, when a
tracer was attached, launch-time pipeline phases (real wall clock).
"""

import json
import os
import sys
import tempfile


def is_number(value):
    """A JSON number: an int or float, but not a bool (the report
    validators' one numeric-field check)."""
    return isinstance(value, (int, float)) and not isinstance(value, bool)


def atomic_write_text(text, path):
    """The one file writer behind every ``--out``/``-o`` artifact flag.

    Creates missing parent directories, writes to a temporary file in
    the destination directory, then atomically renames it into place —
    so a crashed run never leaves a truncated report, and
    ``--out deep/new/dir/file`` just works instead of raising a bare
    ``FileNotFoundError``.  Returns ``path``.
    """
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp_path = tempfile.mkstemp(
        prefix="." + os.path.basename(path) + ".", dir=directory
    )
    try:
        with os.fdopen(fd, "w") as handle:
            handle.write(text)
        os.replace(tmp_path, path)
    except BaseException:
        try:
            os.unlink(tmp_path)
        except OSError:
            pass
        raise
    return path


def dump_json(payload, destination, indent=2, sort_keys=True):
    """The one JSON writer: ``-`` for stdout, else a file path.

    Shared by the CLI ``--json`` flags and the bench report writer so
    every artifact is serialized the same way (stable key order,
    trailing newline).  Returns ``destination``.
    """
    text = json.dumps(payload, indent=indent, sort_keys=sort_keys)
    if destination == "-":
        sys.stdout.write(text + "\n")
    else:
        atomic_write_text(text + "\n", destination)
    return destination


def write_text(text, destination=None):
    """The one *text*-report writer behind the ``--out FILE`` flags.

    ``None`` or ``-`` prints to stdout (the historical behavior of
    ``trace``/``blame``/``critpath``); a path writes the report there
    and confirms with the same ``wrote <path>`` line the JSON flags
    use.  Returns ``destination``.
    """
    if not text.endswith("\n"):
        text += "\n"
    if destination in (None, "-"):
        sys.stdout.write(text)
    else:
        atomic_write_text(text, destination)
        print("wrote", destination)
    return destination


# ----------------------------------------------------------------------
# RunStats serialization
# ----------------------------------------------------------------------
def tb_record_dict(tb):
    return {
        "kernel_index": tb.kernel_index,
        "tb_id": tb.tb_id,
        "sm": tb.sm,
        "ready_ns": tb.ready_ns,
        "start_ns": tb.start_ns,
        "finish_ns": tb.finish_ns,
        "stall_ns": tb.stall_ns,
    }


def kernel_record_dict(kr):
    return {
        "index": kr.index,
        "name": kr.name,
        "num_tbs": kr.num_tbs,
        "stream": kr.stream,
        "queued_ns": kr.queued_ns,
        "launch_begin_ns": kr.launch_begin_ns,
        "resident_ns": kr.resident_ns,
        "first_tb_start_ns": kr.first_tb_start_ns,
        "all_tbs_done_ns": kr.all_tbs_done_ns,
        "completed_ns": kr.completed_ns,
    }


def run_stats_dict(stats, include_tb_records=False):
    """Serialize a :class:`~repro.sim.stats.RunStats` to plain data."""
    q1, median, q3 = stats.stall_quartiles()
    payload = {
        "model": stats.model,
        "application": stats.application,
        "makespan_ns": stats.makespan_ns,
        "makespan_us": stats.makespan_ns / 1e3,
        "busy_ns": stats.busy_ns,
        "concurrency_integral": stats.concurrency_integral,
        "avg_tb_concurrency": stats.avg_tb_concurrency(),
        "num_tbs": len(stats.tb_records),
        "stall_quartiles": {"q1": q1, "median": median, "q3": q3},
        "kernel_memory_requests": stats.kernel_memory_requests,
        "dependency_memory_requests": stats.dependency_memory_requests,
        "memory_overhead_fraction": stats.memory_overhead_fraction(),
        "graph_plain_bytes": stats.graph_plain_bytes,
        "graph_encoded_bytes": stats.graph_encoded_bytes,
        "storage_ratio": stats.storage_ratio(),
        "counters": dict(stats.counters),
        "kernels": [kernel_record_dict(kr) for kr in stats.kernel_records],
    }
    if include_tb_records:
        payload["tb_records"] = [tb_record_dict(tb) for tb in stats.tb_records]
    return payload


# ----------------------------------------------------------------------
# blame
# ----------------------------------------------------------------------
def kernel_blame_rows(stats):
    """Per-kernel simulated-time attribution, worst total first.

    Phases partition each kernel's queued→completed lifetime:

    * ``queue_ns``  — enqueued, waiting for its pre-launch window slot
    * ``launch_ns`` — launch overhead (API + device-side setup)
    * ``stall_ns``  — resident but no thread block dispatched yet
      (waiting on producer blocks / barriers / SM slots)
    * ``exec_ns``   — first TB start to last TB finish
    * ``drain_ns``  — all TBs done, waiting for in-order completion
    """
    rows = []
    for kr in stats.kernel_records:
        first = kr.first_tb_start_ns or kr.resident_ns
        row = {
            "index": kr.index,
            "name": kr.name,
            "stream": kr.stream,
            "num_tbs": kr.num_tbs,
            "queue_ns": max(0.0, kr.launch_begin_ns - kr.queued_ns),
            "launch_ns": max(0.0, kr.resident_ns - kr.launch_begin_ns),
            "stall_ns": max(0.0, first - kr.resident_ns),
            "exec_ns": max(0.0, kr.all_tbs_done_ns - first),
            "drain_ns": max(0.0, kr.completed_ns - kr.all_tbs_done_ns),
            "total_ns": max(0.0, kr.completed_ns - kr.queued_ns),
        }
        rows.append(row)
    rows.sort(key=lambda row: (-row["total_ns"], row["index"]))
    return rows


def _us(ns):
    return "{:10.3f}us".format(ns / 1e3)


def format_blame(stats, tracer=None, limit=None):
    """Render the blame report for one run (plus plan phases if traced)."""
    lines = [
        "-- simulated time per kernel ({}: {}, makespan {:.1f}us) --".format(
            stats.model, stats.application, stats.makespan_ns / 1e3
        )
    ]
    rows = kernel_blame_rows(stats)
    shown = rows if limit is None else rows[:limit]
    for row in shown:
        lines.append(
            "  {} (k{:02d}/{})  queue {}  launch {}  stall {}  exec {}"
            "  drain {}".format(
                _us(row["total_ns"]),
                row["index"],
                row["name"],
                _us(row["queue_ns"]).strip(),
                _us(row["launch_ns"]).strip(),
                _us(row["stall_ns"]).strip(),
                _us(row["exec_ns"]).strip(),
                _us(row["drain_ns"]).strip(),
            )
        )
    if limit is not None and len(rows) > limit:
        lines.append("  ... {} more kernels".format(len(rows) - limit))
    totals = {
        key: sum(row[key] for row in rows)
        for key in ("queue_ns", "launch_ns", "stall_ns", "exec_ns", "drain_ns")
    }
    lines.append(
        "  totals: queue {}  launch {}  stall {}  exec {}  drain {}".format(
            *(
                _us(totals[key]).strip()
                for key in ("queue_ns", "launch_ns", "stall_ns", "exec_ns", "drain_ns")
            )
        )
    )
    q1, median, q3 = stats.stall_quartiles()
    lines.append(
        "  per-TB dependency stall (normalized): q1={:.2f} median={:.2f} "
        "q3={:.2f}".format(q1, median, q3)
    )
    if tracer is not None and tracer.enabled:
        phase_rows = tracer.wall_phase_totals()
        if phase_rows:
            lines.append("")
            lines.append("-- host wall clock per pipeline phase --")
            for name, total_us, count in phase_rows:
                lines.append(
                    "  {:10.3f}ms ({})  x{}".format(total_us / 1e3, name, count)
                )
    return "\n".join(lines)


def blame_payload(stats, tracer=None, limit=None):
    """Machine-readable form of :func:`format_blame` (``blame --json``)."""
    rows = kernel_blame_rows(stats)
    if limit is not None:
        rows = rows[:limit]
    q1, median, q3 = stats.stall_quartiles()
    payload = {
        "kind": "repro-blame-report",
        "workload": stats.application,
        "model": stats.model,
        "makespan_ns": stats.makespan_ns,
        "stall_quartiles": {"q1": q1, "median": median, "q3": q3},
        "kernels": rows,
    }
    if tracer is not None and getattr(tracer, "enabled", False):
        payload["wall_phases"] = [
            {"name": name, "total_us": total, "count": count}
            for name, total, count in tracer.wall_phase_totals()
        ]
    return payload


def trace_summary_payload(stats, tracer, trace_path, metrics_path):
    """Machine-readable summary printed by ``trace --json``."""
    return {
        "kind": "repro-trace-summary",
        "workload": stats.application,
        "model": stats.model,
        "makespan_ns": stats.makespan_ns,
        "num_events": len(tracer),
        "trace": trace_path,
        "metrics": metrics_path,
    }


# ----------------------------------------------------------------------
# experiment report artifacts
# ----------------------------------------------------------------------
def jsonable(value):
    """Best-effort conversion of experiment rows to JSON-safe data."""
    if isinstance(value, dict):
        return {str(key): jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(item) for item in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    return str(value)


def write_experiment_report(out_dir, name, rows, elapsed_s):
    """Write one experiment's rows as ``<out_dir>/<name>.json``."""
    path = os.path.join(out_dir, "{}.json".format(name))
    payload = {
        "experiment": name,
        "elapsed_s": elapsed_s,
        "rows": jsonable(rows),
    }
    atomic_write_text(json.dumps(payload, indent=2), path)
    return path
