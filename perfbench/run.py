"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 45 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 45 --trace 1

Every run first measures the untraced pass; its end-to-end metrics come
from it.  With ``--trace 1`` a second, traced pass wraps each call into
the program in a span and collects the program's own counters; the
per-layer metrics come from it, ``bench.trace_overhead_s`` is the
difference between the two passes, and a blame table lists layers by
self time.  The last line of standard output is one JSON object:
``correct``, ``attempted``, ``failed`` and ``metrics`` (the end-to-end
metrics with ``--trace 0``, the per-layer ones with ``--trace 1``).
The full record, with the seeded orders and the spans, is written
under ``.perfbench-out/``.
"""

import argparse
import json
import signal
import sys
import time
from pathlib import Path

if __package__ in (None, ""):
    sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from perfbench import bench_stats, spans  # noqa: E402
from perfbench.common import OUT_DIR, ProgramMissing, require_program  # noqa: E402
from perfbench.oracle import Tally, load_oracle  # noqa: E402

BENCHMARK_FILE = Path(__file__).resolve().parent.parent / "BENCHMARK.json"

#: each end-to-end metric under its workload-specific name
NAMED = {
    "cli-cold": {"p50_ms": "cli_p50_ms", "tail_ms": "cli_tail_ms",
                 "pass_s": "cli_pass_s", "rss_mb": "cli_rss_mb"},
    "sweep": {"p50_ms": "sweep_p50_ms", "tail_ms": "sweep_tail_ms",
              "pass_s": "sweep_s", "rss_mb": "sweep_rss_mb"},
    "serve": {"p50_ms": "serve_loaded_p50_ms",
              "tail_ms": "serve_loaded_tail_ms",
              "pass_s": "serve_cold_s", "rss_mb": "serve_rss_mb"},
}


def _declared():
    with open(BENCHMARK_FILE) as handle:
        bench = json.load(handle)
    return bench["end_to_end"], bench["per_layer"], [
        entry["name"] for entry in bench["workloads"]
    ]


def measure(name, seed, seconds, oracle, traced):
    from perfbench.workloads import WORKLOADS, RunContext

    registry = None
    if traced:
        from repro.obs import MetricsRegistry

        registry = MetricsRegistry()
    run = RunContext(
        seed=seed, seconds=seconds, oracle=oracle,
        recorder=spans.SpanRecorder() if traced else spans.NullRecorder(),
        registry=registry,
    )
    return WORKLOADS[name](run), run.recorder


def end_to_end(m):
    pass_s = bench_stats.typical_pass(m.passes)
    if m.pass_is_request:
        # the request is the pass: its median and tail are the pass
        p50_s, tail_s, tail_label, count = pass_s, pass_s, None, len(m.passes)
    else:
        p50_s = bench_stats.median(m.latencies_s)
        tail_label, tail_s, count = bench_stats.tail(m.latencies_s, m.tail_cap)
    return {
        "setup_s": bench_stats.median(m.setup_s),
        "p50_ms": p50_s * 1e3,
        "tail_ms": tail_s * 1e3,
        "pass_s": pass_s,
        "rss_mb": m.rss_mb,
    }, {"tail": tail_label, "samples": count, "passes": len(m.passes),
        "setups": len(m.setup_s)}


def per_layer(declared, untraced, traced):
    layers = {entry["name"]: 0.0 for entry in declared}
    layers.update(traced.layers)
    layers["bench.trace_overhead_s"] = bench_stats.typical_pass(
        traced.passes
    ) - bench_stats.typical_pass(untraced.passes)
    unknown = set(layers) - {entry["name"] for entry in declared}
    if unknown:
        raise RuntimeError("undeclared per-layer metrics: {}".format(sorted(unknown)))
    return layers


def _print_metrics(title, values, units):
    print("-- {} --".format(title))
    for name in sorted(values):
        print("  {:<36} {:>16.6f} {}".format(name, values[name], units[name]))


def run_workload(name, args, oracle, declared_e2e, declared_layers, record):
    e2e_units = {entry["name"]: entry["unit"] for entry in declared_e2e}
    tally = Tally()
    untraced, _recorder = measure(name, args.seed, args.seconds, oracle, False)
    tally.merge(untraced.tally)
    metrics, shape = end_to_end(untraced)
    tail = (
        "the request is the pass" if shape["tail"] is None
        else "tail {} of {} samples".format(shape["tail"], shape["samples"])
    )
    _print_metrics(
        "{} end to end (untraced; {}, {} passes)".format(
            name, tail, shape["passes"]
        ),
        metrics, e2e_units,
    )
    for key, alias in sorted(NAMED[name].items()):
        print("  {:<36} {:>16.6f} {}".format(alias, metrics[key], e2e_units[key]))
    for alias, (value, unit, note) in sorted(untraced.report.items()):
        print("  {:<36} {:>16.6f} {} {}".format(
            alias, value, unit, "(report only{})".format(", " + note if note else "")
        ))
    print("  {:<36} {:>16.6f} ratio ({} failed of {} attempted)".format(
        "failed_ratio", bench_stats.failed_ratio(tally.failed, tally.attempted),
        tally.failed, tally.attempted,
    ))
    entry = {"workload": name, "end_to_end": metrics, "shape": shape,
             "orders": untraced.orders, "latencies_s": untraced.latencies_s,
             "passes": untraced.passes, "setup_s": untraced.setup_s,
             "report": untraced.report}
    if args.trace:
        traced, recorder = measure(name, args.seed, args.seconds, oracle, True)
        tally.merge(traced.tally)
        layers = per_layer(declared_layers, untraced, traced)
        layer_units = {e["name"]: e["unit"] for e in declared_layers}
        _print_metrics("{} per layer (traced pass)".format(name), layers, layer_units)
        print(spans.format_blame(
            spans.blame(recorder.spans),
            "{} blame: self time by layer, worst first".format(name),
        ))
        entry.update(per_layer=layers, spans=recorder.spans,
                     traced_orders=traced.orders)
        metrics = layers
    for note in tally.notes:
        print("  FAILED:", note)
    entry.update(attempted=tally.attempted, failed=tally.failed, notes=tally.notes)
    record.append(entry)
    return metrics, tally, (e2e_units if not args.trace else layer_units)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # a terminated run still stops the daemons and children it started
    signal.signal(signal.SIGTERM, lambda _signum, _frame: sys.exit(143))
    try:
        require_program()
        oracle = load_oracle()
        declared_e2e, declared_layers, bounded = _declared()
    except (ProgramMissing, OSError, ValueError) as exc:
        print("error: {}".format(exc), file=sys.stderr)
        return 2
    from perfbench.workloads import WORKLOADS

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    if any(name not in WORKLOADS for name in names):
        print("error: unknown workload {!r}; choose from {} or all".format(
            args.workload, ", ".join(WORKLOADS)), file=sys.stderr)
        return 2
    started = time.perf_counter()
    record, total, results = [], Tally(), {}
    for name in names:
        if name not in bounded:
            print("note: {} is not in {}; no bound gates it (perfbench/README.md "
                  "says why)".format(name, BENCHMARK_FILE.name))
        metrics, tally, units = run_workload(
            name, args, oracle, declared_e2e, declared_layers, record
        )
        total.merge(tally)
        results[name] = {
            key: {"value": value, "unit": units[key]}
            for key, value in metrics.items()
        }
    OUT_DIR.mkdir(exist_ok=True)
    out = OUT_DIR / "{}-seed{}-trace{}.json".format(
        args.workload, args.seed, args.trace
    )
    with open(out, "w") as handle:
        json.dump({"seed": args.seed, "seconds": args.seconds,
                   "trace": args.trace, "wall_s": time.perf_counter() - started,
                   "workloads": record}, handle, indent=1, sort_keys=True)
    print("record:", out)
    print(json.dumps({
        "correct": total.failed == 0,
        "attempted": total.attempted,
        "failed": total.failed,
        "metrics": results[names[0]] if len(names) == 1 else results,
    }, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
