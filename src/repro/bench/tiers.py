"""Before/after tier microbenches (``repro bench fastpath|engine``).

Each suite measures one fast path against its scalar oracle on hidden
large-grid workloads that the registry's glob matching never lists:

* ``fastpath`` — the :mod:`repro.analysis.fastpath` graph-construction
  tiers vs the scalar reference builder, one producer/consumer pair per
  Table-I pattern family
  (:func:`repro.workloads.microbench.fastpath_specs`); the win lands in
  the ``encode`` phase (the ``plan.graphs`` span);
* ``engine`` — the :mod:`repro.models.fastengine` tier vs the scalar
  event-queue engine on device-serial chains and wide grids
  (:func:`repro.workloads.microbench.engine_specs`); the win lands in
  the ``simulate`` phase (the ``model:*`` span).  ``baseline`` is always
  fast-engine eligible; ``consumer3`` only on the fully-connected
  ``eng-fc`` chain, which the report's ``engine`` counters show.

:func:`run_tier_bench` runs a suite twice, cold and without an analysis
cache — once with the suite's environment variable pinned to
``reference`` (``BENCH_before_reference.json``), once to ``auto``
(``BENCH_after_<suite>.json``) — and diffs the two reports.  The fast
paths are differential-tested to produce identical results, so the diff
must show **zero simulated drift**; any drift is a fast-path bug and is
flagged.  ``benchmarks/fastpath_demo/`` and ``benchmarks/engine_demo/``
hold committed runs.

Each suite's census answers a different question — on the registry
workloads (small variants), which tier serves what? — and its gate backs
a CI check: the closed-form analysis tier must fire on some registry
workload, and the fast engine must serve every registry and engine
microbench ``baseline`` run on the default (jittered) config.
"""

import os
from dataclasses import dataclass
from typing import Callable, Optional, Tuple

from repro.analysis.fastpath import FASTPATH_ENV
from repro.bench.diff import diff_reports, format_diff
from repro.bench.runner import BenchConfig, run_suite, write_report
from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import _make_model, _model_plan_params
from repro.models.fastengine import ENGINE_ENV
from repro.obs import MetricsRegistry
from repro.workloads import all_workloads, get_workload

BEFORE_NAME = "BENCH_before_reference.json"
DIFF_NAME = "DIFF.txt"


def _census(names, run, prefix):
    """``{workload: {counter-suffix: count}}`` for each small variant.

    ``run(app, metrics)`` drives one workload; every metrics counter
    under ``prefix`` it leaves behind is collected, prefix stripped.
    """
    census = {}
    for name in names:
        spec = get_workload(name)
        metrics = MetricsRegistry()
        run(spec.build_small(), metrics)
        census[spec.name] = {
            counter[len(prefix):]: int(value)
            for counter, value in metrics.snapshot()["counters"].items()
            if counter.startswith(prefix)
        }
    return census


def fastpath_census(hazards=("raw",)):
    """Which graph-construction tier served each registry workload's
    kernel pairs under ``auto``?  ``{workload: {tier: count}}``."""

    def plan(app, metrics):
        BlockMaestroRuntime(
            metrics=metrics, hazards=hazards, fastpath="auto"
        ).plan(app)

    names = [spec.name for spec in all_workloads()]
    return _census(names, plan, FASTPATH.prefix)


def _fastpath_gate(census):
    if not sum(tiers.get("closed_form", 0) for tiers in census.values()):
        return "closed-form tier fired on zero registry workloads"
    return None


def engine_census(model="baseline"):
    """Which engine tier simulated each workload's ``model`` run under
    ``auto`` on the default :class:`~repro.sim.config.GPUConfig`?

    Covers the registry workloads plus the engine microbenches.
    Returns ``{workload: {"tier.<t>" | "fallback.<reason>": count}}``.
    """
    reorder, window = _model_plan_params(model)

    def simulate(app, metrics):
        runtime = BlockMaestroRuntime()
        plan = runtime.plan(app, reorder=reorder, window=window)
        _make_model(model, runtime.config).run(
            plan, metrics=metrics, engine="auto"
        )

    names = [spec.name for spec in all_workloads()] + list(ENGINE.workloads)
    return _census(names, simulate, ENGINE.prefix)


def _engine_gate(census):
    declined = sorted(
        name for name, tiers in census.items()
        if not tiers.get("tier.vectorized")
    )
    if declined:
        return "the fast engine declined the baseline run of: {}".format(
            ", ".join(declined)
        )
    return None


@dataclass(frozen=True)
class TierSuite:
    """One before/after microbench: a fast path against its oracle."""

    #: ``repro bench`` subcommand, and the report section whose
    #: counters say which tier served each run
    section: str
    #: what the fast path is called in messages
    label: str
    #: metrics-counter prefix of the tier counters (census and report)
    prefix: str
    #: mode knob: an environment variable, not a call argument, because
    #: bench cells may run in forked workers, which inherit it
    env: str
    workloads: Tuple[str, ...]
    models: Tuple[str, ...]
    #: the wall-clock phase the fast path moves
    phase: str
    after_name: str
    census: Callable[[], dict]
    #: why a census fails the CI gate, or ``None``
    census_gate: Callable[[dict], Optional[str]]


FASTPATH = TierSuite(
    section="fastpath",
    label="fastpath",
    prefix="analysis.fastpath.",
    env=FASTPATH_ENV,
    workloads=("fp-1to1", "fp-stencil", "fp-nto1", "fp-fc", "fp-ngroup"),
    # simulation is not under test here — one cheap model
    models=("baseline",),
    phase="encode",
    after_name="BENCH_after_fastpath.json",
    census=fastpath_census,
    census_gate=_fastpath_gate,
)

ENGINE = TierSuite(
    section="engine",
    label="fast engine",
    prefix="engine.",
    env=ENGINE_ENV,
    workloads=("eng-chain", "eng-wide", "eng-fc"),
    models=("baseline", "consumer3"),
    phase="simulate",
    after_name="BENCH_after_engine.json",
    census=engine_census,
    census_gate=_engine_gate,
)

SUITES = {suite.section: suite for suite in (FASTPATH, ENGINE)}


def suite_config(suite, repeats=3, warmup=1, jobs=1):
    """A :class:`BenchConfig` for ``suite``.

    Built directly (not via :func:`resolve_config`) because the suite
    workloads are hidden from the registry's glob matching on purpose.
    No ``cache_dir``: every pass must be a cold analysis.
    """
    return BenchConfig(
        workloads=suite.workloads,
        models=suite.models,
        repeats=max(1, int(repeats)),
        warmup=max(0, int(warmup)),
        jobs=max(1, int(jobs)),
    )


def _run_mode(suite, mode, config, log):
    """Run the suite with its environment variable pinned to ``mode``."""
    saved = os.environ.get(suite.env)
    os.environ[suite.env] = mode
    try:
        return run_suite(config, log=log)
    finally:
        if saved is None:
            del os.environ[suite.env]
        else:
            os.environ[suite.env] = saved


def _phase_p50(payload, wname, model, phase):
    entry = payload["workloads"][wname]["models"][model]
    return entry["wall"]["phases"][phase]["p50"]


def run_tier_bench(suite, out_dir, repeats=3, warmup=1, jobs=1, log=None):
    """Before/after comparison; writes three files to ``out_dir``.

    Returns a summary dict: report paths, per-``workload/model``
    phase p50 speedups (reference / fast path), the after-run's tier
    counters (report-section prefix stripped), and ``drift`` (must be
    ``False``).
    """
    log = log if log is not None else (lambda msg: None)
    os.makedirs(out_dir, exist_ok=True)
    config = suite_config(suite, repeats=repeats, warmup=warmup, jobs=jobs)

    log("{} bench: reference pass ({} workloads x {} models)".format(
        suite.section, len(config.workloads), len(config.models)))
    before = _run_mode(suite, "reference", config, log)
    before_path = write_report(before, path=os.path.join(out_dir, BEFORE_NAME))

    log("{} bench: {} pass".format(suite.section, suite.label))
    after = _run_mode(suite, "auto", config, log)
    after_path = write_report(
        after, path=os.path.join(out_dir, suite.after_name)
    )

    result = diff_reports(before, after)
    diff_path = os.path.join(out_dir, DIFF_NAME)
    with open(diff_path, "w") as handle:
        handle.write(format_diff(result) + "\n")

    speedups = {}
    for wname in config.workloads:
        for model in config.models:
            ref = _phase_p50(before, wname, model, suite.phase)
            fast = _phase_p50(after, wname, model, suite.phase)
            key = "{}/{}".format(wname, model)
            speedups[key] = ref / fast if fast > 0 else float("inf")

    counters = after.get(suite.section, {}).get("counters", {})
    return {
        "before": before_path,
        "after": after_path,
        "diff": diff_path,
        "speedups": speedups,
        "counters": {
            name[len(suite.prefix):]: value for name, value in counters.items()
        },
        "drift": bool(result.drift),
    }


def format_census(census):
    """One line per workload: ``name  tier=count ...``."""
    lines = []
    for name in sorted(census):
        tiers = census[name]
        detail = " ".join(
            "{}={}".format(tier, tiers[tier]) for tier in sorted(tiers)
        ) or "(none)"
        lines.append("{:<12} {}".format(name, detail))
    return "\n".join(lines)
