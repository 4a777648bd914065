"""Differential gate and census for closed-form loop trip counts.

The analyzer counts certified loops in closed form and keeps the
concrete loop simulator as the oracle.  Over every registry workload
under every roster plan parameter set (``reorder``, ``window``), and
over the seeded fuzz corpus:

* **per corner** — wherever the closed form answers, the simulator run
  on the same corner must give the same count;
* **per summary** — a ``fastpath="reference"`` runtime (simulator only)
  and an ``auto`` one must produce identical kernel summaries;
* **census** — on registry defaults the simulator serves no corner at
  all, and the closed form serves the loop-bearing workloads.
"""

import pytest

from repro.analysis import analyzer
from repro.core.runtime import BlockMaestroRuntime
from repro.experiments.common import STANDARD_MODELS
from repro.obs.metrics import MetricsRegistry
from repro.workloads import all_workloads
from repro.workloads.ptxgen import FuzzSpec, build_fuzz_app

PLAN_PARAMS = sorted({(reorder, window) for _n, _f, reorder, window in STANDARD_MODELS})

#: registry workloads whose kernels carry counted loops
LOOP_WORKLOADS = ("gramschm", "mvt", "bicg", "alexnet", "fft", "3mm")

FUZZ_SEEDS = range(200)


@pytest.fixture
def corner_mismatches(monkeypatch):
    """Run the simulator beside every closed-form corner; collect any
    corner where the two disagree."""
    mismatches = []
    closed_form = analyzer._Interpreter._closed_form_loop

    def checked(self, loop, state0, binding):
        trips = closed_form(self, loop, state0, binding)
        if trips is not analyzer._DECLINED:
            oracle = self._simulate_loop(loop, state0, binding)
            if trips != oracle:
                mismatches.append(
                    (self.kernel.name, loop.header, binding, trips, oracle)
                )
        return trips

    monkeypatch.setattr(analyzer._Interpreter, "_closed_form_loop", checked)
    return mismatches


def _summary_key(summary):
    return (
        summary.kernel_name,
        summary.launch,
        summary.fallback,
        summary.fallback_detail,
        summary.records,
        tuple(sorted(summary.dynamic_mix.items())),
    )


def _plan_summaries(app, fastpath, metrics=None):
    """Kernel summaries of ``app`` under every plan parameter set."""
    runtime = BlockMaestroRuntime(fastpath=fastpath, metrics=metrics)
    return [
        [_summary_key(k.summary) for k in runtime.plan(
            app, reorder=reorder, window=window
        ).kernels]
        for reorder, window in PLAN_PARAMS
    ]


def _tripcount_counters(metrics):
    prefix = "analysis.tripcount."
    return {
        name[len(prefix):]: value
        for name, value in metrics.snapshot()["counters"].items()
        if name.startswith(prefix)
    }


@pytest.mark.parametrize("wname", [s.name for s in all_workloads()])
def test_registry_matches_oracle(wname, corner_mismatches):
    spec = next(s for s in all_workloads() if s.name == wname)
    app = spec.build()
    metrics = MetricsRegistry()
    fast = _plan_summaries(app, "auto", metrics)
    oracle = _plan_summaries(app, "reference")
    assert corner_mismatches == []
    assert fast == oracle
    counters = _tripcount_counters(metrics)
    assert counters.get("simulated", 0) == 0, counters
    if wname in LOOP_WORKLOADS:
        assert counters.get("closed_form", 0) >= 1, counters


def test_fuzz_corpus_matches_oracle(corner_mismatches):
    metrics = MetricsRegistry()
    for seed in FUZZ_SEEDS:
        app = build_fuzz_app(FuzzSpec.from_seed(seed))
        fast = _plan_summaries(app, "auto", metrics)
        oracle = _plan_summaries(app, "reference")
        assert fast == oracle, seed
    assert corner_mismatches == []
    assert _tripcount_counters(metrics).get("closed_form", 0) >= 1


def test_reference_mode_pins_the_simulator():
    spec = next(s for s in all_workloads() if s.name == "mvt")
    metrics = MetricsRegistry()
    BlockMaestroRuntime(fastpath="reference", metrics=metrics).plan(
        spec.build()
    )
    counters = _tripcount_counters(metrics)
    assert counters.get("closed_form", 0) == 0
    assert counters["simulated"] >= 1
