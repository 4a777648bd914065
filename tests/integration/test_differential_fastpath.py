"""Differential harness: the graph fast path must change nothing.

The :mod:`repro.analysis.fastpath` tiers are pure wall-clock
optimizations over the scalar reference builder — by construction they
may not perturb a single edge.  Two gates:

* **graph identity** — for every registry workload (small variants) and
  every hazard set, the graph each tier produces for every consecutive
  kernel pair must be ``==`` the reference builder's, and the tier must
  be the one ``auto`` mode advertises through the metrics counters;
* **signature identity** — a full simulation pass under ``auto`` must
  produce byte-identical :meth:`RunStats.simulated_signature` output to
  one under ``REPRO_FASTPATH=reference``.
"""

import json

import pytest

from repro.analysis.fastpath import build_graph_fast
from repro.core.dependency_graph import build_bipartite_graph
from repro.core.runtime import BlockMaestroRuntime
from repro.obs.metrics import MetricsRegistry
from repro.workloads import all_workloads, get_workload

HAZARD_SETS = (("raw",), ("raw", "waw"), ("raw", "war", "waw"))


def _kernel_pairs(app, hazards):
    """Consecutive same-stream kernel summary pairs of ``app``."""
    runtime = BlockMaestroRuntime(hazards=hazards)
    plan = runtime.plan(app)
    pairs = []
    for kernel in plan.kernels:
        if kernel.chain_prev is None:
            continue
        pairs.append(
            (plan.kernels[kernel.chain_prev].summary, kernel.summary)
        )
    return pairs


@pytest.mark.parametrize("hazards", HAZARD_SETS, ids=["-".join(h) for h in HAZARD_SETS])
@pytest.mark.parametrize("wname", [s.name for s in all_workloads()])
def test_every_tier_matches_reference(wname, hazards):
    app = get_workload(wname).build_small()
    for parent, child in _kernel_pairs(app, hazards):
        oracle = build_bipartite_graph(parent, child, hazards)
        for mode in ("auto", "closed_form", "vectorized", "reference"):
            graph, tier = build_graph_fast(
                parent, child, hazards=hazards, mode=mode
            )
            assert graph == oracle, (wname, hazards, mode, tier)


@pytest.mark.parametrize("wname", ["fft", "gaussian", "lud", "nw"])
def test_simulated_signature_identical_across_modes(wname, monkeypatch):
    """End to end: fast path vs reference, signatures byte-identical."""
    from repro.experiments.common import _make_model

    spec = get_workload(wname)
    signatures = {}
    for mode in ("auto", "reference"):
        monkeypatch.setenv("REPRO_FASTPATH", mode)
        app = spec.build_small()
        runtime = BlockMaestroRuntime(metrics=MetricsRegistry())
        plan = runtime.plan(app)
        model = _make_model("consumer3", runtime.config)
        stats = model.run(plan)
        signatures[mode] = json.dumps(
            stats.simulated_signature(), sort_keys=True
        )
    assert signatures["auto"] == signatures["reference"]


def test_auto_mode_uses_fast_tiers_on_registry():
    """The counters must show fast tiers actually serving real work."""
    fast_totals = {"closed_form": 0, "vectorized": 0, "reference": 0}
    for spec in all_workloads():
        metrics = MetricsRegistry()
        runtime = BlockMaestroRuntime(metrics=metrics, fastpath="auto")
        runtime.plan(spec.build_small())
        for name, value in metrics.snapshot()["counters"].items():
            prefix = "analysis.fastpath."
            if name.startswith(prefix):
                fast_totals[name[len(prefix):]] += int(value)
    assert fast_totals["closed_form"] > 0
    assert fast_totals["vectorized"] > 0
