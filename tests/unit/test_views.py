"""The one observer seam: critpath, journal and telemetry as views of
one engine event stream, attached by one observed pass per run."""

import pytest

from repro.bench import resolve_config, run_suite
from repro.experiments.common import _make_model
from repro.fuzz.runner import check_case
from repro.models import base
from repro.obs.journal import EDGE_KINDS
from repro.obs.views import VIEWS, observe_plan, observe_workload
from repro.workloads.ptxgen import FuzzSpec

from tests.conftest import make_chain_app


@pytest.fixture
def observed_runs(monkeypatch):
    """The observer classes of every scalar-engine run, in order."""
    runs = []
    run = base.ExecutionEngine.run

    def recording(engine):
        runs.append(tuple(type(o).__name__ for o in engine._observers))
        return run(engine)

    monkeypatch.setattr(base.ExecutionEngine, "run", recording)
    return runs


@pytest.fixture
def edge_calls(monkeypatch):
    calls = []
    build = base.edge_fields

    def counting(ctx):
        calls.append(ctx)
        return build(ctx)

    monkeypatch.setattr(base, "edge_fields", counting)
    return calls


@pytest.fixture(scope="module")
def chain_plan():
    from repro.core.runtime import BlockMaestroRuntime

    app = make_chain_app(num_pairs=3, tbs=8, block=32, name="views-chain")
    return BlockMaestroRuntime().plan(app, reorder=True, window=3)


class TestEventStream:
    def test_unobserved_run_builds_no_edges(self, chain_plan, edge_calls):
        model = _make_model("consumer3", None)
        model.run(chain_plan, engine="reference")
        assert edge_calls == []

    def test_one_edge_per_edge_event(self, chain_plan, edge_calls):
        observation = observe_plan(_make_model("consumer3", None), chain_plan)
        events = observation.journal.events
        with_edge = [e for e in events if e["kind"] in EDGE_KINDS]
        assert with_edge and len(edge_calls) == len(with_edge)
        assert all("edge" in e for e in with_edge)

    def test_views_attach_exactly_what_was_asked(self, chain_plan):
        model = _make_model("consumer3", None)
        for views in ((), ("critpath",), ("journal", "telemetry"), VIEWS):
            observation = observe_plan(model, chain_plan, views)
            for name in VIEWS:
                attached = getattr(observation, name) is not None
                assert attached == (name in views)

    def test_one_pass_equals_separate_passes(self, chain_plan):
        model = _make_model("consumer3", None)
        together = observe_plan(model, chain_plan)
        alone = {
            name: observe_plan(model, chain_plan, (name,)) for name in VIEWS
        }
        assert together.critpath_report(whatif=True) == (
            alone["critpath"].critpath_report(whatif=True)
        )
        assert together.journal.digest() == alone["journal"].journal.digest()
        assert together.telemetry_report() == (
            alone["telemetry"].telemetry_report()
        )
        assert together.stats.simulated_signature() == (
            model.run(chain_plan).simulated_signature()
        )

    def test_unknown_view_raises(self, chain_plan):
        with pytest.raises(KeyError):
            observe_plan(_make_model("baseline", None), chain_plan, ("x",))


class TestOneObservedPass:
    BOTH = ("ProvenanceRecorder", "TelemetrySampler")

    def test_bench_critpath_telemetry_per_cell(self, observed_runs):
        config = resolve_config(
            filter_globs=["mvt"], models=["consumer3"], repeats=1, warmup=0,
            critpath=True, telemetry=True,
        )
        payload = run_suite(config, log=lambda *_args, **_kwargs: None)
        cells = payload["workloads"]["mvt"]["models"]
        assert sorted(cells) == ["baseline", "consumer3"]
        for cell in cells.values():
            assert "critpath" in cell and "telemetry" in cell
        assert [run for run in observed_runs if run] == [self.BOTH] * 2

    def test_fuzz_oracle_self_check(self, observed_runs):
        record = check_case(FuzzSpec.from_seed(0), modes=(), engines=())
        assert record["divergences"] == []
        assert [run for run in observed_runs if run] == [
            ("JournalRecorder",), self.BOTH,
        ]

    def test_workload_recipe_matches_registry_run(self):
        observation = observe_workload("mvt", "bm", ("journal",))
        assert observation.stats.model == "consumer3"
        assert observation.journal.application == "mvt"
        assert observation.critpath is None
