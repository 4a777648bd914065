"""Engine edge cases: degenerate apps, tiny devices, deadlock freedom."""

import pytest

from repro.core.policy import SchedulingPolicy
from repro.core.runtime import BlockMaestroRuntime
from repro.models import BlockMaestroModel, EngineDrainError, SerializedBaseline
from repro.models.base import ExecutionEngine
from repro.sim.config import GPUConfig
from repro.workloads.base import AppBuilder
from repro.workloads import ptxgen

from tests.conftest import PRODUCE_SRC, make_chain_app


def single_kernel_app(tbs=2, block=8):
    b = AppBuilder("one")
    a = b.alloc("A", tbs * block * 4)
    out = b.alloc("O", tbs * block * 4)
    b.h2d(a)
    b.launch(PRODUCE_SRC, grid=tbs, block=block, args={"IN0": a, "OUT": out})
    b.d2h(out)
    return b.build()


class TestDegenerateApps:
    def test_single_kernel(self):
        app = single_kernel_app()
        rt = BlockMaestroRuntime()
        for reorder, window, model in (
            (False, 1, SerializedBaseline()),
            (True, 4, BlockMaestroModel(window=4)),
        ):
            stats = model.run(rt.plan(app, reorder=reorder, window=window))
            assert len(stats.kernel_records) == 1
            stats.validate_invariants()

    def test_single_tb_kernels(self):
        app = make_chain_app(num_pairs=2, tbs=1, block=1, name="tiny")
        rt = BlockMaestroRuntime()
        stats = BlockMaestroModel(window=3).run(
            rt.plan(app, reorder=True, window=3)
        )
        assert len(stats.tb_records) == 4
        stats.validate_invariants()

    def test_window_larger_than_kernel_count(self):
        app = make_chain_app(num_pairs=1, tbs=2, block=8, name="wide")
        rt = BlockMaestroRuntime()
        stats = BlockMaestroModel(window=16).run(
            rt.plan(app, reorder=True, window=16)
        )
        stats.validate_invariants()

    def test_app_without_copies(self):
        b = AppBuilder("nocopy")
        a = b.alloc("A", 256)
        out = b.alloc("O", 256)
        b.launch(PRODUCE_SRC, grid=1, block=8, args={"IN0": a, "OUT": out})
        app = b.build()
        rt = BlockMaestroRuntime()
        stats = SerializedBaseline().run(rt.plan(app, reorder=False, window=1))
        assert stats.makespan_ns > 0


class TestTinyDevice:
    """A 1-SM, 1-slot device: maximal contention, no deadlock."""

    def _config(self):
        return GPUConfig(num_sms=1, max_tbs_per_sm=1, max_threads_per_sm=64)

    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    def test_no_deadlock_under_contention(self, policy):
        config = self._config()
        app = make_chain_app(num_pairs=3, tbs=4, block=64, name="squeeze")
        rt = BlockMaestroRuntime(config)
        plan = rt.plan(app, reorder=True, window=4)
        stats = BlockMaestroModel(config, window=4, policy=policy).run(plan)
        stats.validate_invariants()
        assert len(stats.tb_records) == 6 * 4

    def test_serial_device_serializes_everything(self):
        config = self._config()
        app = make_chain_app(num_pairs=1, tbs=4, block=64, name="serial")
        rt = BlockMaestroRuntime(config)
        stats = BlockMaestroModel(
            config, window=2, policy=SchedulingPolicy.CONSUMER_PRIORITY
        ).run(rt.plan(app, reorder=True, window=2))
        # only one slot: thread blocks never overlap
        intervals = sorted(
            (tb.start_ns, tb.finish_ns) for tb in stats.tb_records
        )
        for (s1, f1), (s2, _f2) in zip(intervals, intervals[1:]):
            assert s2 >= f1 - 1e-6

    def test_consumer_priority_cannot_starve_producer_forever(self):
        """Paper Section III-D: no permanent deadlock — unready consumer
        blocks cannot hold slots, so producers always make progress."""
        config = self._config()
        app = make_chain_app(num_pairs=2, tbs=8, block=64, name="starve")
        rt = BlockMaestroRuntime(config)
        stats = BlockMaestroModel(
            config, window=4, policy=SchedulingPolicy.CONSUMER_PRIORITY
        ).run(rt.plan(app, reorder=True, window=4))
        for kr in stats.kernel_records:
            assert kr.completed_ns > 0


class TestMixedBlockSizes:
    def test_different_block_sizes_share_device(self):
        b = AppBuilder("mixed")
        elems = 16 * 256
        a = b.alloc("A", elems * 4)
        mid = b.alloc("M", elems * 4)
        out = b.alloc("O", elems * 4)
        b.h2d(a)
        k = ptxgen.elementwise("mixed_k", num_inputs=1, alu=1)
        b.launch(k, grid=16, block=256, args={"IN0": a, "OUT": mid})
        b.launch(k, grid=64, block=64, args={"IN0": mid, "OUT": out})
        app = b.build()
        rt = BlockMaestroRuntime()
        plan = rt.plan(app, reorder=True, window=2)
        # 16 parents -> 64 children: 1-to-n style fan-out
        assert plan.kernels[1].graph.max_parent_out_degree() >= 4
        stats = BlockMaestroModel(window=2).run(plan)
        stats.validate_invariants()

    def test_occupancy_limited_blocks(self):
        config = GPUConfig(num_sms=2, max_threads_per_sm=1024)
        app = make_chain_app(num_pairs=1, tbs=8, block=1024, name="occ")
        rt = BlockMaestroRuntime(config)
        stats = SerializedBaseline(config).run(
            rt.plan(app, reorder=False, window=1)
        )
        # 1024-thread blocks: one per SM; 8 blocks run in 4 waves
        assert stats.avg_tb_concurrency() <= 2.01


class _GateNeverOpens(ExecutionEngine):
    def _tb_eligible(self, ki):
        return False  # no kernel ever releases a TB


class _UnmetParent(ExecutionEngine):
    def _init_fine_grain(self):
        super()._init_fine_grain()
        # cons0's tb 2 waits on one parent finish that never arrives:
        # the kernel stalls part-dispatched in the scheduler's lists
        self.kernels[1].pending_counters[2] += 1


def _drain_error(engine_cls, policy):
    model = BlockMaestroModel(window=2, policy=policy)
    app = make_chain_app(num_pairs=2, tbs=4, block=32, name="drain")
    plan = BlockMaestroRuntime(model.gpu_config).plan(
        app, reorder=True, window=2
    )
    with pytest.raises(EngineDrainError) as excinfo:
        engine_cls(plan, model.gpu_config, model.options()).run()
    return excinfo.value


def _kernel_rows(err):
    return [
        (row["index"], row["finished"], row["unreleased"])
        for row in err.details["kernels"]
    ]


def _stuck_tbs(err):
    return [
        [
            (tb["tb"], tb.get("pending_parents"), tb.get("unmet_parents"))
            for tb in row["stuck_tbs"]
        ]
        for row in err.details["kernels"]
    ]


class TestDrainDiagnosticsPinned:
    """A non-draining plan raises the same :class:`EngineDrainError`,
    with the same ``unreleased``/``stuck_tbs`` rows, as the engine did
    before its scheduler bookkeeping became incremental."""

    ALL_WAITING = [(0, 1, [0]), (1, 1, [1]), (2, 1, [2]), (3, 1, [3])]

    @pytest.mark.parametrize("policy", list(SchedulingPolicy))
    def test_gate_never_opens(self, policy):
        err = _drain_error(_GateNeverOpens, policy)
        assert str(err) == (
            "event queue drained with work still outstanding: "
            "k0 prod0 (0/4 TBs finished, 4 unreleased; kernel-level gate "
            "never opened); k1 cons0 (0/4 TBs finished, 4 unreleased; "
            "tb 0 waits on 1 parents, e.g. [0]); k2 prod1 (0/4 TBs "
            "finished, 4 unreleased; tb 0 waits on 1 parents, e.g. [0]); "
            "k3 cons1 (0/4 TBs finished, 4 unreleased; tb 0 waits on 1 "
            "parents, e.g. [0]); calls [4, 5, 6, 7, 8] incomplete"
        )
        assert err.details["calls"] == [4, 5, 6, 7, 8]
        assert _kernel_rows(err) == [(k, 0, 4) for k in range(4)]
        assert _stuck_tbs(err) == [
            [(tb, None, None) for tb in range(4)]
        ] + [self.ALL_WAITING] * 3

    def test_unmet_parent_consumer_priority(self):
        err = _drain_error(
            _UnmetParent, SchedulingPolicy.CONSUMER_PRIORITY
        )
        assert str(err) == (
            "event queue drained with work still outstanding: "
            "k1 cons0 (3/4 TBs finished, 1 unreleased; tb 2 waits on 1 "
            "parents, e.g. []); k2 prod1 (3/4 TBs finished, 1 unreleased; "
            "tb 2 waits on 1 parents, e.g. [2]); k3 cons1 (0/4 TBs "
            "finished, 4 unreleased; tb 0 waits on 0 parents, e.g. []); "
            "calls [5, 6, 7, 8] incomplete"
        )
        assert err.details["calls"] == [5, 6, 7, 8]
        assert _kernel_rows(err) == [(1, 3, 1), (2, 3, 1), (3, 0, 4)]
        assert _stuck_tbs(err) == [
            [(2, 1, [])],
            [(2, 1, [2])],
            [(0, 0, []), (1, 0, []), (2, 1, [2]), (3, 0, [])],
        ]

    def test_unmet_parent_producer_priority(self):
        """The part-dispatched kernel holds the producer gate shut, so
        prod1 never dispatches at all."""
        err = _drain_error(
            _UnmetParent, SchedulingPolicy.PRODUCER_PRIORITY
        )
        assert str(err) == (
            "event queue drained with work still outstanding: "
            "k1 cons0 (3/4 TBs finished, 1 unreleased; tb 2 waits on 1 "
            "parents, e.g. []); k2 prod1 (0/4 TBs finished, 4 unreleased; "
            "tb 0 waits on 0 parents, e.g. []); k3 cons1 (0/4 TBs "
            "finished, 4 unreleased; tb 0 waits on 1 parents, e.g. [0]); "
            "calls [5, 6, 7, 8] incomplete"
        )
        assert err.details["calls"] == [5, 6, 7, 8]
        assert _kernel_rows(err) == [(1, 3, 1), (2, 0, 4), (3, 0, 4)]
        assert _stuck_tbs(err) == [
            [(2, 1, [])],
            [(0, 0, []), (1, 0, []), (2, 1, [2]), (3, 0, [])],
            self.ALL_WAITING,
        ]


class TestPublicAPI:
    def test_top_level_exports(self):
        import repro

        assert repro.__version__
        for name in repro.__all__:
            assert getattr(repro, name, None) is not None or name == "__version__"

    def test_quick_tour_compiles(self):
        import repro

        builder = repro.AppBuilder("tour")
        x = builder.alloc("X", 4096)
        y = builder.alloc("Y", 4096)
        builder.h2d(x)
        builder.launch(
            PRODUCE_SRC, grid=4, block=32, args={"IN0": x, "OUT": y}
        )
        app = builder.build()
        runtime = repro.BlockMaestroRuntime()
        plan = runtime.plan(app, reorder=True, window=2)
        assert isinstance(plan, repro.RuntimePlan)
