"""Unit tests for the analyzer's closed-form loop trip counts.

The closed form certifies a loop once (``_trip_certificate``) and then
counts each corner without running it; everything it cannot prove goes
to the concrete simulator, which stays the oracle.  These tests pin the
certificate's declines, the per-corner declines, the iteration caps and
the metrics counters.
"""

import pytest

from repro.analysis import analyzer
from repro.analysis.analyzer import (
    LaunchConfig,
    _Interpreter,
    _trip_certificate,
    analyze_kernel,
)
from repro.analysis.intervals import IntervalSet
from repro.obs.metrics import MetricsRegistry
from repro.ptx.parser import parse_kernel

from tests.conftest import trip_corner_counts

LAUNCH = LaunchConfig.create(grid=2, block=4, args={"A": 0, "N": 10})
#: corners the analyzer binds in ``_kernel`` under LAUNCH: both ends of
#: the live %tid.x and %ctaid.x ranges
CORNERS = 4


def _kernel(body, init="mov.u32 %k, 0;", tail=""):
    return parse_kernel(
        """
.visible .entry loop (.param .u64 A, .param .u32 N)
{{
    ld.param.u64 %rdA, [A];
    ld.param.u32 %rN, [N];
    mov.u32 %r1, %ctaid.x;
    mad.lo.u32 %r2, %r1, %ntid.x, %tid.x;
    mul.wide.u32 %rd1, %r2, 4;
    add.u64 %rd2, %rdA, %rd1;
    {init}
LOOP:
{body}
    {tail}
    st.global.f32 [%rd2], 0.0;
    ret;
}}
""".format(init=init, body=body, tail=tail)
    )


COUNTED = """
    add.u32 %k, %k, 1;
    setp.lt.u32 %p, %k, %rN;
    @%p bra LOOP;
"""


def _tiers(kernel, launch=LAUNCH):
    """Summaries and counters of the closed-form and oracle tiers."""
    out = {}
    for closed in (True, False):
        metrics = MetricsRegistry()
        summary = analyze_kernel(
            kernel, launch, closed_form_trips=closed, metrics=metrics
        )
        out[closed] = summary, {
            name.rsplit(".", 1)[1]: value
            for name, value in metrics.snapshot()["counters"].items()
        }
    return out


def _assert_same_summary(tiers):
    (fast, _), (oracle, _) = tiers[True], tiers[False]
    assert fast.fallback == oracle.fallback
    assert fast.records == oracle.records
    assert fast.dynamic_mix == oracle.dynamic_mix


def _loop(kernel):
    return _Interpreter(kernel, LAUNCH, 64).loops[0]


class TestCertified:
    def test_counted_loop_is_certified(self):
        kernel = _kernel(COUNTED)
        cert = _trip_certificate(kernel, _loop(kernel))
        assert cert is not None
        assert cert.compare == "lt" and cert.add_first and not cert.negated

    def test_certificate_derived_once_per_loop(self, monkeypatch):
        calls = []
        derive = analyzer._trip_certificate

        def counting(kernel, loop):
            calls.append(loop.header)
            return derive(kernel, loop)

        monkeypatch.setattr(analyzer, "_trip_certificate", counting)
        tiers = _tiers(_kernel(COUNTED))
        assert tiers[True][1] == {"closed_form": CORNERS}
        assert len(calls) == 1  # four corners, one derivation

    def test_counters_and_summaries(self):
        tiers = _tiers(_kernel(COUNTED))
        _assert_same_summary(tiers)
        assert tiers[True][1] == {"closed_form": CORNERS}
        assert tiers[False][1] == {"simulated": CORNERS}

    def test_swapped_operands(self):
        kernel = _kernel(COUNTED.replace("lt.u32 %p, %k, %rN", "gt.u32 %p, %rN, %k"))
        counts = trip_corner_counts(kernel, LAUNCH)
        assert counts and all(closed == sim == 10 for closed, sim in counts)


class TestFirstCheckFails:
    """A do-while body runs once even when its exit holds on entry."""

    @pytest.mark.parametrize("closed", [True, False])
    def test_trip_is_one_on_both_tiers(self, closed):
        kernel = _kernel(COUNTED, init="mov.u32 %k, 50;")
        interp = _Interpreter(kernel, LAUNCH, 64, closed_form_trips=closed)
        loop = interp.loops[0]
        interp._exec_range(0, loop.header)
        assert interp._trip_count(loop, dict(interp.state)) == 1

    def test_counts_agree_per_corner(self):
        kernel = _kernel(COUNTED, init="mov.u32 %k, 50;")
        assert trip_corner_counts(kernel, LAUNCH) == [(1, 1)] * CORNERS


DECLINED_BODIES = {
    "guarded_add": """
    setp.eq.u32 %q, %r2, 0;
    @%q add.u32 %k, %k, 1;
    add.u32 %k, %k, 1;
    setp.lt.u32 %p, %k, %rN;
    @%p bra LOOP;
""",
    "forward_branch": """
    add.u32 %k, %k, 1;
    setp.eq.u32 %q, %r2, 0;
    @%q bra SKIP;
    add.u32 %r9, %r2, 1;
SKIP:
    setp.lt.u32 %p, %k, %rN;
    @%p bra LOOP;
""",
    "float_induction": """
    add.f32 %k, %k, 1.0;
    setp.lt.f32 %p, %k, 10.0;
    @%p bra LOOP;
""",
    "eq_exit": """
    add.u32 %k, %k, 1;
    setp.eq.u32 %p, %k, 3;
    @!%p bra LOOP;
""",
    "ne_exit": """
    add.u32 %k, %k, 1;
    setp.ne.u32 %p, %k, %rN;
    @%p bra LOOP;
""",
    "bound_written_in_body": """
    add.u32 %k, %k, 1;
    add.u32 %rN, %rN, 0;
    setp.lt.u32 %p, %k, %rN;
    @%p bra LOOP;
""",
    "unguarded_latch": """
    add.u32 %k, %k, 1;
    setp.lt.u32 %p, %k, %rN;
    bra LOOP;
""",
}


class TestDeclines:
    @pytest.mark.parametrize("name", sorted(DECLINED_BODIES))
    def test_certificate_declines(self, name):
        kernel = _kernel(DECLINED_BODIES[name])
        assert _trip_certificate(kernel, _loop(kernel)) is None

    @pytest.mark.parametrize(
        "name", sorted(set(DECLINED_BODIES) - {"unguarded_latch"})
    )
    def test_declined_loops_use_the_oracle(self, name):
        init = "mov.f32 %k, 0.0;" if name == "float_induction" else (
            "mov.u32 %k, 0;"
        )
        tiers = _tiers(_kernel(DECLINED_BODIES[name], init=init))
        _assert_same_summary(tiers)
        assert "closed_form" not in tiers[True][1]
        assert tiers[True][1] == tiers[False][1]

    def test_nested_loop_declines_outer_only(self):
        kernel = _kernel(
            """
    mov.u32 %j, 0;
INNER:
    add.u32 %j, %j, 1;
    setp.lt.u32 %q, %j, 3;
    @%q bra INNER;
""" + COUNTED
        )
        outer, inner = _Interpreter(kernel, LAUNCH, 64).loops
        assert _trip_certificate(kernel, outer) is None
        assert _trip_certificate(kernel, inner) is not None
        tiers = _tiers(kernel)
        _assert_same_summary(tiers)
        assert tiers[True][1]["simulated"] == CORNERS
        assert tiers[True][1]["closed_form"] > 0

    def test_unbound_init_declines_per_corner(self):
        # %laneid concretizes to nothing: certified, but every corner
        # goes to the simulator, which cannot bound the loop either
        kernel = _kernel(COUNTED, init="mov.u32 %k, %laneid;")
        assert _trip_certificate(kernel, _loop(kernel)) is not None
        counts = trip_corner_counts(kernel, LAUNCH)
        assert counts == [(analyzer._DECLINED, None)] * CORNERS
        tiers = _tiers(kernel)
        _assert_same_summary(tiers)
        assert tiers[True][0].fallback == "loop_bounds"
        # the first unbounded corner already decides the fallback
        assert tiers[True][1] == {"simulated": 1}

    def test_zero_step_declines_per_corner(self):
        kernel = _kernel(COUNTED.replace("%k, %k, 1", "%k, %k, 0"),
                         init="mov.u32 %k, 50;")
        assert trip_corner_counts(kernel, LAUNCH) == [
            (analyzer._DECLINED, 1)
        ] * CORNERS


class TestGridCorners:
    """A %ctaid.x symbol is bound to both ends of the grid, so a loop
    bounded by it counts the trips of the grid's last block."""

    UPTO = """
.visible .entry upto (.param .u64 A)
{
    ld.param.u64 %rdA, [A];
    mov.u32 %r1, %ctaid.x;
    mov.u32 %k, 0;
LOOP:
    mad.lo.u32 %r2, %k, %ntid.x, %tid.x;
    mul.wide.u32 %rd1, %r2, 4;
    add.u64 %rd2, %rdA, %rd1;
    ld.global.f32 %f1, [%rd2];
    add.u32 %k, %k, 1;
    setp.le.u32 %p, %k, %r1;
    @%p bra LOOP;
    ret;
}
"""

    def test_last_block_footprint(self):
        # k = 0..ctaid.x: block 3 of 4 reads four rows of four floats
        launch = LaunchConfig.create(grid=4, block=4, args={"A": 0})
        tiers = _tiers(parse_kernel(self.UPTO), launch)
        _assert_same_summary(tiers)
        summary = tiers[True][0]
        assert summary.fallback is None
        assert summary.tb_reads(3) == IntervalSet.single(0, 16 * 4)

    def test_corners_span_the_grid(self):
        launch = LaunchConfig.create(grid=4, block=4, args={"A": 0})
        counts = trip_corner_counts(parse_kernel(self.UPTO), launch)
        assert counts == [(1, 1), (4, 4)]  # ctaid.x = 0 and 3


class TestCaps:
    """Both tiers return ``None`` exactly where the simulator hits a cap."""

    BODY_LEN = 3  # add, setp, bra

    def _counts(self, monkeypatch, trips, trip_cap, step_cap):
        monkeypatch.setattr(analyzer, "TRIP_COUNT_CAP", trip_cap)
        monkeypatch.setattr(analyzer, "STEP_CAP", step_cap)
        launch = LaunchConfig.create(grid=1, block=1, args={"A": 0, "N": trips})
        return trip_corner_counts(_kernel(COUNTED), launch)

    def test_trip_cap(self, monkeypatch):
        big = 10 ** 6
        assert self._counts(monkeypatch, 20, 20, big) == [(20, 20)]
        assert self._counts(monkeypatch, 21, 20, big) == [(None, None)]

    def test_step_cap(self, monkeypatch):
        big = 10 ** 6
        steps = 20 * self.BODY_LEN
        assert self._counts(monkeypatch, 20, big, steps) == [(20, 20)]
        assert self._counts(monkeypatch, 20, big, steps - 1) == [(None, None)]

    def test_never_exiting_loop(self, monkeypatch):
        monkeypatch.setattr(analyzer, "TRIP_COUNT_CAP", 50)
        monkeypatch.setattr(analyzer, "STEP_CAP", 500)
        kernel = _kernel(COUNTED.replace("%k, %k, 1", "%k, %k, -1"))
        counts = trip_corner_counts(kernel, LAUNCH)
        assert counts == [(None, None)] * CORNERS
        tiers = _tiers(kernel)
        _assert_same_summary(tiers)
        assert tiers[True][0].fallback == "loop_bounds"
