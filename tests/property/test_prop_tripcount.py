"""Property test: closed-form loop trip counts equal the concrete simulator.

Hypothesis generates canonical counted loops — the shape the analyzer's
closed-form tier certifies — over every axis the certificate admits:

* ``init`` positive or negative, optionally offset by ``%tid.x`` so the
  corners of the thread range bind it to different values;
* ``step`` as a nonzero immediate, as ``%ntid.x``, or as a register
  loaded from a parameter (either sign);
* ``bound`` as an immediate, a parameter register or a special register;
* all eight ordered compares, with the induction on either side;
* a plain or negated latch guard;
* the ``add`` before or after the ``setp``.

The iteration caps are drawn small too, so loops that never exit — and
exits just past a cap — are checked as often as ordinary ones.  At every
corner the closed form must prove the count (never decline) and equal
``_simulate_loop``; the two tiers' kernel summaries must be identical.

A second strategy bounds the loop by ``%ctaid.x``: the analyzer's trip
count must then be the maximum over every block of the grid.
"""

from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import analyzer
from repro.analysis.affine import CTAID
from repro.analysis.analyzer import LaunchConfig, _Interpreter, analyze_kernel
from repro.ptx.parser import parse_kernel

from tests.conftest import trip_corner_counts

COMPARES = ("lt", "le", "gt", "ge", "lo", "ls", "hi", "hs")

LOOP_TEMPLATE = """
.visible .entry counted (.param .u64 A, .param .s32 S, .param .s32 B)
{{
    ld.param.u64 %rdA, [A];
    ld.param.s32 %rS, [S];
    ld.param.s32 %rB, [B];
    mov.u32 %r1, %ctaid.x;
    mad.lo.u32 %r2, %r1, %ntid.x, %tid.x;
    {init}
LOOP:
    {add_before}
    mul.wide.u32 %rd1, %r2, 4;
    add.u64 %rd2, %rdA, %rd1;
    st.global.f32 [%rd2], 0.0;
    setp.{cmp}.s32 %p, {lhs}, {rhs};
    {add_after}
    @{neg}%p bra LOOP;
    ret;
}}
"""


@st.composite
def counted_loops(draw):
    init = draw(st.integers(-40, 40))
    if draw(st.booleans()):
        init_line = "add.s32 %k, %tid.x, {};".format(init)
    else:
        init_line = "mov.s32 %k, {};".format(init)
    step_kind = draw(st.sampled_from(("imm", "ntid", "param")))
    step_value = draw(st.integers(-5, 5).filter(bool))
    step = {"imm": str(step_value), "ntid": "%ntid.x", "param": "%rS"}[step_kind]
    bound = draw(st.sampled_from(
        ("imm", "%rB", "%tid.x", "%ntid.x", "%ctaid.x")
    ))
    if bound == "imm":
        bound = str(draw(st.integers(-40, 40)))
    lhs, rhs = "%k", bound
    if draw(st.booleans()):
        lhs, rhs = rhs, lhs
    add = "add.s32 %k, %k, {};".format(step)
    add_first = draw(st.booleans())
    source = LOOP_TEMPLATE.format(
        init=init_line,
        add_before=add if add_first else "",
        add_after="" if add_first else add,
        cmp=draw(st.sampled_from(COMPARES)),
        lhs=lhs,
        rhs=rhs,
        neg="!" if draw(st.booleans()) else "",
    )
    launch = LaunchConfig.create(
        grid=draw(st.integers(1, 4)),
        block=draw(st.integers(1, 8)),
        args={"A": 0, "S": step_value, "B": draw(st.integers(-40, 40))},
    )
    # one small cap at a time cuts some exits short, right at the cap;
    # the roomy pair lets every finite loop here (at most ~90 trips of
    # 6 instructions) run to its exit
    roomy = (1000, 8000)
    caps = draw(st.one_of(
        st.tuples(st.integers(0, 100), st.just(roomy[1])),
        st.tuples(st.just(roomy[0]), st.integers(0, 600)),
        st.just(roomy),
    ))
    return parse_kernel(source), launch, caps


def _caps(trip_cap, step_cap):
    return mock.patch.multiple(
        analyzer, TRIP_COUNT_CAP=trip_cap, STEP_CAP=step_cap
    )


@settings(max_examples=300, deadline=None)
@given(counted_loops())
def test_closed_form_equals_simulator_at_every_corner(case):
    kernel, launch, caps = case
    with _caps(*caps):
        for closed, simulated in trip_corner_counts(kernel, launch):
            assert closed is not analyzer._DECLINED
            assert closed == simulated


@settings(max_examples=100, deadline=None)
@given(counted_loops())
def test_both_tiers_give_identical_summaries(case):
    kernel, launch, caps = case
    with _caps(*caps):
        fast = analyze_kernel(kernel, launch, closed_form_trips=True)
        oracle = analyze_kernel(kernel, launch, closed_form_trips=False)
    assert fast.fallback == oracle.fallback
    assert fast.fallback_detail == oracle.fallback_detail
    assert fast.records == oracle.records
    assert fast.dynamic_mix == oracle.dynamic_mix


@st.composite
def block_bounded_loops(draw):
    """Counted up to ``%ctaid.x`` (plus an offset): each block's own
    trip count grows with its index."""
    add = "add.s32 %k, %k, {};".format(draw(st.integers(1, 3)))
    add_first = draw(st.booleans())
    source = LOOP_TEMPLATE.format(
        init="mov.s32 %k, {};".format(draw(st.integers(0, 6))),
        add_before=add if add_first else "",
        add_after="" if add_first else add,
        cmp=draw(st.sampled_from(("lt", "le"))),
        lhs="%k",
        rhs="%rC",
        neg="",
    ).replace(
        "LOOP:", "add.s32 %rC, %r1, {};\nLOOP:".format(
            draw(st.integers(0, 4))
        ),
    )
    launch = LaunchConfig.create(
        grid=draw(st.integers(1, 6)),
        block=draw(st.integers(1, 4)),
        args={"A": 0, "S": 1, "B": 0},
    )
    return parse_kernel(source), launch


@settings(max_examples=100, deadline=None)
@given(block_bounded_loops())
def test_trip_count_is_the_maximum_over_blocks(case):
    kernel, launch = case
    interp = _Interpreter(kernel, launch, max_intervals=64)
    loop = interp.loops[0]
    interp._exec_range(0, loop.header)
    state0 = dict(interp.state)
    per_block = [
        interp._simulate_loop(loop, state0, {**corner, CTAID("x"): block})
        for corner in interp._corners(state0)
        for block in range(launch.grid[0])
    ]
    assert interp._trip_count(loop, state0) == max(per_block)
