"""Unit tests for the two-tier dependency-graph fast path."""

import pytest

from repro.analysis import fastpath
from repro.analysis.access import AccessRecord, TBAccessSets
from repro.analysis.analyzer import KernelSummary, LaunchConfig, analyze_kernel
from repro.analysis.fastpath import (
    FASTPATH_ENV,
    _closed_form_graph,
    _hazard_pairs,
    _linear_stride,
    _merge_closed,
    _overlap_domain,
    _vectorized_graph,
    build_graph_fast,
    resolve_fastpath_mode,
)
from repro.core.dependency_graph import (
    BipartiteGraph,
    GraphKind,
    build_bipartite_graph,
)
from repro.ptx.parser import parse_kernel

from tests.conftest import PRODUCE_SRC


def make_summary(records, grid, name="k", max_intervals=64):
    grid = tuple(grid) + (1,) * (3 - len(tuple(grid)))
    return KernelSummary(
        kernel_name=name,
        launch=LaunchConfig.create(grid, 32, {}),
        records=tuple(records),
        access_sets=TBAccessSets(
            grid=grid, records=tuple(records), max_intervals=max_intervals
        ),
    )


def record(kind, base, coeffs=(0, 0, 0), width=4, dims=(), inst=0):
    return AccessRecord.normalized(kind, inst, width, base, coeffs, dims)


def one_to_one_pair(num_tbs=8, stride=128):
    parent = make_summary(
        [record("write", 0, (stride, 0, 0), width=stride)], (num_tbs,)
    )
    child = make_summary(
        [record("read", 0, (stride, 0, 0), width=stride)], (num_tbs,)
    )
    return parent, child


class TestModeResolution:
    def test_default_auto(self, monkeypatch):
        monkeypatch.delenv(FASTPATH_ENV, raising=False)
        assert resolve_fastpath_mode(None) == "auto"

    def test_env_consulted_only_for_none(self, monkeypatch):
        monkeypatch.setenv(FASTPATH_ENV, "reference")
        assert resolve_fastpath_mode(None) == "reference"
        assert resolve_fastpath_mode("auto") == "auto"

    def test_aliases(self):
        assert resolve_fastpath_mode("CLOSED-FORM") == "closed_form"
        assert resolve_fastpath_mode(" Reference ") == "reference"

    def test_unknown_mode_raises(self):
        # the retired aliases are unknown, not silently mapped
        for bad in ("warp-speed", "", "off", "on", "scalar", "oracle"):
            with pytest.raises(ValueError):
                resolve_fastpath_mode(bad)


class TestHazardPairs:
    def test_all_pairs(self):
        assert _hazard_pairs(("raw", "waw", "war")) == [
            ("write", "read"),
            ("write", "write"),
            ("read", "write"),
        ]

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            _hazard_pairs(())


class TestLinearStride:
    def test_1d(self):
        assert _linear_stride((128, 0, 0), (8, 1, 1)) == 128

    def test_single_block_always_linear(self):
        assert _linear_stride((7, 11, 13), (1, 1, 1)) == 0

    def test_2d_row_major_match(self):
        # cy must equal k*gx for the shift to stay linear in t
        assert _linear_stride((4, 16, 0), (4, 8, 1)) == 4

    def test_2d_group_pattern_declines(self):
        # cx = 0, cy != 0: the classic n-group layout is not linear
        assert _linear_stride((0, 64, 0), (4, 8, 1)) is None

    def test_3d_match_and_mismatch(self):
        assert _linear_stride((2, 8, 32), (4, 4, 2)) == 2
        assert _linear_stride((2, 8, 33), (4, 4, 2)) is None

    def test_degenerate_x_axis(self):
        # gx == 1: the y coefficient is the stride
        assert _linear_stride((999, 8, 0), (1, 4, 1)) == 8


class TestOverlapDomain:
    def test_merge_closed_fuses_touching(self):
        assert _merge_closed([(5, 9), (0, 4), (12, 13)]) == [(0, 9), (12, 13)]

    def test_single_pair(self):
        # [0, 128) vs [0, 128) + d overlap for d in [-127, 127]
        assert _overlap_domain(((0, 128),), ((0, 128),)) == [(-127, 127)]

    def test_disjoint_windows(self):
        domain = _overlap_domain(((0, 4), (100, 104)), ((0, 4),))
        assert domain == [(-3, 3), (97, 103)]


def _assert_identical(parent, child, hazards=("raw",), budget=None):
    """Every mode must produce the same graph as the oracle."""
    kwargs = {}
    if budget is not None:
        kwargs["max_explicit_edges"] = budget
    oracle = build_bipartite_graph(
        parent, child, hazards, budget if budget is not None else 4_000_000
    )
    for mode in ("auto", "closed_form", "vectorized", "reference"):
        graph, tier = build_graph_fast(
            parent, child, hazards=hazards, mode=mode, **kwargs
        )
        assert graph == oracle, (mode, tier)
    return oracle


class TestBuildGraphFast:
    def test_one_to_one_closed_form(self):
        parent, child = one_to_one_pair()
        graph, tier = build_graph_fast(parent, child)
        assert tier == "closed_form"
        assert graph.kind is GraphKind.EXPLICIT
        assert all(graph.children(p) == (p,) for p in range(8))
        _assert_identical(parent, child)

    def test_stencil_windows(self):
        parent = make_summary([record("write", 0, (128, 0, 0), width=128)], (8,))
        child = make_summary(
            [record("read", -64, (128, 0, 0), width=256)], (8,)
        )
        graph, tier = build_graph_fast(parent, child)
        assert tier == "closed_form"
        assert graph.children(3) == (2, 3, 4)
        _assert_identical(parent, child)

    def test_zero_stride_fully_connected(self):
        parent = make_summary([record("write", 0, width=512)], (4,))
        child = make_summary([record("read", 0, width=512)], (6,))
        graph, tier = build_graph_fast(parent, child)
        assert tier == "closed_form"
        assert graph.is_fully_connected
        _assert_identical(parent, child)

    def test_zero_stride_independent(self):
        parent = make_summary([record("write", 0, width=64)], (4,))
        child = make_summary([record("read", 1 << 20, width=64)], (6,))
        graph, tier = build_graph_fast(parent, child)
        assert graph.is_independent
        assert tier == "closed_form"
        _assert_identical(parent, child)

    def test_prefilter_tier_label_in_vectorized_mode(self):
        parent = make_summary([record("write", 0, width=64)], (4,))
        child = make_summary([record("read", 1 << 20, width=64)], (6,))
        graph, tier = build_graph_fast(parent, child, mode="vectorized")
        assert graph.is_independent
        assert tier == "vectorized"

    def test_fallback_summary_is_reference_fc(self):
        parent, child = one_to_one_pair()
        broken = KernelSummary(
            kernel_name="bad",
            launch=LaunchConfig.create(8, 32, {}),
            fallback="indirect",
        )
        graph, tier = build_graph_fast(parent, broken)
        assert tier == "reference"
        assert graph.is_fully_connected

    def test_nonlinear_shift_lands_in_vectorized(self):
        # 2-D group layout: cx = 0 on the reads, so tier 1 declines
        parent = make_summary(
            [record("write", 0, (64, 256, 0), width=64)], (4, 4)
        )
        child = make_summary(
            [record("read", 0, (0, 256, 0), width=256)], (4, 4)
        )
        graph, tier = build_graph_fast(parent, child)
        assert tier == "vectorized"
        _assert_identical(parent, child)

    def test_reference_mode_bypasses_tiers(self):
        parent, child = one_to_one_pair()
        graph, tier = build_graph_fast(parent, child, mode="reference")
        assert tier == "reference"
        assert all(graph.children(p) == (p,) for p in range(8))

    def test_edge_budget_collapse_all_tiers(self):
        # radius-1 stencil: 3 edges/child interior; budget 4 collapses
        parent = make_summary([record("write", 0, (64, 0, 0), width=64)], (6,))
        child = make_summary(
            [record("read", -64, (64, 0, 0), width=192)], (6,)
        )
        oracle = _assert_identical(parent, child, budget=4)
        assert oracle.is_fully_connected

    def test_waw_and_war_hazards(self):
        parent = make_summary(
            [
                record("write", 0, (128, 0, 0), width=128),
                record("read", 1 << 16, (128, 0, 0), width=128, inst=1),
            ],
            (8,),
        )
        child = make_summary(
            [
                record("write", 1 << 16, (128, 0, 0), width=128),
                record("read", 0, (128, 0, 0), width=128, inst=1),
            ],
            (8,),
        )
        for hazards in (("raw",), ("raw", "waw"), ("raw", "war", "waw")):
            _assert_identical(parent, child, hazards=hazards)

    def test_bounded_expansion_matches_oracle(self):
        # dims force the > max_intervals bounding-interval fallback
        rec = record(
            "write", 0, (4096, 0, 0), width=4, dims=((512, 8), (64, 8))
        )
        parent = make_summary([rec], (4,), max_intervals=4)
        child = make_summary(
            [record("read", 0, (4096, 0, 0), width=4096)], (4,),
            max_intervals=4,
        )
        _assert_identical(parent, child)

    def test_negative_stride_records(self):
        parent = make_summary(
            [record("write", 1 << 16, (-128, 0, 0), width=128)], (8,)
        )
        child = make_summary(
            [record("read", 1 << 16, (-128, 0, 0), width=128)], (8,)
        )
        oracle = _assert_identical(parent, child)
        assert oracle.num_edges == 8

    def test_mismatched_strides_within_kernel_decline_tier1(self):
        parent = make_summary(
            [
                record("write", 0, (128, 0, 0), width=128),
                record("write", 1 << 20, (64, 0, 0), width=64, inst=1),
            ],
            (8,),
        )
        child = make_summary([record("read", 0, (128, 0, 0), width=128)], (8,))
        pairs = _hazard_pairs(("raw",))
        assert _closed_form_graph(parent, child, pairs, 4_000_000) is None
        _assert_identical(parent, child)


class TestVectorizedInternals:
    def test_huge_grid_product_declines(self):
        parent, child = one_to_one_pair()
        big = KernelSummary(
            kernel_name="big",
            launch=LaunchConfig.create((1 << 31, 1 << 31, 1), 32, {}),
            access_sets=TBAccessSets(
                grid=(1 << 31, 1 << 31, 1), records=parent.access_sets.records
            ),
        )
        pairs = _hazard_pairs(("raw",))
        assert _vectorized_graph(big, big, pairs, 4_000_000) is None

    def test_overflow_risk_declines(self):
        near = (1 << 62) - 1
        parent = make_summary(
            [record("write", near, (128, 0, 0), width=128)], (8,)
        )
        child = make_summary(
            [record("read", near, (128, 0, 0), width=128)], (8,)
        )
        pairs = _hazard_pairs(("raw",))
        assert _vectorized_graph(parent, child, pairs, 4_000_000) is None
        # ...but the overall entry point still answers via the oracle
        graph, tier = build_graph_fast(parent, child, mode="vectorized")
        assert tier == "reference"
        assert graph == build_bipartite_graph(parent, child)

    def test_unique_dedup_path_matches_bitmap(self, monkeypatch):
        # force the chunked np.unique dedup (bitmap disabled) and tiny
        # chunks so the enumeration loop takes several iterations
        parent = make_summary([record("write", 0, (64, 0, 0), width=64)], (8,))
        child = make_summary(
            [record("read", -64, (64, 0, 0), width=192)], (8,)
        )
        pairs = _hazard_pairs(("raw",))
        expected = _vectorized_graph(parent, child, pairs, 4_000_000)
        monkeypatch.setattr(fastpath, "_BITMAP_LIMIT", 0)
        monkeypatch.setattr(fastpath, "_JOIN_CHUNK", 2)
        graph = _vectorized_graph(parent, child, pairs, 4_000_000)
        assert graph == expected
        assert graph == build_bipartite_graph(parent, child)
        # the budget check also fires mid-loop on the unique path
        collapsed = _vectorized_graph(parent, child, pairs, 3)
        assert collapsed.is_fully_connected

    def test_multi_interval_expansion(self):
        rec = record(
            "write", 0, (8192, 0, 0), width=4, dims=((2048, 3),)
        )
        parent = make_summary([rec], (6,))
        child = make_summary(
            [record("read", 0, (8192, 0, 0), width=4, dims=((2048, 3),))],
            (6,),
        )
        pairs = _hazard_pairs(("raw",))
        graph = _vectorized_graph(parent, child, pairs, 4_000_000)
        assert graph == build_bipartite_graph(parent, child)


class TestExplicitPrebuilt:
    def test_matches_explicit(self):
        adjacency = [[0, 2], [1], []]
        via_explicit = BipartiteGraph.explicit(3, 3, adjacency)
        prebuilt = BipartiteGraph.explicit_prebuilt(
            3, 3, ((0, 2), (1,), ()), (1, 1, 1), 3
        )
        assert prebuilt == via_explicit

    def test_collapse_rules(self):
        assert BipartiteGraph.explicit_prebuilt(
            2, 2, ((), ()), (0, 0), 0
        ).is_independent
        assert BipartiteGraph.explicit_prebuilt(
            2, 2, ((0, 1), (0, 1)), (2, 2), 4
        ).is_fully_connected


class TestRealKernels:
    def test_produce_chain_matches_oracle(self):
        parent = analyze_kernel(
            parse_kernel(PRODUCE_SRC),
            LaunchConfig.create(16, 64, {"IN0": 0, "OUT": 1 << 20}),
        )
        child = analyze_kernel(
            parse_kernel(PRODUCE_SRC.replace("produce", "consume")),
            LaunchConfig.create(16, 64, {"IN0": 1 << 20, "OUT": 1 << 21}),
        )
        oracle = _assert_identical(parent, child)
        graph, tier = build_graph_fast(parent, child)
        assert tier == "closed_form"
        assert all(graph.children(p) == (p,) for p in range(16))
        assert oracle.kind is GraphKind.EXPLICIT
