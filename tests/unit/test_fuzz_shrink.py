"""Planted-bug canary: the fuzzer detects, shrinks, and replays.

These tests prove the differential harness end to end by injecting a
real bug class — an off-by-one in the closed-form overlap window of
``repro.analysis.fastpath`` (widening ``ahi - blo - 1`` to
``ahi - blo``, admitting phantom TB dependencies) — and asserting:

1. **detection** — a small corpus flags divergences against the scalar
   oracle;
2. **shrinking** — the greedy minimizer reduces a flagged case to the
   2-kernel floor and the divergence still reproduces;
3. **replay** — the emitted ``repro-fuzz-case`` file replays *red*
   while the bug is planted and *green* once it is removed, which is
   exactly the contract the regression loader relies on.
"""

import json

import pytest

import repro.analysis.fastpath as fp
from repro.fuzz import (
    check_case,
    load_case,
    make_case,
    replay_case,
    resolve_fuzz_config,
    run_fuzz,
    shrink_case,
    validate_case,
    write_case,
)
from repro.workloads.ptxgen import FuzzSpec

#: closed-form corpus seeds that trip the widened window (verified by
#: running the harness under the patch; kept small to bound test cost)
CANARY_SEED = 3
MODES = ("closed_form",)


def _widened_overlap_domain(parent_shape, child_shape):
    # the planted bug: drops the "- 1" end correction, so the overlap
    # window admits one extra displacement on the high side
    windows = []
    for alo, ahi in parent_shape:
        for blo, bhi in child_shape:
            windows.append((alo - bhi + 1, ahi - blo))
    return fp._merge_closed(windows)


@pytest.fixture
def planted_bug(monkeypatch):
    monkeypatch.setattr(fp, "_overlap_domain", _widened_overlap_domain)


class TestDetection:
    def test_clean_tree_is_divergence_free(self):
        result = check_case(FuzzSpec.from_seed(CANARY_SEED), modes=MODES)
        assert result["divergences"] == []

    def test_planted_bug_is_detected(self, planted_bug):
        result = check_case(FuzzSpec.from_seed(CANARY_SEED), modes=MODES)
        checks = {(d["check"], d["mode"]) for d in result["divergences"]}
        assert ("graph", "closed_form") in checks

    def test_run_fuzz_flags_and_writes_repro(self, planted_bug, tmp_path):
        config = resolve_fuzz_config(
            count=6, seed=0, modes=MODES, jobs=1, out_dir=str(tmp_path)
        )
        report = run_fuzz(config)
        assert report["num_divergent"] >= 1
        assert report["repro_files"]
        for path in report["repro_files"]:
            assert validate_case(load_case(path)) == []


class TestShrinking:
    def test_shrinks_to_two_kernel_floor(self, planted_bug):
        spec = FuzzSpec.from_seed(CANARY_SEED)
        target = check_case(spec, modes=MODES)["divergences"][0]
        minimized, divergences = shrink_case(spec, target, modes=MODES)
        assert len(minimized.kernels) == 2
        assert divergences  # still reproduces after minimization
        assert all(d["check"] == target["check"] for d in divergences)

    def test_unreproducible_target_returns_original(self):
        # on a clean tree nothing reproduces: shrink must hand the spec
        # back untouched instead of minimizing noise
        spec = FuzzSpec.from_seed(CANARY_SEED)
        target = {"check": "graph", "mode": "closed_form"}
        minimized, divergences = shrink_case(spec, target, modes=MODES)
        assert minimized == spec
        assert divergences == []


class TestReplay:
    def test_case_replays_red_then_green(self, tmp_path, monkeypatch):
        monkeypatch.setattr(fp, "_overlap_domain", _widened_overlap_domain)
        spec = FuzzSpec.from_seed(CANARY_SEED)
        target = check_case(spec, modes=MODES)["divergences"][0]
        minimized, divergences = shrink_case(spec, target, modes=MODES)
        case = make_case(
            minimized, divergences, MODES, "consumer3",
            source_seed=CANARY_SEED,
        )
        path = write_case(case, str(tmp_path))
        loaded = load_case(path)

        assert replay_case(loaded)  # red: bug still planted
        monkeypatch.undo()  # remove the bug
        assert replay_case(loaded) == []  # green: fixed tree

    def test_write_rejects_invalid_case(self, tmp_path):
        with pytest.raises(ValueError):
            write_case({"kind": "nonsense"}, str(tmp_path))

    def test_unknown_engine_fails_validation(self):
        spec = FuzzSpec.from_seed(CANARY_SEED)
        valid = make_case(spec, [], MODES, "consumer3",
                          source_seed=CANARY_SEED, engines=["auto"])
        assert validate_case(valid) == []
        retired = dict(valid, engines=["auto", "closed_form"])
        errors = validate_case(retired)
        assert len(errors) == 1
        assert errors[0].startswith("engines: unknown engine mode 'closed_form'")

    def test_case_file_is_schema_versioned_json(self, planted_bug, tmp_path):
        spec = FuzzSpec.from_seed(CANARY_SEED)
        target = check_case(spec, modes=MODES)["divergences"][0]
        minimized, divergences = shrink_case(spec, target, modes=MODES)
        path = write_case(
            make_case(minimized, divergences, MODES, "consumer3",
                      source_seed=CANARY_SEED),
            str(tmp_path),
        )
        with open(path) as handle:
            raw = json.load(handle)
        assert raw["kind"] == "repro-fuzz-case"
        assert raw["schema_version"] == 1
        assert FuzzSpec.from_dict(raw["spec"]) == minimized
