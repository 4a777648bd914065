"""Unit tests for the bench subsystem (schema, runner pieces, diff, trend)."""

import copy
import json

import pytest

from repro.bench import (
    BenchConfig,
    SCHEMA_VERSION,
    bench_filename,
    diff_reports,
    format_diff,
    format_trend,
    load_reports,
    resolve_config,
    trend_rows,
    validate_report,
    write_report,
)
from repro.bench.runner import _percentile_block, _phase_of
from repro.bench.schema import REPORT_KIND, git_metadata, host_metadata, utc_timestamp
from repro.experiments.common import UnknownModelError
from repro.workloads import UnknownWorkloadError


def make_report(stamp="2026-08-05T10:00:00Z", wall_p50=0.1, makespan=1000.0,
                workload="mvt", model="consumer3", extra_models=()):
    """A minimal, schema-valid synthetic report."""
    def block(value):
        return {"p50": value, "p95": value, "max": value, "mean": value,
                "repeats": 2}

    def entry(p50, mk):
        return {
            "wall": {
                "total_s": block(p50),
                "phases": {
                    "parse": block(p50 / 10),
                    "analyze": block(p50 / 10),
                    "encode": block(p50 / 10),
                    "simulate": block(p50 / 2),
                },
            },
            "simulated": {
                "makespan_ns": mk,
                "busy_ns": mk * 0.9,
                "avg_tb_concurrency": 4.0,
                "num_tbs": 64,
                "num_kernels": 2,
                "stall_q1": 0.0,
                "stall_median": 0.1,
                "stall_q3": 0.2,
                "speedup_vs_baseline": 2.0,
            },
        }

    models = {model: entry(wall_p50, makespan)}
    for name in extra_models:
        models[name] = entry(wall_p50, makespan)
    return {
        "kind": REPORT_KIND,
        "schema_version": SCHEMA_VERSION,
        "created_utc": stamp,
        "host": {"platform": "test"},
        "git": {"commit": None, "branch": None, "dirty": None},
        "config": {"repeats": 2, "warmup": 1, "models": [model], "quick": True},
        "workloads": {workload: {"models": models}},
    }


class TestSchema:
    def test_synthetic_report_is_valid(self):
        assert validate_report(make_report()) == []

    def test_bench_filename_shape(self):
        name = bench_filename(when=0)
        assert name == "BENCH_19700101T000000Z.json"

    def test_utc_timestamp_shape(self):
        assert utc_timestamp(when=0) == "1970-01-01T00:00:00Z"

    def test_metadata_capture(self):
        host = host_metadata()
        assert host["python"] and host["cpu_count"] >= 1
        git = git_metadata()
        assert set(git) == {"commit", "branch", "dirty"}

    def test_rejects_non_object(self):
        assert validate_report([]) == ["report: expected a JSON object"]

    def test_rejects_wrong_kind_and_version(self):
        bad = make_report()
        bad["kind"] = "something-else"
        bad["schema_version"] = 99
        errors = validate_report(bad)
        assert any("kind" in e for e in errors)
        assert any("schema_version" in e for e in errors)

    def test_rejects_missing_percentile_key(self):
        bad = make_report()
        del bad["workloads"]["mvt"]["models"]["consumer3"]["wall"]["total_s"]["p95"]
        assert any("total_s" in e and "p95" in e for e in validate_report(bad))

    def test_rejects_missing_phase(self):
        bad = make_report()
        del bad["workloads"]["mvt"]["models"]["consumer3"]["wall"]["phases"]["encode"]
        assert any("phases.encode" in e for e in validate_report(bad))

    def test_rejects_missing_simulated_metric(self):
        bad = make_report()
        del bad["workloads"]["mvt"]["models"]["consumer3"]["simulated"]["makespan_ns"]
        assert any("simulated.makespan_ns" in e for e in validate_report(bad))

    def test_rejects_empty_workloads(self):
        bad = make_report()
        bad["workloads"] = {}
        assert any("workloads" in e for e in validate_report(bad))

    def test_rejects_bad_config(self):
        bad = make_report()
        bad["config"]["repeats"] = 0
        bad["config"]["models"] = []
        errors = validate_report(bad)
        assert any("config.repeats" in e for e in errors)
        assert any("config.models" in e for e in errors)

    def test_rejects_malformed_profile(self):
        bad = make_report()
        bad["workloads"]["mvt"]["models"]["consumer3"]["profile"] = [{"nope": 1}]
        assert any("profile[0]" in e for e in validate_report(bad))


class TestRunnerPieces:
    def test_percentile_block(self):
        block = _percentile_block([0.3, 0.1, 0.2])
        assert block["repeats"] == 3
        assert block["p50"] == pytest.approx(0.2)
        assert block["max"] == pytest.approx(0.3)
        assert block["mean"] == pytest.approx(0.2)
        assert block["p95"] == pytest.approx(0.29)

    def test_phase_mapping_covers_pr1_spans(self):
        assert _phase_of("workload.build:mvt") == "parse"
        assert _phase_of("plan.analyze") == "analyze"
        assert _phase_of("plan.reorder") == "analyze"
        assert _phase_of("plan.graphs") == "encode"
        assert _phase_of("model:consumer3") == "simulate"
        # the outer plan:<app> span must NOT be counted (double counting)
        assert _phase_of("plan:mvt") is None

    def test_resolve_config_quick_defaults(self):
        config = resolve_config(quick=True)
        assert config.workloads == ("mvt", "bicg", "path")
        assert config.models[0] == "baseline"
        assert config.repeats == 2

    def test_resolve_config_canonicalizes_aliases(self):
        config = resolve_config(models=["blockmaestro"])
        assert config.models == ("baseline", "consumer3")

    def test_resolve_config_baseline_always_first(self):
        config = resolve_config(models=["consumer4", "baseline"])
        assert config.models == ("baseline", "consumer4")

    def test_resolve_config_all_roster(self):
        config = resolve_config(models=["all"])
        assert "consumer4" in config.models and config.models[0] == "baseline"

    def test_resolve_config_unknown_model(self):
        with pytest.raises(UnknownModelError):
            resolve_config(models=["warpspeed"])

    def test_resolve_config_unknown_filter(self):
        with pytest.raises(UnknownWorkloadError):
            resolve_config(filter_globs=["zz*"])

    def test_resolve_config_filter_globs(self):
        config = resolve_config(filter_globs=["f*"])
        assert config.workloads == ("fdtd-2d", "fft")

    def test_write_report_names_file(self, tmp_path):
        path = write_report(make_report(), directory=str(tmp_path))
        assert path.startswith(str(tmp_path))
        assert "BENCH_" in path
        assert json.loads(open(path).read())["kind"] == REPORT_KIND


class TestDiff:
    def test_self_diff_is_clean(self):
        report = make_report()
        result = diff_reports(report, report)
        assert not result.failed()
        assert result.compared == 1
        assert not result.regressions and not result.drift

    def test_wall_regression_over_band(self):
        old = make_report(wall_p50=0.1)
        new = make_report(wall_p50=0.2)
        result = diff_reports(old, new, tolerance=0.25)
        assert result.failed()
        (delta,) = result.regressions
        assert delta.metric == "wall.total_s.p50"
        assert delta.ratio == pytest.approx(2.0)

    def test_wall_within_band_passes(self):
        old = make_report(wall_p50=0.100)
        new = make_report(wall_p50=0.115)
        assert not diff_reports(old, new, tolerance=0.25).failed()

    def test_wall_under_absolute_floor_ignored(self):
        # 3x slower but only 2ms absolute: noise, not a regression
        old = make_report(wall_p50=0.001)
        new = make_report(wall_p50=0.003)
        assert not diff_reports(old, new, min_seconds=0.010).failed()

    def test_wall_improvement_reported(self):
        old = make_report(wall_p50=0.4)
        new = make_report(wall_p50=0.1)
        result = diff_reports(old, new)
        assert not result.failed()
        assert result.improvements

    def test_simulated_drift_zero_tolerance(self):
        old = make_report(makespan=1000.0)
        new = make_report(makespan=1000.0000001)
        result = diff_reports(old, new)
        assert result.failed()
        assert any("makespan_ns" in d.metric for d in result.drift)

    def test_simulated_key_set_change_is_drift(self):
        old = make_report()
        new = copy.deepcopy(old)
        new["workloads"]["mvt"]["models"]["consumer3"]["simulated"]["hw.new"] = 1
        assert diff_reports(old, new).failed()

    def test_missing_entry_warns_then_strict_fails(self):
        old = make_report(extra_models=("baseline",))
        new = make_report()
        result = diff_reports(old, new)
        assert result.missing and not result.failed()
        assert result.failed(strict=True)

    def test_format_diff_mentions_verdict(self):
        report = make_report()
        text = format_diff(diff_reports(report, report))
        assert "bench diff: OK" in text
        bad = diff_reports(make_report(makespan=1.0), make_report(makespan=2.0))
        assert "FAIL" in format_diff(bad)
        assert "zero tolerance" in format_diff(bad)


class TestTrend:
    def _write(self, tmp_path, stamp, compact, **kwargs):
        payload = make_report(stamp=stamp, **kwargs)
        path = tmp_path / "BENCH_{}.json".format(compact)
        path.write_text(json.dumps(payload))
        return path

    def test_folds_reports_in_time_order(self, tmp_path):
        self._write(tmp_path, "2026-08-05T10:00:00Z", "20260805T100000Z",
                    wall_p50=0.10)
        self._write(tmp_path, "2026-08-04T10:00:00Z", "20260804T100000Z",
                    wall_p50=0.20)
        reports = load_reports(str(tmp_path), log=lambda m: None)
        assert len(reports) == 2
        header, rows = trend_rows(reports, metric="wall")
        assert header[:2] == ["workload", "model"]
        (row,) = [r for r in rows if r["model"] == "consumer3"]
        # oldest first: 200ms then 100ms
        assert row[header[2]] == "200.0"
        assert row[header[3]] == "100.0"

    def test_missing_entries_render_dash(self, tmp_path):
        self._write(tmp_path, "2026-08-05T10:00:00Z", "20260805T100000Z")
        self._write(tmp_path, "2026-08-06T10:00:00Z", "20260806T100000Z",
                    workload="bicg")
        reports = load_reports(str(tmp_path), log=lambda m: None)
        header, rows = trend_rows(reports, metric="makespan")
        mvt = [r for r in rows if r["workload"] == "mvt"][0]
        assert mvt[header[3]] == "-"

    def test_invalid_file_skipped_with_warning(self, tmp_path):
        (tmp_path / "BENCH_garbage.json").write_text("{not json")
        self._write(tmp_path, "2026-08-05T10:00:00Z", "20260805T100000Z")
        warnings = []
        reports = load_reports(str(tmp_path), log=warnings.append)
        assert len(reports) == 1
        assert warnings and "skipping" in warnings[0]

    def test_unknown_metric_raises(self, tmp_path):
        self._write(tmp_path, "2026-08-05T10:00:00Z", "20260805T100000Z")
        reports = load_reports(str(tmp_path), log=lambda m: None)
        with pytest.raises(KeyError):
            trend_rows(reports, metric="vibes")

    def test_format_trend_empty_dir(self, tmp_path):
        assert "no BENCH_" in format_trend([])

    def test_format_trend_table(self, tmp_path):
        self._write(tmp_path, "2026-08-05T10:00:00Z", "20260805T100000Z")
        reports = load_reports(str(tmp_path), log=lambda m: None)
        text = format_trend(reports, metric="speedup")
        assert "speedup vs baseline" in text
        assert "consumer3" in text


class TestBenchConfig:
    def test_as_dict_round_trips_through_json(self):
        config = BenchConfig(workloads=("mvt",), models=("baseline",),
                             filter=("m*",))
        loaded = json.loads(json.dumps(config.as_dict()))
        assert loaded["workloads"] == ["mvt"]
        assert loaded["filter"] == ["m*"]
        assert loaded["repeats"] == 3


class TestRunSuiteMetadata:
    def test_git_and_host_metadata_captured_once_per_report(self, monkeypatch):
        """Metadata capture shells out to git — once per report, not per cell.

        Regression pin: the suite runner used to re-capture host/git
        metadata per (workload, model) cell, which multiplied subprocess
        cost by the matrix size and could even produce a torn report if
        HEAD moved mid-run.
        """
        from repro.bench import runner as bench_runner

        calls = {"git": 0, "host": 0}
        real_git = bench_runner.schema.git_metadata
        real_host = bench_runner.schema.host_metadata

        def counting_git():
            calls["git"] += 1
            return real_git()

        def counting_host():
            calls["host"] += 1
            return real_host()

        monkeypatch.setattr(bench_runner.schema, "git_metadata", counting_git)
        monkeypatch.setattr(bench_runner.schema, "host_metadata", counting_host)

        config = BenchConfig(workloads=("mvt", "bicg"), models=("baseline",),
                             repeats=2, warmup=0)
        payload = bench_runner.run_suite(config, log=lambda message: None)

        assert len(payload["workloads"]) == 2  # multi-cell matrix ran
        assert calls == {"git": 1, "host": 1}
        assert payload["git"] == real_git()


class TestFastpathSection:
    def test_valid_fastpath_section(self):
        report = make_report()
        report["fastpath"] = {
            "mode": "auto",
            "counters": {"analysis.fastpath.closed_form": 4.0},
        }
        assert validate_report(report) == []

    def test_rejects_malformed_fastpath_section(self):
        report = make_report()
        report["fastpath"] = []
        assert any("fastpath" in e for e in validate_report(report))
        report["fastpath"] = {"counters": {}}
        assert any("fastpath.mode" in e for e in validate_report(report))
        report["fastpath"] = {"mode": "auto"}
        assert any("fastpath.counters" in e for e in validate_report(report))
        report["fastpath"] = {
            "mode": "auto",
            "counters": {"analysis.fastpath.closed_form": "many"},
        }
        assert any("not a number" in e for e in validate_report(report))


class TestFastpathSuite:
    def test_config_shape(self):
        from repro.bench.tiers import SUITES, suite_config

        for suite in SUITES.values():
            config = suite_config(suite, repeats=0, warmup=-3, jobs=0)
            assert config.workloads == suite.workloads
            assert config.models == suite.models
            assert config.repeats == 1 and config.warmup == 0
            assert config.jobs == 1
            assert config.cache_dir is None  # every pass must stay cold

    def test_workloads_hidden_from_registry_listing(self):
        from repro.bench.tiers import SUITES
        from repro.workloads import all_workloads, get_workload

        listed = {spec.name for spec in all_workloads()}
        for suite in SUITES.values():
            for name in suite.workloads:
                assert name not in listed
                assert get_workload(name).name == name

    def test_census_formatting_and_gate(self):
        from repro.bench.tiers import ENGINE, FASTPATH, format_census

        census = {
            "mvt": {"closed_form": 1},
            "lud": {"closed_form": 3, "vectorized": 6},
            "empty": {},
        }
        text = format_census(census)
        assert "closed_form=3 vectorized=6" in text
        assert "(none)" in text
        assert FASTPATH.census_gate(census) is None
        assert "zero registry workloads" in FASTPATH.census_gate(
            {"w": {"vectorized": 2}}
        )
        served = {"mvt": {"tier.vectorized": 1}}
        assert ENGINE.census_gate(served) is None
        declined = dict(served, nw={"tier.reference": 1})
        assert ENGINE.census_gate(declined).endswith(": nw")


def _telemetry_section(overlap=0.5):
    return {
        "mean_occupancy_tbs": 12.0,
        "p95_occupancy_tbs": 30.0,
        "wavefront_efficiency": 0.8,
        "busy_fraction": 0.7,
        "total_overlap_ns": 5000.0,
        "mean_overlap_fraction": overlap,
        "idle_bubble_ns": 1000.0,
        "idle_bubble_count": 2,
        "pair_overlap": {"k0->k1": overlap},
    }


class TestTelemetrySection:
    def test_valid_telemetry_section(self):
        report = make_report()
        entry = report["workloads"]["mvt"]["models"]["consumer3"]
        entry["telemetry"] = _telemetry_section()
        assert validate_report(report) == []

    def test_v1_reports_still_accepted(self):
        # pre-telemetry history (the committed BENCH_*.json baselines)
        # must keep loading under the v2 validator
        report = make_report()
        report["schema_version"] = 1
        assert validate_report(report) == []

    def test_rejects_unsupported_version(self):
        report = make_report()
        report["schema_version"] = 99
        assert any("schema_version" in e for e in validate_report(report))

    def test_rejects_malformed_telemetry(self):
        report = make_report()
        entry = report["workloads"]["mvt"]["models"]["consumer3"]
        entry["telemetry"] = {"mean_occupancy_tbs": "high"}
        errors = validate_report(report)
        assert any("telemetry.mean_occupancy_tbs" in e for e in errors)
        assert any("telemetry.pair_overlap" in e for e in errors)

    def test_diff_flags_overlap_drift(self):
        old = make_report()
        new = copy.deepcopy(old)
        old_entry = old["workloads"]["mvt"]["models"]["consumer3"]
        new_entry = new["workloads"]["mvt"]["models"]["consumer3"]
        old_entry["telemetry"] = _telemetry_section(overlap=0.5)
        new_entry["telemetry"] = _telemetry_section(overlap=0.4)
        result = diff_reports(old, new)
        metrics = {d.metric for d in result.drift}
        assert "telemetry.mean_overlap_fraction" in metrics
        assert "telemetry.pair_overlap.k0->k1" in metrics
        assert result.failed()

    def test_diff_ignores_missing_telemetry(self):
        # mixed-era pair: only one side carries the optional section
        old = make_report()
        new = copy.deepcopy(old)
        new_entry = new["workloads"]["mvt"]["models"]["consumer3"]
        new_entry["telemetry"] = _telemetry_section()
        result = diff_reports(old, new)
        assert result.drift == []
        assert not result.failed()

    def test_trend_tolerates_mixed_era_reports(self, tmp_path):
        # one v1 report without telemetry, one v2 report with it: the
        # overlap column renders "-" for the older report, and legacy
        # metrics still work across both
        old = make_report(stamp="2026-08-01T10:00:00Z")
        old["schema_version"] = 1
        new = make_report(stamp="2026-08-02T10:00:00Z")
        new["workloads"]["mvt"]["models"]["consumer3"]["telemetry"] = (
            _telemetry_section(overlap=0.25)
        )
        write_report(old, path=str(tmp_path / "BENCH_1.json"))
        write_report(new, path=str(tmp_path / "BENCH_2.json"))
        reports = load_reports(str(tmp_path))
        assert len(reports) == 2
        _header, rows = trend_rows(reports, metric="overlap")
        row = rows[0]
        assert row["08-01 10:00"] == "-"
        assert row["08-02 10:00"] == "0.250"
        _header, wall_rows = trend_rows(reports, metric="wall")
        assert all(v != "-" for k, v in wall_rows[0].items()
                   if k not in ("workload", "model"))

    def test_resolve_config_telemetry_flag(self):
        config = resolve_config(quick=True, telemetry=True)
        assert config.telemetry is True
        assert config.as_dict()["telemetry"] is True
