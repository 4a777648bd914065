import json
import subprocess
import sys

from perfbench import oracle
from perfbench.common import ROOT, canonical_json, digest, simulated_run
from perfbench.spans import NullRecorder
from perfbench.workloads import run_app


def _run_path_baseline(expected):
    from repro.workloads import get_workload

    tally = oracle.Tally()
    for model, _seconds, payload in run_app(
        NullRecorder(), get_workload("path"), ["baseline"]
    ):
        oracle.check_payload(
            expected, oracle.cell_key("run", "path", model), payload, tally
        )
    return tally


def test_committed_oracle_covers_every_registry_cell():
    from repro.experiments.common import STANDARD_MODELS
    from repro.workloads import all_workloads

    cells = oracle.load_oracle()
    for spec in all_workloads():
        for model, _f, _r, _w in STANDARD_MODELS:
            assert oracle.cell_key("run", spec.name, model) in cells
    for cell in oracle.OBSERVER_CELLS:
        assert oracle.cell_key(*cell) in cells


def test_a_real_cell_matches_the_committed_oracle():
    tally = _run_path_baseline(oracle.load_oracle())
    assert (tally.attempted, tally.failed) == (1, 0)


def test_planted_mismatch_counts_as_a_failed_operation():
    planted = oracle.load_oracle()
    key = oracle.cell_key("run", "path", "baseline")
    planted[key] = digest("not the simulated output")
    tally = _run_path_baseline(planted)
    assert (tally.attempted, tally.failed) == (1, 1)
    assert tally.notes[0].startswith(key)


def test_missing_digest_counts_as_a_failed_operation():
    tally = _run_path_baseline({})
    assert tally.failed == 1


def test_simulated_run_drops_engine_work_and_serve_extras():
    payload = {"makespan_ns": 1.0, "workload": "path", "signature": {},
               "counters": {"dispatch_passes": 7.0, "host_blocks": 2.0}}
    assert simulated_run(payload) == {
        "makespan_ns": 1.0, "counters": {"host_blocks": 2.0},
    }
    other_tier = dict(payload, counters={"dispatch_passes": 0.0, "host_blocks": 2.0})
    assert canonical_json(simulated_run(payload)) == canonical_json(
        simulated_run(other_tier)
    )


def test_regeneration_refuses_to_overwrite(tmp_path):
    target = tmp_path / "oracle.json"
    target.write_text("keep me")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "oracle.py"), "--out",
         str(target)],
        capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode == 2
    assert "--force" in proc.stderr
    assert target.read_text() == "keep me"


def test_committed_oracle_records_how_it_was_made():
    with open(oracle.ORACLE_PATH) as handle:
        payload = json.load(handle)
    assert payload["generated_under"] == oracle.REFERENCE_ENV
