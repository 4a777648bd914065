import pytest

from perfbench.workloads import importtime_rollup

SAMPLE = """\
import time: self [us] | cumulative | imported package
import time:       100 |        100 |       numpy.core
import time:       200 |        300 |     numpy
import time:        50 |         50 |     repro.obs.log
import time:        10 |        360 |   repro.analysis
import time:        20 |         20 |       repro.obs.metrics
import time:        30 |         50 |     repro.obs
import time:        40 |         90 |   repro.serve
import time:         5 |        455 | repro
"""


def test_rollup_sums_cumulative_time_of_each_entry_into_a_package():
    totals = importtime_rollup(
        SAMPLE, ["repro.analysis", "repro.obs", "repro.serve", "numpy"]
    )
    assert totals["numpy"] == pytest.approx(300e-6)
    # obs is entered twice: under analysis (log) and under serve
    assert totals["repro.obs"] == pytest.approx(100e-6)
    assert totals["repro.analysis"] == pytest.approx(360e-6)
    assert totals["repro.serve"] == pytest.approx(90e-6)


def test_rollup_of_empty_output_is_zero():
    assert importtime_rollup("", ["numpy"]) == {"numpy": 0.0}
