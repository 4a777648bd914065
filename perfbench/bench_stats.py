"""Order statistics the benchmark reports.

A timing is reported as its median and its *tail*: the highest
percentile of :data:`LADDER` that still has at least :data:`MIN_BEYOND`
samples beyond it, never above the workload's cap.  The cap pins the
reported percentile for a workload whose sample count varies from run
to run, so two runs report the same statistic.
"""

import statistics

#: candidate tail percentiles, in per-mille so p99.9 is exact
LADDER = (500, 750, 900, 950, 990, 999)
MIN_BEYOND = 10


def percentile(sorted_values, fraction):
    """Linear-interpolation percentile of an ascending list."""
    if not sorted_values:
        raise ValueError("percentile of no samples")
    position = fraction * (len(sorted_values) - 1)
    low = int(position)
    high = min(low + 1, len(sorted_values) - 1)
    weight = position - low
    return sorted_values[low] * (1.0 - weight) + sorted_values[high] * weight


def tail_permille(count, cap=999):
    """Highest ladder step <= ``cap`` with >= 10 of ``count`` beyond it.

    The median is the floor, whatever the count.
    """
    chosen = LADDER[0]
    for step in LADDER:
        if step <= cap and count * (1000 - step) >= MIN_BEYOND * 1000:
            chosen = step
    return chosen


def min_samples(cap):
    """Samples needed before the tail can be reported at ``cap``."""
    return -(-MIN_BEYOND * 1000 // (1000 - cap))


def label(permille):
    return "p{:g}".format(permille / 10.0)


def tail(samples, cap=999):
    """``(label, value, count)`` of the tail percentile of ``samples``."""
    ordered = sorted(samples)
    step = tail_permille(len(ordered), cap)
    return label(step), percentile(ordered, step / 1000.0), len(ordered)


def median(samples):
    return statistics.median(samples)


def typical_pass(passes):
    """Seconds of one pass over a fixed key set, bursts left out.

    ``passes`` is ``[{key: seconds}]``, one dict per pass, all over the
    same keys.  The result sums, over the keys, each key's median time
    across the passes, so a burst of contention on the host that slows
    one pass is not counted, while a key that is slow in every pass is.
    """
    if not passes:
        raise ValueError("typical pass of no passes")
    keys = set(passes[0])
    if any(set(one) != keys for one in passes):
        raise ValueError("passes over different keys")
    return sum(median([one[key] for one in passes]) for key in keys)


def failed_ratio(failed, attempted):
    """Failed operations over attempted ones (0 when nothing ran)."""
    if failed < 0 or failed > attempted:
        raise ValueError("failed {} of {} attempted".format(failed, attempted))
    return failed / attempted if attempted else 0.0
