"""Property tests: ordered SM placement equals the brute-force argmin.

``Device.try_place`` keeps the SMs below the block cap sorted by
``(resident_threads, resident_tbs, index)`` and reads the head of that
list.  Random place/release sequences with mixed block sizes must pick
exactly the SM a full scan picks — the least-loaded SM among those that
fit — and agree with it on "nothing fits".  The states that matter most
are the ones where the fewest-threads SM sits at ``max_tbs_per_sm``
while a busier SM still has room.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.sim.config import GPUConfig
from repro.sim.device import Device, UnboundedDevice

BLOCK_SIZES = (1, 16, 64, 96, 256, 512, 1024)


def brute_force_place(loads, threads, config):
    """The least-loaded fitting SM by full scan, or ``None``."""
    fitting = [
        (sm_threads, sm_tbs, index)
        for index, (sm_threads, sm_tbs) in enumerate(loads)
        if sm_tbs < config.max_tbs_per_sm
        and sm_threads + threads <= config.max_threads_per_sm
    ]
    return min(fitting)[2] if fitting else None


def run_ops(device, config, ops):
    """Apply ``ops`` to ``device`` and to a brute-force model in step."""
    loads = [[0, 0] for _ in device.sms]
    resident = []  # (sm, threads) of every placed block
    for op, size_pick, victim_pick in ops:
        if op == "release" and resident:
            sm, threads = resident.pop(victim_pick % len(resident))
            device.release(sm, threads, 0.0)
            loads[sm][0] -= threads
            loads[sm][1] -= 1
            continue
        threads = BLOCK_SIZES[size_pick % len(BLOCK_SIZES)]
        expected = brute_force_place(loads, threads, config)
        assert device.try_place(threads, 0.0) == expected
        if expected is not None:
            loads[expected][0] += threads
            loads[expected][1] += 1
            resident.append((expected, threads))
        assert [
            [sm.resident_threads, sm.resident_tbs] for sm in device.sms
        ] == loads
    return resident


ops_strategy = st.lists(
    st.tuples(
        st.sampled_from(["place", "place", "release"]),
        st.integers(0, len(BLOCK_SIZES) - 1),
        st.integers(0, 1 << 16),
    ),
    max_size=120,
)


@given(
    st.integers(1, 8),
    st.integers(1, 6),
    st.sampled_from([64, 256, 1024, 2048]),
    ops_strategy,
)
@settings(max_examples=200, deadline=None)
def test_try_place_matches_brute_force(num_sms, max_tbs, max_threads, ops):
    config = GPUConfig(
        num_sms=num_sms, max_tbs_per_sm=max_tbs,
        max_threads_per_sm=max_threads,
    )
    device = Device(config)
    resident = run_ops(device, config, ops)
    assert device.running == len(resident)


def test_block_cap_skips_the_emptiest_sm():
    """SM 0 holds the fewest threads but is at the block cap; SM 1 is
    busier and still fits, so it must win."""
    config = GPUConfig(num_sms=2, max_tbs_per_sm=2, max_threads_per_sm=2048)
    device = Device(config)
    ops = [
        ("place", 0, 0),  # 1 thread  -> SM 0
        ("place", 4, 0),  # 256       -> SM 1
        ("place", 0, 0),  # 1 thread  -> SM 0, now at the block cap
        ("place", 0, 0),  # 1 thread  -> SM 1 despite its 256 threads
        ("place", 0, 0),  # both at the cap: nothing fits
        ("release", 0, 0),  # SM 0 drops back under the cap
        ("place", 0, 0),  # -> SM 0 again
    ]
    run_ops(device, config, ops)


@given(ops_strategy)
@settings(max_examples=50, deadline=None)
def test_unbounded_device_keeps_one_sm(ops):
    """The what-if ``infinite_sms`` device places everything on SM 0 and
    its inherited ``release`` keeps the ordered structure consistent."""
    device = UnboundedDevice(GPUConfig(num_sms=4, max_tbs_per_sm=1))
    resident = []
    for op, size_pick, victim_pick in ops:
        if op == "release" and resident:
            threads = resident.pop(victim_pick % len(resident))
            device.release(0, threads, 0.0)
        else:
            threads = BLOCK_SIZES[size_pick % len(BLOCK_SIZES)]
            assert device.try_place(threads, 0.0) == 0
            resident.append(threads)
        sm = device.sms[0]
        assert sm.resident_tbs == len(resident) == device.running
        assert sm.resident_threads == sum(resident)
    assert len(device.sms) == 1
