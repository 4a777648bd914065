"""SM occupancy tracking and thread-block placement.

The device holds ``num_sms`` streaming multiprocessors; each SM can host
thread blocks subject to two limits: a hard cap of ``max_tbs_per_sm``
resident blocks and a thread budget of ``max_threads_per_sm``.  Blocks
from different kernels may co-reside on one SM — this is exactly what
lets pre-launched kernels' blocks fill slots freed by the producer
kernel (and is provided by Hyper-Q / Warped-Slicer in the paper's
baseline hardware).

Placement policy: least-loaded SM first (by resident thread count, then
block count, then index), which spreads blocks evenly and is
deterministic.  The device keeps the SMs below the block cap sorted by
exactly that key, so a placement reads the head of the list instead of
scanning every SM.
"""

from bisect import bisect_left, insort
from dataclasses import dataclass

from repro.obs import PID_DEVICE, resolve_metrics, resolve_tracer
from repro.sim.config import GPUConfig


@dataclass
class SMState:
    index: int
    resident_tbs: int = 0
    resident_threads: int = 0


def empty_device_slots(config: GPUConfig, threads_per_tb: int) -> int:
    """Blocks of the given size an *idle* device holds.

    Equals ``Device.free_slots`` on a freshly constructed device (every
    SM contributes the same ``min`` of its block cap and thread budget).
    This is the wave width of the fast engine tier
    (:mod:`repro.models.fastengine`): under a device-serial plan each
    kernel starts on an empty device, so its TBs run in waves of exactly
    this many slots.
    """
    per_sm = min(
        config.max_tbs_per_sm,
        config.max_threads_per_sm // max(1, threads_per_tb),
    )
    return config.num_sms * max(0, per_sm)


class Device:
    """Occupancy bookkeeping plus the running-TB concurrency integral.

    With a tracer attached, every placement/release also emits a
    ``running_tbs`` counter sample on the simulated clock, so Perfetto
    renders the SM-occupancy profile alongside the kernel spans.
    Tracing is observation only and never changes placement decisions.
    """

    def __init__(self, config: GPUConfig, tracer=None, metrics=None):
        self.config = config
        self.tracer = resolve_tracer(tracer)
        self.metrics = resolve_metrics(metrics)
        self.sms = [SMState(i) for i in range(config.num_sms)]
        self._tb_cap = config.max_tbs_per_sm
        self._thread_cap = config.max_threads_per_sm
        self._index_open_sms()
        self.running = 0
        self._last_event_ns = 0.0
        self.concurrency_integral = 0.0
        self.busy_ns = 0.0
        self.peak_concurrency = 0
        self.placements = 0

    def _sample_occupancy(self, now_ns, sm=None):
        self.tracer.counter(
            "running_tbs",
            {"running": self.running},
            ts_us=now_ns / 1e3,
            cat="device",
            pid=PID_DEVICE,
        )
        if sm is not None and getattr(self.tracer, "per_sm_counters", False):
            self.tracer.counter(
                "running_tbs[sm={:02d}]".format(sm.index),
                {"running": sm.resident_tbs},
                ts_us=now_ns / 1e3,
                cat="device.sm",
                pid=PID_DEVICE,
            )

    def _index_open_sms(self):
        """Sort the SMs that can take another block by placement key.

        ``_open`` holds ``(resident_threads, resident_tbs, index)`` for
        every SM below the block cap.  Its head has the fewest threads
        among them, so the head fits a block iff any open SM does, and
        is then the least-loaded fitting SM.  SMs at the cap leave the
        list until a release brings them back under it.
        """
        self._open = [
            (sm.resident_threads, sm.resident_tbs, sm.index)
            for sm in self.sms
            if sm.resident_tbs < self._tb_cap
        ]
        self._open.sort()

    # ------------------------------------------------------------------
    def _advance(self, now_ns):
        dt = now_ns - self._last_event_ns
        if dt > 0:
            self.concurrency_integral += dt * self.running
            if self.running > 0:
                self.busy_ns += dt
            self._last_event_ns = now_ns

    def free_slots(self, threads_per_tb):
        """Total blocks of the given size that could be placed right now."""
        total = 0
        for sm in self.sms:
            by_tbs = self.config.max_tbs_per_sm - sm.resident_tbs
            by_threads = (
                self.config.max_threads_per_sm - sm.resident_threads
            ) // max(1, threads_per_tb)
            total += max(0, min(by_tbs, by_threads))
        return total

    def try_place(self, threads_per_tb, now_ns):
        """Place one block on the least-loaded SM; returns the SM index
        or ``None`` when nothing fits."""
        open_sms = self._open
        if not open_sms:
            return None
        threads, tbs, index = open_sms[0]
        if threads + threads_per_tb > self._thread_cap:
            return None
        del open_sms[0]
        self._advance(now_ns)
        best = self.sms[index]
        best.resident_tbs = tbs + 1
        best.resident_threads = threads + threads_per_tb
        if tbs + 1 < self._tb_cap:
            insort(open_sms, (best.resident_threads, tbs + 1, index))
        self.running += 1
        self.placements += 1
        self.peak_concurrency = max(self.peak_concurrency, self.running)
        if self.tracer.enabled:
            self._sample_occupancy(now_ns, sm=best)
        return index

    def release(self, sm_index, threads_per_tb, now_ns):
        self._advance(now_ns)
        sm = self.sms[sm_index]
        if sm.resident_tbs <= 0 or sm.resident_threads < threads_per_tb:
            raise RuntimeError("release without matching placement")
        open_sms = self._open
        if sm.resident_tbs < self._tb_cap:
            del open_sms[bisect_left(
                open_sms, (sm.resident_threads, sm.resident_tbs, sm_index)
            )]
        sm.resident_tbs -= 1
        sm.resident_threads -= threads_per_tb
        insort(open_sms, (sm.resident_threads, sm.resident_tbs, sm_index))
        self.running -= 1
        if self.tracer.enabled:
            self._sample_occupancy(now_ns, sm=sm)

    def finalize(self, now_ns):
        """Close the concurrency integral at end of simulation."""
        self._advance(now_ns)
        m = self.metrics
        if m.enabled:
            m.set_gauge("device.peak_tb_concurrency", self.peak_concurrency)
            m.set_gauge("device.busy_ns", self.busy_ns)
            m.set_gauge("device.concurrency_integral", self.concurrency_integral)
            m.inc("device.tb_placements", self.placements)


class UnboundedDevice(Device):
    """A device with no occupancy limits — every placement succeeds.

    Used by the what-if analyzer's ``infinite_sms`` replay: one SM with
    unbounded block and thread caps, so every block lands on SM 0 and
    placement stays O(1) however many blocks are resident.  Accounting
    (concurrency integral, busy time, counters) matches :class:`Device`.
    """

    def __init__(self, config: GPUConfig, tracer=None, metrics=None):
        super().__init__(config, tracer=tracer, metrics=metrics)
        self.sms = [SMState(0)]
        self._tb_cap = self._thread_cap = float("inf")
        self._index_open_sms()

    def free_slots(self, threads_per_tb):
        return 1 << 30
