"""Shared discrete-event execution engine.

One engine implements every execution model in the paper; models differ
only in their :class:`EngineOptions`:

==================  ==========  ========  ==========  =========
model               window      fine TB   reorder +   launch
                    (kernels)   deps      non-block   overhead
==================  ==========  ========  ==========  =========
serialized          1           no        no          5 us
ideal               1           no        no          0
prelaunch-only      2+          no        yes         5 us
BlockMaestro        2-4         yes       yes         5 us
CDP (Fig. 14)       1           no        no          3 us
Wireframe (Fig.14)  3           yes       yes         0
==================  ==========  ========  ==========  =========

Semantics implemented here:

* **Host**: issues API calls sequentially; each issue costs
  ``api_call_ns``.  Blocking calls suspend the host until the call
  completes: under baseline semantics that is every memory call and
  synchronize; under BlockMaestro semantics only device-to-host copies
  (the host RAW hazard) block — everything else streams into the queue.
* **Command queue**: commands become *startable* when their
  prerequisites complete.  Strict mode uses full program order (one
  command at a time — the paper's "only one event being processed");
  relaxed mode uses true data dependencies only.
* **Launch engine**: one kernel launch in flight at a time; a launch
  may begin when fewer than ``window`` kernels are un-completed — this
  is kernel pre-launching, and the launch overhead overlaps the
  predecessor's execution.
* **Thread-block scheduler**: dispatches ready TBs to SM slots.
  Coarse mode makes a kernel's TBs ready only when the *previous kernel
  finished all TBs*; fine mode resolves the bipartite graph per TB
  (Dependency List Buffer / Parent Counter Buffer behaviour), with
  producer/consumer priority and the optional grandparent barrier.
* **In-order completion**: a kernel is *completed* (freeing its window
  slot and acting as a barrier for grandparent dependencies) only when
  all its TBs finished and its predecessor completed (Section III-B.1).
"""

from collections import deque
from dataclasses import dataclass, field
from typing import Dict, List, Optional

from repro.core.policy import SchedulingPolicy
from repro.core.runtime import RuntimePlan
from repro.host.api import (
    DeviceSynchronize,
    EventRecord,
    KernelLaunchCall,
    MallocCall,
    MemcpyD2H,
    MemcpyH2D,
    StreamSynchronize,
    StreamWaitEvent,
)

#: barrier-like calls BlockMaestro bypasses: the data dependencies they
#: protect are tracked separately, in hardware
_BYPASSED_BARRIERS = (
    DeviceSynchronize,
    StreamSynchronize,
    EventRecord,
    StreamWaitEvent,
)
from repro.obs import (
    PID_DEVICE,
    PID_HOST,
    PID_RUNTIME,
    PID_SM,
    resolve_metrics,
    resolve_tracer,
)
from repro.obs.journal import edge_fields as _edge_fields
from repro.sim.config import GPUConfig
from repro.sim.device import Device
from repro.sim.events import EventQueue
from repro.sim.stats import KernelRecord, RunStats, TBRecord


@dataclass(frozen=True)
class EngineOptions:
    """Model-defining switches for the shared engine."""

    name: str = "engine"
    #: max concurrently launched-but-not-completed kernels (1 = serialized)
    window: int = 1
    #: resolve TB-level dependencies (else coarse kernel-level blocking)
    fine_grain: bool = False
    policy: SchedulingPolicy = SchedulingPolicy.PRODUCER_PRIORITY
    #: command startability: program order (strict) vs true deps
    strict_order: bool = True
    #: host blocking semantics: baseline vs BlockMaestro
    blockmaestro_host: bool = False
    #: kernel launch overhead charged on the launch engine
    launch_overhead_ns: float = 5_000.0
    #: host cost of issuing one API call
    api_call_ns: float = 1_000.0
    #: cap on ready-but-undispatched TBs per kernel (None = unlimited);
    #: models Wireframe's size-constrained pending update buffers
    ready_capacity: Optional[int] = None
    #: count dependency-resolution memory traffic (fine-grain hardware)
    count_dependency_traffic: bool = True
    #: drop TB-level and kernel-level dependency gating (in-order
    #: completion chains are kept); used by the critpath what-if
    #: analyzer's "dependencies dropped" replay — not a real model
    ignore_dependencies: bool = False


class ExecutionModel:
    """Base class: a named engine configuration."""

    def __init__(self, gpu_config: GPUConfig = None):
        self.gpu_config = gpu_config or GPUConfig()

    @property
    def name(self):
        return self.options().name

    def options(self) -> EngineOptions:
        raise NotImplementedError

    def run(
        self, plan: RuntimePlan, tracer=None, metrics=None, provenance=None,
        journal=None, telemetry=None, engine=None,
    ) -> RunStats:
        """Simulate ``plan``; pass a tracer/metrics registry to observe.

        ``provenance`` may be a
        :class:`repro.obs.critpath.ProvenanceRecorder`; the engine then
        records per-TB start reasons and kernel launch triggers for
        critical-path extraction.  ``journal`` may be a
        :class:`repro.obs.journal.JournalRecorder`; the engine then
        emits every scheduling event into the flight recorder.
        ``telemetry`` may be a
        :class:`repro.obs.telemetry.TelemetrySampler`; the engine then
        feeds it the same event stream for occupancy/overlap analysis.
        Instrumentation is observation only — results are identical
        whether or not a tracer or recorder is attached.

        ``engine`` selects the simulation engine
        (:func:`repro.models.fastengine.resolve_engine_mode`; ``None``
        reads ``REPRO_ENGINE``, default ``auto``).  The fast tier
        produces bit-identical :class:`RunStats`; any run carrying a
        provenance/journal/telemetry observer silently uses the scalar
        reference engine, since observers hook per-event injection
        points the batched tier skips.
        """
        # imported lazily: repro.models.fastengine builds on this module
        from repro.models import fastengine

        tracer = resolve_tracer(tracer)
        metrics = resolve_metrics(metrics)
        options = self.options()
        mode = fastengine.resolve_engine_mode(engine)
        with tracer.span(
            "model:{}".format(options.name),
            cat="model",
            pid=PID_RUNTIME,
            args={"application": plan.application},
        ):
            if mode != "reference":
                if (
                    provenance is not None
                    or journal is not None
                    or telemetry is not None
                ):
                    metrics.inc("engine.fallback.observers")
                else:
                    stats = fastengine.run_fast(
                        plan, self.gpu_config, options, tracer, metrics,
                    )
                    if stats is not None:
                        return stats
            metrics.inc("engine.tier.reference")
            reference = ExecutionEngine(
                plan,
                self.gpu_config,
                options,
                tracer=tracer,
                metrics=metrics,
                provenance=provenance,
                journal=journal,
                telemetry=telemetry,
            )
            return reference.run()


# ----------------------------------------------------------------------
@dataclass
class _KernelState:
    plan: object  # KernelPlan
    enqueued_ns: Optional[float] = None
    launch_begin_ns: Optional[float] = None
    resident_ns: Optional[float] = None
    input_ready_ns: float = 0.0
    launched: bool = False
    resident: bool = False
    all_tbs_done: bool = False
    all_tbs_done_ns: Optional[float] = None
    completed: bool = False
    completed_ns: Optional[float] = None
    dispatched: int = 0
    finished: int = 0
    ready: deque = field(default_factory=deque)
    pending_counters: Optional[List[int]] = None
    #: TBs whose counters resolved while the ready queue was at capacity
    deferred_ready: deque = field(default_factory=deque)
    tb_finish_ns: Dict[int, float] = field(default_factory=dict)
    first_tb_start_ns: Optional[float] = None
    queued_ready: int = 0  # TBs pushed to ready (incl. dispatched)
    made_eligible: bool = False


class EngineDrainError(RuntimeError):
    """The event queue drained with work still outstanding.

    Raised instead of silently reporting a truncated makespan when
    thread blocks were never released (dependency cycle, scheduler bug)
    or API calls never completed.  ``details`` is a structured dict:
    ``{"calls": [positions...], "kernels": [{"index", "name",
    "finished", "num_tbs", "unreleased", "stuck_tbs": [{"tb",
    "pending_parents", "unmet_parents"} | {"tb", "reason"}]}]}``.  When
    the run carried a :class:`~repro.obs.journal.JournalRecorder`,
    ``details["journal_tail"]`` additionally holds the last ~20 journal
    events — the flight recorder's black-box tail.
    """

    def __init__(self, message, details=None):
        super().__init__(message)
        self.details = details or {}


class ExecutionEngine:
    def __init__(
        self,
        plan: RuntimePlan,
        gpu_config: GPUConfig,
        options: EngineOptions,
        tracer=None,
        metrics=None,
        provenance=None,
        journal=None,
        telemetry=None,
        device=None,
    ):
        self.plan = plan
        self.config = gpu_config
        self.opts = options
        self.tracer = resolve_tracer(tracer)
        self.metrics = resolve_metrics(metrics)
        #: observation-only recorder of scheduling decisions (critpath)
        self.prov = provenance
        #: observation-only flight recorder of every engine event
        self.journal = journal
        #: observation-only time-series sampler (occupancy, queues, DLB)
        self.telemetry = telemetry
        #: the event context: what kind of event is currently executing
        #: (provenance annotation only — never consulted for scheduling)
        self._ctx = ("host",)
        self.events = EventQueue()
        self.device = device if device is not None else Device(
            gpu_config, tracer=self.tracer, metrics=self.metrics
        )
        self.timing = gpu_config.timing
        self.kernels = [_KernelState(plan=kp) for kp in plan.kernels]
        self.call_done = [False] * len(plan.order)
        self.call_done_ns = [0.0] * len(plan.order)
        self.call_enqueued = [False] * len(plan.order)
        self.call_enqueued_ns = [0.0] * len(plan.order)
        self.call_started = [False] * len(plan.order)
        self.tb_records: List[TBRecord] = []
        self.counters: Dict[str, float] = {"host_blocks": 0.0}
        #: the scalar engine's own work, not a simulated event: kept out
        #: of ``RunStats.counters`` so every engine reports the same stats
        self.dispatch_passes = 0.0
        self._host_cursor = 0
        self._host_time = 0.0
        self._call_waiters: Dict[int, list] = {}
        #: inverse adjacency of explicit graphs, for stall statistics
        self._parents_of = self._build_parents_of()
        # per-stream structures: command positions, kernel chains and
        # launch cursors (streams are independent command queues)
        self._stream_positions: Dict[int, List[int]] = {}
        self._position_in_stream: Dict[int, int] = {}
        for position, call in enumerate(plan.order):
            lst = self._stream_positions.setdefault(call.stream_id, [])
            self._position_in_stream[position] = len(lst)
            lst.append(position)
        self._stream_done_prefix: Dict[int, int] = {
            s: 0 for s in self._stream_positions
        }
        self._stream_kernels: Dict[int, List[int]] = {}
        for kp in plan.kernels:
            self._stream_kernels.setdefault(kp.stream, []).append(
                kp.kernel_index
            )
        self._stream_launch_cursor: Dict[int, int] = {
            s: 0 for s in self._stream_kernels
        }

    # ------------------------------------------------------------------
    def _build_parents_of(self):
        parents_of = {}
        for ki, kp in enumerate(self.plan.kernels):
            graph = kp.graph
            if graph is None or graph.is_fully_connected or graph.is_independent:
                continue
            inverse = [[] for _ in range(graph.num_children)]
            for p, children in enumerate(graph.children_of):
                for c in children:
                    inverse[c].append(p)
            parents_of[ki] = inverse
        return parents_of

    def _advance_done_prefix(self, stream):
        positions = self._stream_positions[stream]
        cursor = self._stream_done_prefix[stream]
        while cursor < len(positions) and self.call_done[positions[cursor]]:
            cursor += 1
        self._stream_done_prefix[stream] = cursor

    def _stream_prefix_done(self, position):
        """All earlier commands of the same stream are complete."""
        stream = self.plan.order[position].stream_id
        return (
            self._stream_done_prefix[stream]
            >= self._position_in_stream[position]
        )

    def _prereqs_done(self, position):
        if self.opts.strict_order:
            # streams are independent queues even in the baseline; each
            # processes strictly in order.  Cross-stream data
            # dependencies (the program's implicit event ordering) must
            # hold in both modes.
            if not self._stream_prefix_done(position):
                return False
            return all(self.call_done[p] for p in self.plan.deps[position])
        for p in self.plan.deps[position]:
            if self.call_done[p]:
                continue
            # BlockMaestro bypasses synchronize/event barriers: the
            # direct data dependencies are tracked separately, so a
            # pending barrier prerequisite does not gate the command.
            if isinstance(self.plan.order[p], _BYPASSED_BARRIERS):
                continue
            return False
        return True

    # ------------------------------------------------------------------
    # main entry
    # ------------------------------------------------------------------
    def run(self) -> RunStats:
        if self.prov is not None:
            self.prov.begin(self)
        if self.journal is not None:
            self.journal.begin(self)
        if self.telemetry is not None:
            self.telemetry.begin(self)
        self._init_fine_grain()
        self.events.schedule(0.0, self._host_resume)
        makespan = self.events.run()
        self.device.finalize(makespan)
        stats = RunStats(
            model=self.opts.name,
            application=self.plan.application,
            makespan_ns=makespan,
            tb_records=self.tb_records,
            kernel_records=self._kernel_records(),
            concurrency_integral=self.device.concurrency_integral,
            busy_ns=self.device.busy_ns,
            kernel_memory_requests=self.plan.total_kernel_requests(),
            dependency_memory_requests=(
                self.plan.total_dependency_requests()
                if self.opts.fine_grain and self.opts.count_dependency_traffic
                else 0.0
            ),
            graph_plain_bytes=self.plan.graph_plain_bytes,
            graph_encoded_bytes=self.plan.graph_encoded_bytes,
            counters=dict(self.counters),
        )
        self._check_all_complete()
        stats.validate_invariants()
        if self.prov is not None:
            self.prov.finalize(self)
        if self.journal is not None:
            self.journal.finalize(self)
        if self.telemetry is not None:
            self.telemetry.finalize(self)
        self._emit_trace(stats)
        self._record_metrics(stats)
        return stats

    def _journal_emit(self, kind, **fields):
        """Emit one flight-recorder event at the current engine time.

        Observation only: neither the journal nor the telemetry sampler
        feeds back into scheduling, so simulated signatures are
        byte-identical with them on or off.
        """
        if self.journal is not None:
            self.journal.emit(kind, self.events.now, **fields)
        if self.telemetry is not None:
            self.telemetry.observe(kind, self.events.now, **fields)

    # ------------------------------------------------------------------
    # observability (pure observation: derived from the finished run's
    # records, so tracing can never perturb simulated behaviour)
    # ------------------------------------------------------------------
    def _emit_trace(self, stats: RunStats):
        emit_engine_trace(
            self.tracer, self.plan, self.call_enqueued_ns,
            self.call_done_ns, stats,
        )

    def _record_metrics(self, stats: RunStats):
        record_engine_metrics(
            self.metrics, stats,
            events_processed=self.events.processed,
            peak_pending=self.events.peak_pending,
            counters=dict(self.counters, dispatch_passes=self.dispatch_passes),
        )

    def _check_all_complete(self):
        pending_calls = [p for p, done in enumerate(self.call_done) if not done]
        stuck_kernels = [ks for ks in self.kernels if not ks.completed]
        if not pending_calls and not stuck_kernels:
            return
        raise self._drain_error(pending_calls, stuck_kernels)

    def _drain_error(self, pending_calls, stuck_kernels):
        """Structured diagnosis of a drained-but-incomplete run: name
        the stuck thread blocks and their unmet parents."""
        kernel_rows = []
        for ks in stuck_kernels:
            ki = ks.plan.kernel_index
            unreleased = [
                tb for tb in range(ks.plan.num_tbs)
                if tb not in ks.tb_finish_ns
            ]
            stuck_tbs = []
            for tb in unreleased[:8]:
                if ks.pending_counters is not None:
                    prev = ks.plan.chain_prev
                    parent = self.kernels[prev] if prev is not None else None
                    parents = self._parents_of.get(ki, [[]] * ks.plan.num_tbs)
                    unmet = [
                        p for p in parents[tb]
                        if parent is None or p not in parent.tb_finish_ns
                    ]
                    stuck_tbs.append({
                        "tb": tb,
                        "pending_parents": ks.pending_counters[tb],
                        "unmet_parents": unmet[:8],
                    })
                elif not ks.resident:
                    stuck_tbs.append(
                        {"tb": tb, "reason": "kernel never became resident"}
                    )
                else:
                    stuck_tbs.append(
                        {"tb": tb, "reason": "kernel-level gate never opened"}
                    )
            kernel_rows.append({
                "index": ki,
                "name": ks.plan.name,
                "finished": ks.finished,
                "num_tbs": ks.plan.num_tbs,
                "unreleased": len(unreleased),
                "stuck_tbs": stuck_tbs,
            })
        bits = []
        for row in kernel_rows[:4]:
            desc = "k{} {} ({}/{} TBs finished, {} unreleased".format(
                row["index"], row["name"], row["finished"], row["num_tbs"],
                row["unreleased"],
            )
            if row["stuck_tbs"]:
                first = row["stuck_tbs"][0]
                if "unmet_parents" in first:
                    desc += "; tb {} waits on {} parents, e.g. {}".format(
                        first["tb"], first["pending_parents"],
                        first["unmet_parents"],
                    )
                else:
                    desc += "; " + first["reason"]
            bits.append(desc + ")")
        if len(kernel_rows) > 4:
            bits.append("... {} more kernels".format(len(kernel_rows) - 4))
        if pending_calls:
            bits.append("calls {} incomplete".format(pending_calls[:6]))
        details = {"calls": pending_calls, "kernels": kernel_rows}
        if self.journal is not None:
            # the flight recorder's black-box tail: the last events the
            # engine processed before stalling, so the report is
            # self-contained without re-running under a debugger
            tail = self.journal.tail(20)
            details["journal_tail"] = tail
            bits.append("journal tail attached ({} events)".format(len(tail)))
        return EngineDrainError(
            "event queue drained with work still outstanding: "
            + "; ".join(bits),
            details=details,
        )

    def _kernel_records(self):
        records = []
        for ks in self.kernels:
            records.append(
                KernelRecord(
                    index=ks.plan.kernel_index,
                    name=ks.plan.name,
                    num_tbs=ks.plan.num_tbs,
                    queued_ns=ks.enqueued_ns or 0.0,
                    launch_begin_ns=ks.launch_begin_ns or 0.0,
                    resident_ns=ks.resident_ns or 0.0,
                    first_tb_start_ns=ks.first_tb_start_ns or 0.0,
                    all_tbs_done_ns=ks.all_tbs_done_ns or 0.0,
                    completed_ns=ks.completed_ns or 0.0,
                    stream=ks.plan.stream,
                )
            )
        return records

    def _init_fine_grain(self):
        if self.opts.ignore_dependencies:
            return  # what-if replay: no parent counters, no gating
        for ks in self.kernels:
            graph = ks.plan.graph
            if (
                self.opts.fine_grain
                and graph is not None
                and not graph.is_fully_connected
                and not graph.is_independent
            ):
                ks.pending_counters = list(graph.parent_counts)

    # ------------------------------------------------------------------
    # host
    # ------------------------------------------------------------------
    def _host_resume(self):
        while self._host_cursor < len(self.plan.order):
            position = self._host_cursor
            call = self.plan.order[position]
            issue_at = max(self._host_time, self.events.now)
            enqueue_at = issue_at + self.opts.api_call_ns
            self._host_cursor += 1
            self._host_time = enqueue_at
            self._journal_emit(
                "host_issue",
                position=position,
                op=getattr(call, "trace_name", type(call).__name__),
                stream=call.stream_id,
                issue_ns=issue_at,
                blocking=self._host_blocks_on(call),
            )
            self.events.schedule(enqueue_at, lambda p=position: self._enqueue(p))
            if self._host_blocks_on(call):
                self.counters["host_blocks"] += 1
                # suspend: resume when this call completes
                self._wait_for_call(position, self._host_unblock)
                return

    def _host_blocks_on(self, call):
        if self.opts.blockmaestro_host:
            return call.blocks_host_blockmaestro
        return call.blocks_host_baseline

    def _host_unblock(self, position):
        self._host_time = max(self._host_time, self.call_done_ns[position])
        self._host_resume()

    def _wait_for_call(self, position, callback):
        if self.call_done[position]:
            callback(position)
            return
        self._call_waiters.setdefault(position, []).append(callback)

    # ------------------------------------------------------------------
    # command queue
    # ------------------------------------------------------------------
    def _enqueue(self, position):
        self._ctx = ("enqueue", position)
        self.call_enqueued[position] = True
        self.call_enqueued_ns[position] = self.events.now
        call = self.plan.order[position]
        self._journal_emit(
            "call_enqueue",
            position=position,
            op=getattr(call, "trace_name", type(call).__name__),
            stream=call.stream_id,
        )
        if isinstance(call, KernelLaunchCall):
            ki = self.plan.kernel_at_position[position]
            self.kernels[ki].enqueued_ns = self.events.now
        self._pump()

    def _pump(self):
        """Start every startable command; called on all state changes."""
        progress = True
        while progress:
            progress = False
            for position, call in enumerate(self.plan.order):
                if (
                    self.call_started[position]
                    or not self.call_enqueued[position]
                    or not self._prereqs_done(position)
                ):
                    continue
                if isinstance(call, KernelLaunchCall):
                    continue  # kernels go through the launch engine
                self.call_started[position] = True
                progress = True
                self._start_command(position, call)
        self._try_launch()
        self._dispatch()

    def _start_command(self, position, call):
        now = self.events.now
        if self.prov is not None:
            self.prov.note_call_start(position, now)
        self._journal_emit(
            "call_start",
            position=position,
            op=getattr(call, "trace_name", type(call).__name__),
            stream=call.stream_id,
        )
        if isinstance(call, MallocCall):
            duration = self.timing.malloc_ns
        elif isinstance(call, (MemcpyH2D, MemcpyD2H)):
            duration = self.timing.memcpy_ns(call.bytes)
        else:  # synchronizes, events, waits: bookkeeping only
            duration = 0.0
        self.events.schedule(
            now + duration, lambda: self._scheduled_complete(position)
        )

    def _scheduled_complete(self, position):
        self._ctx = ("call", position)
        self._complete_call(position)

    def _complete_call(self, position):
        if self.call_done[position]:
            return
        self.call_done[position] = True
        self.call_done_ns[position] = self.events.now
        call = self.plan.order[position]
        self._journal_emit(
            "call_complete",
            position=position,
            op=getattr(call, "trace_name", type(call).__name__),
            stream=call.stream_id,
        )
        self._advance_done_prefix(self.plan.order[position].stream_id)
        for callback in self._call_waiters.pop(position, ()):  # host resume
            callback(position)
        self._pump()

    # ------------------------------------------------------------------
    # launch engine
    # ------------------------------------------------------------------
    def _kernels_in_flight(self, stream):
        return sum(
            1
            for ki in self._stream_kernels.get(stream, ())
            if self.kernels[ki].launched and not self.kernels[ki].completed
        )

    def _try_launch(self):
        """Launch every queued kernel the pre-launch windows allow.

        Launches begin strictly in queue order *within each stream*, but
        multiple launches may be in flight at once: pre-launching the
        next w-1 kernels of a stream is what masks their launch
        overheads behind the current kernel's execution (paper Fig. 2b).
        Streams launch independently.
        """
        for stream, chain in self._stream_kernels.items():
            while True:
                cursor = self._stream_launch_cursor[stream]
                if cursor >= len(chain):
                    break
                ki = chain[cursor]
                ks = self.kernels[ki]
                position = ks.plan.order_position
                if not self.call_enqueued[position]:
                    break
                if not self._prereqs_done_for_kernel(position):
                    break
                if self._kernels_in_flight(stream) >= self.opts.window:
                    break
                ks.launched = True
                ks.launch_begin_ns = self.events.now
                ks.input_ready_ns = self._input_ready_ns(position)
                if self.prov is not None:
                    self.prov.note_launch_trigger(
                        ki, self.events.now, self._ctx
                    )
                self._journal_emit(
                    "kernel_launch",
                    kernel=ki,
                    name=ks.plan.name,
                    stream=stream,
                    edge=_edge_fields(self._ctx),
                )
                self.call_started[position] = True
                self._stream_launch_cursor[stream] = cursor + 1
                self.events.schedule(
                    self.events.now + self.opts.launch_overhead_ns,
                    lambda k=ki: self._launch_done(k),
                )

    def _prereqs_done_for_kernel(self, position):
        """Kernel launch gating.

        Strict mode: every earlier command must be complete (the
        serialized baseline).  Relaxed mode: only non-kernel true
        dependencies gate the launch — dependencies on earlier *kernels*
        are resolved by the TB scheduler, which is exactly what makes
        pre-launching legal.
        """
        if self.opts.strict_order:
            if not self._stream_prefix_done(position):
                return False
            return all(self.call_done[p] for p in self.plan.deps[position])
        for p in self.plan.deps[position]:
            if isinstance(
                self.plan.order[p],
                (KernelLaunchCall,) + _BYPASSED_BARRIERS,
            ):
                continue
            if not self.call_done[p]:
                return False
        return True

    def _input_ready_ns(self, position):
        """Completion time of the kernel's non-kernel *data*
        prerequisites (device-side data availability, used for stall
        accounting).  Kernels are handled by the TB-level graph;
        barriers are ordering, not data, so they do not count."""
        ready = 0.0
        for p in self.plan.deps[position]:
            if isinstance(
                self.plan.order[p],
                (KernelLaunchCall,) + _BYPASSED_BARRIERS,
            ):
                continue
            ready = max(ready, self.call_done_ns[p])
        return ready

    def _launch_done(self, ki):
        self._ctx = ("launch", ki)
        ks = self.kernels[ki]
        ks.resident = True
        ks.resident_ns = self.events.now
        self._journal_emit("kernel_resident", kernel=ki, name=ks.plan.name)
        self._refresh_ready(ki)
        self._pump()

    # ------------------------------------------------------------------
    # TB readiness
    # ------------------------------------------------------------------
    def _tb_eligible(self, ki):
        """Kernel-level gate before any of its TBs may run."""
        ks = self.kernels[ki]
        if not ks.resident:
            return False
        if self.opts.ignore_dependencies:
            return True
        # cross-stream data dependencies: coarse completion barriers
        for dep in ks.plan.cross_stream_deps:
            if not self.kernels[dep].completed:
                return False
        if self.opts.fine_grain:
            grandparent = ks.plan.chain_grandparent
            if ks.plan.grandparent_barrier and grandparent is not None:
                if not self.kernels[grandparent].completed:
                    return False
            return True
        # coarse: the same-stream predecessor must have finished its TBs
        prev = ks.plan.chain_prev
        if prev is None:
            return True
        return self.kernels[prev].all_tbs_done

    def _refresh_ready(self, ki):
        """(Re)compute which TBs of kernel ``ki`` are ready to dispatch."""
        ks = self.kernels[ki]
        if not self._tb_eligible(ki):
            return
        graph = ks.plan.graph
        if not ks.made_eligible:
            ks.made_eligible = True
            if self.opts.ignore_dependencies:
                self._push_all_tbs(ks)
            elif self.opts.fine_grain and graph is not None:
                if graph.is_fully_connected:
                    # children wait for the whole parent kernel
                    if not self.kernels[ks.plan.chain_prev].all_tbs_done:
                        ks.made_eligible = False
                    else:
                        self._push_all_tbs(ks)
                elif graph.is_independent:
                    self._push_all_tbs(ks)
                else:
                    for tb in range(ks.plan.num_tbs):
                        if ks.pending_counters[tb] == 0:
                            self._push_ready(ks, tb)
            else:
                self._push_all_tbs(ks)
        self._drain_deferred(ks)

    def _push_all_tbs(self, ks):
        for tb in range(ks.plan.num_tbs):
            self._push_ready(ks, tb)

    def _tracked_tasks(self, ks):
        """Tasks holding a dependency-tracking entry: ready to run or
        currently running (Wireframe's pending-update-buffer occupancy)."""
        return len(ks.ready) + (ks.dispatched - ks.finished)

    def _push_ready(self, ks, tb):
        if (
            self.opts.ready_capacity is not None
            and self._tracked_tasks(ks) >= self.opts.ready_capacity
        ):
            ks.deferred_ready.append(tb)
            return
        ks.ready.append(tb)
        ks.queued_ready += 1
        if self.prov is not None:
            self.prov.note_ready(
                ks.plan.kernel_index, tb, self.events.now, self._ctx
            )
        self._journal_emit(
            "tb_ready",
            kernel=ks.plan.kernel_index,
            tb=tb,
            edge=_edge_fields(self._ctx),
        )

    def _drain_deferred(self, ks):
        capacity = self.opts.ready_capacity
        while ks.deferred_ready and (
            capacity is None or self._tracked_tasks(ks) < capacity
        ):
            tb = ks.deferred_ready.popleft()
            ks.ready.append(tb)
            ks.queued_ready += 1
            if self.prov is not None:
                self.prov.note_ready(
                    ks.plan.kernel_index, tb, self.events.now, self._ctx
                )
            self._journal_emit(
                "tb_ready",
                kernel=ks.plan.kernel_index,
                tb=tb,
                edge=_edge_fields(self._ctx),
            )

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    def _kernel_dispatch_order(self):
        active = [
            ks
            for ks in self.kernels
            if ks.resident and ks.dispatched < ks.plan.num_tbs
        ]
        if self.opts.policy.prefers_consumer:
            return list(reversed(active))
        return active

    def _producer_gate_ok(self, ks):
        """Producer priority: a kernel's TBs may dispatch only once every
        older resident kernel *of its stream* has scheduled all of its
        TBs (streams contend for slots but do not gate each other)."""
        if self.opts.policy.prefers_consumer:
            return True
        prev = ks.plan.chain_prev
        while prev is not None:
            other = self.kernels[prev]
            if other.launched and other.dispatched < other.plan.num_tbs:
                return False
            prev = other.plan.chain_prev
        return True

    def _dispatch(self):
        self.dispatch_passes += 1
        now = self.events.now
        for ks in self._kernel_dispatch_order():
            if not ks.ready or not self._producer_gate_ok(ks):
                continue
            threads = ks.plan.threads_per_tb
            while ks.ready:
                sm = self.device.try_place(threads, now)
                if sm is None:
                    break  # saturated for this block size; try others
                tb = ks.ready.popleft()
                if self.prov is not None:
                    self.prov.note_start(
                        ks.plan.kernel_index, tb, now, self._ctx
                    )
                self._journal_emit(
                    "tb_dispatch",
                    kernel=ks.plan.kernel_index,
                    tb=tb,
                    sm=sm,
                    edge=_edge_fields(self._ctx),
                )
                self._drain_deferred(ks)
                ks.dispatched += 1
                if ks.first_tb_start_ns is None:
                    ks.first_tb_start_ns = now
                duration = ks.plan.tb_duration_ns(tb)
                ready_ns = self._tb_ready_time(ks, tb)
                record = TBRecord(
                    kernel_index=ks.plan.kernel_index,
                    tb_id=tb,
                    ready_ns=min(ready_ns, now),
                    start_ns=now,
                    finish_ns=now + duration,
                    sm=sm,
                )
                self.tb_records.append(record)
                self.events.schedule(
                    now + duration,
                    lambda k=ks, t=tb, s=sm, th=threads: self._tb_finished(
                        k, t, s, th
                    ),
                )

    def _tb_ready_time(self, ks, tb):
        """Data-availability time for stall statistics (model independent:
        when were this block's dependencies actually satisfied?)."""
        ki = ks.plan.kernel_index
        ready = ks.input_ready_ns
        if self.opts.ignore_dependencies:
            return ready  # only input data gates blocks in this replay
        graph = ks.plan.graph
        if graph is not None and ks.plan.chain_prev is not None:
            parent = self.kernels[ks.plan.chain_prev]
            if graph.is_fully_connected:
                ready = max(ready, parent.all_tbs_done_ns or ready)
            elif not graph.is_independent:
                for p in self._parents_of[ki][tb]:
                    ready = max(ready, parent.tb_finish_ns.get(p, ready))
        grandparent = ks.plan.chain_grandparent
        if ks.plan.grandparent_barrier and grandparent is not None:
            older = self.kernels[grandparent]
            if older.completed_ns is not None:
                ready = max(ready, older.completed_ns)
        for dep in ks.plan.cross_stream_deps:
            dep_done = self.kernels[dep].completed_ns
            if dep_done is not None:
                ready = max(ready, dep_done)
        return ready

    # ------------------------------------------------------------------
    def _tb_finished(self, ks, tb, sm, threads):
        now = self.events.now
        ki = ks.plan.kernel_index
        self._ctx = ("tb_finish", ki, tb)
        self._journal_emit("tb_finish", kernel=ki, tb=tb, sm=sm)
        self.device.release(sm, threads, now)
        ks.finished += 1
        ks.tb_finish_ns[tb] = now
        self._drain_deferred(ks)  # a tracking entry freed up
        child_ki = ks.plan.chain_next
        # resolve children's parent counters (dependency list lookup)
        if self.opts.fine_grain and child_ki is not None:
            child = self.kernels[child_ki]
            graph = child.plan.graph
            if graph is not None and child.pending_counters is not None:
                for c in graph.children(tb):
                    child.pending_counters[c] -= 1
                    if child.pending_counters[c] == 0 and child.made_eligible:
                        self._push_ready(child, c)
        if ks.finished == ks.plan.num_tbs:
            ks.all_tbs_done = True
            ks.all_tbs_done_ns = now
            self._journal_emit("kernel_drain", kernel=ki, name=ks.plan.name)
            self._on_all_tbs_done(ki)
            self._ctx = ("tb_finish", ki, tb)  # leaving the cascade
        if child_ki is not None:
            self._refresh_ready(child_ki)
        self._dispatch()

    def _on_all_tbs_done(self, ki):
        # in-order completion cascade along the stream's kernel chain
        idx = ki
        while idx is not None:
            ks = self.kernels[idx]
            if ks.completed or not ks.all_tbs_done:
                break
            prev = ks.plan.chain_prev
            if prev is not None and not self.kernels[prev].completed:
                break
            ks.completed = True
            ks.completed_ns = self.events.now
            self._ctx = ("completion", idx)
            self._journal_emit(
                "kernel_complete", kernel=idx, name=ks.plan.name
            )
            self._complete_call(ks.plan.order_position)
            # downstream kernels gated on this completion may unblock:
            # same-stream descendants (grandparent barriers, coarse
            # blocking) and cross-stream dependents
            child = ks.plan.chain_next
            hops = 0
            while child is not None and hops < 2:
                self._refresh_ready(child)
                child = self.kernels[child].plan.chain_next
                hops += 1
            for other in self.kernels:
                if idx in other.plan.cross_stream_deps:
                    self._refresh_ready(other.plan.kernel_index)
            idx = ks.plan.chain_next
        self._pump()


# ----------------------------------------------------------------------
# shared observability emitters (pure observation, derived from the
# finished run's records — used by both the scalar engine above and the
# batched tier in repro.models.fastengine, so trace and metrics output
# is identical whichever engine produced the stats)
# ----------------------------------------------------------------------
def emit_engine_trace(tracer, plan, call_enqueued_ns, call_done_ns, stats):
    if not tracer.enabled:
        return
    # host command queue: one span per API call, enqueue → complete
    for position, call in enumerate(plan.order):
        tracer.name_thread(
            PID_HOST, call.stream_id, "stream {}".format(call.stream_id)
        )
        tracer.sim_span(
            call.trace_name,
            call_enqueued_ns[position],
            call_done_ns[position],
            cat="host.queue",
            pid=PID_HOST,
            tid=call.stream_id,
            args=call.trace_args(),
        )
    # kernel lifecycle phases: one thread row per kernel so phases of
    # concurrently in-flight kernels never collide
    for kr in stats.kernel_records:
        tid = kr.index
        tracer.name_thread(
            PID_DEVICE, tid, "k{:02d} {} (s{})".format(kr.index, kr.name, kr.stream)
        )
        info = {"kernel": kr.name, "index": kr.index, "stream": kr.stream}
        if kr.launch_begin_ns > kr.queued_ns:
            tracer.sim_span(
                "queued", kr.queued_ns, kr.launch_begin_ns,
                cat="kernel.queued", pid=PID_DEVICE, tid=tid, args=info,
            )
        tracer.sim_span(
            "launch", kr.launch_begin_ns, kr.resident_ns,
            cat="kernel.launch", pid=PID_DEVICE, tid=tid, args=info,
        )
        first = kr.first_tb_start_ns or kr.resident_ns
        if first > kr.resident_ns:
            tracer.sim_span(
                "stall", kr.resident_ns, first,
                cat="kernel.stall", pid=PID_DEVICE, tid=tid, args=info,
            )
        tracer.sim_span(
            "exec", first, kr.all_tbs_done_ns,
            cat="kernel.exec", pid=PID_DEVICE, tid=tid,
            args=dict(info, num_tbs=kr.num_tbs),
        )
        tracer.instant(
            "complete", ts_us=kr.completed_ns / 1e3,
            cat="kernel.complete", pid=PID_DEVICE, tid=tid, args=info,
        )
    # per-TB lifecycle on SM rows; async events because blocks of
    # several kernels overlap on one SM
    for tb in stats.tb_records:
        tracer.name_thread(PID_SM, tb.sm, "SM {:02d}".format(tb.sm))
        event_id = "k{}.tb{}".format(tb.kernel_index, tb.tb_id)
        name = "k{}/tb{}".format(tb.kernel_index, tb.tb_id)
        tracer.async_begin(
            name, tb.start_ns / 1e3, event_id,
            cat="tb", pid=PID_SM, tid=tb.sm,
            args={
                "kernel": tb.kernel_index,
                "tb": tb.tb_id,
                "ready_ns": tb.ready_ns,
                "stall_ns": tb.stall_ns,
            },
        )
        tracer.async_end(name, tb.finish_ns / 1e3, event_id, cat="tb",
                         pid=PID_SM, tid=tb.sm)


def record_engine_metrics(metrics, stats, events_processed, peak_pending,
                          counters):
    m = metrics
    if not m.enabled:
        return
    m.set_gauge("engine.makespan_ns", stats.makespan_ns)
    m.set_gauge("engine.avg_tb_concurrency", stats.avg_tb_concurrency())
    m.set_gauge("engine.events_processed", events_processed)
    m.set_gauge("engine.peak_pending_events", peak_pending)
    for name, value in counters.items():
        m.set_gauge("engine.{}".format(name), value)
    for tb in stats.tb_records:
        m.observe("engine.tb_stall_ns", tb.stall_ns)
        m.observe("engine.tb_duration_ns", tb.duration_ns)
