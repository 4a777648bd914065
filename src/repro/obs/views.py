"""One observed pass: critpath, journal and telemetry as views of one
engine event stream.

The scalar engine (:class:`repro.models.base.ExecutionEngine`) has a
single observer seam.  Every observer implements one protocol:

* ``begin(engine)`` — once, before the first event;
* ``emit(kind, t_ns, **fields)`` — at every scheduling decision, in
  simulation order (:data:`repro.obs.journal.EVENT_KINDS`).  The
  ``kernel_launch``, ``tb_ready`` and ``tb_dispatch`` events carry an
  ``edge`` field, the release edge that caused them
  (:func:`repro.obs.journal.edge_fields`), built once per event;
* ``finalize(engine)`` — once, after the run completed.

The three views are the critical-path
:class:`~repro.obs.critpath.ProvenanceRecorder`, the
:class:`~repro.obs.journal.JournalRecorder` flight recorder and the
:class:`~repro.obs.telemetry.TelemetrySampler`.  :func:`observe_plan`
simulates a plan once with exactly the views asked for, and
:func:`observe_workload` puts the registry build → plan → roster model
steps in front of it.  Every entry point that wants a view goes
through them, so several views of one run cost one simulation.

Import note: like the views themselves, this module must not be
imported from ``repro.obs.__init__`` — the engine imports ``repro.obs``
at module load, and :func:`observe_workload` imports the engine.
"""

from dataclasses import dataclass
from typing import Optional

from repro.obs import critpath as cp
from repro.obs import journal as jr
from repro.obs import resolve_tracer
from repro.obs import telemetry as tm

#: view name -> its observer class
VIEWS = {
    "critpath": cp.ProvenanceRecorder,
    "journal": jr.JournalRecorder,
    "telemetry": tm.TelemetrySampler,
}


@dataclass
class Observation:
    """One observed run: its stats, the plan and model that produced
    them, and the views that watched it (``None`` where not asked)."""

    stats: object
    plan: object
    model: object
    critpath: Optional[cp.ProvenanceRecorder] = None
    journal: Optional[jr.JournalRecorder] = None
    telemetry: Optional[tm.TelemetrySampler] = None

    def critpath_report(self, whatif=False):
        return cp.build_report(
            self.stats, self.plan, self.critpath, self.model.gpu_config,
            options=self.model.options(), whatif=whatif,
        )

    def telemetry_report(self):
        return tm.build_report(self.stats, self.telemetry)


def observe_plan(model, plan, views=tuple(VIEWS), tracer=None, metrics=None):
    """Simulate ``plan`` on ``model`` once, with exactly ``views``."""
    recorders = {name: VIEWS[name]() for name in views}
    stats = model.run(
        plan, tracer=tracer, metrics=metrics,
        provenance=recorders.get("critpath"),
        journal=recorders.get("journal"),
        telemetry=recorders.get("telemetry"),
    )
    return Observation(stats, plan, model, **recorders)


def observe_workload(workload, model="consumer3", views=tuple(VIEWS),
                     build_small=False, cache=None, tracer=None,
                     metrics=None):
    """Build, plan and simulate one registry workload once, with
    exactly ``views``; ``cache`` memoizes the launch-time analysis."""
    # Imported lazily: the engine imports repro.obs at module load.
    from repro.core.runtime import BlockMaestroRuntime
    from repro.experiments.common import (
        _make_model,
        _model_plan_params,
        canonical_model_name,
    )
    from repro.workloads import get_workload

    spec = get_workload(workload)
    build_span = "workload.build:{}".format(spec.name)
    with resolve_tracer(tracer).span(build_span, cat="ptx"):
        app = spec.build_small() if build_small else spec.build()
    model_name = canonical_model_name(model)
    reorder, window = _model_plan_params(model_name)
    runtime = BlockMaestroRuntime(tracer=tracer, metrics=metrics, cache=cache)
    plan = runtime.plan(app, reorder=reorder, window=window)
    engine_model = _make_model(model_name, runtime.config)
    return observe_plan(engine_model, plan, views, tracer, metrics)
