"""The benchmark's workloads, each a closed loop from this one process.

Every workload returns a :class:`Measurement`: set-up times, the
latencies of its foreground requests, the time of each key in each
complete pass over its fixed key set, peak memory, the checked-operation
tally and, in the traced pass, per-layer figures.  The same code runs in
both passes; only the span recorder and the metrics registry differ.

Workloads (why each exists is in ``README.md``; ``BENCHMARK.json``
bounds ``sweep`` and ``serve``):

* ``cli-cold``: one client runs ``python -m repro run <app> --model <m>
  --json`` processes back to back over :data:`CLI_CELLS`;
* ``sweep``: in-process passes over the registry x roster (84 cells)
  plus :data:`FUZZ_APPS` seeded generated apps, fresh
  ``ExperimentContext`` per app, no cache, no tracer.  Its request is
  the whole pass, which is what the researcher running it waits for;
* ``serve``: a fresh daemon, primed with :data:`WARM_KEYS`, first idle
  with one client repeating warm keys, then loaded: a cold client walks
  :data:`COLD_KEYS` while the warm client keeps repeating warm keys,
  paced at :data:`LOADED_PACE_S`.
"""

import itertools
import json
import os
import random
import resource
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field

from perfbench import bench_stats
from perfbench.common import OUT_DIR, canonical_json, simulated_run
from perfbench.oracle import (
    OBSERVER_CELLS,
    REFERENCE_ENV,
    Tally,
    cell_key,
    check_payload,
    matches,
)

#: set-ups a run makes; ``setup_s`` is their median
SETUP_REPEATS = 5

CLI_CELLS = (
    ("path", "baseline"),
    ("hs", "consumer3"),
    ("mvt", "consumer3"),
    ("fdtd-2d", "producer"),
    ("bicg", "baseline"),
)
#: the set-up invocation that warms the OS and bytecode caches
CLI_WARMUP = ("path", "baseline")
#: a run measures at least this many passes: 40 invocations, the fewest
#: that give the p75 tail its 10 samples beyond
CLI_MIN_PASSES = 8
TRACED_CLI_PASSES = 2

FUZZ_APPS = 4
#: a pass takes 11-22 s on the reference machine, as its shared host's
#: load varies; a run makes at least this many, and more while they fit
SWEEP_MIN_PASSES = 2
FINE_GRAIN_MODELS = ("producer", "consumer2", "consumer3", "consumer4")

WARM_KEYS = tuple(
    ("run", workload, model)
    for workload in ("path", "3mm", "bicg", "fdtd-2d")
    for model in ("baseline", "consumer3")
)
COLD_KEYS = tuple(
    ("run", workload, model)
    for workload in ("alexnet", "fft", "gaussian", "hs", "lud", "mvt", "nw")
    for model in ("baseline", "consumer3")
) + OBSERVER_CELLS

#: the loaded phase's warm client sends at most one request this often
LOADED_PACE_S = 0.1
#: share of ``--seconds`` the serve workload spends idle, before the
#: walks; the idle figures are only reported, so the bounded walks get
#: the rest
IDLE_SHARE = 0.1
#: one cold walk takes 6-14 s on the reference machine; a run makes at
#: least this many, and more while they fit
LOADED_MIN_WALKS = 2

#: warm cycles of the serve probe on workloads without a daemon, and of
#: the idle phase of the traced serve pass
SERVE_PROBE_CYCLES = 25

IMPORTTIME_PACKAGES = ("serve", "obs", "analysis", "numpy")
#: what every invocation imports before dispatching: the module, then
#: the imports ``build_parser`` makes for its subcommands
IMPORTTIME_PROBE = "import repro.cli; repro.cli.build_parser()"

#: ``python -c`` body timing ``import repro.cli`` and ``build_parser()``
CLI_PROBE = (
    "import json, time\n"
    "t0 = time.perf_counter()\n"
    "import repro.cli\n"
    "t1 = time.perf_counter()\n"
    "repro.cli.build_parser()\n"
    "t2 = time.perf_counter()\n"
    "print(json.dumps({'import_s': t1 - t0, 'build_parser_s': t2 - t1}))\n"
)
SWEEP_IMPORTS = (
    "import repro.experiments.common, repro.obs.report, repro.workloads"
)


@dataclass
class RunContext:
    seed: int
    seconds: float
    oracle: dict
    recorder: object
    registry: object = None  # MetricsRegistry in the traced pass

    @property
    def traced(self):
        return self.recorder.enabled


@dataclass
class Measurement:
    setup_s: list = field(default_factory=list)
    latencies_s: list = field(default_factory=list)
    #: one ``{key: seconds}`` per complete pass over the fixed key set
    passes: list = field(default_factory=list)
    #: the request is the whole pass (sweep): no per-request latencies
    pass_is_request: bool = False
    rss_mb: float = 0.0
    tail_cap: int = 999
    #: figures printed in the report but not bounded: ``{name: (value, unit)}``
    report: dict = field(default_factory=dict)
    tally: Tally = field(default_factory=Tally)
    layers: dict = field(default_factory=dict)
    orders: list = field(default_factory=list)
    #: traced serve pass: warm client ms minus daemon ms, per request
    waits_ms: list = field(default_factory=list)


# ----------------------------------------------------------------------
# in-process layers, shared by the sweep and the cli-cold traced pass
# ----------------------------------------------------------------------
class LayerTotals:
    """Per-layer sums over the in-process cells of one traced pass."""

    def __init__(self):
        self.build_s = 0.0
        self.plans_s = []
        self.run_s = {"fine": 0.0, "coarse": 0.0}
        self.serialize_s = 0.0
        self.tbs = 0
        self.run_traced_s = 0.0

    def layers(self, registry):
        counters = registry.snapshot()["counters"] if registry else {}
        tiers = {
            tier: counters.get("engine.tier." + tier, 0.0)
            for tier in ("vectorized", "closed_form", "reference")
        }
        run_s = self.run_s["fine"] + self.run_s["coarse"]
        layers = {
            "workloads.build_s": self.build_s,
            "core.plan_s": sum(self.plans_s),
            "core.plan_max_s": max(self.plans_s, default=0.0),
            "models.run_s": run_s,
            "models.run_finegrain_s": self.run_s["fine"],
            "models.run_coarse_s": self.run_s["coarse"],
            "models.tbs_per_s": self.tbs / run_s if run_s else 0.0,
            "obs.serialize_s": self.serialize_s,
            "obs.tracer_overhead": self.run_traced_s / run_s if run_s else 0.0,
            "analysis.summary_cache_hits": counters.get(
                "plan.analysis_cache_hits", 0.0
            ),
            "engine.fallback.fine_grain_graph": counters.get(
                "engine.fallback.fine_grain_graph", 0.0
            ),
            "engine.fast_ratio": (
                (tiers["vectorized"] + tiers["closed_form"]) / sum(tiers.values())
                if sum(tiers.values()) else 0.0
            ),
        }
        for tier in ("closed_form", "vectorized", "reference"):
            layers["analysis.fastpath." + tier] = counters.get(
                "analysis.fastpath." + tier, 0.0
            )
            layers["engine.tier." + tier] = tiers[tier]
        return layers


def _plan_params():
    from repro.experiments.common import STANDARD_MODELS

    return {name: (reorder, window) for name, _f, reorder, window in STANDARD_MODELS}


def run_app(rec, spec, models, totals=None, op=None):
    """Build one app and run ``models`` on it with a fresh context.

    This is the ``experiments`` / ``bench run`` path: ``WorkloadSpec.build``
    -> ``plan_for`` -> ``run_model`` -> ``run_stats_dict`` + ``json.dumps``.
    Returns ``[(model, seconds, run_stats_dict)]``; the first cell's
    seconds include the context and the build.  With ``totals`` (the
    traced pass) the per-layer sums are accumulated and each simulation
    is repeated with a ``repro.obs.Tracer`` attached, untimed by the
    cell, to measure tracer overhead.
    """
    from repro.experiments.common import ExperimentContext
    from repro.obs.report import run_stats_dict

    params = _plan_params()
    cells = []
    started = time.perf_counter()
    with rec.span("app", op=op):
        context = ExperimentContext()
        with rec.span("workloads.build"):
            built = time.perf_counter()
            app = spec.build()
            if totals is not None:
                totals.build_s += time.perf_counter() - built
        for model in models:
            reorder, window = params[model]
            with rec.span("cell"):
                with rec.span("core.plan"):
                    planned = time.perf_counter()
                    context.plan_for(app, reorder, window)
                    plan_s = time.perf_counter() - planned
                with rec.span("models.run"):
                    ran = time.perf_counter()
                    stats = context.run_model(app, model)
                    run_s = time.perf_counter() - ran
                with rec.span("obs.serialize"):
                    serialized = time.perf_counter()
                    payload = run_stats_dict(stats)
                    json.dumps(payload, sort_keys=True)
                    serialize_s = time.perf_counter() - serialized
            now = time.perf_counter()
            cells.append((model, now - started, payload))
            if totals is not None:
                totals.plans_s.append(plan_s)
                kind = "fine" if model in FINE_GRAIN_MODELS else "coarse"
                totals.run_s[kind] += run_s
                totals.serialize_s += serialize_s
                totals.tbs += len(stats.tb_records)
                with rec.span("bench.tracer_rerun"):
                    totals.run_traced_s += _traced_model_run(
                        context, app, model, reorder, window
                    )
            del stats
            started = time.perf_counter()
    return cells


def _traced_model_run(context, app, model, reorder, window):
    """Seconds of one ``model.run`` with a ``repro.obs.Tracer`` attached."""
    # The roster factory is the one the CLI and the daemon use; the
    # memoized run_model cannot be re-run with a tracer.
    from repro.experiments.common import _make_model
    from repro.obs import NULL_METRICS, Tracer

    plan = context.plan_for(app, reorder, window)
    engine_model = _make_model(model, context.gpu_config)
    tracer = Tracer()
    started = time.perf_counter()
    engine_model.run(plan, tracer=tracer, metrics=NULL_METRICS)
    return time.perf_counter() - started


def _observing(run):
    """Ambient metrics registry for the traced pass (no ``Tracer``)."""
    from contextlib import nullcontext

    from repro.obs import NULL_TRACER, observed

    if run.registry is None:
        return nullcontext()
    return observed(tracer=NULL_TRACER, metrics=run.registry)


def _time_child(argv):
    """Wall seconds and the completed process of one child run."""
    started = time.perf_counter()
    proc = subprocess.run(
        argv, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
        timeout=120,
    )
    return time.perf_counter() - started, proc


# ----------------------------------------------------------------------
# cli-cold
# ----------------------------------------------------------------------
def _cli_invoke(run, workload, model, tally, op):
    argv = [sys.executable, "-m", "repro", "run", workload, "--model", model,
            "--json"]
    with run.recorder.span("cli.run", op=op):
        seconds, proc = _time_child(argv)
    key = cell_key("run", workload, model)
    if proc.returncode != 0:
        tally.record(False, "{}: exit {}: {}".format(
            key, proc.returncode, proc.stderr.strip()[-200:]))
        return seconds
    try:
        payload = json.loads(proc.stdout)
    except ValueError:
        tally.record(False, "{}: stdout is not JSON".format(key))
        return seconds
    check_payload(run.oracle, key, payload, tally)
    return seconds


def cli_cold(run):
    m = Measurement(tail_cap=750)
    rng = random.Random(run.seed)
    for _ in range(SETUP_REPEATS):
        started = time.perf_counter()
        with run.recorder.span("setup"):
            _cli_invoke(run, *CLI_WARMUP, m.tally, op="setup")
        m.setup_s.append(time.perf_counter() - started)
    started = time.perf_counter()
    # the traced pass needs passes to compare and layers, not a tail
    while (
        len(m.passes) < TRACED_CLI_PASSES if run.traced
        else len(m.passes) < CLI_MIN_PASSES
        or time.perf_counter() - started < run.seconds
    ):
        order = rng.sample(CLI_CELLS, len(CLI_CELLS))
        m.orders.append(["{}/{}".format(*cell) for cell in order])
        times = {}
        for workload, model in order:
            seconds = _cli_invoke(
                run, workload, model, m.tally, op=len(m.latencies_s)
            )
            m.latencies_s.append(seconds)
            times["{}/{}".format(workload, model)] = seconds
        m.passes.append(times)
    m.rss_mb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    if run.traced:
        m.layers.update(_layer_probes(run, m.tally, CLI_CELLS, serve=True))
    return m


# ----------------------------------------------------------------------
# layer probes: what a workload's own traced pass does not measure
# ----------------------------------------------------------------------
def _layer_probes(run, tally, cells, serve):
    """Every per-layer figure the workload's own pass left unmeasured.

    Each workload measures its own layers natively; the rest are probed
    so that every layer is measured on every workload: the CLI start-up
    layers, the in-process layers on ``cells`` (the workload's own
    (workload, model) keys; ``None`` when measured natively), the
    observer layers on the cold walk's observer cells and, for ``serve``,
    the daemon on a primed warm set.
    """
    layers = _cli_probes(run.recorder)
    if cells is not None:
        layers.update(_inprocess_layers(run, tally, cells))
    layers.update(_observer_probes(run))
    if serve:
        layers.update(_serve_probe(run, tally))
    return layers


def _cli_probes(rec):
    """Interpreter floor, ``import repro.cli``, parser build, import rollup."""
    interp, imports, parsers = [], [], []
    for _ in range(5):
        with rec.span("cli.interp", op="probe"):
            seconds, _proc = _time_child([sys.executable, "-c", "pass"])
        interp.append(seconds)
        with rec.span("cli.import", op="probe"):
            _seconds, proc = _time_child([sys.executable, "-c", CLI_PROBE])
        probe = json.loads(proc.stdout)
        imports.append(probe["import_s"])
        parsers.append(probe["build_parser_s"])
    with rec.span("cli.importtime", op="probe"):
        _seconds, proc = _time_child(
            [sys.executable, "-X", "importtime", "-c", IMPORTTIME_PROBE]
        )
    packages = {
        package: package if package == "numpy" else "repro." + package
        for package in IMPORTTIME_PACKAGES
    }
    rollup = importtime_rollup(proc.stderr, list(packages.values()))
    layers = {
        "cli.interp_s": bench_stats.median(interp),
        "cli.import_s": bench_stats.median(imports),
        "cli.build_parser_s": bench_stats.median(parsers),
    }
    for package, module in packages.items():
        layers["cli.import.{}_s".format(package)] = rollup[module]
    return layers


def _inprocess_layers(run, tally, cells):
    """The sweep's in-process path over ``cells``, one fresh context per app."""
    from repro.workloads import get_workload

    by_app = {}
    for workload, model in cells:
        by_app.setdefault(workload, []).append(model)
    totals = LayerTotals()
    with _observing(run):
        for workload, models in by_app.items():
            for model, _seconds, payload in run_app(
                run.recorder, get_workload(workload), models, totals,
                op="inproc",
            ):
                check_payload(run.oracle, cell_key("run", workload, model),
                              payload, tally)
    return totals.layers(run.registry)


def _observer_probes(run):
    """Seconds of the critpath and telemetry passes on the observer cells.

    In process, through ``ExperimentContext.critpath_attribution`` and
    ``telemetry_summary``; the plan is built first, outside the timing.
    """
    from repro.experiments.common import ExperimentContext
    from repro.workloads import get_workload

    params = _plan_params()
    seconds = {"critpath": 0.0, "telemetry": 0.0}
    for kind, workload, model in OBSERVER_CELLS:
        context = ExperimentContext()
        app = get_workload(workload).build()
        context.plan_for(app, *params[model])
        observe = (
            context.critpath_attribution if kind == "critpath"
            else context.telemetry_summary
        )
        with run.recorder.span("obs." + kind, op="probe"):
            started = time.perf_counter()
            observe(app, model)
            seconds[kind] += time.perf_counter() - started
    return {"obs.{}_s".format(kind): value for kind, value in seconds.items()}


def _serve_probe(run, tally):
    """The daemon layer for a workload without one: warm reads, idle."""
    m = Measurement()
    daemon = _Daemon(run, tally, _trace_path(run, "probe", 0))
    warm = _WarmClient(run, daemon.daemon.url, random.Random(run.seed))
    try:
        for _ in range(SERVE_PROBE_CYCLES):
            warm.cycle()
    finally:
        _finish_daemon(run, daemon, m, warm.asked, [], len(WARM_KEYS))
    tally.merge(warm.tally)
    tally.merge(m.tally)
    _fold_waits(m)
    return m.layers


def importtime_rollup(stderr_text, packages):
    """Cumulative import seconds per package, from ``-X importtime``.

    A package's figure sums the cumulative column of each module of the
    package that was imported from outside it, so it is what importing
    the package costs, including the modules it pulls in.
    """
    rows = []
    for line in stderr_text.splitlines():
        if not line.startswith("import time:"):
            continue
        fields = line[len("import time:"):].split("|")
        if len(fields) != 3 or not fields[1].strip().isdigit():
            continue  # the column header
        name = fields[2].rstrip()
        depth = (len(name) - len(name.lstrip())) // 2
        rows.append((depth, name.strip(), int(fields[1]) / 1e6))

    def owner(module):
        for package in packages:
            if module == package or module.startswith(package + "."):
                return package
        return None

    totals = dict.fromkeys(packages, 0.0)
    stack = []  # (depth, module) of the ancestors, outermost first
    # importtime prints a module after its imports; reversed, each line
    # follows its parent
    for depth, module, cumulative in reversed(rows):
        while stack and stack[-1][0] >= depth:
            stack.pop()
        package = owner(module)
        if package is not None and (not stack or owner(stack[-1][1]) != package):
            totals[package] += cumulative
        stack.append((depth, module))
    return totals


# ----------------------------------------------------------------------
# sweep
# ----------------------------------------------------------------------
def sweep(run):
    m = Measurement(pass_is_request=True)
    rng = random.Random(run.seed)
    for _ in range(SETUP_REPEATS):
        with run.recorder.span("setup"):
            seconds, proc = _time_child([sys.executable, "-c", SWEEP_IMPORTS])
        m.tally.record(proc.returncode == 0, "sweep imports failed")
        m.setup_s.append(seconds)

    from repro.experiments.common import STANDARD_MODELS
    from repro.workloads import all_workloads, get_workload

    # roster order within an app, as ExperimentContext.run_all: the
    # first model of each plan key pays its analysis, the same cells
    # in every run
    models = [name for name, _f, _r, _w in STANDARD_MODELS]
    registry = [spec.name for spec in all_workloads()]
    fuzz = ["fuzz-{}".format(run.seed + index) for index in range(FUZZ_APPS)]
    fuzz_outputs = {}
    totals = LayerTotals() if run.traced else None
    started = time.perf_counter()
    with _observing(run):
        # the traced pass sums layers over exactly one pass; otherwise
        # make SWEEP_MIN_PASSES, then pass again while a pass of the last
        # one's length fits
        while not m.passes or (
            not run.traced
            and (
                len(m.passes) < SWEEP_MIN_PASSES
                or time.perf_counter() - started + sum(m.passes[-1].values())
                <= run.seconds
            )
        ):
            apps = rng.sample(registry + fuzz, len(registry) + len(fuzz))
            times, order = {}, []
            for name in apps:
                order.append(name)
                cells = run_app(
                    run.recorder, get_workload(name), models, totals, op=name,
                )
                for model, seconds, payload in cells:
                    times["{}/{}".format(name, model)] = seconds
                    if name in fuzz:
                        fuzz_outputs.setdefault((name, model), []).append(
                            canonical_json(simulated_run(payload))
                        )
                    else:
                        check_payload(run.oracle, cell_key("run", name, model),
                                      payload, m.tally)
            m.passes.append(times)
            m.orders.append(order)
    m.rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    _check_fuzz(fuzz, models, fuzz_outputs, m.tally)
    if totals is not None:
        m.layers.update(totals.layers(run.registry))
        m.layers.update(_layer_probes(run, m.tally, None, serve=True))
    return m


def _check_fuzz(fuzz, models, outputs, tally):
    """Held-out apps: every timed output must equal the scalar oracle's.

    Untimed.  The reference run pins both fast paths to their scalar
    oracles, the same settings the committed digests were made under.
    """
    from repro.core.runtime import BlockMaestroRuntime
    from repro.experiments.common import ExperimentContext
    from repro.obs.report import run_stats_dict
    from repro.workloads import get_workload

    saved = os.environ.get("REPRO_ENGINE")
    os.environ["REPRO_ENGINE"] = REFERENCE_ENV["REPRO_ENGINE"]
    try:
        for name in fuzz:
            context = ExperimentContext(
                runtime=BlockMaestroRuntime(
                    fastpath=REFERENCE_ENV["REPRO_FASTPATH"]
                )
            )
            app = get_workload(name).build()
            for model in models:
                expected = canonical_json(
                    simulated_run(run_stats_dict(context.run_model(app, model)))
                )
                for text in outputs.get((name, model), ()):
                    tally.record(
                        text == expected,
                        "{}/{}: differs from the reference run".format(
                            name, model
                        ),
                    )
    finally:
        if saved is None:
            del os.environ["REPRO_ENGINE"]
        else:
            os.environ["REPRO_ENGINE"] = saved


# ----------------------------------------------------------------------
# serve
# ----------------------------------------------------------------------
def _ask(client, key, tally, oracle, rec, span, op, source=None, asked=None):
    """One checked request; returns ``(seconds, envelope or None)``.

    ``asked`` collects ``(seconds, request id, span id)`` of each answered
    request, for the daemon-side times of the traced pass.

    It fails on a non-200 response, on output that differs from the
    oracle and, when ``source`` is given, on any other answer source.
    """
    from repro.serve import ClientError

    kind, workload, model = key
    started = time.perf_counter()
    try:
        with rec.span(span, op=op) as span_id:
            envelope = getattr(client, kind)(workload, model=model)
    except ClientError as exc:
        tally.record(False, "{}: {}".format(cell_key(*key), exc))
        return time.perf_counter() - started, None
    seconds = time.perf_counter() - started
    if asked is not None:
        asked.append((seconds, envelope["request_id"], span_id))
    ok, note = matches(oracle, cell_key(*key), envelope["result"])
    if ok and source is not None and envelope["source"] != source:
        ok, note = False, "{}: answered from {}, not {}".format(
            cell_key(*key), envelope["source"], source
        )
    tally.record(ok, note)
    return seconds, envelope


class _Daemon:
    """One primed daemon: spawn, handshake and the warm set."""

    def __init__(self, run, tally, trace_path=None):
        from perfbench.serving import spawned_daemon

        self.trace_path = trace_path
        args = ["--trace-out", str(trace_path)] if trace_path else []
        self._context = spawned_daemon(args)
        self.daemon, self.client = self._context.__enter__()
        try:
            for key in WARM_KEYS:
                _ask(self.client, key, tally, run.oracle, run.recorder,
                     "serve.prime", op="prime")
        except BaseException:
            self.close()
            raise

    def close(self):
        self._context.__exit__(None, None, None)


def _trace_path(run, label, index):
    """Where a traced-pass daemon writes its request spans, else ``None``."""
    if not run.traced:
        return None
    OUT_DIR.mkdir(exist_ok=True)
    return OUT_DIR / "{}-seed{}-daemon{}.trace.json".format(
        label, run.seed, index
    )


def _primed_daemons(run, m, label):
    """Set up :data:`SETUP_REPEATS` daemons, keep the last one primed."""
    kept = None
    try:
        for index in range(SETUP_REPEATS):
            started = time.perf_counter()
            with run.recorder.span("setup"):
                daemon = _Daemon(run, m.tally, _trace_path(run, label, index))
            m.setup_s.append(time.perf_counter() - started)
            if kept is not None:
                kept.close()
            kept = daemon
    except BaseException:
        if kept is not None:
            kept.close()
        raise
    return kept


def _finish_daemon(run, daemon, m, warm_asked, other_asked, expected_misses):
    """Scrape ``/metrics``, record peak RSS, stop; check the miss count.

    In the traced pass, each request's span gets a ``serve.daemon``
    child holding the daemon-side time, and the client minus daemon
    time of ``warm_asked`` feeds ``serve.wait_ms_p50``.
    """
    from perfbench.serving import peak_rss_mb, request_durations_ms, scrape

    try:
        scraped = scrape(daemon.client)
        m.rss_mb = max(m.rss_mb, peak_rss_mb(daemon.daemon.process.pid))
    finally:
        daemon.close()
    m.tally.record(
        scraped["serve.cache_misses"] == expected_misses,
        "serve.cache_misses {} != {} distinct keys".format(
            scraped["serve.cache_misses"], expected_misses
        ),
    )
    if not run.traced:
        return
    m.layers.update(scraped)
    daemon_ms = request_durations_ms(daemon.trace_path)
    for seconds, request_id, span_id in warm_asked + other_asked:
        if request_id in daemon_ms:
            run.recorder.attach(span_id, "serve.daemon", daemon_ms[request_id] / 1e3)
    m.waits_ms.extend(
        seconds * 1e3 - daemon_ms[request_id]
        for seconds, request_id, _span in warm_asked
        if request_id in daemon_ms
    )


class _WarmClient:
    """Closed-loop client repeating warm keys in a seeded order.

    With ``pace_s`` it sends a request at most every ``pace_s`` seconds:
    a caller with think time.  Its requests then sample the daemon at
    evenly spaced moments, rather than crowding into the moments when the
    daemon answers fast, and it interrupts the daemon's simulations at a
    fixed rate.
    """

    def __init__(self, run, url, rng, pace_s=None):
        from repro.serve import ServeClient

        self.run = run
        self.client = ServeClient(url)
        self.rng = rng
        self.pace_s = pace_s
        self.due = None
        self.tally = Tally()
        self.latencies_s = []
        self.cycles_s = []
        self.asked = []  # (seconds, request id, span id)

    def _wait_turn(self, stop):
        """Wait for the next request's turn; ``False`` once stopped."""
        if self.pace_s is not None:
            now = time.perf_counter()
            # a late request goes at once, and no burst makes up for it
            self.due = now if self.due is None else max(self.due + self.pace_s, now)
            if stop is not None:
                return not stop.wait(self.due - now)
            time.sleep(self.due - now)
        return stop is None or not stop.is_set()

    def cycle(self, stop=None):
        """One seeded pass over the warm keys; a stopped pass is dropped."""
        total = 0.0
        for key in self.rng.sample(WARM_KEYS, len(WARM_KEYS)):
            if not self._wait_turn(stop):
                return
            seconds, _envelope = _ask(
                self.client, key, self.tally, self.run.oracle,
                self.run.recorder, "serve.warm", op=len(self.latencies_s),
                source="cached", asked=self.asked,
            )
            self.latencies_s.append(seconds)
            total += seconds
        self.cycles_s.append(total)


def serve(run):
    m = Measurement(tail_cap=900)
    rng = random.Random(run.seed)
    daemon = _primed_daemons(run, m, "serve")
    try:
        idle = _idle_phase(run, daemon, rng, m.tail_cap)
    except BaseException:
        daemon.close()
        raise
    m.tally.merge(idle.tally)
    label, tail_s, count = bench_stats.tail(idle.latencies_s, m.tail_cap)
    m.report.update({
        "serve_warm_p50_ms": (bench_stats.median(idle.latencies_s) * 1e3, "ms", ""),
        "serve_warm_tail_ms": (tail_s * 1e3, "ms", "{} of {}".format(label, count)),
        "serve_warm_cycle_s": (bench_stats.median(idle.cycles_s), "s", ""),
    })
    started = time.perf_counter()
    budget = (1.0 - IDLE_SHARE) * run.seconds
    # another walk needs a fresh daemon, whose set-up is not timed; make
    # LOADED_MIN_WALKS, then walk again while a walk of the last one's
    # length still fits.  The traced pass makes one walk, so its counts
    # are per walk.
    idle_asked = idle.asked
    for index in itertools.count(SETUP_REPEATS):
        walk_s = _loaded_walk(run, daemon, m, rng, idle_asked)
        idle_asked = []
        if run.traced or (
            len(m.passes) >= LOADED_MIN_WALKS
            and time.perf_counter() - started + walk_s > budget
        ):
            break
        daemon = _Daemon(run, m.tally, _trace_path(run, "serve", index))
    _fold_waits(m)
    if run.traced:
        m.layers.update(_layer_probes(run, m.tally, _run_cells(COLD_KEYS), serve=False))
    return m


def _idle_phase(run, daemon, rng, tail_cap):
    """The warm client alone on the primed daemon; returns the client.

    It runs for :data:`IDLE_SHARE` of ``--seconds`` and until the tail
    cap has its samples; in the traced pass, for
    :data:`SERVE_PROBE_CYCLES` cycles.
    """
    warm = _WarmClient(run, daemon.daemon.url, random.Random(rng.random()))
    started = time.perf_counter()
    while (
        len(warm.cycles_s) < SERVE_PROBE_CYCLES if run.traced
        else time.perf_counter() - started < IDLE_SHARE * run.seconds
        or len(warm.latencies_s) < bench_stats.min_samples(tail_cap)
    ):
        warm.cycle()
    return warm


def _run_cells(keys):
    return [(workload, model) for kind, workload, model in keys if kind == "run"]


def _loaded_walk(run, daemon, m, rng, idle_asked):
    """One cold walk beside the warm client; returns the walk seconds.

    ``idle_asked`` are the requests of an idle phase on the same daemon,
    whose spans get their daemon-side time when it stops.
    """
    order = rng.sample(COLD_KEYS, len(COLD_KEYS))
    m.orders.append([cell_key(*key) for key in order])
    warm = _WarmClient(
        run, daemon.daemon.url, random.Random(rng.random()), pace_s=LOADED_PACE_S
    )
    stop = threading.Event()
    errors = []

    def warm_loop():
        try:
            while not stop.is_set():
                warm.cycle(stop)
        except Exception as exc:  # re-raised once the walk is done
            errors.append(exc)

    times, cold_asked = {}, []
    thread = threading.Thread(target=warm_loop, name="warm-client")
    try:
        thread.start()
        for index, key in enumerate(order):
            seconds, _envelope = _ask(
                daemon.client, key, m.tally, run.oracle, run.recorder,
                "serve.cold", op="cold{}".format(index), asked=cold_asked,
            )
            # A key's time depends on the walk's seeded order: the first
            # request for an app pays its build and plans, which the
            # daemon then memoizes.  An app's total over a walk does not.
            times[key[1]] = times.get(key[1], 0.0) + seconds
    finally:
        stop.set()
        thread.join()
        _finish_daemon(
            run, daemon, m, warm.asked, idle_asked + cold_asked,
            len(WARM_KEYS) + len(COLD_KEYS),
        )
    if errors:
        raise errors[0]
    m.latencies_s.extend(warm.latencies_s)
    m.passes.append(times)
    m.tally.merge(warm.tally)
    return sum(times.values())


def _fold_waits(m):
    if m.waits_ms:
        m.layers["serve.wait_ms_p50"] = bench_stats.median(m.waits_ms)


WORKLOADS = {
    "cli-cold": cli_cold,
    "sweep": sweep,
    "serve": serve,
}
