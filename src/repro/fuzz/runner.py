"""Differential fuzzing harness: seeded cases, every tier vs the oracle.

One fuzz *case* is a :class:`~repro.workloads.ptxgen.FuzzSpec`.  Per
case the harness runs the full pipeline (PTX parse → launch-time
analysis → hardware encoding → discrete-event engine) once under the
scalar ``reference`` oracle and once under every candidate
``REPRO_FASTPATH`` mode, then cross-checks four surfaces:

* **graph** — every kernel pair's effective graph, encoded size and
  detected pattern must match the oracle's exactly (the fastpath tiers'
  core contract);
* **signature** — ``RunStats.simulated_signature()`` must be
  bit-identical per mode (plans equal ⇒ simulations equal);
* **journal** — the engine flight recorder's content digest must match;
  on mismatch :mod:`repro.obs.jdiff` localizes the first diverging
  event and its blame edge into the divergence record;
* **oracle self-checks** — the critpath report must validate
  (attribution sums to the makespan) and the telemetry report's
  consistency errors must stay within tolerance, both observation-only
  (neither pass may perturb the signature).

Alongside the ``REPRO_FASTPATH`` sweep, the ``auto`` fast engine
(:mod:`repro.models.fastengine`) is run on the oracle plan —
**engine** checks compare its simulated signature *and* full
per-thread-block records against the scalar event-queue engine, on the
case's model and (when different) the always-eligible ``baseline``
model, observer-free so the fast tier actually engages.

Everything a case produces is deterministic — no wall clock, no
hash-order dependence — so a per-case content digest and the corpus
digest over all cases are reproducible across runs, worker counts and
``PYTHONHASHSEED`` values (CI compares them).
"""

import hashlib
import json
from dataclasses import dataclass
from typing import Tuple

from repro.workloads.ptxgen import FuzzSpec, build_fuzz_app

FUZZ_REPORT_KIND = "repro-fuzz-report"
FUZZ_REPORT_SCHEMA_VERSION = 1

#: candidate tiers checked against the always-implicit reference oracle
DEFAULT_MODES = ("closed_form", "vectorized", "auto")
#: candidate engine modes checked against the scalar event-queue oracle
DEFAULT_ENGINES = ("auto",)
ORACLE_MODE = "reference"
DEFAULT_MODEL = "consumer3"


@dataclass(frozen=True)
class FuzzConfig:
    """Resolved ``repro fuzz`` parameters (see :func:`resolve_fuzz_config`)."""

    count: int = 50
    seed: int = 0
    modes: Tuple[str, ...] = DEFAULT_MODES
    engines: Tuple[str, ...] = DEFAULT_ENGINES
    model: str = DEFAULT_MODEL
    jobs: int = 1
    out_dir: str = "."
    shrink: bool = True


def resolve_fuzz_config(count=None, seed=None, modes=None, engines=None,
                        model=None, jobs=None, out_dir=None, shrink=True):
    """Fold CLI-ish arguments into a :class:`FuzzConfig`.

    Raises ``ValueError`` on bad counts/seeds/modes/engines and
    :class:`~repro.experiments.common.UnknownModelError` on bad model
    names, so the CLI fails with exit code 2 before any work is done.
    ``reference`` in ``modes``/``engines`` is redundant (it is the
    oracle every tier is checked against) and is dropped; unlike
    ``modes``, ``engines`` may resolve to nothing (``--engines none``)
    to skip the engine sweep entirely.
    """
    from repro.analysis.fastpath import resolve_fastpath_mode
    from repro.experiments.common import _model_plan_params, canonical_model_name
    from repro.models.fastengine import resolve_engine_mode

    count = 50 if count is None else int(count)
    if count < 1:
        raise ValueError("--count must be >= 1 (got {})".format(count))
    seed = 0 if seed is None else int(seed)
    if seed < 0:
        raise ValueError("--seed must be >= 0 (got {})".format(seed))
    jobs = 1 if jobs is None else max(1, int(jobs))
    resolved = []
    for mode in (modes if modes is not None else DEFAULT_MODES):
        mode = resolve_fastpath_mode(mode)  # ValueError on unknown names
        if mode != ORACLE_MODE and mode not in resolved:
            resolved.append(mode)
    if not resolved:
        raise ValueError(
            "--modes needs at least one non-reference fastpath mode"
        )
    resolved_engines = []
    engine_args = engines if engines is not None else DEFAULT_ENGINES
    if list(engine_args) != ["none"]:
        for tier in engine_args:
            tier = resolve_engine_mode(tier)  # ValueError on unknown names
            if tier != ORACLE_MODE and tier not in resolved_engines:
                resolved_engines.append(tier)
    model = canonical_model_name(model or DEFAULT_MODEL)
    _model_plan_params(model)  # raises UnknownModelError
    return FuzzConfig(
        count=count, seed=seed, modes=tuple(resolved),
        engines=tuple(resolved_engines), model=model,
        jobs=jobs, out_dir=out_dir or ".", shrink=bool(shrink),
    )


def _divergence(check, mode, **fields):
    record = {"check": check, "mode": mode}
    record.update(fields)
    return record


def _graph_fingerprint(plan):
    """JSON-safe per-pair graph summary (digest + divergence detail)."""
    rows = []
    for kp in plan.kernels:
        enc = kp.encoded
        if enc is None:
            rows.append(None)
            continue
        rows.append({
            "kernel": kp.name,
            "pattern": enc.original_pattern.pattern.value,
            "effective_kind": enc.effective.kind.value,
            "edges": enc.original.num_edges,
            "collapsed": bool(enc.collapsed),
            "encoded_bytes": enc.encoded_bytes,
            "plain_bytes": enc.plain_bytes,
        })
    return rows


def _canonical_digest(payload):
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return "sha256:" + hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_case(spec, modes=DEFAULT_MODES, model=DEFAULT_MODEL,
               engines=DEFAULT_ENGINES):
    """Run one fuzz case under every mode; return the case record.

    The record carries the case's deterministic content ``digest``
    (spec + oracle graphs + signature + journal digest) and a possibly
    empty ``divergences`` list.  ``modes`` may be empty to run only the
    oracle self-checks (the shrinker uses that for critpath/telemetry
    divergences); ``engines`` may be empty to skip the engine-tier
    sweep.  The digest deliberately covers only oracle surfaces, so it
    is independent of which candidate modes/engines were swept.
    """
    # Imported lazily: the engine/obs modules must not load at
    # repro.fuzz import time (journal/critpath stay out of
    # repro.obs.__init__ for the same cycle reason).
    from repro.core.runtime import BlockMaestroRuntime
    from repro.experiments.common import (
        _make_model,
        _model_plan_params,
        canonical_model_name,
    )
    from repro.obs import jdiff as jd
    from repro.obs import journal as jr

    model_name = canonical_model_name(model)
    reorder, window = _model_plan_params(model_name)
    app = build_fuzz_app(spec)
    divergences = []

    def run_mode(mode):
        runtime = BlockMaestroRuntime(fastpath=mode)
        plan = runtime.plan(app, reorder=reorder, window=window)
        engine = _make_model(model_name, runtime.config)
        recorder = jr.JournalRecorder()
        stats = engine.run(plan, journal=recorder)
        return plan, stats, recorder, engine

    ref_plan, ref_stats, ref_recorder, ref_engine = run_mode(ORACLE_MODE)
    ref_graphs = _graph_fingerprint(ref_plan)
    ref_signature = ref_stats.simulated_signature()
    ref_digest = ref_recorder.digest()

    for mode in modes:
        plan, stats, recorder, _engine = run_mode(mode)
        for ref_kp, kp in zip(ref_plan.kernels, plan.kernels):
            ref_enc, enc = ref_kp.encoded, kp.encoded
            if (ref_enc is None) != (enc is None):
                divergences.append(_divergence(
                    "graph", mode, kernel=kp.name,
                    detail="pair-graph presence differs from reference",
                ))
                continue
            if ref_enc is None:
                continue
            if (enc.effective != ref_enc.effective
                    or enc.encoded_bytes != ref_enc.encoded_bytes
                    or enc.original_pattern.pattern
                    is not ref_enc.original_pattern.pattern):
                divergences.append(_divergence(
                    "graph", mode, kernel=kp.name,
                    detail=(
                        "graph differs from reference: "
                        "{} edges/{} B/{} vs {} edges/{} B/{}"
                    ).format(
                        enc.original.num_edges, enc.encoded_bytes,
                        enc.original_pattern.pattern.value,
                        ref_enc.original.num_edges, ref_enc.encoded_bytes,
                        ref_enc.original_pattern.pattern.value,
                    ),
                ))
        signature = stats.simulated_signature()
        if signature != ref_signature:
            changed = sorted(
                key for key in set(signature) | set(ref_signature)
                if signature.get(key) != ref_signature.get(key)
            )
            divergences.append(_divergence(
                "signature", mode,
                detail="fields differ: {}".format(", ".join(changed)),
            ))
        digest = recorder.digest()
        if digest != ref_digest:
            diff = jd.diff_journals(
                ref_recorder.header(), ref_recorder.events,
                recorder.header(), recorder.events,
                a_label=ORACLE_MODE, b_label=mode,
            )
            first = diff.get("first_divergence") or {}
            blame = first.get("blame") or {}
            divergences.append(_divergence(
                "journal", mode,
                index=first.get("index"),
                blame=blame.get("summary"),
                detail="journal digests differ ({} vs {})".format(
                    digest, ref_digest
                ),
            ))

    divergences.extend(
        _engine_sweep(ref_plan, model_name, ref_engine.gpu_config, engines)
    )
    divergences.extend(
        _oracle_self_checks(ref_plan, ref_signature, model_name, ref_engine)
    )

    return {
        "seed": spec.seed,
        "num_kernels": len(spec.kernels),
        "generators": [k.gen for k in spec.kernels],
        "makespan_ns": ref_signature["makespan_ns"],
        "digest": _canonical_digest({
            "spec": spec.to_dict(),
            "graphs": ref_graphs,
            "signature": ref_signature,
            "journal": ref_digest,
        }),
        "divergences": divergences,
    }


def _tb_tuple(stats):
    """Ordered per-TB lifecycle tuple — the strongest equality surface."""
    return tuple(
        (r.kernel_index, r.tb_id, r.ready_ns, r.start_ns, r.finish_ns, r.sm)
        for r in stats.tb_records
    )


def _engine_sweep(ref_plan, model_name, gpu_config, engines):
    """Check every candidate engine mode against the scalar oracle.

    Observer-free on purpose: journal/provenance/telemetry hooks make
    the fast engine fall back to the reference path, which would turn
    the sweep into reference-vs-reference.  The case's model is swept
    plus — when it differs — ``baseline``, whose coarse dependency
    options keep every plan fast-engine eligible, so the tier engages
    even when the case model's fine-grain plan declines.
    """
    from repro.experiments.common import _make_model

    divergences = []
    if not engines:
        return divergences
    sweep_models = [model_name]
    if "baseline" not in sweep_models:
        sweep_models.append("baseline")
    for sweep_model in sweep_models:
        engine_model = _make_model(sweep_model, gpu_config)
        oracle = engine_model.run(ref_plan, engine=ORACLE_MODE)
        oracle_signature = oracle.simulated_signature()
        oracle_tbs = _tb_tuple(oracle)
        for tier in engines:
            stats = engine_model.run(ref_plan, engine=tier)
            signature = stats.simulated_signature()
            if signature != oracle_signature:
                changed = sorted(
                    key for key in set(signature) | set(oracle_signature)
                    if signature.get(key) != oracle_signature.get(key)
                )
                divergences.append(_divergence(
                    "engine", tier, model=sweep_model,
                    detail="signature fields differ: {}".format(
                        ", ".join(changed)
                    ),
                ))
                continue
            if _tb_tuple(stats) != oracle_tbs:
                divergences.append(_divergence(
                    "engine", tier, model=sweep_model,
                    detail="per-TB records differ from the scalar oracle",
                ))
    return divergences


def _oracle_self_checks(ref_plan, ref_signature, model_name, ref_engine):
    """Critpath sum-to-makespan + telemetry consistency on the oracle run."""
    from repro.experiments.common import _make_model
    from repro.obs import critpath as cp
    from repro.obs import telemetry as tm

    divergences = []
    prov = cp.ProvenanceRecorder()
    engine = _make_model(model_name, ref_engine.gpu_config)
    prov_stats = engine.run(ref_plan, provenance=prov)
    report = cp.build_report(
        prov_stats, ref_plan, prov, engine.gpu_config,
        options=engine.options(),
    )
    errors = cp.validate_critpath_report(report)
    if errors:
        divergences.append(_divergence(
            "critpath", ORACLE_MODE, detail="; ".join(errors[:3]),
        ))
    if prov_stats.simulated_signature() != ref_signature:
        divergences.append(_divergence(
            "critpath", ORACLE_MODE,
            detail="provenance pass perturbed the simulated signature",
        ))

    sampler = tm.TelemetrySampler()
    engine = _make_model(model_name, ref_engine.gpu_config)
    tel_stats = engine.run(ref_plan, telemetry=sampler)
    tel_report = tm.build_report(tel_stats, sampler)
    tel_errors = tm.validate_telemetry_report(tel_report)
    if tel_errors:
        divergences.append(_divergence(
            "telemetry", ORACLE_MODE, detail="; ".join(tel_errors[:3]),
        ))
    if tel_stats.simulated_signature() != ref_signature:
        divergences.append(_divergence(
            "telemetry", ORACLE_MODE,
            detail="telemetry pass perturbed the simulated signature",
        ))
    return divergences


def _case_worker(item):
    """SuiteExecutor worker: module-level so fork/pickle dispatch works."""
    seed, modes, engines, model = item
    return check_case(
        FuzzSpec.from_seed(seed), modes=modes, model=model, engines=engines
    )


def corpus_digest(cases):
    """Content digest over the per-case digests, in seed order."""
    hasher = hashlib.sha256()
    for case in cases:
        hasher.update("{} {}\n".format(
            case["seed"], case["digest"]
        ).encode("utf-8"))
    return "sha256:" + hasher.hexdigest()


def run_fuzz(config, log=None):
    """Run the corpus, shrink divergent cases, return the fuzz report.

    The report is fully deterministic for a given (code, config minus
    ``jobs``/``out_dir``): ``--jobs N`` fans cases out over worker
    processes but the merged result is bit-identical to serial.
    """
    from repro.parallel import SuiteExecutor

    say = log or (lambda *_args, **_kwargs: None)
    items = [
        (config.seed + i, config.modes, config.engines, config.model)
        for i in range(config.count)
    ]
    say("fuzz: {} cases (seeds {}..{}), modes {}, engines {}, model {}, "
        "{} job(s)".format(
            config.count, config.seed, config.seed + config.count - 1,
            "/".join(config.modes), "/".join(config.engines) or "none",
            config.model, config.jobs,
        ))
    executor = SuiteExecutor(jobs=config.jobs, log=log)
    cases = executor.map(_case_worker, items)

    divergences = []
    repro_files = []
    for case in cases:
        for record in case["divergences"]:
            divergences.append(dict(record, seed=case["seed"]))
    divergent = [case for case in cases if case["divergences"]]
    if divergent and config.shrink:
        # shrinking is serial and in-process: each step re-runs the
        # pipeline and the steps are sequentially dependent
        from repro.fuzz.shrink import make_case, shrink_case, write_case

        for case in divergent:
            spec = FuzzSpec.from_seed(case["seed"])
            target = case["divergences"][0]
            say("fuzz: seed {} diverged ({}:{}) — shrinking...".format(
                case["seed"], target["check"], target["mode"]
            ))
            minimized, final_divs = shrink_case(
                spec, target, modes=config.modes, engines=config.engines,
                model=config.model,
            )
            repro = make_case(
                minimized, final_divs or case["divergences"],
                modes=config.modes, model=config.model,
                source_seed=case["seed"], engines=config.engines,
            )
            path = write_case(repro, directory=config.out_dir)
            repro_files.append(path)
            say("fuzz: wrote minimized repro {} ({} kernels)".format(
                path, len(minimized.kernels)
            ))

    return {
        "kind": FUZZ_REPORT_KIND,
        "schema_version": FUZZ_REPORT_SCHEMA_VERSION,
        "seed": config.seed,
        "count": config.count,
        "modes": list(config.modes),
        "engines": list(config.engines),
        "model": config.model,
        "cases": [
            {
                "seed": case["seed"],
                "digest": case["digest"],
                "num_kernels": case["num_kernels"],
                "generators": case["generators"],
                "makespan_ns": case["makespan_ns"],
                "num_divergences": len(case["divergences"]),
            }
            for case in cases
        ],
        "num_divergent": len(divergent),
        "divergences": divergences,
        "repro_files": repro_files,
        "corpus_digest": corpus_digest(cases),
    }


def validate_fuzz_report(report):
    """Structural + invariant validation; returns problem strings."""
    errors = []
    if not isinstance(report, dict):
        return ["report: expected a JSON object"]
    if report.get("kind") != FUZZ_REPORT_KIND:
        errors.append("kind: expected {!r}".format(FUZZ_REPORT_KIND))
    if report.get("schema_version") != FUZZ_REPORT_SCHEMA_VERSION:
        errors.append("schema_version: expected {}".format(
            FUZZ_REPORT_SCHEMA_VERSION
        ))
    cases = report.get("cases")
    if not isinstance(cases, list):
        return errors + ["cases: missing or not a list"]
    if report.get("count") != len(cases):
        errors.append("count: {} != {} cases".format(
            report.get("count"), len(cases)
        ))
    divergent = 0
    for i, case in enumerate(cases):
        if not isinstance(case, dict):
            errors.append("cases[{}]: not an object".format(i))
            continue
        digest = case.get("digest")
        if not (isinstance(digest, str) and digest.startswith("sha256:")):
            errors.append("cases[{}].digest: missing sha256".format(i))
        if not isinstance(case.get("seed"), int):
            errors.append("cases[{}].seed: missing".format(i))
        if not isinstance(case.get("num_kernels"), int):
            errors.append("cases[{}].num_kernels: missing".format(i))
        if case.get("num_divergences"):
            divergent += 1
    if report.get("num_divergent") != divergent:
        errors.append("num_divergent: {} != {} divergent cases".format(
            report.get("num_divergent"), divergent
        ))
    expected = corpus_digest(cases) if not errors else None
    if expected is not None and report.get("corpus_digest") != expected:
        errors.append("corpus_digest: does not match the cases")
    for key in ("divergences", "repro_files", "modes", "engines"):
        if not isinstance(report.get(key), list):
            errors.append("{}: missing or not a list".format(key))
    return errors


def format_fuzz(report, limit=10):
    """Human-readable fuzz summary."""
    lines = []
    lines.append(
        "fuzz corpus : {} cases, seeds {}..{}".format(
            report["count"], report["seed"],
            report["seed"] + report["count"] - 1,
        )
    )
    lines.append("modes       : {} (vs {} oracle)".format(
        ", ".join(report["modes"]), ORACLE_MODE
    ))
    lines.append("engines     : {} (vs {} oracle)".format(
        ", ".join(report.get("engines", [])) or "(sweep disabled)",
        ORACLE_MODE,
    ))
    lines.append("model       : {}".format(report["model"]))
    lines.append("corpus      : {}".format(report["corpus_digest"]))
    if not report["num_divergent"]:
        lines.append("divergences : none — all tiers agree with the oracle")
        return "\n".join(lines)
    lines.append("divergences : {} case(s), {} record(s)".format(
        report["num_divergent"], len(report["divergences"])
    ))
    for record in report["divergences"][:limit]:
        lines.append("  seed {:>6}  {}:{}  {}".format(
            record.get("seed"), record["check"], record["mode"],
            record.get("detail", ""),
        ))
    if len(report["divergences"]) > limit:
        lines.append("  ... {} more".format(
            len(report["divergences"]) - limit
        ))
    for path in report["repro_files"]:
        lines.append("repro file  : {}".format(path))
    return "\n".join(lines)
