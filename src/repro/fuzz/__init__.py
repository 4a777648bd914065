"""Differential fuzzing: seeded generator corpus + shrinking harness.

``repro fuzz`` entry points (see ``docs/fuzzing.md``):

* :func:`resolve_fuzz_config` / :func:`run_fuzz` — the corpus runner,
  fanning cases out over :class:`~repro.parallel.SuiteExecutor`;
* :func:`check_case` — one case, every fastpath mode and the fast
  engine vs the scalar oracles across graphs / signatures / journals /
  per-TB records / critpath / telemetry;
* :func:`shrink_case` + the ``repro-fuzz-case`` file helpers — greedy
  minimization and replayable regression artifacts.
"""

from repro.fuzz.runner import (
    DEFAULT_ENGINES,
    DEFAULT_MODES,
    FUZZ_REPORT_KIND,
    FUZZ_REPORT_SCHEMA_VERSION,
    ORACLE_MODE,
    FuzzConfig,
    check_case,
    corpus_digest,
    format_fuzz,
    resolve_fuzz_config,
    run_fuzz,
    validate_fuzz_report,
)
from repro.fuzz.shrink import (
    CASE_KIND,
    CASE_SCHEMA_VERSION,
    load_case,
    make_case,
    replay_case,
    shrink_case,
    validate_case,
    write_case,
)

__all__ = [
    "DEFAULT_ENGINES",
    "DEFAULT_MODES",
    "FUZZ_REPORT_KIND",
    "FUZZ_REPORT_SCHEMA_VERSION",
    "ORACLE_MODE",
    "FuzzConfig",
    "check_case",
    "corpus_digest",
    "format_fuzz",
    "resolve_fuzz_config",
    "run_fuzz",
    "validate_fuzz_report",
    "CASE_KIND",
    "CASE_SCHEMA_VERSION",
    "load_case",
    "make_case",
    "replay_case",
    "shrink_case",
    "validate_case",
    "write_case",
]
