"""repro.qa — differential fuzzing and schedule certification.

Turns the one-off parity tests into a permanent correctness harness:
seeded random graphs x resource configs x scheduler paths, each certified
against the oracle stack (retiming legality, lower bound, modulo
legality, engine parity, semantic equivalence, serialization round-trip),
with failing cells delta-debugged to minimal repro bundles.

Entry points::

    from repro.qa import run_fuzz, smoke_cases
    report = run_fuzz(smoke_cases(), out_dir="artifacts/qa")
    assert not report.failures, report.summary()

or from the shell: ``rotsched fuzz --smoke``.
"""

from repro.qa.oracles import (
    OracleFailure,
    certify_rotation,
    certify_wrapped,
    check_lower_bound,
    check_modulo,
    check_parity,
    check_retiming,
    check_roundtrip,
    check_semantics,
)
from repro.qa.shrink import shrink_graph
from repro.qa.bundle import ReproBundle, load_bundle, replay_bundle, write_bundle
from repro.qa.incremental import (
    PINNED_EDIT_SCRIPTS,
    check_incremental_session,
    random_edit_script,
)
from repro.qa.serve import (
    GOLDEN_REQUESTS,
    ServeOracleReport,
    check_envelope,
    check_serve_differential,
)
from repro.qa.runner import (
    DEFAULT_CONFIGS,
    PATHS,
    FailureRecord,
    FuzzCase,
    FuzzReport,
    config_model,
    grid_cases,
    run_cell,
    run_cell_on_graph,
    run_fuzz,
    smoke_cases,
)

__all__ = [
    "DEFAULT_CONFIGS",
    "FailureRecord",
    "FuzzCase",
    "FuzzReport",
    "GOLDEN_REQUESTS",
    "OracleFailure",
    "PATHS",
    "PINNED_EDIT_SCRIPTS",
    "ReproBundle",
    "ServeOracleReport",
    "certify_rotation",
    "certify_wrapped",
    "check_envelope",
    "check_incremental_session",
    "check_serve_differential",
    "check_lower_bound",
    "check_modulo",
    "check_parity",
    "check_retiming",
    "check_roundtrip",
    "check_semantics",
    "config_model",
    "grid_cases",
    "load_bundle",
    "random_edit_script",
    "replay_bundle",
    "run_cell",
    "run_cell_on_graph",
    "run_fuzz",
    "shrink_graph",
    "smoke_cases",
    "write_bundle",
]
