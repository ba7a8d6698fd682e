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

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".oracles": (
        "OracleFailure certify_rotation certify_wrapped check_lower_bound check_modulo "
        "check_parity check_retiming check_roundtrip check_semantics"
    ),
    ".shrink": "shrink_graph",
    ".bundle": "ReproBundle load_bundle replay_bundle write_bundle",
    ".incremental": "PINNED_EDIT_SCRIPTS check_incremental_session random_edit_script",
    ".serve": (
        "GOLDEN_REQUESTS ServeOracleReport check_envelope check_repaired "
        "check_serve_differential check_warm_chain"
    ),
    ".runner": (
        "DEFAULT_CONFIGS PATHS FailureRecord FuzzCase FuzzReport config_model grid_cases "
        "run_cell run_cell_on_graph run_fuzz smoke_cases"
    ),
})
