"""Baseline schedulers the benches compare rotation scheduling against."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".dag_list": "DagListResult dag_list_schedule",
    ".exact": "ExactResult exact_modulo_schedule",
    ".modulo": "ModuloResult min_initiation_interval modulo_schedule",
    ".retime_then_schedule": (
        "RetimeScheduleResult feas_retiming min_period_retiming retime_then_schedule"
    ),
    ".asap_alap": "MobilityReport alap_schedule asap_schedule mobility_report usage_profile",
    ".force_directed": "ForceDirectedResult force_directed_schedule",
})
