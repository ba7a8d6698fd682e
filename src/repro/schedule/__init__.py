"""Static-schedule substrate: resources, schedules, list scheduling, checks."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".resources": "ResourceModel UnitSpec",
    ".schedule": "ResourceConflict Schedule",
    ".priorities": (
        "PRIORITIES combined_priority descendant_priority get_priority "
        "height_priority mobility_priority"
    ),
    ".list_scheduler": "OccupancyGrid full_schedule partial_schedule",
    ".verify": (
        "check_schedule is_legal_modulo_schedule is_legal_static_schedule "
        "modulo_precedence_violations modulo_resource_conflicts realizing_retiming"
    ),
    ".chaining": (
        "ChainedSchedule ChainedScheduleEntry chained_full_schedule paper_technology"
    ),
    ".conditional": (
        "ConditionalRotationState ConditionalSchedule are_exclusive "
        "conditional_full_schedule guard_of set_guard"
    ),
    ".unrolled": "UnrolledEntry UnrolledSchedule unroll",
})
