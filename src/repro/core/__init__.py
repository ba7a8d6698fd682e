"""Rotation scheduling core: rotations, phases, heuristics, depth, wrapping."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".engine": "BACKENDS EngineStats make_engine",
    ".flat.engine": "FlatEngine",
    ".flat.graph": "FlatGraph FlatModel",
    ".rotation": "RotationState RotationStep",
    ".phases": "HEURISTICS BestTracker heuristic_1 heuristic_2 rotation_phase",
    ".depth": "minimal_depth pipeline_depth reduce_depth",
    ".wrapping": "WrappedSchedule reroot unwrap_if_possible wrap wrapped_length",
    ".nested": (
        "NestedModel NestedRotationState NestedSchedule ReservationProfile "
        "inner_loop_profile nested_full_schedule pipeline_nested_loop"
    ),
    ".chained_rotation": "ChainedRotationState chained_rotation_schedule",
    ".scheduler": "RotationResult RotationScheduler rotation_schedule",
    ".session": "EDIT_KINDS MutableSchedulingSession open_session",
})
