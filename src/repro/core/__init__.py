"""Rotation scheduling core: rotations, phases, heuristics, depth, wrapping."""

from repro.core.engine import BACKENDS, EngineStats, make_engine
from repro.core.flat import FlatEngine, FlatGraph, FlatModel
from repro.core.rotation import RotationState, RotationStep
from repro.core.phases import (
    HEURISTICS,
    BestTracker,
    heuristic_1,
    heuristic_2,
    rotation_phase,
)
from repro.core.depth import minimal_depth, pipeline_depth, reduce_depth
from repro.core.wrapping import (
    WrappedSchedule,
    reroot,
    unwrap_if_possible,
    wrap,
    wrapped_length,
)
from repro.core.nested import (
    NestedModel,
    NestedRotationState,
    NestedSchedule,
    ReservationProfile,
    inner_loop_profile,
    nested_full_schedule,
    pipeline_nested_loop,
)
from repro.core.chained_rotation import ChainedRotationState, chained_rotation_schedule
from repro.core.scheduler import RotationResult, RotationScheduler, rotation_schedule
from repro.core.session import EDIT_KINDS, MutableSchedulingSession, open_session

__all__ = [
    "BACKENDS",
    "EDIT_KINDS",
    "HEURISTICS",
    "BestTracker",
    "ChainedRotationState",
    "EngineStats",
    "MutableSchedulingSession",
    "FlatEngine",
    "FlatGraph",
    "FlatModel",
    "make_engine",
    "NestedModel",
    "NestedRotationState",
    "NestedSchedule",
    "ReservationProfile",
    "RotationResult",
    "RotationScheduler",
    "RotationState",
    "RotationStep",
    "WrappedSchedule",
    "chained_rotation_schedule",
    "heuristic_1",
    "inner_loop_profile",
    "nested_full_schedule",
    "heuristic_2",
    "minimal_depth",
    "open_session",
    "pipeline_depth",
    "pipeline_nested_loop",
    "reduce_depth",
    "reroot",
    "rotation_phase",
    "rotation_schedule",
    "unwrap_if_possible",
    "wrap",
    "wrapped_length",
]
