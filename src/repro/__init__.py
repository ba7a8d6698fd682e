"""repro — Rotation Scheduling: a loop-pipelining library.

A production-quality reproduction of *Rotation Scheduling: A Loop
Pipelining Algorithm* (Chao, LaPaugh & Sha, DAC 1993): cyclic data-flow
graphs, retiming, resource-constrained list scheduling, the rotation
technique with the paper's two heuristics, depth reduction, schedule
wrapping, classic baselines, the paper's five DSP benchmarks, and an
execution simulator proving pipelined schedules preserve loop semantics.

Quickstart::

    from repro import ResourceModel, rotation_schedule, diffeq

    result = rotation_schedule(diffeq(), ResourceModel.adders_mults(1, 1))
    print(result.summary())
    print(result.render())
"""

from repro.dfg import DFG, DFGBuilder, Edge, Retiming, Timing
from repro.dfg import (
    critical_path_length,
    iteration_bound,
    iteration_bound_ceil,
    topological_order,
)
from repro.schedule import (
    ResourceModel,
    Schedule,
    UnitSpec,
    full_schedule,
    partial_schedule,
    realizing_retiming,
)
from repro.core import (
    MutableSchedulingSession,
    RotationResult,
    RotationScheduler,
    RotationState,
    WrappedSchedule,
    heuristic_1,
    heuristic_2,
    open_session,
    reduce_depth,
    rotation_schedule,
    wrap,
)
from repro.bounds import combined_lower_bound, lower_bound
from repro.binding import (
    bind_schedule,
    register_requirement,
    select_schedule,
)
from repro.dfg.unfold import unfold
from repro.baselines import (
    dag_list_schedule,
    modulo_schedule,
    retime_then_schedule,
)
from repro.suite import (
    BENCHMARKS,
    PAPER_TIMING,
    UNIT_TIMING,
    allpole,
    biquad,
    diffeq,
    elliptic,
    get_benchmark,
    lattice,
)
from repro.sim import reference_run, simulate_machine, verify_pipeline
from repro.errors import (
    GraphError,
    IllegalScheduleError,
    ReproError,
    RetimingError,
    RotationError,
    SchedulingError,
    SimulationError,
)

__version__ = "1.0.0"

__all__ = [
    "BENCHMARKS",
    "DFG",
    "DFGBuilder",
    "Edge",
    "GraphError",
    "IllegalScheduleError",
    "MutableSchedulingSession",
    "PAPER_TIMING",
    "ReproError",
    "ResourceModel",
    "Retiming",
    "RetimingError",
    "RotationError",
    "RotationResult",
    "RotationScheduler",
    "RotationState",
    "Schedule",
    "SchedulingError",
    "SimulationError",
    "Timing",
    "UNIT_TIMING",
    "UnitSpec",
    "WrappedSchedule",
    "allpole",
    "bind_schedule",
    "biquad",
    "combined_lower_bound",
    "critical_path_length",
    "dag_list_schedule",
    "diffeq",
    "elliptic",
    "full_schedule",
    "get_benchmark",
    "heuristic_1",
    "heuristic_2",
    "iteration_bound",
    "iteration_bound_ceil",
    "lattice",
    "lower_bound",
    "modulo_schedule",
    "open_session",
    "partial_schedule",
    "realizing_retiming",
    "register_requirement",
    "reduce_depth",
    "reference_run",
    "retime_then_schedule",
    "rotation_schedule",
    "select_schedule",
    "simulate_machine",
    "topological_order",
    "unfold",
    "verify_pipeline",
    "wrap",
]
