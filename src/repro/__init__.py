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

from repro._exports import export as _export

__version__ = "1.0.0"

__all__ = _export(__name__, {
    ".dfg.graph": "DFG Edge Timing",
    ".dfg.builder": "DFGBuilder",
    ".dfg.retiming": "Retiming",
    ".dfg.analysis": "critical_path_length topological_order",
    ".dfg.iteration_bound": "iteration_bound iteration_bound_ceil",
    ".dfg.unfold": "unfold",
    ".schedule.resources": "ResourceModel UnitSpec",
    ".schedule.schedule": "Schedule",
    ".schedule.list_scheduler": "full_schedule partial_schedule",
    ".schedule.verify": "realizing_retiming",
    ".core.rotation": "RotationState",
    ".core.phases": "heuristic_1 heuristic_2",
    ".core.depth": "reduce_depth",
    ".core.wrapping": "WrappedSchedule wrap",
    ".core.scheduler": "RotationResult RotationScheduler rotation_schedule",
    ".core.session": "MutableSchedulingSession open_session",
    ".bounds.lower_bounds": "combined_lower_bound lower_bound",
    ".binding.lifetimes": "register_requirement",
    ".binding.left_edge": "bind_schedule",
    ".binding.selection": "select_schedule",
    ".baselines.dag_list": "dag_list_schedule",
    ".baselines.modulo": "modulo_schedule",
    ".baselines.retime_then_schedule": "retime_then_schedule",
    ".suite.registry": "BENCHMARKS PAPER_TIMING UNIT_TIMING get_benchmark",
    ".suite.allpole": "allpole",
    ".suite.biquad": "biquad",
    ".suite.diffeq": "diffeq",
    ".suite.elliptic": "elliptic",
    ".suite.lattice": "lattice",
    ".sim.reference": "reference_run",
    ".sim.executor": "verify_pipeline",
    ".sim.machine": "simulate_machine",
    ".errors": (
        "GraphError IllegalScheduleError ReproError RetimingError RotationError "
        "SchedulingError SimulationError"
    ),
})
