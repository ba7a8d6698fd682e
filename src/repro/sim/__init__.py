"""Execution simulators: reference loop, software pipeline, machine model."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".reference": "ReferenceExecutor reference_run validate_edge_inits",
    ".executor": "PipelineExecutor PipelineRunReport compare_streams verify_pipeline",
    ".machine": "MachineReport MachineSimulator UnitUtilization simulate_machine",
})
