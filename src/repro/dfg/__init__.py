"""Data-flow graph substrate: graphs, retiming, analyses, iteration bound."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".graph": "DFG Edge NodeId Timing",
    ".builder": "DFGBuilder",
    ".retiming": "Retiming",
    ".analysis": (
        "alap_times asap_times critical_path_length critical_path_nodes "
        "descendant_counts height_times is_down_rotatable is_up_rotatable "
        "is_zero_delay_acyclic leaves roots topological_order zero_delay_edges "
        "zero_delay_predecessors zero_delay_successors"
    ),
    ".iteration_bound": "critical_cycle iteration_bound iteration_bound_ceil",
    ".unfold": "fold_node unfold unfolded_name",
    ".validate": "Issue assert_valid validate",
})
