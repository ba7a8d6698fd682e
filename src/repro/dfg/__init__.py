"""Data-flow graph substrate: graphs, retiming, analyses, iteration bound."""

from repro.dfg.graph import DFG, Edge, NodeId, Timing
from repro.dfg.builder import DFGBuilder
from repro.dfg.retiming import Retiming
from repro.dfg.analysis import (
    alap_times,
    asap_times,
    critical_path_length,
    critical_path_nodes,
    descendant_counts,
    height_times,
    is_down_rotatable,
    is_up_rotatable,
    is_zero_delay_acyclic,
    leaves,
    roots,
    topological_order,
    zero_delay_edges,
    zero_delay_predecessors,
    zero_delay_successors,
)
from repro.dfg.iteration_bound import (
    critical_cycle,
    iteration_bound,
    iteration_bound_ceil,
)
from repro.dfg.unfold import fold_node, unfold, unfolded_name
from repro.dfg.validate import Issue, assert_valid, validate

__all__ = [
    "DFG",
    "DFGBuilder",
    "Edge",
    "Issue",
    "NodeId",
    "Retiming",
    "Timing",
    "alap_times",
    "asap_times",
    "assert_valid",
    "critical_cycle",
    "critical_path_length",
    "critical_path_nodes",
    "descendant_counts",
    "fold_node",
    "height_times",
    "is_down_rotatable",
    "is_up_rotatable",
    "is_zero_delay_acyclic",
    "iteration_bound",
    "iteration_bound_ceil",
    "leaves",
    "roots",
    "topological_order",
    "unfold",
    "unfolded_name",
    "validate",
    "zero_delay_edges",
    "zero_delay_predecessors",
    "zero_delay_successors",
]
