"""Flat-array scheduling core: integer-array snapshots + integer kernels.

``backend="flat"`` (the default) routes rotation scheduling through
:class:`FlatEngine`, which runs every hot kernel over the integer columns
of a :class:`FlatGraph`/:class:`FlatModel` snapshot — bit-identical to the
cache-free naive path (``backend="naive"``), as pinned by the golden
parity suite.
"""

from repro.core.flat.graph import (
    FlatGraph,
    FlatModel,
    model_signature,
    structural_signature,
)
from repro.core.flat.kernels import (
    FlatGrid,
    flat_heights,
    flat_list_schedule,
    flat_mobility,
    flat_priority_columns,
    flat_reach,
    flat_sort_keys,
    flat_topological_order,
    flat_wrap_period,
    retimed_delays,
    seed_grid,
    zero_delay_lists,
)
from repro.core.flat.engine import FlatEngine

__all__ = [
    "FlatEngine",
    "FlatGraph",
    "FlatGrid",
    "FlatModel",
    "flat_heights",
    "flat_list_schedule",
    "flat_mobility",
    "flat_priority_columns",
    "flat_reach",
    "flat_sort_keys",
    "flat_topological_order",
    "flat_wrap_period",
    "model_signature",
    "retimed_delays",
    "seed_grid",
    "structural_signature",
    "zero_delay_lists",
]
