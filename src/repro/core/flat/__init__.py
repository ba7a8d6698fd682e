"""Flat-array scheduling core: integer-array snapshots + integer kernels.

``backend="flat"`` (the default) routes rotation scheduling through
:class:`FlatEngine`, which runs every hot kernel over the integer columns
of a :class:`FlatGraph`/:class:`FlatModel` snapshot — bit-identical to the
cache-free naive path (``backend="naive"``), as pinned by the golden
parity suite.
"""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".graph": "FlatGraph FlatModel model_signature structural_signature",
    ".kernels": (
        "FlatGrid flat_heights flat_list_schedule flat_mobility flat_priority_columns "
        "flat_reach flat_sort_keys flat_topological_order flat_wrap_period "
        "retimed_delays seed_grid zero_delay_lists"
    ),
    ".engine": "FlatEngine",
})
