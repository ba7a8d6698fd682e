"""Lower bounds on resource-constrained loop schedules."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".lower_bounds": "LowerBoundReport combined_lower_bound lower_bound resource_bound",
})
