"""Downstream HLS stages: value lifetimes, register binding, selection."""

from repro._exports import export as _export

__all__ = _export(__name__, {
    ".lifetimes": "Lifetime LifetimeAnalyzer RegisterReport register_requirement",
    ".left_edge": "RegisterBinding bind_schedule left_edge_binding",
    ".selection": "SelectionReport register_cost select_schedule",
    ".datapath": "DatapathReport emit_datapath",
    ".interconnect": "InterconnectReport interconnect_cost interconnect_report",
})
