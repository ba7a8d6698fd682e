"""Output checks, each right for its input.

* cold solves — :func:`repro.qa.oracles.certify_rotation`; its semantics
  oracle simulates node funcs, so graphs without funcs get the
  structural oracles only (a bare graph cannot be simulated, which is
  not a scheduler fault);
* repairs — retiming + modulo + lower bound, as ``repro.qa.incremental``
  certifies them (edits break funcs and edge inits, so no simulation);
* served answers — decoded and certified like either of the above
  against the request's own graph and model.

Every checker returns a list of failure strings (empty = certified).
"""

from __future__ import annotations

from typing import Any, List, Mapping

from repro.dfg.io import _decode_id
from repro.dfg.retiming import Retiming
from repro.qa.oracles import (
    certify_rotation,
    check_lower_bound,
    check_modulo,
    check_retiming,
    check_semantics,
)
from repro.schedule.schedule import Schedule


def has_funcs(graph) -> bool:
    return all(graph.func(v) is not None for v in graph.nodes)


def _structural(graph, model, schedule, retiming, length) -> List[str]:
    failures = check_retiming(graph, retiming)
    failures += check_lower_bound(graph, model, length)
    failures += check_modulo(
        graph, model, schedule.normalized().start_map, length, retiming
    )
    return [str(f) for f in failures]


def check_cold(graph, model, result) -> List[str]:
    if has_funcs(graph):
        return [str(f) for f in certify_rotation(graph, model, result)]
    return _structural(graph, model, result.schedule, result.retiming, result.length)


def check_repair(graph, model, result) -> List[str]:
    return _structural(graph, model, result.schedule, result.retiming, result.length)


def check_served(graph, model, payload: Mapping[str, Any], simulate: bool) -> List[str]:
    """Certify one decoded ``result`` payload against ``(graph, model)``."""
    start = {_decode_id(v): s for v, s in payload["starts"]}
    units = {_decode_id(v): u for v, u in payload["units"] if u is not None}
    retiming = Retiming({_decode_id(v): r for v, r in payload["retiming"]})
    if set(start) != set(graph.nodes):
        return [f"answer covers {len(start)} nodes, graph has {graph.num_nodes}"]
    schedule = Schedule.from_complete(graph, model, start, units)
    length = payload["length"]
    failures = _structural(graph, model, schedule, retiming, length)
    if simulate and not failures and has_funcs(graph):
        failures = [str(f) for f in check_semantics(schedule, retiming, length)]
    return failures
