"""Wire protocol of the scheduling service: requests, canonical forms,
fingerprints, and the deterministic solve that answers a cache miss.

A request is a JSON object::

    {
      "graph":   {...repro.dfg io v2 dict...} | {"benchmark": "elliptic"},
      "config":  "3A2M" | {"units": [{"name", "count", "latency",
                                      "pipelined"}, ...],
                           "binding": {"add": "adder", ...}},
      "options": {"heuristic", "priority", "backend", "beta", "sigma",
                  "cap", "unfold", "clock", "chain_rotations"},   # partial
      "base":    "<fingerprint hex>",          # optional: warm re-solve
      "edits":   [{"edit": ..., ...}, ...]     # session edit protocol
    }

The **canonical form** of a request is what the cache keys on and what a
worker process solves: the structural signature of the (edit-applied)
graph, the model signature, and the complete, defaulted option surface —
every input that can change a schedule, and nothing else.  The
**fingerprint** is the sha256 of the canonical JSON.  The contract
(see ``docs/serving.md``):

* equal fingerprints ⇒ bit-identical ``result`` payloads, on every
  backend (the golden parity suite is what licenses the backends to
  share the schedule-bits contract; the property test in
  ``tests/property/test_fingerprint.py`` enforces it end to end);
* the graph half is :func:`repro.core.flat.structural_signature` and the
  model half :func:`repro.core.flat.model_signature`;
* execution-only knobs (``workers``, tracing) are excluded; ``backend``
  *is* included so a response's engine metrics always describe the
  backend that was asked for, even though schedule bits are
  backend-independent.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from typing import Any, Dict, List, Mapping, Optional, Tuple

from repro.dfg.graph import DFG
from repro.dfg.io import _decode_id, _encode_id, from_json_dict
from repro.errors import ReproError
from repro.dfg.retiming import Retiming
from repro.schedule.resources import ResourceModel, UnitSpec
from repro.schedule.schedule import Schedule
from repro.core.chained_rotation import chained_rotation_schedule
from repro.core.engine import BACKENDS
from repro.core.flat.graph import model_signature, structural_signature
from repro.core.scheduler import RotationScheduler
from repro.core.session import MutableSchedulingSession
from repro.dfg.unfold import unfold
from repro.suite.registry import get_benchmark

PROTOCOL = "repro.serve/v1"

#: The complete option surface, with defaults.  Every key participates in
#: the fingerprint; adding a schedule-changing option means adding it here
#: (and nowhere else) — requests fingerprinted before the addition can
#: never collide with requests after it because the canonical form always
#: spells out all keys.
DEFAULT_OPTIONS: Dict[str, Any] = {
    "heuristic": "h2",
    "priority": "descendants",
    "backend": "flat",
    "beta": None,          # rotations per phase (default 2|V|)
    "sigma": None,         # phase-size range (default initial length - 1)
    "cap": 64,             # tied-optimal schedules retained
    "unfold": 1,           # unfolding factor applied before solving
    "clock": None,         # chained mode: control-step length; None = off
    "chain_rotations": 16, # rotation budget in chained mode
}

_HEURISTICS = ("h1", "h2")
_PRIORITIES = ("descendants", "height", "combined", "mobility")


class ServeError(ReproError):
    """A malformed or unsatisfiable service request."""


@dataclass(frozen=True)
class SolveRequest:
    """A parsed, validated request: materialized graph + model + options.

    ``graph`` is the *base* graph with any ``edits`` already applied (the
    canonical form always describes the state actually solved); ``base``
    and ``edits`` are kept so the pool can route warm re-solves to the
    shard holding the base session, and ``unedited`` (the graph and model
    before the edits) so a chain's first edit can be seeded from the
    base's stored answer.
    """

    graph: DFG
    model: ResourceModel
    options: Dict[str, Any]
    base: Optional[str] = None
    edits: Tuple[Mapping[str, Any], ...] = ()
    unedited: Optional[Tuple[DFG, ResourceModel]] = None


# ----------------------------------------------------------------------
# parsing
# ----------------------------------------------------------------------
def parse_model(spec: Any) -> ResourceModel:
    """A resource model from a config tag ("3A2Mp") or a full unit spec."""
    if isinstance(spec, ResourceModel):
        return spec
    if isinstance(spec, str):
        import re

        m = re.fullmatch(r"(\d+)A(\d+)M(p?)", spec.replace(" ", ""))
        if not m:
            raise ServeError(
                f"config tag {spec!r} is not of the form '<n>A<m>M[p]'"
            )
        return ResourceModel.adders_mults(
            int(m.group(1)), int(m.group(2)), pipelined_mults=bool(m.group(3))
        )
    if isinstance(spec, Mapping):
        try:
            units = [
                UnitSpec(
                    str(u["name"]),
                    int(u["count"]),
                    int(u.get("latency", 1)),
                    bool(u.get("pipelined", False)),
                )
                for u in spec["units"]
            ]
            binding = {str(k): str(v) for k, v in spec["binding"].items()}
        except (KeyError, TypeError) as exc:
            raise ServeError(f"malformed model spec: {exc}") from exc
        return ResourceModel(units, binding)
    raise ServeError(f"config must be a tag string or a unit spec, got {type(spec).__name__}")


def parse_graph(spec: Any) -> DFG:
    """A DFG from an io-v2 dict, a ``{"benchmark": key}`` reference, or a key."""
    if isinstance(spec, DFG):
        return spec
    if isinstance(spec, str):
        spec = {"benchmark": spec}
    if not isinstance(spec, Mapping):
        raise ServeError(
            "graph must be a repro.dfg JSON dict, {'benchmark': key}, or a benchmark key"
        )
    if "benchmark" in spec:
        try:
            return get_benchmark(str(spec["benchmark"]))
        except KeyError as exc:
            raise ServeError(str(exc)) from exc
    try:
        return from_json_dict(dict(spec))
    except ReproError:
        raise
    except Exception as exc:
        raise ServeError(f"malformed graph payload: {exc}") from exc


def parse_options(raw: Optional[Mapping[str, Any]]) -> Dict[str, Any]:
    """The full option surface: defaults filled, values validated."""
    opts = dict(DEFAULT_OPTIONS)
    for key, value in (raw or {}).items():
        if key not in DEFAULT_OPTIONS:
            raise ServeError(
                f"unknown option {key!r}; choose from {sorted(DEFAULT_OPTIONS)}"
            )
        opts[key] = value
    if opts["heuristic"] not in _HEURISTICS:
        raise ServeError(f"unknown heuristic {opts['heuristic']!r}")
    if opts["priority"] not in _PRIORITIES:
        raise ServeError(
            f"priority must be one of {_PRIORITIES} (callables cannot travel over the wire)"
        )
    if opts["backend"] not in BACKENDS:
        raise ServeError(f"unknown backend {opts['backend']!r}; choose from {sorted(BACKENDS)}")
    for key in ("beta", "sigma", "clock"):
        if opts[key] is not None:
            opts[key] = _int_option(key, opts[key])
            if opts[key] < 1:
                raise ServeError(f"option {key!r} must be >= 1 when set")
    for key in ("cap", "unfold", "chain_rotations"):
        opts[key] = _int_option(key, opts[key])
        if opts[key] < 1:
            raise ServeError(f"option {key!r} must be >= 1")
    return opts


def _int_option(key: str, value: Any) -> int:
    """``int(value)``, or a :class:`ServeError` naming the option."""
    try:
        return int(value)
    except (TypeError, ValueError):
        raise ServeError(f"option {key!r} must be an integer, got {value!r}") from None


def parse_request(payload: Mapping[str, Any]) -> SolveRequest:
    """Validate one wire request and materialize its graph and model."""
    if not isinstance(payload, Mapping):
        raise ServeError("request body must be a JSON object")
    unknown = set(payload) - {"graph", "config", "options", "base", "edits"}
    if unknown:
        raise ServeError(f"unknown request field(s) {sorted(unknown)}")
    if "graph" not in payload:
        raise ServeError("request is missing 'graph'")
    if "config" not in payload:
        raise ServeError("request is missing 'config'")
    graph = parse_graph(payload["graph"])
    model = parse_model(payload["config"])
    options = parse_options(payload.get("options"))
    base = payload.get("base")
    edits = tuple(payload.get("edits") or ())
    unedited = None
    if edits:
        if options["unfold"] != 1 or options["clock"] is not None:
            raise ServeError("'edits' cannot combine with 'unfold' or 'clock'")
        # Materialize the edited graph so the canonical form (and hence the
        # fingerprint) describes the state actually solved.  Sessions are a
        # *worker-side acceleration*; correctness never depends on them.
        # Only the edit protocol is used here, so no engine is compiled.
        session = MutableSchedulingSession(graph, model, copy_graph=True, backend="naive")
        for op in edits:
            session.apply_edit(op)
        unedited = (graph, model)
        graph = session.graph
        model = session.model
    return SolveRequest(
        graph=graph,
        model=model,
        options=options,
        base=str(base) if base is not None else None,
        edits=edits,
        unedited=unedited,
    )


# ----------------------------------------------------------------------
# canonical form + fingerprint
# ----------------------------------------------------------------------
def canonical_request(request: SolveRequest) -> Dict[str, Any]:
    """The canonical, JSON-able form the cache keys on.

    Reuses the engine-layer signatures for the graph and model halves,
    then appends the full option surface in sorted key order.
    """
    return {
        "protocol": PROTOCOL,
        "graph": canonical_graph(request.graph),
        "model": canonical_model(request.model),
        "options": {k: request.options[k] for k in sorted(DEFAULT_OPTIONS)},
    }


def canonical_graph(graph: DFG) -> Dict[str, Any]:
    """The graph half of a canonical form (:func:`structural_signature`)."""
    g_nodes, g_ops, g_times, g_edges = structural_signature(graph)
    return {
        "nodes": [_encode_id(v) for v in g_nodes],
        "ops": list(g_ops),
        "times": list(g_times),
        "edges": [[_encode_id(s), _encode_id(d), delay] for s, d, delay in g_edges],
    }


def canonical_model(model: ResourceModel) -> Dict[str, Any]:
    """The model half of a canonical form (:func:`model_signature`)."""
    m_units, m_binding = model_signature(model)
    return {
        "units": [list(u) for u in m_units],
        "binding": [list(b) for b in m_binding],
    }


def fingerprint(canonical: Mapping[str, Any]) -> str:
    """sha256 hex of the canonical JSON (sorted keys, no whitespace)."""
    blob = json.dumps(canonical, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def request_fingerprint(payload: Mapping[str, Any]) -> str:
    """Parse + canonicalize + hash one wire request."""
    return fingerprint(canonical_request(parse_request(payload)))


# ----------------------------------------------------------------------
# canonical form -> objects (the worker side)
# ----------------------------------------------------------------------
def graph_from_canonical(canonical: Mapping[str, Any]) -> DFG:
    """Rebuild the scheduling-relevant graph from a canonical form.

    Only what :func:`structural_signature` captures survives (which is the
    point: a worker can never read an input the fingerprint missed).
    """
    g = canonical["graph"]
    out = DFG("serve")
    nodes = [_decode_id(v) for v in g["nodes"]]
    for v, op, time in zip(nodes, g["ops"], g["times"]):
        out.add_node(v, op, time=time)
    for src, dst, delay in g["edges"]:
        out.add_edge(_decode_id(src), _decode_id(dst), delay)
    return out


def model_from_canonical(canonical: Mapping[str, Any]) -> ResourceModel:
    m = canonical["model"]
    return ResourceModel(
        [UnitSpec(name, count, latency, pipelined) for name, count, latency, pipelined in m["units"]],
        dict(m["binding"]),
    )


# ----------------------------------------------------------------------
# solving + result payloads
# ----------------------------------------------------------------------
#: Keys of a result payload that describe *how* the answer was found, not
#: the answer itself.  A warm session repair legitimately reports a
#: different trajectory (e.g. ``rotations: 0``) than a cold search while
#: producing the same schedule bits; the differential oracle strips these
#: before comparing.
TRAJECTORY_KEYS = ("search", "session")


def schedule_bits(payload: Mapping[str, Any]) -> Dict[str, Any]:
    """The fingerprint-determined half of a result payload.

    Equal fingerprints guarantee equal ``schedule_bits``; the trajectory
    keys (``search`` stats, warm-path ``session`` meta) may differ between
    a cold search and a warm repair of the same request.
    """
    return {k: v for k, v in payload.items() if k not in TRAJECTORY_KEYS}


def result_payload(result) -> Dict[str, Any]:
    """The semantic half of a response: schedule bits + search stats.

    The schedule bits are a pure function of the fingerprint (the
    differential oracle compares them bit for bit — see
    :func:`schedule_bits`); the ``search`` sub-dict records the trajectory
    that found them.  Execution facts — elapsed time, cache level —
    ride outside, in the response envelope.
    """
    graph = result.graph
    sched = result.schedule
    return {
        "mode": "rotation",
        "length": result.length,
        "depth": result.depth,
        "period": result.wrapped.period,
        "starts": [[_encode_id(v), sched.start(v)] for v in graph.nodes],
        "units": [[_encode_id(v), sched.unit_index(v)] for v in graph.nodes],
        "retiming": [[_encode_id(v), result.retiming[v]] for v in graph.nodes],
        "search": {
            "initial_length": result.initial_length,
            "optimal_count": result.optimal_count,
            "rotations": result.rotations_performed,
        },
    }


def schedule_from_payload(
    graph: DFG, model: ResourceModel, payload: Mapping[str, Any]
) -> Tuple[Schedule, Retiming]:
    """The ``(schedule, retiming)`` a rotation-mode :func:`result_payload`
    spells, rebuilt on ``graph`` and ``model`` (its inverse); raises a
    :class:`ReproError` when the payload is malformed or does not place
    exactly the graph's nodes."""
    try:
        starts = {_decode_id(v): int(s) for v, s in payload["starts"]}
        units = {_decode_id(v): int(u) for v, u in payload["units"] if u is not None}
        retiming = Retiming({_decode_id(v): int(r) for v, r in payload["retiming"]})
    except (KeyError, TypeError, ValueError) as exc:
        raise ServeError(f"malformed result payload: {exc!r}") from exc
    return Schedule(graph, model, starts, units), retiming


def chained_result_payload(state, best_len: int) -> Dict[str, Any]:
    """Semantic payload of a chained-mode solve."""
    graph = state.graph
    sched = state.schedule
    entries = []
    for v in graph.nodes:
        e = sched.entry(v)
        entries.append([_encode_id(v), e.cs, e.offset, e.unit, e.instance])
    return {
        "mode": "chained",
        "length": best_len,
        "cs_length": state.cs_length,
        "entries": entries,
        "retiming": [[_encode_id(v), state.retiming[v]] for v in graph.nodes],
    }


def solve_canonical(canonical: Mapping[str, Any]) -> Dict[str, Any]:
    """Deterministically solve one canonical request — the cache-miss path.

    Pure: same canonical form in, bit-identical ``result`` payload out, on
    any backend.  Runs in worker processes (and inline in tests).
    """
    graph = graph_from_canonical(canonical)
    model = model_from_canonical(canonical)
    opts = canonical["options"]
    if opts["unfold"] > 1:
        graph = unfold(graph, opts["unfold"])
    if opts["clock"] is not None:
        state, best_len = chained_rotation_schedule(
            graph,
            model.timing(),
            opts["clock"],
            {u.name: u.count for u in model.units},
            model.binding,
            rotations=opts["chain_rotations"],
            priority=opts["priority"],
        )
        return chained_result_payload(state, best_len)
    result = RotationScheduler(
        model,
        heuristic=opts["heuristic"],
        beta=opts["beta"],
        sigma=opts["sigma"],
        priority=opts["priority"],
        cap=opts["cap"],
        backend=opts["backend"],
    ).schedule(graph)
    return result_payload(result)
