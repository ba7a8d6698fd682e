"""Fingerprint-completeness properties (the serve cache's load-bearing wall).

Two guarantees, checked over seeded random graphs and all four backends:

1. **Soundness** — requests with equal fingerprints produce bit-identical
   schedule payloads.  We construct fingerprint collisions on purpose, by
   varying every input the canonical form deliberately ignores (funcs,
   edge inits, node/edge attrs, graph name, insertion order of nothing),
   and assert the solved bits cannot tell the requests apart.

2. **Completeness** — every schedule-*changing* input moves the hash.
   For each such input we exhibit a request pair that would collide if
   the input were dropped from the canonical form, and show that the pair
   (a) fingerprints differently and (b) can produce different schedules —
   i.e. the input really is load-bearing, not ceremonial.
"""

from __future__ import annotations

import pytest

from repro.dfg import io as dfg_io
from repro.dfg.graph import DFG
from repro.serve.protocol import (
    canonical_request,
    fingerprint,
    parse_request,
    request_fingerprint,
    schedule_bits,
    solve_canonical,
)
from repro.suite.random_graphs import random_dfg, random_dsp_kernel

ALL_BACKENDS = ("flat", "naive")


def solve_on(payload, backend):
    merged = {**payload, "options": {**payload.get("options", {}), "backend": backend}}
    return solve_canonical(canonical_request(parse_request(merged)))


def sample_graphs():
    return [
        random_dfg(8, seed=3),
        random_dfg(12, seed=11),
        random_dsp_kernel(taps=4, seed=5),
    ]


def decorate(graph: DFG, salt: float) -> DFG:
    """A semantically-decorated copy: same scheduling inputs, different
    simulation inputs (funcs, inits, attrs, name)."""
    out = graph.copy(name=f"decorated-{salt}")
    for v in out.nodes:
        out.set_func(v, (lambda s: (lambda *xs: s + sum(xs)))(salt))
        out.attrs(v)["note"] = f"salt={salt}"
    return out


class TestSoundness:
    @pytest.mark.parametrize("backend", ALL_BACKENDS)
    def test_equal_fingerprints_solve_bit_identical(self, backend):
        for graph in sample_graphs():
            plain = {"graph": dfg_io.to_json_dict(graph), "config": "2A1M"}
            dressed = {"graph": dfg_io.to_json_dict(decorate(graph, 0.25)),
                       "config": "2A1M"}
            assert request_fingerprint(plain) == request_fingerprint(dressed)
            a = solve_on(plain, backend)
            b = solve_on(dressed, backend)
            assert a == b  # bit-for-bit, search stats included

    def test_backends_agree_on_schedule_bits(self):
        # backend is *in* the fingerprint, so cross-backend answers live
        # under different keys — but their schedule bits must still agree
        # (the engine parity contract, observed through the serve payload).
        for graph in sample_graphs():
            payload = {"graph": dfg_io.to_json_dict(graph), "config": "2A1M"}
            bits = {
                backend: schedule_bits(solve_on(payload, backend))
                for backend in ALL_BACKENDS
            }
            first = next(iter(bits.values()))
            assert all(b == first for b in bits.values()), sorted(bits)

    def test_fingerprint_is_stable_across_processes_inputs(self):
        # Same wire payload, parsed twice -> same hash (no id()/ordering
        # leakage into the canonical form).
        payload = {"graph": dfg_io.to_json_dict(random_dfg(10, seed=7)),
                   "config": "3A2Mp", "options": {"priority": "mobility"}}
        assert request_fingerprint(payload) == request_fingerprint(
            {**payload}
        )


def differing_pairs():
    """(name, payload_a, payload_b) pairs that would collide if one
    canonical input were dropped."""
    g = random_dfg(10, seed=13)
    base = {"graph": dfg_io.to_json_dict(g), "config": "2A1M"}
    edited = g.copy()
    # Overrides steer time-aware priorities (height/mobility); under the
    # default descendants priority they are inert, so the load-bearing
    # check below pairs the override with priority="height".
    edited.set_exec_time("n0", 9)
    return [
        ("pipelined_mults", base, {**base, "config": "2A1Mp"}),
        ("unit_latency", base,
         {**base, "config": {
             "units": [{"name": "adder", "count": 2, "latency": 1},
                       {"name": "mult", "count": 1, "latency": 3}],
             "binding": {"add": "adder", "sub": "adder", "const": "adder",
                         "input": "adder", "output": "adder", "mul": "mult"}}}),
        ("exec_time_override",
         {**base, "options": {"priority": "height"}},
         {"graph": dfg_io.to_json_dict(edited), "config": "2A1M",
          "options": {"priority": "height"}}),
        ("heuristic", base, {**base, "options": {"heuristic": "h1"}}),
        ("priority", base, {**base, "options": {"priority": "mobility"}}),
        ("clock_chaining", base, {**base, "options": {"clock": 40}}),
        ("unfolding", base, {**base, "options": {"unfold": 2}}),
        ("cap", base, {**base, "options": {"cap": 1}}),
        ("beta", base, {**base, "options": {"beta": 1}}),
    ]


class TestCompleteness:
    @pytest.mark.parametrize(
        "name,payload_a,payload_b",
        differing_pairs(),
        ids=[name for name, _, _ in differing_pairs()],
    )
    def test_schedule_changing_inputs_move_the_hash(self, name, payload_a, payload_b):
        assert request_fingerprint(payload_a) != request_fingerprint(payload_b), (
            f"{name}: two schedule-relevant requests collided"
        )

    def test_inputs_are_load_bearing_not_ceremonial(self):
        # At least the structural knobs must be able to change the solved
        # payload — otherwise keying on them would be untestable ceremony.
        changed = set()
        for name, payload_a, payload_b in differing_pairs():
            a = solve_canonical(canonical_request(parse_request(payload_a)))
            b = solve_canonical(canonical_request(parse_request(payload_b)))
            if a != b:
                changed.add(name)
        for name in ("pipelined_mults", "unit_latency", "exec_time_override",
                     "clock_chaining", "unfolding"):
            assert name in changed, f"{name} never changed the solved payload"
