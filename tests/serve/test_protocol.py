"""Protocol tests: parsing, canonical forms, fingerprint invariances."""

from __future__ import annotations

import pytest

from repro.dfg.graph import DFG
from repro.schedule.resources import ResourceModel
from repro.serve.protocol import (
    DEFAULT_OPTIONS,
    ServeError,
    canonical_request,
    fingerprint,
    graph_from_canonical,
    model_from_canonical,
    parse_model,
    parse_options,
    parse_request,
    request_fingerprint,
    schedule_bits,
    solve_canonical,
)
from repro.dfg import io as dfg_io


def fp_of(payload):
    return request_fingerprint(payload)


class TestParsing:
    def test_model_tag_round_trip(self):
        model = parse_model("3A2Mp")
        by_name = {u.name: u for u in model.units}
        assert by_name["adder"].count == 3
        assert by_name["mult"].count == 2 and by_name["mult"].pipelined

    def test_model_tag_rejects_garbage(self):
        with pytest.raises(ServeError):
            parse_model("3B2M")
        with pytest.raises(ServeError):
            parse_model({"units": []})  # missing binding

    def test_options_defaults_and_validation(self):
        opts = parse_options(None)
        assert opts == DEFAULT_OPTIONS
        with pytest.raises(ServeError, match="unknown option"):
            parse_options({"workers": 4})  # execution knob, not an option
        with pytest.raises(ServeError):
            parse_options({"heuristic": "h3"})
        with pytest.raises(ServeError):
            parse_options({"backend": "gpu"})
        with pytest.raises(ServeError):
            parse_options({"unfold": 0})

    def test_request_requires_graph_and_config(self):
        with pytest.raises(ServeError, match="missing 'graph'"):
            parse_request({"config": "2A1M"})
        with pytest.raises(ServeError, match="missing 'config'"):
            parse_request({"graph": {"benchmark": "diffeq"}})
        with pytest.raises(ServeError, match="unknown request field"):
            parse_request({"graph": {"benchmark": "diffeq"}, "config": "2A1M",
                           "graf": 1})

    def test_edits_incompatible_with_unfold_and_clock(self):
        base = {"graph": {"benchmark": "diffeq"}, "config": "2A1M",
                "edits": [{"edit": "set_exec_time", "node": 3, "time": 2}]}
        with pytest.raises(ServeError, match="edits"):
            parse_request({**base, "options": {"unfold": 2}})
        with pytest.raises(ServeError, match="edits"):
            parse_request({**base, "options": {"clock": 50}})

    def test_graph_accepts_io_v2_dict(self):
        g = DFG("wire")
        g.add_node("a", "add")
        g.add_node("m", "mul")
        g.add_edge("a", "m", 0)
        g.add_edge("m", "a", 2)
        payload = {"graph": dfg_io.to_json_dict(g), "config": "1A1M"}
        request = parse_request(payload)
        assert sorted(request.graph.nodes) == ["a", "m"]


class TestFingerprint:
    BASE = {"graph": {"benchmark": "diffeq"}, "config": "2A1M"}

    def test_deterministic_and_spelling_independent(self):
        # A benchmark reference and its explicit io dict are one request.
        from repro.suite.registry import get_benchmark

        explicit = {"graph": dfg_io.to_json_dict(get_benchmark("diffeq")),
                    "config": "2A1M"}
        assert fp_of(self.BASE) == fp_of(explicit)
        # ... and so is the bare benchmark-key string shorthand.
        assert fp_of(self.BASE) == fp_of({"graph": "diffeq", "config": "2A1M"})
        # Defaults spelled out == defaults omitted.
        assert fp_of(self.BASE) == fp_of({**self.BASE, "options": {"heuristic": "h2"}})

    def test_every_option_is_load_bearing(self):
        # Flipping any single schedule-changing option must move the hash.
        seen = {fp_of(self.BASE)}
        for options in (
            {"heuristic": "h1"},
            {"priority": "height"},
            {"backend": "naive"},
            {"beta": 9},
            {"sigma": 3},
            {"cap": 1},
            {"unfold": 2},
            {"clock": 50},
            {"clock": 50, "chain_rotations": 4},
        ):
            fp = fp_of({**self.BASE, "options": options})
            assert fp not in seen, f"options {options} did not change the fingerprint"
            seen.add(fp)

    def test_model_details_are_load_bearing(self):
        # Count, latency and the pipelined flag each move the hash.
        fps = {fp_of({**self.BASE, "config": tag}) for tag in ("2A1M", "3A1M", "2A2M", "2A1Mp")}
        assert len(fps) == 4
        # ...and a structurally different unit spec with the same tag shape.
        spec = {"units": [{"name": "adder", "count": 2, "latency": 2},
                          {"name": "mult", "count": 1, "latency": 2}],
                "binding": {"add": "adder", "mul": "mult", "const": "adder",
                            "sub": "adder", "input": "adder", "output": "adder"}}
        assert fp_of({**self.BASE, "config": spec}) not in fps

    def test_exec_time_overrides_are_load_bearing(self):
        edited = {**self.BASE,
                  "edits": [{"edit": "set_exec_time", "node": 3, "time": 2}]}
        assert fp_of(edited) != fp_of(self.BASE)

    def test_edit_materialization_collapses_into_plain_request(self):
        # graph spec + edits fingerprints identically to the pre-edited
        # graph sent directly: the canonical form describes the solved
        # state, never the road taken to it.
        from repro.suite.registry import get_benchmark

        g = get_benchmark("diffeq").copy()
        g.set_exec_time(3, 2)
        direct = {"graph": dfg_io.to_json_dict(g), "config": "2A1M"}
        edited = {**self.BASE,
                  "edits": [{"edit": "set_exec_time", "node": 3, "time": 2}]}
        assert fp_of(direct) == fp_of(edited)

    def test_simulation_only_attrs_do_not_move_the_hash(self):
        # funcs / edge inits / graph name are simulation semantics, not
        # scheduling inputs — requests differing only there must collide.
        g1 = DFG("one")
        g1.add_node("a", "add", func=lambda x: x + 1.0)
        g1.add_node("m", "mul")
        g1.add_edge("a", "m", 0)
        g1.add_edge("m", "a", 1, init=[0.5])
        g2 = DFG("two")
        g2.add_node("a", "add")
        g2.add_node("m", "mul", func=lambda x: 2.0 * x)
        g2.add_edge("a", "m", 0)
        g2.add_edge("m", "a", 1, init=[9.9])
        p1 = {"graph": dfg_io.to_json_dict(g1), "config": "1A1M"}
        p2 = {"graph": dfg_io.to_json_dict(g2), "config": "1A1M"}
        assert fp_of(p1) == fp_of(p2)


class TestCanonicalRoundTrip:
    def test_worker_rebuild_matches_signature(self):
        # graph_from_canonical must reproduce exactly the state the
        # fingerprint hashed: re-canonicalizing the rebuilt graph is a
        # fixed point.
        payload = {"graph": {"benchmark": "elliptic"}, "config": "3A2M",
                   "options": {"priority": "combined"}}
        request = parse_request(payload)
        canonical = canonical_request(request)
        rebuilt = graph_from_canonical(canonical)
        model = model_from_canonical(canonical)
        from repro.serve.protocol import SolveRequest

        again = canonical_request(
            SolveRequest(graph=rebuilt, model=model, options=request.options)
        )
        assert again == canonical
        assert fingerprint(again) == fingerprint(canonical)

    def test_solve_canonical_modes(self):
        base = {"graph": {"benchmark": "diffeq"}, "config": "2A1M"}
        rotation = solve_canonical(canonical_request(parse_request(base)))
        assert rotation["mode"] == "rotation" and rotation["length"] > 0
        assert set(rotation["search"]) == {"initial_length", "optimal_count", "rotations"}
        chained = solve_canonical(canonical_request(parse_request(
            {**base, "options": {"clock": 50, "chain_rotations": 4}}
        )))
        assert chained["mode"] == "chained" and chained["cs_length"] == 50
        unfolded = solve_canonical(canonical_request(parse_request(
            {**base, "options": {"unfold": 2}}
        )))
        assert len(unfolded["starts"]) == 22  # 11 diffeq nodes x 2

    def test_schedule_bits_strips_trajectory(self):
        payload = {"graph": {"benchmark": "diffeq"}, "config": "2A1M"}
        result = solve_canonical(canonical_request(parse_request(payload)))
        bits = schedule_bits({**result, "session": {"repaired": True}})
        assert "search" not in bits and "session" not in bits
        assert bits["starts"] == result["starts"]
