#!/usr/bin/env python3
"""Interactive design iteration with MutableSchedulingSession.

A design loop rarely ends at the first schedule: the resource budget
shrinks, an operator is cut, a slow cell variant is swapped in.  Instead
of re-running the full rotation search after every tweak, open a session
once and let ``resolve()`` repair the previous schedule — bit-identical
to the from-scratch solve, typically dozens of times faster.

The walkthrough uses the paper's hardest integral experiment (the
fifth-order elliptic wave filter at 3 adders / 2 multipliers):

1. solve once from scratch,
2. tighten the adder budget from 3 to 2 (re-negotiated floorplan),
3. drop multiplier tap M7 (the coefficient became a power of two),
4. slow adder c5 down to 2 cycles (a long routing detour),

re-resolving after each edit and comparing against a full re-solve.

Run:  python examples/interactive_edit.py
"""

import time

from repro import ResourceModel, elliptic, open_session, rotation_schedule


def timed(fn, *args, **kwargs):
    t0 = time.perf_counter()
    out = fn(*args, **kwargs)
    return (time.perf_counter() - t0) * 1e3, out


def main() -> None:
    graph = elliptic()
    model = ResourceModel.adders_mults(3, 2)
    session = open_session(graph, model)

    ms, result = timed(session.resolve)
    print(f"base solve:   length {result.length}, depth {result.depth}  [{ms:6.1f} ms]")

    # Edits can go through typed methods ...
    edits = [
        ("tighten adders 3 -> 2", lambda: session.set_resource_counts({"adder": 2})),
        ("drop multiplier M7", lambda: session.remove_node("M7")),
        # ... or through the JSON edit protocol (what `rotsched session`
        # and the fuzz oracle replay):
        ("slow adder c5 to 2 cycles",
         lambda: session.apply_edit({"edit": "set_exec_time", "node": "c5", "time": 2})),
    ]
    for label, apply in edits:
        apply()
        ms, result = timed(session.resolve)
        scratch_ms, scratch = timed(
            rotation_schedule, session.graph, session.model
        )
        agree = "==" if scratch.length == result.length else "!="
        print(
            f"{label:28s} length {result.length}, depth {result.depth}  "
            f"[{ms:6.1f} ms repair vs {scratch_ms:6.1f} ms scratch, "
            f"{scratch_ms / ms:4.1f}x]  {agree} scratch"
        )

    m = session.metrics
    print(
        f"\nsession metrics: {m['edits_applied']} edits, {m['repairs']} repairs, "
        f"{m['nodes_invalidated']} nodes invalidated / {m['nodes_kept']} kept, "
        f"{m['engine_recompiles']} engine recompiles"
    )


if __name__ == "__main__":
    main()
