#!/usr/bin/env python3
"""The complete HLS flow: loop -> pipeline -> registers -> Verilog.

Chains every stage the paper's conclusion sketches around rotation
scheduling: schedule the elliptic wave filter under a realistic datapath,
prove where the result stands against the lower bound, verify it by
execution, analyze value lifetimes, bind registers, measure interconnect,
pick the cheapest member of the optimal set Q, and emit the Verilog
datapath skeleton plus an SVG chart.

Run:  python examples/full_hls_flow.py [OUT_DIR]
      (writes the artifacts to OUT_DIR, default examples/build/)
"""

import os
import sys

from repro import (
    ResourceModel,
    combined_lower_bound,
    elliptic,
    rotation_schedule,
    select_schedule,
    verify_pipeline,
)
from repro.binding import emit_datapath, interconnect_cost, interconnect_report
from repro.report.svg import save_svg, schedule_svg


def main(out_dir: str = os.path.join(os.path.dirname(__file__), "build")) -> None:
    os.makedirs(out_dir, exist_ok=True)

    graph = elliptic()
    model = ResourceModel.adders_mults(3, 2, pipelined_mults=True)
    print(f"== {graph.name} on {model.describe()}")

    # 1. schedule
    result = rotation_schedule(graph, model)
    lb = combined_lower_bound(graph, model)
    tag = "provably optimal" if result.length == lb.combined else f"LB {lb.combined}"
    print(f"1. rotation scheduling: {result.initial_length} -> {result.length} CS "
          f"({tag}), depth {result.depth}, {result.optimal_count} optimal schedules")

    # 2. verify by execution
    report = verify_pipeline(result.schedule, result.retiming,
                             iterations=result.depth + 30, period=result.length)
    assert report.matches_reference
    print(f"2. execution check: bit-exact over {report.iterations} iterations, "
          f"{report.speedup_vs_sequential:.2f}x vs the sequential loop")

    # 3. select the cheapest schedule in Q by interconnect cost
    selection = select_schedule(result, cost=interconnect_cost)
    print(f"3. selection over Q: interconnect cost {min(selection.costs)}..."
          f"{max(selection.costs)} -> picked {selection.best_cost}")
    best = selection.best

    # 4. registers + interconnect of the chosen schedule
    ic = interconnect_report(best)
    print(f"4. datapath structure: {ic}")

    # 5. emit artifacts
    dp = emit_datapath(best, module_name="ewf_pipeline", data_width=18)
    verilog_path = os.path.join(out_dir, "ewf_pipeline.v")
    with open(verilog_path, "w", encoding="utf-8") as fh:
        fh.write(dp.verilog)
    svg_path = os.path.join(out_dir, "ewf_schedule.svg")
    save_svg(
        schedule_svg(best.schedule, best.retiming, period=best.period,
                     title=f"elliptic @ {model.label()} — II {best.period}"),
        svg_path,
    )
    print(f"5. emitted {dp} ->\n      {verilog_path}\n      {svg_path}")


if __name__ == "__main__":
    main(*sys.argv[1:2])
