"""Command-line interface: ``rotsched`` (or ``python -m repro.cli``).

Subcommands:

* ``schedule`` — rotation-schedule a benchmark (or a JSON DFG file) under
  a resource configuration and print the paper-style table.
* ``inspect`` — print a DFG's characteristics (ops, CP, IB, cycles).
* ``bench`` — run one benchmark across a list of resource configurations
  and print a Table 2/3-style matrix with lower bounds and baselines.
* ``simulate`` — schedule, then run the pipelined execution against the
  sequential reference and report the outcome.
* ``exact`` — prove the optimal initiation interval by branch and bound
  (small graphs).
* ``emit`` — schedule, bind registers, and write a Verilog datapath
  skeleton.
* ``svg`` — schedule and write an SVG Gantt chart.
* ``unfold`` — unfold a graph by a factor and write it as JSON.
* ``session`` — open a MutableSchedulingSession on a DFG, replay a JSON
  edit script (or a pinned script name), and print the repaired schedule
  after every edit (``--compare`` times each repair against the
  from-scratch solve of the edited graph).
* ``fuzz`` — differential fuzzing: push seeded random graphs through
  every scheduler path and certify them against the oracle stack
  (``--smoke`` is the bounded pre-merge tier; ``--jobs N`` fans cells out
  across worker processes; failures are delta-debugged to minimal repro
  bundles under ``artifacts/qa/``).
* ``trace`` — schedule under an active span tracer and export the span
  tree as JSONL (``repro.obs`` trace schema v1).
* ``profile`` — per-span self/cumulative profile of a scheduling run (or
  of a previously exported ``--input trace.jsonl``).
* ``perfcheck`` — replay the cells pinned in ``PERF_PINS.json`` and
  fail on counter drift, a missed ratio floor, or wall time past its
  envelope in reference-ms (wall time scaled by the frozen kernel of
  ``perfbench/common.py``); ``--record`` rewrites the file.
* ``gate`` — the single pre-merge entry point: tier-1 pytest, the golden
  engine-parity suite, ``fuzz --smoke --jobs 4``, ``perfcheck --smoke``,
  and a trace smoke (trace one cell, validate the schema).
"""

from __future__ import annotations

import argparse
import sys
from typing import List, Optional, Tuple

from repro.dfg import io as dfg_io
from repro.dfg.graph import DFG
from repro.dfg.analysis import critical_path_length
from repro.dfg.iteration_bound import iteration_bound
from repro.schedule.resources import ResourceModel
from repro.core.engine import BACKENDS
from repro.core.scheduler import rotation_schedule
from repro.bounds.lower_bounds import combined_lower_bound
from repro.suite.registry import BENCHMARKS, PAPER_TIMING, get_benchmark
from repro.report.tables import render_results_table, render_schedule
from repro.report.gantt import gantt


def _load_graph(spec: str) -> DFG:
    if spec in BENCHMARKS:
        return get_benchmark(spec)
    return dfg_io.load(spec)


def parse_config(text: str) -> Tuple[ResourceModel, str]:
    """Parse a paper-style config tag like ``3A2M`` or ``2A 1Mp``."""
    compact = text.replace(" ", "").upper()
    try:
        a_idx = compact.index("A")
        adders = int(compact[:a_idx])
        rest = compact[a_idx + 1 :]
        pipelined = rest.endswith("P")
        if pipelined:
            rest = rest[:-1]
        if not rest.endswith("M"):
            raise ValueError
        mults = int(rest[:-1])
    except (ValueError, IndexError):
        raise SystemExit(
            f"bad resource config {text!r}: expected like '3A2M' or '2A1Mp'"
        ) from None
    model = ResourceModel.adders_mults(adders, mults, pipelined_mults=pipelined)
    return model, model.label()


def _sched_kwargs(args: argparse.Namespace) -> dict:
    """Map the shared scheduler flags to ``rotation_schedule`` kwargs.

    Every subcommand that rotation-schedules threads the same flags
    through this one helper, so the bench matrix exercises exactly the
    code path the ``schedule`` command reports.
    """
    return {
        "heuristic": args.heuristic,
        "beta": args.beta,
        "priority": args.priority,
        "backend": args.backend,
    }


def _print_engine_stats(result) -> None:
    """Shared ``--engine-stats`` reporting for schedule/bench/simulate.

    Never prints a dangling ``engine:`` line: all-zero counters are said
    out loud, and the flat backend's extras (unified metrics schema) are
    reported on their own labelled line.
    """
    stats = result.engine_stats
    if stats is None:
        print("engine stats: (no engine — naive backend)")
        return
    nonzero = ", ".join(f"{k}={v}" for k, v in stats.items() if v)
    print(f"engine stats: {nonzero}" if nonzero else "engine stats: (all zero)")
    metrics = result.engine_metrics
    if metrics and metrics.get("extras"):
        extras = ", ".join(f"{k}={v}" for k, v in sorted(metrics["extras"].items()))
        print(f"engine extras [{metrics.get('backend', '?')}]: {extras}")


def cmd_schedule(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    model, label = parse_config(args.resources)
    result = rotation_schedule(graph, model, **_sched_kwargs(args))
    print(result.summary())
    if args.engine_stats:
        _print_engine_stats(result)
    print()
    print(render_schedule(result.schedule, model, retiming=result.retiming))
    if args.gantt:
        print()
        print(gantt(result.schedule))
    return 0


def cmd_inspect(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    hist = graph.ops_histogram()
    mults = hist.get("mul", 0)
    adds = graph.num_nodes - mults
    cp = critical_path_length(graph, PAPER_TIMING)
    ib = iteration_bound(graph, PAPER_TIMING)
    print(f"graph {graph.name or args.graph}")
    print(f"  nodes: {graph.num_nodes} ({mults} mults, {adds} adder-class)")
    print(f"  edges: {graph.num_edges} ({graph.total_delay()} delays)")
    print(f"  critical path: {cp} CS   iteration bound: {ib}")
    return 0


def cmd_bench(args: argparse.Namespace) -> int:
    graph = _load_graph(args.graph)
    rows: List[List[object]] = []
    for cfg in args.resources:
        model, label = parse_config(cfg)
        lb = combined_lower_bound(graph, model)
        result = rotation_schedule(graph, model, **_sched_kwargs(args))
        if args.engine_stats:
            print(f"-- {label}")
            _print_engine_stats(result)
        row: List[object] = [label, lb.combined, f"{result.length} ({result.depth})"]
        if args.baselines:
            from repro.baselines import dag_list_schedule, modulo_schedule, retime_then_schedule

            row.append(dag_list_schedule(graph, model).length)
            row.append(modulo_schedule(graph, model).ii)
            row.append(retime_then_schedule(graph, model).length)
        rows.append(row)
    columns = ["Resources", "LB", "RS (depth)"]
    if args.baselines:
        columns += ["DAG-list", "Modulo", "Retime+LS"]
    print(render_results_table(f"Benchmark: {graph.name or args.graph}", columns, rows))
    return 0


def cmd_simulate(args: argparse.Namespace) -> int:
    from repro.sim.executor import verify_pipeline
    from repro.sim.machine import simulate_machine

    graph = _load_graph(args.graph)
    model, label = parse_config(args.resources)
    result = rotation_schedule(graph, model, **_sched_kwargs(args))
    print(result.summary())
    if args.engine_stats:
        _print_engine_stats(result)
    report = verify_pipeline(
        result.schedule, result.retiming, iterations=args.iterations, period=result.length
    )
    print(report)
    machine = simulate_machine(
        result.schedule, result.retiming, iterations=max(args.iterations // 2, result.depth + 2),
        period=result.length,
    )
    print(machine.summary())
    return 0 if report.matches_reference and machine.ok else 1


def cmd_exact(args: argparse.Namespace) -> int:
    from repro.baselines.exact import exact_modulo_schedule

    graph = _load_graph(args.graph)
    model, label = parse_config(args.resources)
    result = exact_modulo_schedule(
        graph, model, step_limit=args.step_limit, node_limit=args.node_limit
    )
    print(
        f"{graph.name or args.graph} @ {label}: optimal II = {result.ii} "
        f"(proven; {result.steps_explored} search steps)"
    )
    print("slots:", {str(v): s for v, s in sorted(result.start.items(), key=lambda kv: str(kv[0]))})
    return 0


def cmd_emit(args: argparse.Namespace) -> int:
    from repro.binding import emit_datapath

    graph = _load_graph(args.graph)
    model, label = parse_config(args.resources)
    result = rotation_schedule(graph, model, **_sched_kwargs(args))
    report = emit_datapath(
        result.wrapped,
        module_name=args.module or (graph.name or "pipeline").replace("-", "_"),
        data_width=args.width,
    )
    with open(args.output, "w", encoding="utf-8") as fh:
        fh.write(report.verilog)
    print(f"{report} -> {args.output}")
    return 0


def cmd_svg(args: argparse.Namespace) -> int:
    from repro.report.svg import save_svg, schedule_svg

    graph = _load_graph(args.graph)
    model, label = parse_config(args.resources)
    result = rotation_schedule(graph, model, **_sched_kwargs(args))
    svg = schedule_svg(
        result.schedule,
        result.retiming,
        period=result.length,
        title=f"{graph.name or args.graph} @ {label} — II {result.length}, depth {result.depth}",
    )
    save_svg(svg, args.output)
    print(f"wrote {args.output} (II {result.length}, depth {result.depth})")
    return 0


def _trace_meta(args: argparse.Namespace, graph: DFG, label: str) -> dict:
    return {
        "graph": graph.name or args.graph,
        "config": label,
        "heuristic": args.heuristic,
        "backend": args.backend or "flat",
    }


def cmd_trace(args: argparse.Namespace) -> int:
    from repro.obs import Trace, tracing, validate_trace, write_trace

    graph = _load_graph(args.graph)
    model, label = parse_config(args.resources)
    with tracing(meta=_trace_meta(args, graph, label)) as tr:
        result = rotation_schedule(graph, model, **_sched_kwargs(args))
    print(result.summary())
    events = write_trace(tr, args.out)
    print(f"trace: {events} span event(s) -> {args.out}")
    if args.validate:
        problems = validate_trace(Trace.from_tracer(tr))
        if problems:
            for problem in problems[:10]:
                print(f"  INVALID: {problem}")
            return 1
        print("trace: schema valid")
    return 0


def cmd_profile(args: argparse.Namespace) -> int:
    from repro.obs import profile_of, read_trace, render_profile, tracing

    if args.input:
        from repro.explore.trace import is_explore_trace

        if is_explore_trace(args.input):
            # An exploration trace, not a span trace: render its decision
            # log and the explore/v1 metrics record instead of a profile.
            from repro.explore import read_explore_trace, render_explore_trace
            from repro.obs import explore_metrics, render_metrics

            xtrace = read_explore_trace(args.input)
            print(render_explore_trace(xtrace, top=args.top or 10))
            summaries = [
                e for e in xtrace["events"] if e.get("event") == "summary"
            ]
            if summaries:
                last = summaries[-1]
                print(render_metrics(explore_metrics(
                    last.get("counters", {}),
                    mode=xtrace["header"].get("mode", "explore"),
                    elapsed=last.get("elapsed"),
                )))
            return 0
        trace = read_trace(args.input)
        prof = profile_of(trace)
        meta = ", ".join(f"{k}={v}" for k, v in sorted(trace.meta.items()))
        title = f"profile of {args.input}" + (f" ({meta})" if meta else "")
    else:
        if not args.graph:
            raise SystemExit("profile: give a graph to run, or --input trace.jsonl")
        graph = _load_graph(args.graph)
        model, label = parse_config(args.resources)
        with tracing(meta=_trace_meta(args, graph, label)) as tr:
            result = rotation_schedule(graph, model, **_sched_kwargs(args))
        print(result.summary())
        prof = profile_of(tr)
        title = f"{graph.name or args.graph} @ {label}"
    print(render_profile(prof, top=args.top, title=title))
    return 0


def cmd_session(args: argparse.Namespace) -> int:
    import json
    import time

    from repro.core.session import open_session
    from repro.qa.incremental import PINNED_EDIT_SCRIPTS

    graph = _load_graph(args.graph)
    model, label = parse_config(args.resources)
    if args.script in PINNED_EDIT_SCRIPTS:
        edits = PINNED_EDIT_SCRIPTS[args.script]
    else:
        with open(args.script, "r", encoding="utf-8") as fh:
            data = json.load(fh)
        edits = data["edits"] if isinstance(data, dict) else data
    session = open_session(
        graph,
        model,
        heuristic=args.heuristic,
        beta=args.beta,
        priority=args.priority,
        backend=args.backend,
    )
    t0 = time.perf_counter()
    result = session.resolve()
    base_ms = (time.perf_counter() - t0) * 1e3
    print(
        f"session {graph.name or args.graph} @ {label}: base solve "
        f"length {result.length} depth {result.depth}  [{base_ms:.1f} ms]"
    )
    for i, op in enumerate(edits):
        session.apply_edit(op)
        t0 = time.perf_counter()
        result = session.resolve(mode=args.mode)
        ms = (time.perf_counter() - t0) * 1e3
        line = (
            f"  edit {i} ({op['edit']}): length {result.length} "
            f"depth {result.depth}  [{ms:.1f} ms]"
        )
        if args.compare:
            t0 = time.perf_counter()
            scratch = rotation_schedule(
                session.graph, session.model,
                heuristic=args.heuristic, backend=args.backend,
            )
            scratch_ms = (time.perf_counter() - t0) * 1e3
            speedup = scratch_ms / ms if ms else float("inf")
            line += f"  vs scratch {scratch_ms:.1f} ms ({speedup:.1f}x)"
            if scratch.length != result.length:
                line += f"  [scratch length {scratch.length}]"
        print(line)
    m = session.metrics
    print(
        f"metrics: edits {m['edits_applied']}, repairs {m['repairs']}, "
        f"full solves {m['full_solves']}, invalidated {m['nodes_invalidated']}, "
        f"kept {m['nodes_kept']}, engine patches {m['engine_patches']}, "
        f"recompiles {m['engine_recompiles']}"
    )
    if args.render:
        print()
        print(render_schedule(result.schedule, session.model, retiming=result.retiming))
    if args.engine_stats:
        _print_engine_stats(result)
    return 0


def cmd_perfcheck(args: argparse.Namespace) -> int:
    from repro.errors import ReproError
    from repro.obs import record_perfcheck, run_perfcheck

    try:
        if args.record:
            path = record_perfcheck(args.root, args.repeats)
            print(f"perfcheck: pinned {path}")
            return 0
        report = run_perfcheck(args.root, args.tolerance, args.repeats, args.smoke)
    except ReproError as exc:
        print(f"perfcheck: {exc}")
        return 1
    print(report.render())
    return 0 if report.ok else 1


def cmd_fuzz(args: argparse.Namespace) -> int:
    from repro.qa import run_fuzz, smoke_cases

    if args.smoke:
        cases = smoke_cases()
    else:
        from repro.qa import grid_cases

        cases = grid_cases(seeds=range(args.seed_base, args.seed_base + args.seeds))
    report = run_fuzz(
        cases,
        budget_seconds=args.budget,
        max_cells=args.max_cells,
        out_dir=args.out,
        jobs=args.jobs,
    )
    print(report.summary())
    for failure in report.failures:
        print(f"  FAIL {failure.case.tag()}: {failure.failures[0].oracle} -> {failure.bundle_path}")
    return 0 if not report.failures else 1


def cmd_gate(args: argparse.Namespace) -> int:
    """The single pre-merge entry point: tier-1 tests, the golden engine
    parity suite, the fuzz smoke tier, the perfcheck smoke, and a trace
    smoke, in that order, failing fast."""
    import os
    import subprocess

    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in ("src", env.get("PYTHONPATH", "")) if p
    )

    def run_pytest(label: str, extra: List[str]) -> bool:
        cmd = [sys.executable, "-m", "pytest", "-q"] + extra
        print(f"gate: {label}: {' '.join(cmd)}")
        code = subprocess.call(cmd, env=env)
        print(f"gate: {label}: {'PASS' if code == 0 else f'FAIL (exit {code})'}")
        return code == 0

    if not args.skip_tests:
        if not run_pytest("tier-1 tests", ["-x"]):
            return 1
        if not run_pytest(
            "golden parity suite", ["tests/core/test_engine_parity.py"]
        ):
            return 1

    from repro.qa import run_fuzz, smoke_cases

    print(f"gate: fuzz smoke tier (--jobs {args.jobs})")
    report = run_fuzz(smoke_cases(), out_dir=args.out, jobs=args.jobs)
    print(report.summary())
    for failure in report.failures:
        print(f"  FAIL {failure.case.tag()}: {failure.failures[0].oracle} -> {failure.bundle_path}")
    if report.failures:
        print("gate: FAIL")
        return 1

    from repro.errors import ReproError
    from repro.obs import Trace, run_perfcheck, tracing, validate_trace

    print("gate: perfcheck smoke tier (pinned cells in reference-ms)")
    try:
        perf = run_perfcheck(smoke=True)
    except ReproError as exc:
        print(f"gate: perfcheck: {exc}\ngate: FAIL")
        return 1
    print(perf.render())
    if not perf.ok:
        print("gate: FAIL")
        return 1

    print("gate: trace smoke (biquad @ 2A2M, flat backend)")
    graph = get_benchmark("biquad")
    model, label = parse_config("2A2M")
    with tracing(meta={"graph": "biquad", "config": label, "backend": "flat"}) as tr:
        rotation_schedule(graph, model, heuristic="h2", backend="flat")
    problems = validate_trace(Trace.from_tracer(tr))
    if problems:
        for problem in problems[:10]:
            print(f"  INVALID: {problem}")
        print("gate: FAIL")
        return 1
    print(f"gate: trace smoke: {len(tr.events)} events, schema valid")

    print("gate: explore smoke (fixed diffeq+biquad grid, explore == exhaustive)")
    from repro.explore import build_grid, explore

    grid = build_grid(["diffeq", "biquad"], ["1A1M", "2A2M"], clocks=[40, 100])
    # round_size below the grid size so the second prune pass actually runs
    fast = explore(grid, mode="explore", round_size=4)
    full = explore(grid, mode="exhaustive")
    mismatched = [
        bench
        for bench in {spec.bench for spec in grid}
        if [p for p, _ in fast.frontiers.get(bench, [])]
        != [p for p, _ in full.frontiers.get(bench, [])]
    ]
    print(f"  explore:    {fast.counter_line()}")
    print(f"  exhaustive: {full.counter_line()}")
    if mismatched or fast.counters["solved"] + fast.counters["pruned_bound"] + (
        fast.counters["pruned_dominated"]
    ) != len(grid):
        for bench in mismatched:
            print(f"  FRONTIER MISMATCH: {bench}")
        print("gate: FAIL")
        return 1
    print("  frontiers equal, every cell accounted for")

    print("gate: serve smoke (golden requests, inline service, 2 rounds)")
    from repro.qa import check_serve_differential
    from repro.serve import build_service

    service = build_service(inline=True)
    try:
        oracle = check_serve_differential(service, rounds=2)
    finally:
        service.close()
    print(f"  {oracle.summary()}")
    hits = oracle.cache_levels.get("memory", 0) + oracle.cache_levels.get("disk", 0)
    if not oracle.ok or hits < oracle.requests // 2:
        print("gate: FAIL")
        return 1
    print("gate: PASS")
    return 0


def cmd_explore(args: argparse.Namespace) -> int:
    import json

    from repro.explore import build_grid, explore, write_explore_trace
    from repro.explore.runner import ServeCellSolver
    from repro.obs import explore_metrics, render_metrics

    cells = build_grid(
        args.benchmarks,
        args.configs,
        clocks=args.clocks,
        unfolds=args.unfolds,
        heuristics=args.heuristics,
        sigmas=args.sigmas if args.sigmas else [None],
    )
    serve_solver = None
    if args.via == "serve":
        serve_solver = ServeCellSolver(args.host, args.port)
    try:
        report = explore(
            cells,
            mode=args.mode,
            workers=args.workers,
            backend=args.backend,
            round_size=args.round_size,
            serve_solver=serve_solver,
        )
    finally:
        if serve_solver is not None:
            serve_solver.close()
    via = "serve" if serve_solver is not None else "local"
    print(
        f"{report.mode}: {len(cells)} cell(s) in {report.elapsed:.3f}s "
        f"({via}, workers={args.workers})"
    )
    for bench, pts in report.frontiers.items():
        print(f"{bench}: {len(pts)} Pareto point(s)")
        for point, labels in pts:
            achievers = ", ".join(labels[:3]) + (" ..." if len(labels) > 3 else "")
            print(f"  {point.render():42s} <- {achievers}")
    print(report.counter_line())
    if args.trace:
        n = write_explore_trace(report, args.trace)
        print(f"trace: {n} event(s) -> {args.trace}")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(report.as_json(), fh, indent=2, sort_keys=True)
        print(f"report -> {args.json}")
    if args.metrics:
        print(render_metrics(explore_metrics(
            report.counters, mode=report.mode, elapsed=report.elapsed
        )))
    return 0


def cmd_serve(args: argparse.Namespace) -> int:
    from repro.serve import run_server

    mode = "inline" if args.inline else f"{args.workers} worker shard(s)"
    print(
        f"rotsched serve: http://{args.host}:{args.port} ({mode}, "
        f"memory cache {args.cache_size}, artifacts "
        f"{args.artifacts or 'disabled'})"
    )
    run_server(
        host=args.host,
        port=args.port,
        workers=args.workers,
        cache_size=args.cache_size,
        artifacts=args.artifacts,
        inline=args.inline,
        batch_window=args.batch_window,
    )
    return 0


def cmd_loadgen(args: argparse.Namespace) -> int:
    from repro.serve import demo_workload, run_loadgen

    workload = demo_workload(repeats=args.repeats)
    report = run_loadgen(
        host=args.host,
        port=args.port,
        workload=workload,
        concurrency=args.concurrency,
    )
    print(report.summary())
    return 0 if report.errors == 0 else 1


def cmd_unfold(args: argparse.Namespace) -> int:
    from repro.dfg.unfold import unfold

    graph = _load_graph(args.graph)
    unfolded = unfold(graph, args.factor)
    dfg_io.save(unfolded, args.output)
    print(
        f"unfolded {graph.name or args.graph} x{args.factor}: "
        f"{unfolded.num_nodes} nodes, {unfolded.num_edges} edges -> {args.output}"
    )
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rotsched",
        description="Rotation scheduling: loop pipelining for cyclic data-flow graphs",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_sched_flags(p: argparse.ArgumentParser) -> None:
        # One definition for every subcommand that rotation-schedules —
        # cmd code consumes these via _sched_kwargs.
        p.add_argument("--heuristic", choices=["h1", "h2"], default="h2")
        p.add_argument("--beta", type=int, default=None, help="rotations per phase")
        p.add_argument("--priority", default="descendants")
        p.add_argument(
            "--backend",
            choices=sorted(BACKENDS),
            default=None,
            help="scheduling core: flat (memoized integer kernels, default) or "
            "naive (recompute everything, the parity oracle); bit-identical",
        )
        p.add_argument(
            "--engine-stats",
            action="store_true",
            help="print the engine's cache counters (and backend extras)",
        )

    def add_common(p: argparse.ArgumentParser) -> None:
        p.add_argument("graph", help=f"benchmark key ({', '.join(BENCHMARKS)}) or JSON path")
        p.add_argument("-r", "--resources", default="2A2M", help="config like 3A2M / 2A1Mp")
        add_sched_flags(p)

    p = sub.add_parser("schedule", help="rotation-schedule a DFG and print the table")
    add_common(p)
    p.add_argument("--gantt", action="store_true", help="also print a unit-lane Gantt chart")
    p.set_defaults(func=cmd_schedule)

    p = sub.add_parser("inspect", help="print a DFG's characteristics")
    p.add_argument("graph", help=f"benchmark key ({', '.join(BENCHMARKS)}) or JSON path")
    p.set_defaults(func=cmd_inspect)

    p = sub.add_parser("bench", help="run one graph across resource configs")
    p.add_argument("graph", help=f"benchmark key ({', '.join(BENCHMARKS)}) or JSON path")
    p.add_argument("resources", nargs="+", help="configs like 3A3M 2A1Mp ...")
    add_sched_flags(p)
    p.add_argument("--baselines", action="store_true", help="include baseline columns")
    p.set_defaults(func=cmd_bench)

    p = sub.add_parser("simulate", help="schedule then verify by execution")
    add_common(p)
    p.add_argument("-n", "--iterations", type=int, default=40)
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("exact", help="prove the optimal II by branch and bound")
    p.add_argument("graph", help=f"benchmark key ({', '.join(BENCHMARKS)}) or JSON path")
    p.add_argument("-r", "--resources", default="2A2M")
    p.add_argument("--step-limit", type=int, default=500_000)
    p.add_argument("--node-limit", type=int, default=40)
    p.set_defaults(func=cmd_exact)

    p = sub.add_parser("emit", help="generate a Verilog datapath skeleton")
    add_common(p)
    p.add_argument("-o", "--output", default="pipeline.v")
    p.add_argument("--module", default=None)
    p.add_argument("--width", type=int, default=16)
    p.set_defaults(func=cmd_emit)

    p = sub.add_parser("svg", help="render the schedule as an SVG Gantt chart")
    add_common(p)
    p.add_argument("-o", "--output", default="schedule.svg")
    p.set_defaults(func=cmd_svg)

    p = sub.add_parser(
        "trace",
        help="schedule under a span tracer and export the span tree as JSONL",
    )
    p.add_argument("graph", help=f"benchmark key ({', '.join(BENCHMARKS)}) or JSON path")
    p.add_argument(
        "-r", "--resources", "--config", default="2A2M",
        help="config like 3A2M / 2A1Mp",
    )
    add_sched_flags(p)
    p.add_argument("-o", "--out", default="trace.jsonl", help="output JSONL path")
    p.add_argument(
        "--validate",
        action="store_true",
        help="validate the exported span tree against the trace schema",
    )
    p.set_defaults(func=cmd_trace)

    p = sub.add_parser(
        "profile",
        help="per-span self/cumulative profile of a run (or of --input trace.jsonl)",
    )
    p.add_argument(
        "graph",
        nargs="?",
        default=None,
        help=f"benchmark key ({', '.join(BENCHMARKS)}) or JSON path (omit with --input)",
    )
    p.add_argument(
        "-r", "--resources", "--config", default="2A2M",
        help="config like 3A2M / 2A1Mp",
    )
    add_sched_flags(p)
    p.add_argument("--input", default=None, help="profile an exported trace.jsonl instead")
    p.add_argument("--top", type=int, default=None, help="show only the top N span names")
    p.set_defaults(func=cmd_profile)

    p = sub.add_parser(
        "session",
        help="replay a JSON edit script through an incremental scheduling session",
    )
    p.add_argument("graph", help=f"benchmark key ({', '.join(BENCHMARKS)}) or JSON path")
    p.add_argument(
        "script",
        help="JSON edit script (a list of edit ops, or {\"edits\": [...]}), "
        "or a pinned script name (tighten-adder, drop-mult, slow-node)",
    )
    p.add_argument("-r", "--resources", default="2A2M", help="config like 3A2M / 2A1Mp")
    add_sched_flags(p)
    p.add_argument(
        "--mode",
        choices=["repair", "solve"],
        default=None,
        help="force per-edit repair or full re-solve (default: repair)",
    )
    p.add_argument(
        "--compare",
        action="store_true",
        help="also time a from-scratch solve after each edit and print the speedup",
    )
    p.add_argument(
        "--render",
        action="store_true",
        help="print the final repaired schedule table",
    )
    p.set_defaults(func=cmd_session)

    p = sub.add_parser(
        "perfcheck",
        help="replay the pinned cells and fail on perf/counter regressions",
    )
    p.add_argument(
        "--root", default=".",
        help="repo root holding PERF_PINS.json and perfbench/common.py",
    )
    p.add_argument(
        "--tolerance",
        type=float,
        default=0.3,
        help="allowed slack over a pinned reference-ms envelope (0.3 = +30%%)",
    )
    p.add_argument(
        "--repeats", type=int, default=7,
        help="median-of-N timed samples per cell (per sweep with --record)",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="pre-merge tier: no explore grid, tolerance floored at 30%%",
    )
    p.add_argument(
        "--record",
        action="store_true",
        help="re-measure every cell and rewrite PERF_PINS.json (run on a clean tree)",
    )
    p.set_defaults(func=cmd_perfcheck)

    p = sub.add_parser(
        "fuzz",
        help="differential fuzzing: certify scheduler paths against the oracle stack",
    )
    p.add_argument(
        "--smoke",
        action="store_true",
        help="fixed-seed pre-merge tier (>= 200 cells, bounded runtime)",
    )
    p.add_argument("--seeds", type=int, default=3, help="seeds per generator cell")
    p.add_argument("--seed-base", type=int, default=0, help="first seed of the range")
    p.add_argument(
        "--budget", type=float, default=None, help="wall-clock budget in seconds"
    )
    p.add_argument("--max-cells", type=int, default=None, help="stop after N cells")
    p.add_argument(
        "--out", default="artifacts/qa", help="directory for minimized repro bundles"
    )
    p.add_argument(
        "--jobs",
        type=int,
        default=None,
        help="certify cells across N worker processes (same verdict, "
        "deterministic case-ordered reporting)",
    )
    p.set_defaults(func=cmd_fuzz)

    p = sub.add_parser(
        "gate",
        help="pre-merge gate: tier-1 tests + golden parity suite + fuzz smoke "
        "+ perfcheck smoke + trace smoke + serve smoke",
    )
    p.add_argument(
        "--jobs", type=int, default=4, help="worker processes for the fuzz tier"
    )
    p.add_argument(
        "--out", default="artifacts/qa", help="directory for minimized repro bundles"
    )
    p.add_argument(
        "--skip-tests",
        action="store_true",
        help="run only the fuzz smoke tier (assume pytest already ran)",
    )
    p.set_defaults(func=cmd_gate)

    p = sub.add_parser(
        "serve",
        help="run the scheduling daemon: HTTP/JSON solves behind a "
        "two-level (memory + artifact) cache",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8172)
    p.add_argument(
        "--workers", type=int, default=2, help="solver worker processes (fingerprint-sharded)"
    )
    p.add_argument(
        "--cache-size", type=int, default=256, help="in-process LRU capacity (responses)"
    )
    p.add_argument(
        "--artifacts",
        default=None,
        help="directory for the on-disk artifact tier (replayable qa bundles); "
        "omit to keep the cache memory-only",
    )
    p.add_argument(
        "--inline",
        action="store_true",
        help="solve in-process instead of in worker shards (debugging)",
    )
    p.add_argument(
        "--batch-window",
        type=float,
        default=0.01,
        help="seconds to hold a miss open for cohort batching (0 disables)",
    )
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser(
        "loadgen",
        help="drive a running daemon with the demo workload and report "
        "throughput, hit rate, and latency percentiles",
    )
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=8172)
    p.add_argument(
        "--repeats", type=int, default=4, help="times each distinct cell is requested"
    )
    p.add_argument("--concurrency", type=int, default=4, help="client threads")
    p.set_defaults(func=cmd_loadgen)

    p = sub.add_parser(
        "explore",
        help="Pareto design-space exploration over (config x clock x unfold "
        "x heuristic x rotation size)",
    )
    p.add_argument(
        "benchmarks",
        nargs="+",
        help=f"benchmark keys ({', '.join(BENCHMARKS)})",
    )
    p.add_argument(
        "-c", "--configs", nargs="+", default=["1A1M", "2A1M", "2A2M", "3A2M"],
        help="resource configs like 3A2M 2A1Mp ...",
    )
    p.add_argument(
        "--clocks", type=int, nargs="+", default=[40, 50, 100],
        help="control-step lengths in ns (latencies = ceil(40/T), ceil(80/T))",
    )
    p.add_argument("--unfolds", type=int, nargs="+", default=[1])
    p.add_argument("--heuristics", nargs="+", choices=["h1", "h2"], default=["h2"])
    p.add_argument(
        "--sigmas", type=int, nargs="+", default=None,
        help="rotation sizes to sweep (default: the heuristic's own choice)",
    )
    p.add_argument(
        "--mode", choices=["explore", "exhaustive"], default="explore",
        help="feedback-guided search (default) or the full cold grid",
    )
    p.add_argument(
        "--workers", type=int, default=1,
        help="benchmark lanes run at once on forked processes (1 = inline); "
        "the result does not depend on it",
    )
    p.add_argument(
        "--round-size", type=int, default=None,
        help="cells each benchmark lane solves between pruning passes (default 8)",
    )
    p.add_argument(
        "--backend", choices=sorted(BACKENDS), default=None,
        help="cell-solver backend (default: flat)",
    )
    p.add_argument(
        "--via", choices=["local", "serve"], default="local",
        help="solve cells in-process or through a running serve daemon",
    )
    p.add_argument("--host", default="127.0.0.1", help="serve daemon host (--via serve)")
    p.add_argument("--port", type=int, default=8347, help="serve daemon port (--via serve)")
    p.add_argument("--trace", default=None, help="write the JSONL exploration trace here")
    p.add_argument("--json", default=None, help="write the full report as JSON here")
    p.add_argument(
        "--metrics", action="store_true",
        help="print the explore/v1 record in the unified metrics schema",
    )
    p.set_defaults(func=cmd_explore)

    p = sub.add_parser("unfold", help="unfold a graph and save it as JSON")
    p.add_argument("graph", help=f"benchmark key ({', '.join(BENCHMARKS)}) or JSON path")
    p.add_argument("-f", "--factor", type=int, default=2)
    p.add_argument("-o", "--output", default="unfolded.json")
    p.set_defaults(func=cmd_unfold)

    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
