"""Flat-array core experiment: integer kernels vs the naive path.

The flat backend (``repro.core.flat``) exists purely for speed — the
golden parity suite pins it to the naive path bit for bit — so this
bench is its report card.  Two layers are measured:

* per-kernel micro timings: each flat kernel against the dict-based
  counterpart it replaces, on the paper's biggest graph (elliptic);
* end-to-end heuristic runs across the Table 2/3 suite, backend=flat vs
  backend=naive, CPU-time side by side in ``extra_info``.

Timings use ``time.process_time`` and a min-of-N inner loop because the
CI machine's wall clock is noisy; the recorded ratios are conservative.
Regenerate the committed snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/bench_flat_kernels.py \
        --benchmark-only --benchmark-json=BENCH_flat.json
"""

import time

import pytest

from repro.core import rotation_schedule
from repro.core.flat import (
    FlatGraph,
    FlatModel,
    flat_priority_columns,
    flat_topological_order,
    flat_wrap_period,
    retimed_delays,
    seed_grid,
    zero_delay_lists,
)
from repro.dfg.analysis import (
    descendant_reach,
    topological_order,
    zero_delay_adjacency,
)
from repro.dfg.retiming import Retiming
from repro.schedule.list_scheduler import full_schedule
from repro.suite import get_benchmark

from conftest import model_for, record, run_once


def _best_of(fn, n=5):
    """Min CPU time over ``n`` runs — robust against scheduler noise."""
    best = float("inf")
    out = None
    for _ in range(n):
        t0 = time.process_time()
        out = fn()
        dt = time.process_time() - t0
        if dt < best:
            best = dt
    return best, out


def test_kernel_micro_timings(benchmark):
    """Each flat kernel vs the dict counterpart it replaces (elliptic)."""
    graph = get_benchmark("elliptic")
    model = model_for("3A2M")
    fg = FlatGraph(graph)
    fm = FlatModel(fg, model)
    r = Retiming.zero()
    rv = fg.rvec(r)
    reps = 200

    def dict_views():
        for _ in range(reps):
            succs, _ = zero_delay_adjacency(graph, r)
            topological_order(graph, r)
            descendant_reach(graph, r)

    def flat_views():
        for _ in range(reps):
            dr = retimed_delays(fg, rv)
            zsucc, _ = zero_delay_lists(fg, dr)
            order = flat_topological_order(zsucc)
            flat_priority_columns("descendants", fm.node_time, zsucc, order)

    def run():
        dict_s, _ = _best_of(dict_views, n=3)
        flat_s, _ = _best_of(flat_views, n=3)
        return dict_s, flat_s

    dict_s, flat_s = run_once(benchmark, run)
    record(
        benchmark,
        kernel="delays+topo+priority",
        reps=reps,
        dict_seconds=round(dict_s, 4),
        flat_seconds=round(flat_s, 4),
        speedup=round(dict_s / flat_s, 2),
    )
    assert flat_s < dict_s  # the kernels must beat the object walk


def test_wrap_kernel_micro_timing(benchmark):
    """flat_wrap_period vs wrap() on the elliptic DAG schedule."""
    from repro.core.wrapping import wrap

    graph = get_benchmark("elliptic")
    model = model_for("3A2M")
    fg = FlatGraph(graph)
    fm = FlatModel(fg, model)
    r = Retiming.zero()
    sched = full_schedule(graph, model, r).normalized()
    starts = [sched.start(v) for v in fg.nodes]
    dr = retimed_delays(fg, fg.rvec(r))
    reps = 300

    def dict_wrap():
        for _ in range(reps):
            wrap(sched, r)

    def flat_wrap():
        for _ in range(reps):
            flat_wrap_period(fg, fm, starts, dr)

    def run():
        dict_s, _ = _best_of(dict_wrap, n=3)
        flat_s, _ = _best_of(flat_wrap, n=3)
        return dict_s, flat_s

    dict_s, flat_s = run_once(benchmark, run)
    assert flat_wrap_period(fg, fm, starts, dr) == wrap(sched, r).period
    record(
        benchmark,
        kernel="wrap_period",
        reps=reps,
        dict_seconds=round(dict_s, 4),
        flat_seconds=round(flat_s, 4),
        speedup=round(dict_s / flat_s, 2),
    )


def test_list_schedule_micro_timing(benchmark):
    """Flat list scheduling (grid + priority + placement) vs full_schedule."""
    from repro.core.flat.kernels import FlatGrid, flat_list_schedule

    graph = get_benchmark("elliptic")
    model = model_for("3A2M")
    fg = FlatGraph(graph)
    fm = FlatModel(fg, model)
    r = Retiming.zero()
    rv = fg.rvec(r)
    dr = retimed_delays(fg, rv)
    zsucc, zpred = zero_delay_lists(fg, dr)
    order = flat_topological_order(zsucc)
    _, _, skey = flat_priority_columns("descendants", fm.node_time, zsucc, order)
    reps = 100

    def flat_once():
        start = [None] * fg.n
        units = [None] * fg.n
        grid = FlatGrid(fm)
        flat_list_schedule(
            fg, fm, zsucc, zpred, skey, start, units, range(fg.n), 0, grid
        )
        return start

    def dict_ls():
        for _ in range(reps):
            full_schedule(graph, model, r)

    def flat_ls():
        for _ in range(reps):
            flat_once()

    def run():
        dict_s, _ = _best_of(dict_ls, n=3)
        flat_s, _ = _best_of(flat_ls, n=3)
        return dict_s, flat_s

    dict_s, flat_s = run_once(benchmark, run)
    start = flat_once()
    reference = full_schedule(graph, model, r).normalized()
    base = min(start)
    assert {fg.nodes[i]: start[i] - base for i in range(fg.n)} == reference.start_map
    record(
        benchmark,
        kernel="list_schedule",
        reps=reps,
        dict_seconds=round(dict_s, 4),
        flat_seconds=round(flat_s, 4),
        speedup=round(dict_s / flat_s, 2),
    )
    assert flat_s < dict_s


@pytest.mark.parametrize(
    "bench,config,heuristic",
    [
        ("elliptic", "3A2M", "h2"),
        ("elliptic", "2A1Mp", "h2"),
        ("lattice", "2A2M", "h2"),
        ("allpole", "2A2M", "h2"),
        ("biquad", "2A2M", "h1"),
        ("diffeq", "2A2M", "h1"),
    ],
)
def test_backend_end_to_end(benchmark, bench, config, heuristic):
    """Whole-heuristic CPU time per backend; identical results required."""
    graph = get_benchmark(bench)
    model = model_for(config)

    def cell(backend):
        return rotation_schedule(
            graph, model, heuristic=heuristic, backend=backend
        )

    def run():
        flat_s, flat = _best_of(lambda: cell("flat"))
        naive_s, naive = _best_of(lambda: cell("naive"))
        return flat_s, naive_s, flat, naive

    flat_s, naive_s, flat, naive = run_once(benchmark, run)
    record(
        benchmark,
        bench=bench,
        config=config,
        heuristic=heuristic,
        length=flat.length,
        rotations=flat.rotations_performed,
        flat_seconds=round(flat_s, 4),
        naive_seconds=round(naive_s, 4),
        flat_vs_naive=round(naive_s / flat_s, 2),
    )
    # Parity before speed: both backends agree bit for bit.
    assert flat.length == naive.length
    assert flat.retiming == naive.retiming
    assert flat.schedule.start_map == naive.schedule.start_map


def test_flat_backend_headline(benchmark):
    """Acceptance cell: h2 on elliptic @ 3A 2M — the flat backend must be
    at least 2x faster than the naive path it is pinned to (CPU time,
    min-of-9 per backend)."""
    graph = get_benchmark("elliptic")
    model = model_for("3A2M")

    def cell(backend):
        return rotation_schedule(graph, model, heuristic="h2", backend=backend)

    def run():
        flat_s, flat = _best_of(lambda: cell("flat"), n=9)
        naive_s, naive = _best_of(lambda: cell("naive"), n=9)
        return flat_s, naive_s, flat, naive

    flat_s, naive_s, flat, naive = run_once(benchmark, run)
    record(
        benchmark,
        flat_seconds=round(flat_s, 4),
        naive_seconds=round(naive_s, 4),
        speedup=round(naive_s / flat_s, 2),
        length=flat.length,
        rotations=flat.rotations_performed,
        grid_delta_rotations=flat.engine_stats["grid_delta_rotations"],
        grid_reseeds=flat.engine_stats["grid_reseeds"],
    )
    assert flat.length == 16 and naive.length == 16
    assert flat.schedule.start_map == naive.schedule.start_map
    assert flat.retiming == naive.retiming
    # The headline: memoized integer kernels at least double the naive path.
    assert flat_s * 2 <= naive_s
