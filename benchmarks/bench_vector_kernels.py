"""Vector backend experiment: numpy kernels, rotation memos, batched solving.

The vector backend (``repro.core.vector``) is the fourth engine behind
``rotation_schedule``; the golden parity suite pins it bit for bit
against flat/views/naive, so — like the flat bench before it — this file
is purely its report card.  Three layers are measured:

* end-to-end heuristic runs, ``backend=vector`` vs ``backend=flat``,
  interleaved A/B so machine drift hits both sides equally;
* the headline acceptance cells: h2 on elliptic @ 3A 2M single-solve
  (its ``vector_seconds`` is the envelope ``rotsched perfcheck`` holds the
  default backend to), and ``solve_batch`` over the fuzz ``--smoke``
  grid against solving the same requests sequentially with the flat
  backend;
* a per-kernel self-time table from the span tracer (the same
  aggregation ``rotsched profile`` prints), flat vs vector side by side.

Timings use ``time.process_time`` with interleaved min-of-N pairs —
the same protocol ``rotsched perfcheck`` replays — because the CI
machine's clock is noisy; recorded ratios are conservative.  Regenerate
the committed snapshot with::

    PYTHONPATH=src python -m pytest benchmarks/bench_vector_kernels.py \
        --benchmark-only --benchmark-json=BENCH_vector.json
"""

import time

import pytest

from repro.core import rotation_schedule
from repro.core.vector import have_numpy
from repro.suite import get_benchmark

from conftest import model_for, record, run_once

pytestmark = pytest.mark.skipif(
    not have_numpy(), reason="vector backend requires numpy"
)


def _warm():
    """Import numpy and JIT-warm the kernels before any timed region."""
    from repro.core.vector.batch import solve_batch

    solve_batch([get_benchmark("biquad")], model_for("2A2M"), heuristic="h1")


def _ab_pairs(run_a, run_b, pairs):
    """Interleaved min-of-N CPU timing: alternate A and B so slow-machine
    windows penalize both sides instead of whichever ran second."""
    best_a = best_b = float("inf")
    out_a = out_b = None
    for _ in range(pairs):
        t0 = time.process_time()
        ra = run_a()
        dt = time.process_time() - t0
        if dt < best_a:
            best_a, out_a = dt, ra
        t0 = time.process_time()
        rb = run_b()
        dt = time.process_time() - t0
        if dt < best_b:
            best_b, out_b = dt, rb
    return best_a, best_b, out_a, out_b


@pytest.mark.parametrize(
    "bench,config,heuristic",
    [
        ("elliptic", "3A2M", "h2"),
        ("elliptic", "2A1Mp", "h2"),
        ("lattice", "2A2M", "h2"),
        ("allpole", "2A2M", "h2"),
    ],
)
def test_vector_end_to_end(benchmark, bench, config, heuristic):
    """Whole-heuristic CPU time, vector vs flat; identical results required."""
    graph = get_benchmark(bench)
    model = model_for(config)

    def cell(backend):
        return rotation_schedule(graph, model, heuristic=heuristic, backend=backend)

    def run():
        _warm()
        return _ab_pairs(lambda: cell("flat"), lambda: cell("vector"), pairs=5)

    flat_s, vector_s, flat, vector = run_once(benchmark, run)
    record(
        benchmark,
        bench=bench,
        config=config,
        heuristic=heuristic,
        length=vector.length,
        rotations=vector.rotations_performed,
        vector_seconds=round(vector_s, 4),
        flat_seconds=round(flat_s, 4),
        vector_vs_flat=round(flat_s / vector_s, 2),
    )
    # Parity before speed: both backends agree bit for bit.
    assert vector.length == flat.length
    assert vector.retiming == flat.retiming
    assert vector.schedule.start_map == flat.schedule.start_map
    assert vector.rotations_performed == flat.rotations_performed


def test_vector_backend_headline(benchmark):
    """Acceptance cell: h2 on elliptic @ 3A 2M, vector vs flat (CPU time,
    interleaved min-of-9 per backend).  Both run the same memoized engine
    below the numpy threshold, so the cell pins parity, not a ratio."""
    graph = get_benchmark("elliptic")
    model = model_for("3A2M")

    def cell(backend):
        return rotation_schedule(graph, model, heuristic="h2", backend=backend)

    def run():
        _warm()
        return _ab_pairs(lambda: cell("flat"), lambda: cell("vector"), pairs=9)

    flat_s, vector_s, flat, vector = run_once(benchmark, run)
    extras = vector.engine_metrics["extras"]
    record(
        benchmark,
        headline="single_solve",
        vector_seconds=round(vector_s, 4),
        flat_seconds=round(flat_s, 4),
        speedup=round(flat_s / vector_s, 2),
        length=vector.length,
        rotations=vector.rotations_performed,
        rotation_memo_hits=extras["rotation_memo_hits"],
        wrap_memo_hits=extras["wrap_memo_hits"],
        chain_tip_reuses=extras["chain_tip_reuses"],
    )
    assert vector.length == 16 and flat.length == 16
    assert vector.schedule.start_map == flat.schedule.start_map
    assert vector.retiming == flat.retiming


def test_batched_smoke_cohort(benchmark):
    """Acceptance cell: ``solve_batch`` over the fuzz ``--smoke`` grid vs
    the same requests solved sequentially with the flat backend — the
    struct-of-arrays cohort (dedup + one stacked initial pass) must beat
    sequential solving on CPU time, interleaved min-of-5."""
    from repro.qa import smoke_cases
    from repro.qa.runner import batch_groups, config_model
    from repro.core.vector.batch import solve_batch

    groups = [
        (cfg, config_model(cfg), [g for _, g in pairs])
        for cfg, pairs in batch_groups(smoke_cases())
    ]
    requests = sum(len(gs) for _, _, gs in groups)

    def flat_seq():
        return [
            rotation_schedule(g, model, heuristic="h2", backend="flat")
            for _, model, gs in groups
            for g in gs
        ]

    def batched():
        results = []
        unique = 0
        for _, model, gs in groups:
            stats = {}
            results.extend(solve_batch(gs, model, heuristic="h2", stats=stats))
            unique += stats["unique"]
        return results, unique

    def run():
        _warm()
        return _ab_pairs(flat_seq, batched, pairs=5)

    flat_s, batched_s, flat_results, (vec_results, unique_solves) = run_once(
        benchmark, run
    )
    # Parity before speed: the batched cohort answers every request with
    # the same schedule the sequential flat solver produces.
    assert [r.length for r in vec_results] == [r.length for r in flat_results]
    assert [r.retiming for r in vec_results] == [r.retiming for r in flat_results]
    record(
        benchmark,
        headline="batched_smoke",
        cohort="smoke",
        heuristic="h2",
        requests=requests,
        unique_solves=unique_solves,
        length_sum=sum(r.length for r in vec_results),
        flat_seq_seconds=round(flat_s, 4),
        batched_seconds=round(batched_s, 4),
        speedup=round(flat_s / batched_s, 2),
    )
    assert requests == 189 and unique_solves > 0
    # Dedup answers 189 requests with fewer solves than sequential flat.
    assert batched_s < flat_s


def test_per_kernel_profile_table(benchmark):
    """Per-kernel self-time A/B from the span tracer — the same rows
    ``rotsched profile`` prints, flat vs vector on one traced solve."""
    from repro.obs import profile_of, tracing

    graph = get_benchmark("elliptic")
    model = model_for("3A2M")
    kernels = (
        "kernel.list_schedule",
        "kernel.latest_fit",
        "kernel.wrap_period",
        "rotate.down",
        "rotate.up",
        "depth_reduction",
    )

    def traced(backend):
        with tracing() as tr:
            rotation_schedule(graph, model, heuristic="h2", backend=backend)
        return profile_of(tr)

    def run():
        _warm()
        return traced("flat"), traced("vector")

    flat_prof, vec_prof = run_once(benchmark, run)
    table = {}
    for name in kernels:
        f = flat_prof.rows.get(name)
        v = vec_prof.rows.get(name)
        table[name] = {
            "flat_calls": f.calls if f else 0,
            "flat_self_s": round(f.self_s, 4) if f else 0.0,
            "vector_calls": v.calls if v else 0,
            "vector_self_s": round(v.self_s, 4) if v else 0.0,
        }
        record(benchmark, **{
            f"{name}.flat_calls": table[name]["flat_calls"],
            f"{name}.vector_calls": table[name]["vector_calls"],
            f"{name}.flat_self_s": table[name]["flat_self_s"],
            f"{name}.vector_self_s": table[name]["vector_self_s"],
        })
    # The memos must actually elide kernel work: the vector solve runs
    # strictly fewer list-schedule kernels than flat's one-per-rotation.
    assert table["kernel.list_schedule"]["vector_calls"] < table[
        "kernel.list_schedule"
    ]["flat_calls"]
