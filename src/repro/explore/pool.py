"""Work-stealing execution of cell chunks.

The unit of work is a **chunk** — ``(kind, [CellSpec, ...])`` with kind
``"family"`` (solved one by one on the warm path, in order, so the
session chain connects) or ``"cold"`` (the exhaustive baseline).
Chunks, not cells, are what gets stolen: a family chunk migrating
wholesale keeps its warm chain intact, whereas splitting one would
silently turn warm solves cold.

:class:`WorkStealingPool` runs chunks on worker processes, parent as
scheduler: each worker owns a deque of chunks (dealt round-robin in
canonical order), takes from its **head**, and an idle worker steals
from the **tail** of the longest remaining deque — the classic
Arora/Blumofe/Plaxton discipline, with the lease length (cells per
chunk) as the knob between locality and balance.  Results reassemble by
chunk index, so the fold order downstream is independent of which worker
ran what; only ``steal_count`` and per-cell ``source`` labels depend on
timing.  :class:`InlinePool` is the sequential reference — bit-identical
counters, zero steals — used for ``workers <= 1`` and everywhere
determinism is pinned (1-CPU CI included).
"""

from __future__ import annotations

from collections import deque
from typing import Dict, List, Optional, Sequence, Tuple

from repro.explore.space import CellSpec, ExploreError
from repro.explore.runner import CellOutcome, CellSolver

#: ``(kind, cells)`` — the work-stealing lease unit.
Chunk = Tuple[str, List[CellSpec]]

CHUNK_KINDS = ("family", "cold")


def execute_chunk(solver: CellSolver, kind: str, cells: Sequence[CellSpec]) -> List[CellOutcome]:
    """Run one chunk on one solver — the only cell-execution call site
    shared by both pools and the inline grid runner."""
    if kind == "cold":
        return [solver.solve_cold(spec) for spec in cells]
    if kind == "family":
        return [solver.solve(spec) for spec in cells]
    raise ExploreError(f"unknown chunk kind {kind!r}; choose from {CHUNK_KINDS}")


class InlinePool:
    """Sequential chunk execution in this process (the reference)."""

    workers = 1

    def __init__(self, backend: Optional[str] = None):
        self.solver = CellSolver(backend)
        self.steal_count = 0

    def run(self, chunks: Sequence[Chunk]) -> List[List[CellOutcome]]:
        return [execute_chunk(self.solver, kind, cells) for kind, cells in chunks]

    def close(self) -> None:
        pass


def _worker_main(conn, backend: Optional[str]) -> None:
    """Worker process: execute chunks until told to stop.

    The solver — memo, warm sessions and all — persists across chunks, so
    every chunk a worker runs enriches the reuse for its later ones.
    """
    solver = CellSolver(backend)
    while True:
        msg = conn.recv()
        if msg[0] == "stop":
            conn.close()
            return
        _, chunk_id, kind, cells = msg
        try:
            outcomes = [o.strip() for o in execute_chunk(solver, kind, cells)]
            conn.send(("done", chunk_id, outcomes))
        except Exception as exc:  # surface, don't hang the parent
            conn.send(("error", chunk_id, f"{type(exc).__name__}: {exc}"))


class WorkStealingPool:
    """Chunk execution on ``workers`` processes with tail stealing."""

    def __init__(self, workers: int, backend: Optional[str] = None):
        if workers < 2:
            raise ExploreError("WorkStealingPool needs >= 2 workers; use InlinePool")
        self.workers = workers
        self.backend = backend
        self.steal_count = 0

    def run(self, chunks: Sequence[Chunk]) -> List[List[CellOutcome]]:
        import multiprocessing as mp
        from multiprocessing.connection import wait

        if not chunks:
            return []
        ctx = mp.get_context("fork") if "fork" in mp.get_all_start_methods() else mp.get_context()
        nworkers = min(self.workers, len(chunks))
        pipes = [ctx.Pipe() for _ in range(nworkers)]
        procs = [
            ctx.Process(
                target=_worker_main, args=(child, self.backend), daemon=True
            )
            for _parent, child in pipes
        ]
        for p in procs:
            p.start()
        for _parent, child in pipes:
            child.close()
        conns = [parent for parent, _child in pipes]
        by_conn = {conn: i for i, conn in enumerate(conns)}

        # Deal chunks round-robin in canonical order; each worker works
        # its own deque head-first, steals tail-first from the longest.
        deques: List[deque] = [deque() for _ in range(nworkers)]
        for i, chunk in enumerate(chunks):
            deques[i % nworkers].append((i, chunk))

        def dispatch(w: int) -> bool:
            if deques[w]:
                chunk_id, (kind, cells) = deques[w].popleft()
            else:
                victim = max(range(nworkers), key=lambda i: len(deques[i]))
                if not deques[victim]:
                    return False
                chunk_id, (kind, cells) = deques[victim].pop()
                self.steal_count += 1
            conns[w].send(("chunk", chunk_id, kind, cells))
            return True

        results: Dict[int, List[CellOutcome]] = {}
        errors: List[str] = []
        try:
            busy = 0
            for w in range(nworkers):
                busy += 1 if dispatch(w) else 0
            while busy:
                for conn in wait(conns):
                    w = by_conn[conn]
                    try:
                        msg = conn.recv()
                    except EOFError:
                        errors.append(f"worker {w} died")
                        busy -= 1
                        continue
                    kind, chunk_id, payload = msg
                    if kind == "error":
                        errors.append(f"chunk {chunk_id}: {payload}")
                    else:
                        results[chunk_id] = payload
                    if not dispatch(w):
                        busy -= 1
        finally:
            for conn in conns:
                try:
                    conn.send(("stop",))
                except (BrokenPipeError, OSError):
                    pass
            for p in procs:
                p.join(timeout=30)
                if p.is_alive():  # pragma: no cover - hung worker
                    p.terminate()
            for conn in conns:
                conn.close()
        if errors:
            raise ExploreError("; ".join(errors))
        return [results[i] for i in range(len(chunks))]

    def close(self) -> None:
        pass


def make_pool(workers: int, backend: Optional[str] = None):
    """The pool for a worker count: inline reference below 2."""
    if workers <= 1:
        return InlinePool(backend)
    return WorkStealingPool(workers, backend)
