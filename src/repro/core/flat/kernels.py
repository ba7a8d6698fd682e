"""Integer kernels over :class:`~repro.core.flat.graph.FlatGraph` snapshots.

Each function here is a *bit-exact mirror* of a dict-based hot path —
same traversal orders, same guards, same tie-breaks, same error messages —
rewritten to index contiguous arrays instead of hashing node ids:

========================  ====================================================
:func:`retimed_delays`    ``dr(e) = d(e) + r(src) - r(dst)`` per edge
:func:`zero_delay_lists`  :func:`repro.dfg.analysis.zero_delay_adjacency`
:func:`flat_topological_order`  Kahn over the zero-delay DAG
:func:`flat_reach` / :func:`flat_heights` / :func:`flat_mobility`
                          priority intermediates (descendants/height/mobility)
:func:`flat_list_schedule`  :func:`repro.schedule.list_scheduler._list_schedule`
:func:`flat_wrap_period`  the period search of :func:`repro.core.wrapping.wrap`
:class:`FlatGrid`         :class:`repro.schedule.list_scheduler.OccupancyGrid`
                          with per-slot instance *bitmasks*
========================  ====================================================

The golden parity suite and the QA engine-parity oracle pin these against
their dict counterparts across backends; any drift is a bug here, not a
feature.
"""

from __future__ import annotations

import heapq
from typing import Dict, List, Optional, Sequence, Set, Tuple

from repro.errors import SchedulingError


# ----------------------------------------------------------------------
# kernel 1: retimed edge delays
# ----------------------------------------------------------------------
def retimed_delays(fg, rv: Sequence[int]) -> List[int]:
    """``dr`` for every edge position under the dense retiming vector ``rv``."""
    esrc, edst, edelay = fg.esrc, fg.edst, fg.edelay
    return [edelay[k] + rv[esrc[k]] - rv[edst[k]] for k in range(fg.m)]


# ----------------------------------------------------------------------
# kernel 2: zero-delay adjacency + topological order
# ----------------------------------------------------------------------
def zero_delay_lists(fg, dr: Sequence[int]) -> Tuple[List[List[int]], List[List[int]]]:
    """``(zsucc, zpred)`` index lists; distinct neighbours in edge order.

    Mirrors :func:`repro.dfg.analysis.zero_delay_adjacency`: one pass over
    edges in insertion order, first occurrence wins.  Zero-delay degrees
    are tiny in practice, so a linear ``not in`` beats per-node seen-sets.
    """
    n = fg.n
    zsucc: List[List[int]] = [[] for _ in range(n)]
    zpred: List[List[int]] = [[] for _ in range(n)]
    esrc, edst = fg.esrc, fg.edst
    for k in range(fg.m):
        if dr[k] == 0:
            u, w = esrc[k], edst[k]
            lst = zsucc[u]
            if w not in lst:
                lst.append(w)
            lst = zpred[w]
            if u not in lst:
                lst.append(u)
    return zsucc, zpred


def flat_topological_order(zsucc: List[List[int]]) -> Optional[List[int]]:
    """Kahn's order of the zero-delay DAG, or None on a cycle.

    The queue is seeded in node-index order, matching the dict Kahn's
    ``graph.nodes`` seeding, so the produced order is identical.
    """
    n = len(zsucc)
    indeg = [0] * n
    for ws in zsucc:
        for w in ws:
            indeg[w] += 1
    # The order doubles as its own FIFO queue (read cursor `i`): identical
    # to a deque-based Kahn, without the deque.
    order = [v for v in range(n) if not indeg[v]]
    append = order.append
    i = 0
    while i < len(order):
        for w in zsucc[order[i]]:
            d = indeg[w] - 1
            indeg[w] = d
            if not d:
                append(w)
        i += 1
    return order if len(order) == n else None


# ----------------------------------------------------------------------
# kernel 3: priority intermediates (longest-path / descendant repair)
# ----------------------------------------------------------------------
def flat_reach(zsucc: List[List[int]], order: Sequence[int]) -> List[int]:
    """Zero-delay descendant sets as node bitmasks (bit i = node index i)."""
    reach = [0] * len(zsucc)
    for v in reversed(order):
        acc = 0
        for w in zsucc[v]:
            acc |= (1 << w) | reach[w]
        reach[v] = acc
    return reach


def flat_heights(times: Sequence[int], zsucc: List[List[int]], order: Sequence[int]) -> List[int]:
    """Longest zero-delay path from each node, inclusive of its own time."""
    h = [0] * len(zsucc)
    for v in reversed(order):
        best = 0
        for w in zsucc[v]:
            hw = h[w]
            if hw > best:
                best = hw
        h[v] = best + times[v]
    return h


def flat_mobility(times: Sequence[int], zsucc: List[List[int]], order: Sequence[int]) -> List[int]:
    """``-(alap - asap)`` per node (the mobility priority's only component)."""
    n = len(zsucc)
    asap = [0] * n
    for v in order:
        f = asap[v] + times[v]
        for w in zsucc[v]:
            if f > asap[w]:
                asap[w] = f
    deadline = 0
    for v in range(n):
        f = asap[v] + times[v]
        if f > deadline:
            deadline = f
    alap = [deadline - times[v] for v in range(n)]
    for v in reversed(order):
        tv = times[v]
        for w in zsucc[v]:
            c = alap[w] - tv
            if c < alap[v]:
                alap[v] = c
    return [asap[v] - alap[v] for v in range(n)]


def flat_priority_columns(
    priority: str,
    times: Sequence[int],
    zsucc: List[List[int]],
    order: Sequence[int],
) -> Tuple[Optional[List[int]], Optional[List[int]], List[Tuple[int, ...]]]:
    """``(reach, heights, skey)`` for a named priority, minimal passes.

    Fuses the intermediate columns with the sort-key build (one reversed
    topological sweep for ``descendants`` instead of sweep + listcomp) —
    the engine calls this on every struct-view build: initial schedules,
    session repairs and every mobility rotation.  Values match :func:`flat_reach` /
    :func:`flat_heights` / :func:`flat_mobility` + :func:`flat_sort_keys`
    exactly.
    """
    n = len(zsucc)
    if priority == "descendants":
        reach = [0] * n
        skey: List[Tuple[int, ...]] = [()] * n
        for v in reversed(order):
            acc = 0
            for w in zsucc[v]:
                acc |= (1 << w) | reach[w]
            reach[v] = acc
            skey[v] = (-acc.bit_count(), v)
        return reach, None, skey
    if priority == "height":
        heights = flat_heights(times, zsucc, order)
        return None, heights, [(-heights[v], v) for v in range(n)]
    if priority == "combined":
        reach = flat_reach(zsucc, order)
        heights = flat_heights(times, zsucc, order)
        return reach, heights, [
            (-heights[v], -reach[v].bit_count(), v) for v in range(n)
        ]
    if priority == "mobility":
        mob = flat_mobility(times, zsucc, order)
        return None, None, [(-mob[v], v) for v in range(n)]
    raise ValueError(f"no flat sort keys for priority {priority!r}")


def flat_sort_keys(
    priority: str,
    n: int,
    reach: Optional[Sequence[int]] = None,
    heights: Optional[Sequence[int]] = None,
    mobility: Optional[Sequence[int]] = None,
) -> List[Tuple[int, ...]]:
    """Per-node list-scheduling sort keys, flattened.

    The dict scheduler sorts by ``((-p0, -p1, ...), node_index)``; for a
    fixed priority every tuple has the same arity, so the flattened key
    ``(-p0, -p1, ..., index)`` is order-equivalent and cheaper to compare.
    """
    if priority == "descendants":
        return [(-reach[v].bit_count(), v) for v in range(n)]
    if priority == "height":
        return [(-heights[v], v) for v in range(n)]
    if priority == "combined":
        return [(-heights[v], -reach[v].bit_count(), v) for v in range(n)]
    if priority == "mobility":
        return [(-mobility[v], v) for v in range(n)]
    raise ValueError(f"no flat sort keys for priority {priority!r}")


# ----------------------------------------------------------------------
# the occupancy grid, as per-slot instance bitmasks
# ----------------------------------------------------------------------
class FlatGrid:
    """Occupancy grid over unit ids: ``{stored cs: instance bitmask}``.

    :class:`~repro.schedule.list_scheduler.OccupancyGrid`'s allocation
    (lowest free instance, double-booking errors) plus an O(1)
    :meth:`shift` via a logical offset, but a slot is one machine integer
    and the lowest free instance is a two-op bit trick.
    """

    __slots__ = ("_fm", "_busy", "_offset")

    def __init__(self, fm):
        self._fm = fm
        self._busy: List[Dict[int, int]] = [dict() for _ in fm.unit_count]
        self._offset = 0

    def shift(self, delta: int) -> None:
        """Move every occupied slot by ``delta`` control steps, in O(1)."""
        self._offset += delta

    def find(self, v: int, cs: int) -> int:
        """Lowest unit instance free for node ``v`` at ``cs``, or -1."""
        fm = self._fm
        uid = fm.node_unit[v]
        busy = self._busy[uid]
        base = cs - self._offset
        mask = 0
        for off in fm.node_offsets[v]:
            m = busy.get(base + off)
            if m:
                mask |= m
        # lowest zero bit of mask: ~mask & (mask+1) isolates it
        inst = (~mask & (mask + 1)).bit_length() - 1
        return inst if inst < fm.unit_count[uid] else -1

    def occupy(self, v: int, cs: int, inst: int) -> None:
        fm = self._fm
        uid = fm.node_unit[v]
        busy = self._busy[uid]
        base = cs - self._offset
        bit = 1 << inst
        for off in fm.node_offsets[v]:
            key = base + off
            m = busy.get(key, 0)
            if m & bit:
                raise SchedulingError(
                    f"instance {inst} of {fm.unit_names[uid]} double-booked at CS {cs + off}"
                )
            busy[key] = m | bit

    def release_many(self, nodes: Sequence[int], start: Sequence[int], units: Sequence[int]) -> None:
        """Free the slots each node of ``nodes`` held at its recorded
        ``start``/``units`` slot (a no-op for never-occupied slots) — one
        call per rotation, which frees a whole rotated prefix at a time."""
        fm = self._fm
        busy_all = self._busy
        offset = self._offset
        node_unit = fm.node_unit
        node_offsets = fm.node_offsets
        for v in nodes:
            busy = busy_all[node_unit[v]]
            base = start[v] - offset
            bit = 1 << units[v]
            for off in node_offsets[v]:
                key = base + off
                m = busy.get(key)
                if m is not None and m & bit:
                    busy[key] = m & ~bit


def seed_grid(fg, fm, start: Sequence[Optional[int]], units: Sequence[Optional[int]]) -> FlatGrid:
    """A grid holding every placed node (``start[v] is not None``).

    Mirrors the engine's grid reseed: recorded instances are honoured,
    unrecorded ones packed greedily into the lowest free instance.
    """
    grid = FlatGrid(fm)
    for v in range(fg.n):
        cs = start[v]
        if cs is None:
            continue
        inst = units[v]
        if inst is None:
            inst = grid.find(v, cs)
            if inst < 0:
                raise SchedulingError(
                    f"fixed placement infeasible: no {fg.op_names[fg.opclass[v]]} "
                    f"unit at CS {cs} for {fg.nodes[v]!r}"
                )
        grid.occupy(v, cs, inst)
    return grid


# ----------------------------------------------------------------------
# kernel 4a: the list-scheduling inner loop
# ----------------------------------------------------------------------
def flat_list_schedule(
    fg,
    fm,
    zsucc: List[List[int]],
    zpred: List[List[int]],
    skey: List[Tuple[int, ...]],
    start: List[Optional[int]],
    units: List[Optional[int]],
    todo: Sequence[int],
    floor_cs: int,
    grid: FlatGrid,
) -> None:
    """Place every node of ``todo`` in-place into ``start`` / ``units``.

    Exact mirror of ``_list_schedule``: candidates are the ready nodes
    whose (once-computed) earliest start has arrived, taken in sort-key
    order; newly readied nodes wait for the next control step; the same
    divergence guard protects against infeasible fixed placements.
    """
    nodes = fg.nodes
    lat = fm.node_latency
    todo_set = set(todo)
    pending = [0] * fg.n
    for v in todo:
        cnt = 0
        for u in zpred[v]:
            if u in todo_set:
                cnt += 1
            elif start[u] is None:
                raise SchedulingError(
                    f"node {nodes[v]!r} depends on unplaced node {nodes[u]!r} "
                    "outside the reschedule set"
                )
        pending[v] = cnt

    ready: Set[int] = {v for v in todo if pending[v] == 0}
    est = [0] * fg.n
    for v in ready:
        e = floor_cs
        for u in zpred[v]:
            f = start[u] + lat[u]
            if f > e:
                e = f
        est[v] = e

    left = len(todo_set)
    cs = floor_cs
    guard = 0
    max_guard = (
        (len(todo) + fg.n + 2) * (fm.max_unit_latency + 1)
        + sum(lat[v] for v in todo)
        + floor_cs
        + 64
    )
    # find() + occupy() inlined: this is the hottest loop in the scheduler.
    # ``heap`` holds ``(est, v)`` for nodes not yet arrived, ``waiting[uid]``
    # the arrived nodes of unit ``uid`` in skey order (total: every skey
    # ends in the node index).  A placement touches only its own unit and
    # readies successors for later steps, so each unit's list is placed on
    # its own; all its nodes share the unit's busy offsets, so one mask per
    # unit and step gives the lowest free instance, and a full unit skips
    # its nodes unprobed.  A step that places nothing jumps to the first
    # step where a waiting unit has a free instance, or to the next
    # arrival if sooner; ``guard`` counts the steps jumped, so even the
    # divergence error is unchanged.
    busy_all = grid._busy
    offset = grid._offset
    node_unit = fm.node_unit
    node_offsets = fm.node_offsets
    unit_count = fm.unit_count
    skey_get = skey.__getitem__
    heap = [(est[v], v) for v in ready]
    heapq.heapify(heap)
    heappop, heappush = heapq.heappop, heapq.heappush
    waiting: List[List[int]] = [[] for _ in unit_count]
    nwait = 0
    while left:
        if heap:
            if not nwait and heap[0][0] > cs:
                # Nothing can place before the earliest ready EST.
                cs = heap[0][0]
            if heap[0][0] <= cs:
                grown = 0
                while heap and heap[0][0] <= cs:
                    v = heappop(heap)[1]
                    uid = node_unit[v]
                    waiting[uid].append(v)
                    grown |= 1 << uid
                    nwait += 1
                for uid, lst in enumerate(waiting):
                    if grown >> uid & 1:
                        lst.sort(key=skey_get)
        base = cs - offset
        placed = 0
        for uid, lst in enumerate(waiting):
            if not lst:
                continue
            busy = busy_all[uid]
            get = busy.get
            offs = node_offsets[lst[0]]
            cap = unit_count[uid]
            mask = 0
            for off in offs:
                m = get(base + off)
                if m:
                    mask |= m
            k = 0
            for v in lst:
                inst = (~mask & (mask + 1)).bit_length() - 1
                if inst >= cap:
                    break
                bit = 1 << inst
                mask |= bit
                for off in offs:
                    key = base + off
                    busy[key] = (get(key) or 0) | bit
                start[v] = cs
                units[v] = inst
                k += 1
                for w in zsucc[v]:
                    p = pending[w]
                    if p:  # an unplaced todo node
                        pending[w] = p = p - 1
                        if p == 0:
                            e = floor_cs
                            for u in zpred[w]:
                                f = start[u] + lat[u]
                                if f > e:
                                    e = f
                            est[w] = e
                            heappush(heap, (e, w))
            del lst[:k]
            placed += k
        if placed:
            nwait -= placed
            left -= placed
            cs += 1
            guard += 1
            continue
        if nwait:
            nxt = heap[0][0] - offset if heap else None
            for uid, lst in enumerate(waiting):
                if not lst:
                    continue
                get = busy_all[uid].get
                offs = node_offsets[lst[0]]
                cap = unit_count[uid]
                key = base + 1
                while nxt is None or key < nxt:
                    mask = 0
                    for off in offs:
                        m = get(key + off)
                        if m:
                            mask |= m
                    if (~mask & (mask + 1)).bit_length() - 1 < cap:
                        break
                    key += 1
                nxt = key
            nxt += offset
        else:
            # Nothing waits or will arrive: only the guard ends this.
            nxt = cs + 1
            guard = max_guard
        guard += nxt - cs
        cs = nxt
        if guard > max_guard:
            raise SchedulingError(
                f"list scheduler failed to converge (placed "
                f"{len(todo) - left}/{len(todo)} nodes)"
            )  # pragma: no cover - defensive


# ----------------------------------------------------------------------
# kernel 5: the wrap() period search
# ----------------------------------------------------------------------
def flat_wrap_period(fg, fm, starts: Sequence[int], dr: Sequence[int]) -> int:
    """Minimum modulo-legal period of a *normalized* start vector.

    Exact mirror of :func:`repro.core.wrapping.wrap`'s search: periods
    from ``max(starts span, largest non-pipelined occupancy, 1)`` up to
    the plain span; first period with no resource slot over-subscribed
    modulo the period and every precedence ``finish(src) <= start(dst) +
    period * dr(e)`` satisfied wins.
    """
    n = fg.n
    lat = fm.node_latency
    offsets = fm.node_offsets
    nunit = fm.node_unit
    caps = fm.unit_count
    span = 0
    starts_span = 0
    for v in range(n):
        s = starts[v]
        f = s + lat[v]
        if f > span:
            span = f
        if s + 1 > starts_span:
            starts_span = s + 1
    lo = starts_span
    if fm.min_occ > lo:
        lo = fm.min_occ
    if lo < 1:
        lo = 1
    # Each precedence ``finish(src) <= start(dst) + period * dr(e)`` is
    # monotone in the period, so the whole set collapses to a feasible
    # interval computed once instead of a per-edge scan per candidate:
    # dr > 0 edges bound the period below, dr < 0 edges bound it above,
    # and a violated dr == 0 edge rules out every period.
    hi = span
    esrc, edst = fg.esrc, fg.edst
    for k in range(fg.m):
        u = esrc[k]
        gap = starts[u] + lat[u] - starts[edst[k]]
        d = dr[k]
        if d > 0:
            need = -(-gap // d)
            if need > lo:
                lo = need
        elif d < 0:
            cap_p = gap // d
            if cap_p < hi:
                hi = cap_p
        elif gap > 0:
            hi = lo - 1
            break
    nunits = len(caps)
    # Slot counters never exceed the instance cap before the candidate is
    # rejected, so a bytearray serves unless some unit has 255+ instances.
    zeros = bytearray if max(caps) < 255 else (lambda k: [0] * k)
    for period in range(lo, hi + 1):
        counts = zeros(nunits * period)
        ok = True
        for v in range(n):
            uid = nunit[v]
            cap = caps[uid]
            base = uid * period
            s = starts[v]
            for off in offsets[v]:
                key = base + (s + off) % period
                c = counts[key] + 1
                if c > cap:
                    ok = False
                    break
                counts[key] = c
            if not ok:
                break
        if ok:
            return period
    raise SchedulingError(
        f"schedule of span {span} is not modulo-legal at its own span — "
        "the input was not a legal DAG schedule of G_R"
    )  # pragma: no cover - impossible for legal inputs
