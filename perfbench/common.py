"""Shared machinery: the reference kernel, reference-speed scaling,
percentiles, failure accounting and the result line.

Raw wall time on a shared host drifts by tens of percent over tens of
seconds, and the drift moves a fixed pure-Python workload and a solve
together.  So every timed number is scaled to *reference speed*: the
benchmark runs a frozen kernel whenever nothing of the program is in
flight, and each sample is multiplied by ``REF_MS / k``, where ``k`` is
the median of the kernel samples nearest to it in time.  Raw
milliseconds are kept for the per-layer record only.

The kernel is a tiny frozen list scheduler on preallocated data rather
than an arithmetic loop.  Over four minutes of interleaved samples on a
2-vCPU host (five paper-graph solves in rotation, medians per 20 s
window), raw solve times varied by 9.6% (CV across windows), solve
times scaled by a 100k-iteration arithmetic loop by 2.8%, and scaled by
this kernel by 1.5%.  Its data is built once at import and a call
creates no objects that outlive it, so the allocator state a solve
leaves behind does not change its speed (an allocating variant ran up
to 40% faster right after solves).
"""

from __future__ import annotations

import bisect
import json
import math
import os
import random
import resource
import statistics
import time
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

#: The reference speed: what one kernel call is taken to cost.
REF_MS = 8.0
#: Kernel samples folded into one scale factor (nearest in time).
NEAREST = 3


class _Node:
    __slots__ = ("index", "succ", "npred", "left", "prio", "start")

    def __init__(self, index: int):
        self.index = index
        self.succ: List["_Node"] = []
        self.npred = 0
        self.left = 0
        self.prio = 0
        self.start = 0


def _kernel_graph(n: int = 300) -> Tuple[List[_Node], Dict[int, _Node]]:
    rng = random.Random(12345)
    nodes = [_Node(i) for i in range(n)]
    for i in range(n):
        for j in range(i + 1, min(n, i + 8)):
            if rng.random() < 0.3:
                nodes[i].succ.append(nodes[j])
                nodes[j].npred += 1
    return nodes, {v.index: v for v in nodes}


#: Built once, so a kernel call's speed does not depend on the
#: allocator state the program leaves behind.
_NODES, _BY_INDEX = _kernel_graph()
_READY: List[_Node] = [_NODES[0]] * len(_NODES)


def _kernel_once() -> int:
    """A list scheduler over a fixed DAG: attribute, list and dict
    traffic like the program's own hot loops, on preallocated data."""
    nodes, by_index, ready = _NODES, _BY_INDEX, _READY
    for v in reversed(nodes):
        best = 0
        for s in v.succ:
            if s.prio > best:
                best = s.prio
        v.prio = best + 1
        v.left = v.npred
    top = 0
    for v in nodes:
        if not v.npred:
            ready[top] = v
            top += 1
    cs = 0
    while top:
        for _ in range(3):
            if not top:
                break
            pick = 0
            for k in range(1, top):
                if ready[k].prio > ready[pick].prio:
                    pick = k
            v = by_index[ready[pick].index]
            top -= 1
            ready[pick] = ready[top]
            v.start = cs
            for s in v.succ:
                s.left -= 1
                if not s.left:
                    ready[top] = s
                    top += 1
        cs += 1
    return cs


def reference_kernel() -> float:
    """Milliseconds the frozen reference kernel takes now."""
    t0 = time.perf_counter()
    for _ in range(16):
        _kernel_once()
    return (time.perf_counter() - t0) * 1000.0


class Calibration:
    """Kernel samples on a timeline; scales raw samples to reference speed.

    Each vCPU of a shared host runs fast or slow phases of its own.  A
    single thread is best matched by the kernel on the CPU it runs on
    (``all_cpus=False``); work spread over processes on every CPU by the
    mean of the kernel pinned to each CPU in turn (``all_cpus=True``).
    """

    def __init__(self, all_cpus: bool = False) -> None:
        self.at: List[float] = []
        self.ms: List[float] = []
        self.cpus = sorted(os.sched_getaffinity(0)) if all_cpus else []

    def _kernel(self) -> float:
        if not self.cpus:
            return reference_kernel()
        times = []
        try:
            for cpu in self.cpus:
                os.sched_setaffinity(0, {cpu})
                times.append(reference_kernel())
        finally:
            os.sched_setaffinity(0, self.cpus)
        return sum(times) / len(times)

    def sample(self, repeats: int = 1) -> None:
        for _ in range(repeats):
            self.at.append(time.perf_counter())
            self.ms.append(self._kernel())

    def kernel_near(self, t: float) -> float:
        """Median of the NEAREST kernel samples around time ``t``."""
        if not self.ms:
            raise RuntimeError("no calibration samples")
        i = bisect.bisect_left(self.at, t)
        lo, hi = i, i
        while hi - lo < NEAREST and (lo > 0 or hi < len(self.at)):
            if lo == 0:
                hi += 1
            elif hi == len(self.at):
                lo -= 1
            elif t - self.at[lo - 1] <= self.at[hi] - t:
                lo -= 1
            else:
                hi += 1
        return statistics.median(self.ms[lo:hi])

    def scale(self, t: float, raw: float) -> float:
        """``raw`` (any unit) measured at time ``t``, at reference speed."""
        return raw * REF_MS / self.kernel_near(t)

    def summary(self) -> Tuple[float, float]:
        """``(median kernel ms, IQR as a share of the median)``."""
        med = statistics.median(self.ms)
        return med, iqr_share(self.ms)


class Timeline:
    """Raw samples stamped with their time, scaled after the run."""

    def __init__(self) -> None:
        self.samples: List[Tuple[float, float]] = []

    def add(self, t: float, raw_ms: float) -> None:
        self.samples.append((t, raw_ms))

    def __len__(self) -> int:
        return len(self.samples)

    def raw(self) -> List[float]:
        return [ms for _t, ms in self.samples]

    def scaled(self, cal: Calibration) -> List[float]:
        return [cal.scale(t, ms) for t, ms in self.samples]


def percentile(values: Sequence[float], q: int) -> float:
    """The ``q``-th percentile (inclusive interpolation)."""
    if len(values) < 2:
        return float(values[0])
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def iqr_share(values: Sequence[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def geomean(values: Iterable[float]) -> float:
    vals = list(values)
    return math.exp(sum(math.log(v) for v in vals) / len(vals))


def self_rss_mb() -> float:
    """Peak resident set of this process, in MB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_rss_mb() -> float:
    """Peak resident set of the largest child process waited for, in MB."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


class Outcome:
    """Operations attempted and failed, with the reason of each failure."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failures: List[str] = []

    def fail(self, why: str) -> None:
        self.failures.append(why)

    @property
    def failed(self) -> int:
        return len(self.failures)


def metric(value: float, unit: str) -> Dict[str, object]:
    return {"value": float(value), "unit": unit}


def emit(outcome: Outcome, metrics: Dict[str, Dict[str, object]],
         detail: Optional[Dict[str, object]] = None) -> None:
    """Print the failure reasons and detail, then the result line last."""
    import sys

    for why in outcome.failures[:20]:
        print(f"FAILED: {why}", file=sys.stderr)
    if detail:
        print(json.dumps(detail, sort_keys=True))
    print(json.dumps({
        "correct": outcome.failed == 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": metrics,
    }, sort_keys=True))
