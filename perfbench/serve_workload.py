"""``serve``: the real ``rotsched serve`` daemon in its own process
(two worker shards, an artifact store, a memory cache smaller than the
working set), driven over HTTP by two closed-loop clients in this
process, each waiting for its reply.

The request stream replays what the daemon's callers send, drawn from
the seed before the run starts.  It is a sequence of rounds; each round
holds one session of each caller, merged in a seeded order that keeps
each session's own order:

* ``rotsched loadgen``: ``demo_workload`` with its own shape — three
  benchmarks x two configs, each cell asked eight times, round robin —
  with the benchmarks, configs and heuristic drawn from the seed.  A
  cell's first sighting is a miss the pool solves (the two clients race
  on it, so some repeats are coalesced); the rest are memory hits, or
  disk hits once the cell has left the LRU;
* ``rotsched explore --via serve --mode exhaustive`` on one family of
  the explore workload's headline grid (one benchmark and unfolding, x
  four configs x three clocks): the unit-spec payloads of
  ``ServeCellSolver``, each cell once;
* an editing client on one of ``demo_workload``'s own six cells (in a
  seeded order, each as often): the cell, then ``EDITS`` single edits,
  each sent as ``base`` + the cumulative ``edits`` once the previous
  reply is in, which the worker holding the base's session repairs.
  Neither named caller sends edits; this session stands for the warm
  path the protocol serves.

The shares of the three request classes follow from these session
shapes (48, 12 and 9 requests a round); none is set on its own.
"""

from __future__ import annotations

import json
import os
import random
import shutil
import signal
import socket
import subprocess
import sys
import tempfile
import threading
import time
from typing import Any, Callable, Dict, List, Optional, Tuple

from repro.bounds.lower_bounds import combined_lower_bound
from repro.core.session import MutableSchedulingSession
from repro.explore import build_grid
from repro.explore.bounds import bound_graph
from repro.explore.runner import ServeCellSolver
from repro.explore.space import cell_model
from repro.obs import tracer as obs
from repro.serve.client import ServeClient, demo_workload
from repro.serve.protocol import request_fingerprint, schedule_bits

import checks
import layers
from common import Calibration, Outcome, Timeline, geomean, percentile
from edits import edit_stream
from explore_workload import CLOCKS as GRID_CLOCKS, CONFIGS as GRID_CONFIGS
from inputs import CONFIGS, HEURISTICS, PAPER, Cell

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKERS = 2
CLIENTS = 2
#: Below the distinct cells of one round (6 + 12 + up to 9), so a cell
#: asked again a round or more later comes back from the artifact store.
CACHE_SIZE = 24
#: ``demo_workload``'s default shape.
LOADGEN_BENCHMARKS = 3
LOADGEN_CONFIGS = 2
LOADGEN_REPEATS = 8
#: The headline grid's (benchmark, unfolding) families.
GRID_FAMILIES = (("elliptic", 1), ("biquad", 1), ("biquad", 2), ("diffeq", 1), ("diffeq", 2))
#: Edits an editing session sends after its cell.
EDITS = 8
#: The cells editing sessions open: ``demo_workload``'s defaults.
EDITED = tuple(sorted({
    Cell(p["graph"]["benchmark"], p["config"], p["options"]["heuristic"])
    for p in demo_workload()
}, key=Cell.label))
#: The work is fixed by ``--seconds``: the stream's first requests, 300
#: per second asked for, and never fewer than 1000 (a p99 with ten
#: samples beyond it).  The callers' distinct cells (about 80) are all
#: first seen within about 2000 requests, so the rest of a stream adds
#: hits and edits: at 20 s, about 170 repaired edits, and a p99 that
#: falls among the first sightings.
REQUESTS_PER_SECOND = 300
MIN_REQUESTS = 1000
SETUPS = 5
#: Seconds of load between two quiescent calibration pauses.
CAL_EVERY = 1.5
CAL_REPEATS = 2

#: Builds ``explore --via serve`` payloads (its client never connects).
_VIA_SERVE = ServeCellSolver()
#: Set-up's one ``/solve/batch``: six cohorts (one per config x
#: heuristic) of two small random graphs the stream never asks for.  A
#: cohort runs the batch path, numpy and all, on the shard of its first
#: member, and these reach both shards; otherwise the workers' resident
#: set would depend on whether a cohort happened to form during the run
#: (about 20 MB a worker).
WARMUP = [
    Cell("random", config, heuristic, nodes=10, seed=1000 * i + k).payload()
    for i, (config, heuristic) in enumerate(
        (c, h) for c in CONFIGS[:3] for h in HEURISTICS)
    for k in range(2)
]


class Target:
    """A cell as the daemon is asked for it: the payload, and how to
    rebuild its graph and model client-side to certify the answer."""

    __slots__ = ("payload", "build", "model", "heuristic", "cellspec")

    def __init__(self, payload: Dict[str, Any], build: Callable, model, heuristic: str,
                 cellspec):
        self.payload = payload
        self.build = build
        self.model = model
        self.heuristic = heuristic
        self.cellspec = cellspec

    @classmethod
    def of_cell(cls, cell: Cell) -> "Target":
        return cls(cell.payload(), cell.build, cell.model(), cell.heuristic, cell.cellspec())

    @classmethod
    def of_spec(cls, spec) -> "Target":
        return cls(_VIA_SERVE.payload(spec), lambda: bound_graph(spec).copy(),
                   cell_model(spec), spec.heuristic, spec)


class Request:
    """One request of the stream: its payload and the cell it asks for
    (plus the cumulative edits, for a warm request)."""

    __slots__ = ("index", "payload", "target", "edits", "prev", "done")

    def __init__(self, payload: Dict[str, Any], target: Target,
                 edits: Optional[List[Dict[str, Any]]] = None,
                 prev: Optional["Request"] = None):
        self.index = 0
        self.payload = payload
        self.target = target
        self.edits = edits
        #: the request whose reply must be in before this one is sent
        self.prev = prev
        self.done = threading.Event()

    @property
    def warm(self) -> bool:
        return self.edits is not None

    def twin(self):
        """``(graph, model)``: the client-side twin of what is solved."""
        if self.edits is None:
            return self.target.build(), self.target.model
        session = MutableSchedulingSession(self.target.build(), self.target.model,
                                           copy_graph=False)
        for op in self.edits:
            session.apply_edit(op)
        return session.graph, session.model


class Stream:
    """The seeded request sequence, drawn whole before the run."""

    def __init__(self, seed: int, count: int):
        self.rng = random.Random(seed)
        #: fingerprints the editing sessions asked for so far
        self.asked = set()
        #: cells left for editing sessions in this cycle
        self.to_edit: List[Cell] = []
        self.requests: List[Request] = []
        while len(self.requests) < count:
            self._round()
        del self.requests[count:]
        for i, req in enumerate(self.requests):
            req.index = i

    def _ask(self, payload: Dict[str, Any]) -> bool:
        """Record ``payload``; was it new?"""
        fp = request_fingerprint(payload)
        new = fp not in self.asked
        self.asked.add(fp)
        return new

    def _loadgen(self) -> List[Request]:
        rng = self.rng
        benches = rng.sample(PAPER, LOADGEN_BENCHMARKS)
        configs = rng.sample(CONFIGS, LOADGEN_CONFIGS)
        heuristic = rng.choice(HEURISTICS)
        cells = [Cell(b, c, heuristic) for b in benches for c in configs]
        payloads = demo_workload(benches, configs, repeats=LOADGEN_REPEATS, heuristic=heuristic)
        out = []
        for i, payload in enumerate(payloads):
            cell = cells[i % len(cells)]
            assert payload == cell.payload(), (payload, cell)
            out.append(Request(payload, Target.of_cell(cell)))
        return out

    def _explore(self) -> List[Request]:
        bench, unfold = self.rng.choice(GRID_FAMILIES)
        grid = build_grid([bench], GRID_CONFIGS, clocks=GRID_CLOCKS, unfolds=[unfold])
        return [Request(t.payload, t) for t in map(Target.of_spec, grid)]

    def _editing(self) -> List[Request]:
        if not self.to_edit:
            self.to_edit = list(EDITED)
            self.rng.shuffle(self.to_edit)
        cell = self.to_edit.pop()
        target = Target.of_cell(cell)
        out = [Request(target.payload, target)]
        self._ask(target.payload)
        base = request_fingerprint(target.payload)
        stream = edit_stream(cell.build(), cell.model(), random.Random(self.rng.random()))
        edits: List[Dict[str, Any]] = []
        for _ in range(EDITS):
            edits = edits + [next(stream)]
            payload = {**target.payload, "base": base, "edits": edits}
            if self._ask(payload):  # solved on the warm path: the session moves
                base = request_fingerprint(payload)
            out.append(Request(payload, target, edits, prev=out[-1]))
        return out

    def _round(self) -> None:
        sessions = [self._loadgen(), self._explore(), self._editing()]
        left = [len(s) for s in sessions]
        taken = [0] * len(sessions)
        while any(left):
            k = self.rng.choices(range(len(sessions)), weights=left)[0]
            self.requests.append(sessions[k][taken[k]])
            taken[k] += 1
            left[k] -= 1


# ----------------------------------------------------------------------
# the daemon
# ----------------------------------------------------------------------
def _free_port() -> int:
    with socket.socket() as s:
        s.bind(("127.0.0.1", 0))
        return s.getsockname()[1]


def _pgroup_alive(pgid: int) -> bool:
    try:
        os.killpg(pgid, 0)
    except ProcessLookupError:
        return False
    return True


def _tree_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of ``pid`` and its children, in MB."""
    total, todo = 0.0, [pid]
    while todo:
        p = todo.pop()
        try:
            with open(f"/proc/{p}/status", encoding="ascii") as fh:
                for line in fh:
                    if line.startswith("VmHWM:"):
                        total += int(line.split()[1]) / 1024.0
            for task in os.listdir(f"/proc/{p}/task"):
                with open(f"/proc/{p}/task/{task}/children", encoding="ascii") as fh:
                    todo += [int(c) for c in fh.read().split()]
        except OSError:
            continue
    return total


class Daemon:
    """One ``rotsched serve`` process group; always stopped by ``stop``."""

    def __init__(self, tag: str):
        self.port = _free_port()
        # run.py points the temp dir into the checkout
        self.artifacts = os.path.join(tempfile.gettempdir(), f"serve-artifacts-{os.getpid()}-{tag}")
        shutil.rmtree(self.artifacts, ignore_errors=True)
        self.log = self.artifacts + ".log"
        env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"))
        with open(self.log, "wb") as log:
            self.proc = subprocess.Popen(
                [sys.executable, "-m", "repro.cli", "serve", "--port", str(self.port),
                 "--workers", str(WORKERS), "--cache-size", str(CACHE_SIZE),
                 "--artifacts", self.artifacts],
                env=env, cwd=ROOT, stdout=log, stderr=subprocess.STDOUT,
                start_new_session=True,
            )

    def wait_ready(self, timeout: float = 60.0) -> None:
        deadline = time.monotonic() + timeout
        client = ServeClient("127.0.0.1", self.port, timeout=5.0)
        try:
            while True:
                try:
                    if client.health().get("ok"):
                        return
                except OSError:
                    pass
                if self.proc.poll() is not None or time.monotonic() > deadline:
                    with open(self.log, encoding="utf-8", errors="replace") as fh:
                        raise RuntimeError(f"serve daemon did not come up:\n{fh.read()[-2000:]}")
                time.sleep(0.05)
        finally:
            client.close()

    def stop(self) -> None:
        """SIGINT (the daemon shuts its pool down), then SIGKILL whatever
        of the process group is left, and wait until none of it runs."""
        pgid = self.proc.pid
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGINT)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                os.killpg(pgid, signal.SIGKILL)
                self.proc.wait()
        deadline = time.monotonic() + 10
        while _pgroup_alive(pgid) and time.monotonic() < deadline:
            try:
                os.killpg(pgid, signal.SIGKILL)
            except ProcessLookupError:
                break
            time.sleep(0.05)
        shutil.rmtree(self.artifacts, ignore_errors=True)
        os.remove(self.log)


# ----------------------------------------------------------------------
# the run
# ----------------------------------------------------------------------
class Run:
    def __init__(self, seed: int, requests: int):
        self.cal = Calibration(all_cpus=True)
        self.outcome = Outcome()
        self.lat = Timeline()
        #: warm-path answers a resident session repaired, and the count
        #: that fell back to a cold session build instead
        self.warm_t = Timeline()
        self.fallbacks = 0
        self.tier_t: Dict[str, Timeline] = {t: Timeline() for t in layers.SERVE_TIERS}
        self.server_ms = 0.0
        self.client_ms = 0.0
        #: fingerprint -> (first request, schedule bits JSON, result)
        self.answers: Dict[str, Tuple[Request, str, Dict[str, Any]]] = {}
        self.daemon: Optional[Daemon] = None
        self.stream = Stream(seed, requests)
        self.next = self.stop = 0
        #: per-client-thread tracers of the traced half (the module's
        #: tracer is one span stack, not safe to share between threads)
        self.tracers: List[obs.Tracer] = []

    def setup(self) -> float:
        times = []
        for i in range(SETUPS):
            if self.daemon is not None:
                self.daemon.stop()
            self.cal.sample(CAL_REPEATS)
            t0 = time.perf_counter()
            self.daemon = Daemon(str(i))
            self.daemon.wait_ready()
            client = ServeClient("127.0.0.1", self.daemon.port)
            try:
                out = client.solve_batch(WARMUP)
            finally:
                client.close()
            times.append((t0, time.perf_counter() - t0))
            self.cal.sample(CAL_REPEATS)
            bad = [e for e in out if "error" in e]
            if bad:
                raise RuntimeError(f"set-up batch failed: {bad[0]['error']}")
        return sorted(self.cal.scale(t, dt) for t, dt in times)[SETUPS // 2]

    def _record(self, req: Request, t0: float, ms: float, env: Dict[str, Any]) -> None:
        with self.lock:
            self.outcome.attempted += 1
            if "error" in env:
                self.outcome.fail(f"request {req.index}: {env['error']}")
                return
            result = env["result"]
            tier = "warm" if (env["cache"] == "solved" and "session" in result) else env["cache"]
            self.lat.add(t0, ms)
            self.tier_t[tier].add(t0, ms)
            if tier == "warm":
                if result["session"].get("repaired"):
                    self.warm_t.add(t0, ms)
                else:
                    self.fallbacks += 1
            self.server_ms += env["elapsed_seconds"] * 1000.0
            self.client_ms += ms
            fp = env["fingerprint"]
            bits = json.dumps(schedule_bits(result), sort_keys=True)
            first = self.answers.get(fp)
            if first is None:
                self.answers[fp] = (req, bits, result)
            elif first[1] != bits:
                self.outcome.fail(f"fingerprint {fp[:12]}: schedule bits differ between answers")
            elif req.index < first[0].index:  # keep the first in stream order
                self.answers[fp] = (req, bits, result)

    def _client(self, tr) -> None:
        client = ServeClient("127.0.0.1", self.daemon.port)
        try:
            while True:
                with self.lock:
                    if self.next >= self.stop:
                        return
                    req = self.stream.requests[self.next]
                    self.next += 1
                with self.gate:
                    # waiting for a previous reply counts as idle
                    while self.paused or (req.prev is not None and not req.prev.done.is_set()):
                        self.idle += 1
                        self.gate.notify_all()
                        self.gate.wait()
                        self.idle -= 1
                t0 = time.perf_counter()
                try:
                    with tr.span("bench.request"):
                        env = client.solve(req.payload)
                except Exception as exc:  # transport error: a failed request
                    with self.lock:
                        self.outcome.attempted += 1
                        self.outcome.fail(f"request {req.index}: transport {exc!r}")
                    continue
                finally:
                    with self.gate:
                        req.done.set()
                        self.gate.notify_all()
                self._record(req, t0, (time.perf_counter() - t0) * 1000.0, env)
        finally:
            client.close()
            with self.gate:
                self.done += 1
                self.gate.notify_all()

    def load(self, requests: int, traced: bool = False) -> None:
        """Send the stream's next ``requests`` requests; ``traced``: each
        client records a ``bench.request`` span around every request."""
        self.stop = min(self.next + requests, len(self.stream.requests))
        self.lock = threading.Lock()
        self.gate = threading.Condition()
        self.paused, self.idle, self.done = False, 0, 0
        tracers = [obs.Tracer() if traced else obs.NULL for _ in range(CLIENTS)]
        self.tracers += [tr for tr in tracers if traced]
        threads = [threading.Thread(target=self._client, args=(tr,), daemon=True) for tr in tracers]
        self.cal.sample(CAL_REPEATS)
        for t in threads:
            t.start()
        finished = False
        while not finished:
            time.sleep(CAL_EVERY)
            with self.gate:
                self.paused = True
                while self.idle + self.done < CLIENTS:
                    self.gate.wait()
                self.cal.sample(CAL_REPEATS)
                finished = self.done == CLIENTS
                self.paused = False
                self.gate.notify_all()
        for t in threads:
            t.join()

    def stats(self) -> Dict[str, Any]:
        client = ServeClient("127.0.0.1", self.daemon.port)
        try:
            return client.stats()
        finally:
            client.close()

    def check(self) -> Tuple[float, List[float]]:
        """Certify one answer per fingerprint; ``length / lower bound`` of
        each."""
        c0 = time.perf_counter()
        ratios = []
        for fp, (req, _bits, result) in sorted(self.answers.items(), key=lambda kv: kv[1][0].index):
            graph, model = req.twin()
            for why in checks.check_served(graph, model, result, simulate=not req.warm):
                self.outcome.fail(f"request {req.index} ({fp[:12]}): {why}")
            ratios.append(result["length"] / combined_lower_bound(graph, model).combined)
        return time.perf_counter() - c0, ratios


def run(seed: int, seconds: float, trace: bool):
    requests = max(MIN_REQUESTS, round(seconds * REQUESTS_PER_SECOND))
    r = Run(seed, requests)
    try:
        setup_s = r.setup()
        # counters of the set-up batch, left out of the run's own
        before = r.stats()["metrics"]["counters"]
        if trace:
            # An untraced half as the overhead baseline, then a traced half.
            r.load(requests // 2)
            t_traced = time.perf_counter()
            r.load(requests - requests // 2, traced=True)
        else:
            r.load(requests)
        stats = r.stats()
        rss = _tree_hwm_mb(r.daemon.proc.pid)
    finally:
        if r.daemon is not None:
            r.daemon.stop()
    if stats.get("worker_crashes"):
        r.outcome.fail(f"{stats['worker_crashes']} worker crash(es)")
    check_s, ratios = r.check()
    lat = r.lat.scaled(r.cal)
    cal_ms, cal_iqr = r.cal.summary()
    n = len(lat)
    if not trace:
        warm = r.warm_t.scaled(r.cal)
        metrics = {
            "setup_s": setup_s,
            "peak_rss_mb": rss,
            "length_ratio": geomean(ratios),
            "p50_ms": percentile(lat, 50),
            "tail_ms": percentile(lat, 99),
            "repair_p50_ms": percentile(warm, 50),
        }
        detail = {
            "requests": n, "repaired": len(warm), "fallbacks": r.fallbacks,
            "tiers": {t: len(tl) for t, tl in r.tier_t.items()},
            "raw_p50_ms": percentile(r.lat.raw(), 50),
            "raw_p99_ms": percentile(r.lat.raw(), 99),
            "raw_repair_p50_ms": percentile(r.warm_t.raw(), 50),
            "cal_ms": cal_ms, "cal_iqr": cal_iqr, "check_s": check_s,
        }
        return r.outcome, metrics, detail
    # Per-layer: the daemon's tiers and counters from outside, then the
    # attribution pass on the distinct cells the run asked for.  The
    # halves differ in their mix (first sightings crowd the first), so
    # the tracing overhead compares memory hits only.
    p50 = percentile(lat, 50)
    hits = r.tier_t["memory"]
    halves: Tuple[List[float], List[float]] = ([], [])
    for (t, _ms), ms in zip(hits.samples, hits.scaled(r.cal)):
        halves[t >= t_traced].append(ms)
    own: Dict[str, float] = {
        "bench.cal_ms": cal_ms,
        "bench.cal_iqr": cal_iqr,
        "bench.raw_p50_ms": percentile(r.lat.raw(), 50),
        "check_s": check_s,
        "tracing_overhead": percentile(halves[1], 50) / percentile(halves[0], 50) - 1.0,
        "serve.transport_share": 1.0 - r.server_ms / r.client_ms,
    }
    for tier, tl in r.tier_t.items():
        own[f"serve.hit_share.{tier}"] = len(tl) / n
        own[f"serve.tier_p50_x.{tier}"] = percentile(tl.scaled(r.cal), 50) / p50 if len(tl) else 0.0
    counters = {k: v - before.get(k, 0) for k, v in stats["metrics"]["counters"].items()}
    own["serve.cohorts"] = counters.get("cohorts", 0) * 1000.0 / n
    own["serve.cohort_members"] = counters.get("cohort_members", 0) * 1000.0 / n
    own["serve.worker_crashes"] = float(stats.get("worker_crashes", 0))
    warm_answers = len(r.tier_t["warm"])
    own["serve.warm_fallback_share"] = r.fallbacks / warm_answers if warm_answers else 0.0
    inputs = [
        layers.AttributionInput(req.target.build, req.target.model, req.target.heuristic,
                                req.payload, req.target.cellspec)
        for req, _bits, _res in sorted(r.answers.values(), key=lambda a: a[0].index)
        if not req.warm
    ]
    engine = layers.Engine()
    with obs.tracing() as tr:
        layers.attribute(inputs, engine, seed)
    events = layers.merged([tr.events] + [t.events for t in r.tracers])
    return r.outcome, layers.table(events, engine, own), {"requests": n}
