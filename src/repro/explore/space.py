"""The five-axis design space: cells, objectives, and their keys.

A **cell** is one point of (resource config x clock period x unfolding
factor x heuristic x rotation size).  The clock axis follows the paper's
technology numbers (Section 6: 40 ns adds, 80 ns multiplies): a control
step of ``clock_ns`` gives integral latencies ``ceil(40/clock)`` and
``ceil(80/clock)`` — distinct clocks can share one latency model (e.g.
40 ns and 50 ns both give 1-CS adds / 2-CS mults), which is exactly what
the explorer's solve-key memo exploits.

A cell's **objective point** is the triple the Pareto frontier orders:

* ``period_ns`` — achieved wrap period per *original* iteration in
  nanoseconds, ``length * clock_ns / unfold`` (a :class:`Fraction` so
  unfolded rates stay exact);
* ``cost`` — a deterministic weighted resource cost (adders weigh
  :data:`ADD_COST`, multipliers :data:`MULT_COST`, pipelining adds
  :data:`PIPE_COST` per multiplier);
* ``registers`` — steady-state register requirement of the chosen
  schedule per original iteration (:class:`Fraction` again).

All three are minimized.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import Any, Dict, Iterable, List, NamedTuple, Optional, Sequence, Tuple

from repro.dfg.graph import DFG
from repro.dfg.unfold import unfold
from repro.errors import ReproError
from repro.schedule.resources import ResourceModel

#: Paper technology: operation delays in nanoseconds (Section 6).
ADD_NS = 40
MULT_NS = 80

#: Deterministic resource-cost weights (relative area of one unit).
ADD_COST = 1
MULT_COST = 3
PIPE_COST = 1


class ExploreError(ReproError):
    """A malformed cell or design-space specification."""


class Point(NamedTuple):
    """One objective point; componentwise ``<=`` everywhere is domination."""

    period_ns: Fraction
    cost: int
    registers: Fraction

    def as_json(self) -> List[Any]:
        return [
            [self.period_ns.numerator, self.period_ns.denominator],
            self.cost,
            [self.registers.numerator, self.registers.denominator],
        ]

    @classmethod
    def from_json(cls, raw: Sequence[Any]) -> "Point":
        (pn, pd), cost, (rn, rd) = raw
        return cls(Fraction(pn, pd), int(cost), Fraction(rn, rd))

    def render(self) -> str:
        return f"({self.period_ns} ns, cost {self.cost}, {self.registers} regs)"


@dataclass(frozen=True)
class CellSpec:
    """One cell of the design space (pure data — travels over pipes)."""

    bench: str
    adders: int
    mults: int
    pipelined: bool = False
    clock_ns: int = 50
    unfold: int = 1
    heuristic: str = "h2"
    sigma: Optional[int] = None
    beta: Optional[int] = None

    def __post_init__(self) -> None:
        if self.adders < 1 or self.mults < 1:
            raise ExploreError(f"cell needs >=1 of each unit class: {self}")
        if self.clock_ns < 1 or self.unfold < 1:
            raise ExploreError(f"clock_ns and unfold must be >= 1: {self}")
        if self.heuristic not in ("h1", "h2"):
            raise ExploreError(f"unknown heuristic {self.heuristic!r}")

    # -- clock axis -> integral latencies --------------------------------
    @property
    def add_latency(self) -> int:
        return -(-ADD_NS // self.clock_ns)

    @property
    def mult_latency(self) -> int:
        return -(-MULT_NS // self.clock_ns)

    def config_tag(self) -> str:
        return f"{self.adders}A{self.mults}M{'p' if self.pipelined else ''}"

    def label(self) -> str:
        extra = ""
        if self.unfold > 1:
            extra += f" J{self.unfold}"
        if self.sigma is not None:
            extra += f" s{self.sigma}"
        return f"{self.bench}@{self.config_tag()}/{self.clock_ns}ns/{self.heuristic}{extra}"

    def sort_key(self) -> Tuple:
        """Canonical total order over cells (ties everywhere break on it)."""
        return (
            self.bench,
            self.unfold,
            self.clock_ns,
            self.adders,
            self.mults,
            self.pipelined,
            self.heuristic,
            -1 if self.sigma is None else self.sigma,
            -1 if self.beta is None else self.beta,
        )

    def as_json(self) -> Dict[str, Any]:
        return {
            "bench": self.bench,
            "adders": self.adders,
            "mults": self.mults,
            "pipelined": self.pipelined,
            "clock_ns": self.clock_ns,
            "unfold": self.unfold,
            "heuristic": self.heuristic,
            "sigma": self.sigma,
            "beta": self.beta,
        }

    @classmethod
    def from_json(cls, raw: Dict[str, Any]) -> "CellSpec":
        return cls(**{k: raw[k] for k in (
            "bench", "adders", "mults", "pipelined", "clock_ns",
            "unfold", "heuristic", "sigma", "beta",
        )})


# ----------------------------------------------------------------------
# cell -> model / graph / keys / objective
# ----------------------------------------------------------------------
def cell_model(spec: CellSpec) -> ResourceModel:
    """The resource model a cell solves under (clock folded into latencies)."""
    return ResourceModel.adders_mults(
        spec.adders,
        spec.mults,
        pipelined_mults=spec.pipelined,
        add_latency=spec.add_latency,
        mult_latency=spec.mult_latency,
    )


def cell_graph(spec: CellSpec, base: DFG) -> DFG:
    """The graph a cell solves (the benchmark, unfolded when J > 1)."""
    if spec.unfold <= 1:
        return base
    return unfold(base, spec.unfold)


def cell_cost(spec: CellSpec) -> int:
    """Deterministic weighted resource cost of a cell's configuration."""
    per_mult = MULT_COST + (PIPE_COST if spec.pipelined else 0)
    return spec.adders * ADD_COST + spec.mults * per_mult


def solve_key(spec: CellSpec) -> Tuple:
    """Everything the *solve* depends on — cells sharing it share one
    solve (clocks with equal latency pairs collapse here)."""
    return (
        spec.bench,
        spec.unfold,
        spec.add_latency,
        spec.mult_latency,
        spec.adders,
        spec.mults,
        spec.pipelined,
        spec.heuristic,
        spec.sigma,
        spec.beta,
    )


def family_key(spec: CellSpec) -> Tuple:
    """The warm-chain key: :func:`solve_key` minus the unit counts.  Cells
    of one family differ only in resource counts, so one
    ``MutableSchedulingSession`` hops between them via
    ``set_resource_counts``."""
    return (
        spec.bench,
        spec.unfold,
        spec.add_latency,
        spec.mult_latency,
        spec.pipelined,
        spec.heuristic,
        spec.sigma,
        spec.beta,
    )


def objective_point(spec: CellSpec, length: int, registers: int) -> Point:
    """The Pareto point of a solved cell (per original iteration)."""
    return Point(
        period_ns=Fraction(length * spec.clock_ns, spec.unfold),
        cost=cell_cost(spec),
        registers=Fraction(registers, spec.unfold),
    )


def build_grid(
    benchmarks: Sequence[str],
    configs: Sequence[str | Tuple[int, int, bool]],
    clocks: Sequence[int] = (50,),
    unfolds: Sequence[int] = (1,),
    heuristics: Sequence[str] = ("h2",),
    sigmas: Sequence[Optional[int]] = (None,),
) -> List[CellSpec]:
    """The exhaustive product grid, in canonical nested order.

    ``configs`` entries are paper tags (``"3A2M"``, ``"2A1Mp"``) or
    ``(adders, mults, pipelined)`` triples.
    """
    cells: List[CellSpec] = []
    parsed = [_parse_config(c) for c in configs]
    for bench in benchmarks:
        for unfold in unfolds:
            for clock in clocks:
                for adders, mults, pipelined in parsed:
                    for heuristic in heuristics:
                        for sigma in sigmas:
                            cells.append(CellSpec(
                                bench=bench,
                                adders=adders,
                                mults=mults,
                                pipelined=pipelined,
                                clock_ns=clock,
                                unfold=unfold,
                                heuristic=heuristic,
                                sigma=sigma,
                            ))
    return cells


def _parse_config(spec: str | Tuple[int, int, bool]) -> Tuple[int, int, bool]:
    if isinstance(spec, tuple):
        adders, mults, pipelined = spec
        return int(adders), int(mults), bool(pipelined)
    import re

    m = re.fullmatch(r"(\d+)A(\d+)M(p?)", str(spec).replace(" ", ""))
    if not m:
        raise ExploreError(f"config tag {spec!r} is not of the form '<n>A<m>M[p]'")
    return int(m.group(1)), int(m.group(2)), bool(m.group(3))


def neighbors(spec: CellSpec, grid: Iterable[CellSpec]) -> List[CellSpec]:
    """Grid cells one resource step away from ``spec`` in the same family
    (the seeding graph's edges; see ``docs/exploration.md``)."""
    fam = family_key(spec)
    out = []
    for other in grid:
        if other == spec or family_key(other) != fam:
            continue
        if abs(other.adders - spec.adders) + abs(other.mults - spec.mults) == 1:
            out.append(other)
    return out


def with_counts(spec: CellSpec, adders: int, mults: int) -> CellSpec:
    return replace(spec, adders=adders, mults=mults)
