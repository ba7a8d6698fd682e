"""Input cells: one graph + resource config + heuristic, as a library
call or as a serve request.

A cell names how to build its graph rather than holding one, so every
solve gets a freshly built graph object and caches keyed on object
identity start cold.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Any, Dict

from repro.dfg import io as dfg_io
from repro.dfg.unfold import unfold
from repro.serve.protocol import parse_model
from repro.suite.random_graphs import attach_affine_funcs, random_dfg
from repro.suite.registry import get_benchmark

PAPER = ("diffeq", "biquad", "allpole", "lattice", "elliptic")
CONFIGS = ("1A1M", "2A1M", "2A1Mp", "3A2M", "2A2Mp")
HEURISTICS = ("h1", "h2")
UNFOLDED = ("diffeq", "biquad", "allpole")


@dataclass(frozen=True)
class Cell:
    """``graph`` is a paper benchmark key, or ``"random"`` with ``nodes``
    and ``seed`` for a seeded ``random_dfg`` carrying affine funcs."""

    graph: str
    config: str
    heuristic: str
    unfold: int = 1
    nodes: int = 0
    seed: int = 0

    def label(self) -> str:
        g = f"random{self.nodes}s{self.seed}" if self.graph == "random" else self.graph
        j = f"@J{self.unfold}" if self.unfold > 1 else ""
        return f"{g}{j}/{self.config}/{self.heuristic}"

    def build(self):
        """A fresh graph object: the graph the solve actually sees."""
        if self.graph == "random":
            g = random_dfg(self.nodes, seed=self.seed)
            return attach_affine_funcs(g, seed=self.seed)
        g = get_benchmark(self.graph)
        return unfold(g, self.unfold) if self.unfold > 1 else g

    def model(self):
        return parse_model(self.config)

    def cellspec(self):
        """The explorer's cell for a paper graph (None for random graphs,
        which the explorer cannot name)."""
        if self.graph == "random":
            return None
        from repro.explore import CellSpec

        counts = {u.name: u.count for u in self.model().units}
        return CellSpec(
            self.graph, counts["adder"], counts["mult"],
            pipelined=self.config.endswith("p"), unfold=self.unfold,
            heuristic=self.heuristic,
        )

    def payload(self) -> Dict[str, Any]:
        """The same cell as a ``repro.serve/v1`` request."""
        options: Dict[str, Any] = {"heuristic": self.heuristic}
        if self.unfold > 1:
            options["unfold"] = self.unfold
        if self.graph == "random":
            spec: Any = dfg_io.to_json_dict(self.build())
        else:
            spec = {"benchmark": self.graph}
        return {"graph": spec, "config": self.config, "options": options}


def random_cell(rng: random.Random, lo: int, hi: int) -> Cell:
    return Cell(
        "random",
        rng.choice(CONFIGS),
        rng.choice(HEURISTICS),
        nodes=rng.randint(lo, hi),
        seed=rng.randrange(1 << 30),
    )
