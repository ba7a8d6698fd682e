"""Dependency footprint: the package has no runtime dependency.  The
serve and explore paths never import numpy, and no bound, the explorer's
included, imports networkx (only ``DFG.to_networkx``/``from_networkx``
and the tests' cycle enumerator do).

Every serve worker and explore process is a fresh interpreter, so one
stray import costs each of them its resident memory.  The check runs in
a subprocess because the test process itself may already hold numpy and
networkx (pytest plugins, hypothesis, the tests' reference enumerator).
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = """
import sys

from repro.explore import build_grid, explore
from repro.serve.pool import solve_one
from repro.serve.protocol import canonical_request, fingerprint, parse_request

answers = []
for bench in ("diffeq", "biquad"):
    canonical = canonical_request(parse_request({"graph": {"benchmark": bench}, "config": "2A1M"}))
    answers.append(solve_one(fingerprint(canonical), canonical))
assert len(answers) == 2 and not any("error" in a for a in answers), answers

cells = build_grid(["diffeq"], ("1A1M", "2A1M"), clocks=(50, 100))
assert len(cells) == 4
report = explore(cells, workers=1)
assert report.frontiers, report.counters

print("numpy" in sys.modules)
"""


def run_fresh(script: str) -> str:
    """Run ``script`` in a fresh interpreter on this checkout; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", script],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    return out.stdout.strip()


def test_serve_cohort_and_explore_never_import_numpy():
    assert run_fresh(SCRIPT) == "False"


BOUNDS_SCRIPT = """
import sys

from repro.baselines.modulo import min_initiation_interval
from repro.bounds import combined_lower_bound
from repro.core.phases import search_bound
from repro.qa.oracles import check_lower_bound
from repro.schedule.resources import ResourceModel
from repro.suite import all_benchmarks

model = ResourceModel.adders_mults(2, 1)
for graph in all_benchmarks():
    lb = combined_lower_bound(graph, model).combined
    assert check_lower_bound(graph, model, lb) == [], graph.name
    assert search_bound(graph, model) == lb, graph.name
    assert min_initiation_interval(graph, model) == lb, graph.name

print("networkx" in sys.modules)
"""


def test_every_bound_in_a_solve_leaves_networkx_unimported():
    """The lower bound runs inside every solve (the certified stop), the
    QA oracle and the modulo baseline; none of them may pull in networkx,
    which costs each serve worker its resident memory."""
    assert run_fresh(BOUNDS_SCRIPT) == "False"


LANES_SCRIPT = """
import sys


class Refuse:
    \"\"\"Fail any numpy or networkx import, here and in every forked lane.\"\"\"

    def find_spec(self, name, path=None, target=None):
        if name.partition(".")[0] in ("numpy", "networkx"):
            raise ImportError("explore imported " + name)


sys.meta_path.insert(0, Refuse())

from repro.explore import build_grid, explore

cells = build_grid(["diffeq", "biquad"], ("1A1M", "2A2M"), clocks=(40, 100), unfolds=(1, 2))
report = explore(cells, workers=2)
assert sum(report.counters[k] for k in ("solved", "pruned_bound", "pruned_dominated")) == len(cells)
assert set(report.frontiers) == {"diffeq", "biquad"}

print("numpy" in sys.modules, "networkx" in sys.modules)
"""


def test_forked_explore_lanes_import_neither_numpy_nor_networkx():
    """Two lanes on two forked workers compute every cell bound and
    solve; an import hook inherited at fork fails any cell that reaches
    for numpy or networkx, and the parent holds neither afterwards."""
    assert run_fresh(LANES_SCRIPT) == "False False"


def test_no_runtime_dependency():
    with open(os.path.join(os.path.dirname(SRC), "pyproject.toml"), encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    assert "dependencies = []" in lines
    test_extra = next(line for line in lines if line.startswith("test = "))
    assert '"networkx>=3.0"' in test_extra
