"""Dependency footprint: the package has no runtime dependency.  The
serve and explore paths never import numpy, and no bound, the explorer's
included, imports networkx (only ``DFG.to_networkx``/``from_networkx``
and the tests' cycle enumerator do).  The ``repro`` modules a solve and
the serve daemon load are pinned, and forked explore lanes and serve
workers import nothing their parent had not.

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


# ----------------------------------------------------------------------
# Import closures: packages load their exports on first use, so a solve
# imports the paper core and nothing else.
# ----------------------------------------------------------------------
LOADED = "\nprint(' '.join(sorted(m for m in sys.modules if m.partition('.')[0] == 'repro')))\n"

SOLVE_SCRIPT = """
import sys

from repro import ResourceModel, diffeq, rotation_schedule

result = rotation_schedule(diffeq(), ResourceModel.adders_mults(2, 2), backend="flat")
assert result.length == 6 and result.engine_stats is not None
""" + LOADED

#: What one flat-backend solve loads: the paper core, its graph and
#: schedule substrate, the bound behind the certified stop, the tracer
#: and the engine counters.
SOLVE_CLOSURE = {
    "repro", "repro._exports", "repro.errors",
    "repro.bounds", "repro.bounds.lower_bounds",
    "repro.core", "repro.core.depth", "repro.core.engine", "repro.core.phases",
    "repro.core.rotation", "repro.core.scheduler", "repro.core.wrapping",
    "repro.core.flat", "repro.core.flat.engine", "repro.core.flat.graph",
    "repro.core.flat.kernels",
    "repro.dfg", "repro.dfg.analysis", "repro.dfg.graph", "repro.dfg.iteration_bound",
    "repro.dfg.retiming",
    "repro.obs", "repro.obs.metrics", "repro.obs.tracer",
    "repro.schedule", "repro.schedule.list_scheduler", "repro.schedule.priorities",
    "repro.schedule.resources", "repro.schedule.schedule", "repro.schedule.verify",
    "repro.suite", "repro.suite.diffeq",
}

#: No solve needs these: the gate, the extensions and every other front end.
NOT_IN_A_SOLVE = (
    "repro.obs.perfcheck", "repro.obs.export", "repro.obs.profile",
    "repro.baselines", "repro.binding", "repro.sim", "repro.qa", "repro.serve",
    "repro.explore", "repro.report", "repro.core.nested", "repro.core.session",
    "repro.core.chained_rotation", "repro.schedule.chaining",
    "repro.schedule.conditional", "repro.schedule.unrolled",
)


def test_a_flat_solve_imports_only_the_paper_core():
    loaded = set(run_fresh(SOLVE_SCRIPT).split())
    assert not {m for m in loaded if m.startswith(NOT_IN_A_SOLVE)}
    assert loaded == SOLVE_CLOSURE


#: What the serve daemon holds before its shard workers fork: the solve
#: closure plus sessions, chained scheduling, unfolding and the registry.
SERVER_CLOSURE = SOLVE_CLOSURE | {
    "repro.core.chained_rotation", "repro.core.session",
    "repro.dfg.io", "repro.dfg.unfold", "repro.schedule.chaining",
    "repro.serve", "repro.serve.cache", "repro.serve.pool", "repro.serve.protocol",
    "repro.serve.server",
    "repro.suite.allpole", "repro.suite.biquad", "repro.suite.elliptic",
    "repro.suite.lattice", "repro.suite.registry",
}


def test_the_serve_server_import_closure():
    assert set(run_fresh("import sys\nimport repro.serve.server\n" + LOADED).split()) == (
        SERVER_CLOSURE
    )


#: Fails, in a forked child only, any ``repro`` import its parent had not
#: made: whatever a child imports first it pays again in every fork.
REFUSE_IN_CHILD = """
import os
import sys

PARENT = os.getpid()


class RefuseInChild:
    def find_spec(self, name, path=None, target=None):
        if os.getpid() != PARENT and name.partition(".")[0] == "repro":
            raise ImportError("forked child imported " + name)


sys.meta_path.insert(0, RefuseInChild())
"""


def test_forked_explore_lanes_import_nothing_their_parent_lacks():
    script = REFUSE_IN_CHILD + """
from repro.explore import build_grid, explore

cells = build_grid(["diffeq", "biquad"], ("1A1M", "2A2M"), clocks=(40, 100), unfolds=(1, 2))
report = explore(cells, workers=2)
assert set(report.frontiers) == {"diffeq", "biquad"}
print("ok")
"""
    assert run_fresh(script) == "ok"


def test_serve_workers_import_nothing_their_daemon_lacks():
    script = REFUSE_IN_CHILD + """
import asyncio

from repro.serve.server import build_service

DIFFEQ = {"graph": {"benchmark": "diffeq"}, "config": "2A1M"}
EDITS = [{"edit": "set_delay", "src": 8, "dst": 10, "delay": 2}]


async def main(service):
    base = await service.solve(DIFFEQ)
    unfolded = await service.solve({**DIFFEQ, "options": {"unfold": 2}})
    warm = await service.solve({**DIFFEQ, "base": base["fingerprint"], "edits": EDITS})
    return [base, unfolded, warm]


service = build_service(workers=2)
try:
    answers = asyncio.run(main(service))
finally:
    service.close()
assert not [a for a in answers if "error" in a], answers
assert answers[2]["result"]["session"]["warm"] == "seeded", answers[2]
print("ok")
"""
    assert run_fresh(script) == "ok"
