"""Dependency footprint: the serve and explore paths never import numpy.

Every serve worker and explore process is a fresh interpreter, so one
stray import costs each of them its resident memory.  The check runs in
a subprocess because the test process itself may already hold numpy
(pytest plugins, hypothesis).
"""

import os
import subprocess
import sys

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))

SCRIPT = """
import sys

from repro.explore import build_grid, explore
from repro.serve.pool import solve_cohort
from repro.serve.protocol import canonical_request, fingerprint, parse_request

items = []
for bench in ("diffeq", "biquad"):
    canonical = canonical_request(parse_request({"graph": {"benchmark": bench}, "config": "2A1M"}))
    items.append((fingerprint(canonical), canonical))
answers = solve_cohort(items)
assert len(answers) == 2 and not any("error" in a for a in answers), answers

cells = build_grid(["diffeq"], ("1A1M", "2A1M"), clocks=(50, 100))
assert len(cells) == 4
report = explore(cells, workers=1)
assert report.frontiers, report.counters

print("numpy" in sys.modules)
"""


def test_serve_cohort_and_explore_never_import_numpy():
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + os.pathsep + env.get("PYTHONPATH", "")
    out = subprocess.run(
        [sys.executable, "-c", SCRIPT],
        env=env,
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"
