"""Smoke test: every script under ``examples/`` runs to completion.

Each example runs in its own interpreter with ``PYTHONPATH=src``, from a
temporary working directory.  ``full_hls_flow.py`` takes its output
directory as its one argument, so the run leaves no file in the tree.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
EXAMPLES = sorted((ROOT / "examples").glob("*.py"))


def test_examples_found():
    assert len(EXAMPLES) >= 9


@pytest.mark.parametrize("script", EXAMPLES, ids=lambda p: p.name)
def test_example_runs(script, tmp_path):
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    args = [sys.executable, str(script)]
    if script.name == "full_hls_flow.py":
        args.append(str(tmp_path / "build"))
    proc = subprocess.run(
        args, cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-2000:]
