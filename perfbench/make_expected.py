"""Rewrite ``expected_frontiers.json`` from the exhaustive sweep.

    python3 perfbench/make_expected.py

Run it only when the grid changes: the file is the oracle the explore
workload's frontiers are checked against.
"""

import os
import sys

sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src"))

from explore_workload import write_expected  # noqa: E402

if __name__ == "__main__":
    write_expected()
