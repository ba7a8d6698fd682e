"""Run one workload of the benchmark and print its result line.

    python3 perfbench/run.py --workload {library,serve,explore} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout; the program is imported from ``src/``
as it stands (pure Python, nothing to build).  ``--trace 0`` measures
the end-to-end metrics with tracing off; ``--trace 1`` is the separate
traced run that fills the per-layer table.  Metric names and units come
from ``BENCHMARK.json``; ``predictions.json`` records why each workload
exists and which end-to-end metric each layer metric should move.

The last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  Scratch files go to
``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SCRATCH = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("library", "serve", "explore")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so the serve daemon is still stopped;
    # a second one is ignored, so it cannot cut that clean-up short.
    def on_term(*_):
        signal.signal(signal.SIGTERM, signal.SIG_IGN)
        sys.exit(143)

    signal.signal(signal.SIGTERM, on_term)

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    declared = spec["per_layer"] if args.trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in declared}

    sys.path.insert(0, os.path.join(ROOT, "src"))
    os.makedirs(SCRATCH, exist_ok=True)
    os.environ["TMPDIR"] = SCRATCH
    tempfile.tempdir = SCRATCH

    from common import emit, metric

    if args.workload == "library":
        import library_workload as workload
    elif args.workload == "serve":
        import serve_workload as workload
    else:
        import explore_workload as workload
    outcome, values, detail = workload.run(args.seed, args.seconds, bool(args.trace))
    if set(values) != set(units):
        raise SystemExit(
            f"metric names {sorted(set(values) ^ set(units))} disagree with BENCHMARK.json"
        )
    emit(outcome, {k: metric(values[k], units[k]) for k in sorted(values)},
         {"workload": args.workload, "seed": args.seed, **detail})
    return 0


if __name__ == "__main__":
    sys.exit(main())
