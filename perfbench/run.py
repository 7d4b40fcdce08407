"""Seeded benchmark for migrent: one workload, one seed, one JSON result.

Run from the root of a checkout:

    python3 perfbench/run.py --workload dense --seed 1 --seconds 20 --trace 0

``--trace 0`` measures what a CLI user sees (the end-to-end metrics);
``--trace 1`` is the traced in-process run (the per-layer metrics). Why
each workload exists is recorded in BENCHMARK.json and workloads.py. The
last line of stdout is the result, ``{"correct", "attempted", "failed", "metrics"}``;
the line before it holds the details: the base of every ratio, the
environment, timing tails with their sample counts, and the span table.
The exit code is 0 only when every output check passed.

``--size tiny`` runs seconds-long versions of the workloads, for the smoke
test in ``test_smoke.py``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=("dense", "sweep", "wide"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True, help="how long the run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full")
    parser.add_argument("--workdir", type=Path, help="scratch directory (default: .bench_work/WORKLOAD)")
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "migrent" / "__init__.py").is_file() or not (ROOT / "tests" / "oracles.py").is_file():
        print(f"perfbench: no migrent source tree under {ROOT} (need src/migrent and tests/oracles.py)",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import measure
    import workloads

    workload = (workloads.TINY if args.size == "tiny" else workloads.FULL)[args.workload]
    work = (args.workdir or ROOT / ".bench_work" / args.workload).resolve()
    work.mkdir(parents=True, exist_ok=True)
    mode = measure.traced if args.trace else measure.end_to_end
    # medians need a few samples of every timing even when the run is short
    repeats = 3 if args.size == "full" else 1
    try:
        gate, metrics, detail = mode(workload, args.seed, args.seconds, work, ROOT, repeats)
    except measure.BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    detail = {
        "workload": args.workload, "size": args.size, "trace": args.trace,
        "held_out_seed": measure.HELD_OUT_SEED, **detail,
        "environment": measure.environment(ROOT), "notes": measure.NOTES, "problems": gate.problems,
    }
    print(json.dumps(detail))
    correct = not gate.problems
    print(json.dumps({
        "correct": correct,
        "attempted": gate.attempted,
        "failed": gate.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    for problem in gate.problems:
        print(f"perfbench: {problem}", file=sys.stderr)
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
