"""Run the benchmark on several seeds and report how steady each metric is.

    python3 perfbench/repeat.py --workload NAME [--seeds 1-10] [--seconds S]

For each metric: the median over the seeds, the first and third quartiles
(``statistics.quantiles(values, n=4)``) and their distance as a share of
the median, which is the spread a metric's bound in BENCHMARK.json must
cover.  The summary is printed as JSON on the last line.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("1-10"))
    parser.add_argument("--seconds", type=float, default=50.0)
    args = parser.parse_args()
    runs = []
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(RUN), "--workload", args.workload, "--seed", str(seed),
             "--seconds", str(args.seconds), "--trace", "0"],
            capture_output=True, text=True, cwd=RUN.parent.parent,
        )
        if proc.returncode != 0:
            print(proc.stdout, proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append(result)
        print(f"seed {seed}: correct={result['correct']} failed={result['failed']}/"
              f"{result['attempted']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
    summary = {"workload": args.workload, "seeds": args.seeds, "seconds": args.seconds,
               "correct": all(r["correct"] for r in runs),
               "failed_ops_frac": sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs),
               "metrics": {}}
    for name, first in runs[0]["metrics"].items():
        values = [r["metrics"][name]["value"] for r in runs]
        median = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        summary["metrics"][name] = {
            "unit": first["unit"], "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median if median else None,
        }
        print(f"  {name:<46} median {median:<12.6g} spread {summary['metrics'][name]['spread']}")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
