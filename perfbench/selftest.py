"""Self-test of the benchmark.

    python3 perfbench/selftest.py

1. Runs every workload for one second, untraced and traced, and checks that
   the last line of output has exactly the keys ``correct``, ``attempted``,
   ``failed`` and ``metrics``, with every metric of BENCHMARK.json and its
   unit, and that the outputs were judged correct.
2. Plants defects in real program outputs and checks that the correctness
   verdict counts each as a failed op: a sweep bound set to the true
   (mpmath) minimum + 1e-9, and a CLI call reported with a wrong exit code.

Exits 0 when everything holds, 1 otherwise.
"""

from __future__ import annotations

import dataclasses
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import workloads  # noqa: E402

SEED = 7


def schema_problems(result: dict, expected: list[dict]) -> list[str]:
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"keys {sorted(result)}")
    if not (isinstance(result.get("attempted"), int) and result["attempted"] >= 1):
        problems.append(f"attempted {result.get('attempted')!r}")
    if not isinstance(result.get("failed"), int):
        problems.append(f"failed {result.get('failed')!r}")
    if result.get("correct") is not True:
        problems.append(f"correct {result.get('correct')!r}")
    metrics = result.get("metrics", {})
    if set(metrics) != {m["name"] for m in expected}:
        problems.append(f"metrics {sorted(metrics)}")
    for m in expected:
        got = metrics.get(m["name"], {})
        if got.get("unit") != m["unit"] or not isinstance(got.get("value"), (int, float)) \
                or not math.isfinite(got["value"]):
            problems.append(f"{m['name']}: {got}")
    return problems


def run_workloads() -> list[str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    problems = []
    for name in workloads.NAMES:
        for trace, expected in ((0, spec["end_to_end"]), (1, spec["per_layer"])):
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(SEED),
                 "--seconds", "1", "--trace", str(trace)],
                capture_output=True, text=True, cwd=ROOT,
            )
            label = f"{name} --trace {trace}"
            if proc.returncode != 0:
                problems.append(f"{label}: exit {proc.returncode}: {proc.stderr[-500:]}")
                continue
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            problems += [f"{label}: {p}" for p in schema_problems(result, expected)]
            print(f"ran {label}: {result['attempted']} ops", flush=True)
    return problems


def failed_ops(workload: str, ops: list, results: dict, mp_sample=None) -> int:
    import numpy as np

    errors = checks.check(workload, ops, results, np.random.default_rng(0), mp_sample)
    return sum(1 for e in errors.values() if e)


def planted_bound() -> list[str]:
    from certbound import sweep

    ops = inputs.sweep_grid(SEED)
    for i, op in enumerate(ops):
        rows = sweep(op["p_nf"], op["r"], op["n"])
        j = next((j for j, row in enumerate(rows) if 0.0 < row.worst_case_q < 1.0), None)
        if j is not None:
            break
    row = rows[j]
    if failed_ops("sweep-grid", ops, {i: rows}, [(i, j)]) != 0:
        return ["the unmodified sweep output was counted as failed"]
    true_bound = float(checks.mp_minimum(row.p_nf, row.r, row.n))
    planted = list(rows)
    planted[j] = dataclasses.replace(row, lower_bound=true_bound + 1e-9)
    if failed_ops("sweep-grid", ops, {i: planted}, [(i, j)]) != 1:
        return ["a bound 1e-9 above the true minimum was not counted as failed"]
    print(f"planted bound at p_nf={row.p_nf!r} r={row.r} n={row.n}: counted as failed")
    return []


def planted_exit_code() -> list[str]:
    workdir = ROOT / ".perfbench" / "selftest"
    try:
        ops = inputs.cli_scenarios(SEED, workdir / "cli")
        run = workloads.make_runner("cli-scenarios", ops, ROOT, workdir)
        picks = [next(i for i, op in enumerate(ops) if op["kind"] == "bootstrap"),
                 next(i for i, op in enumerate(ops) if op["expect_exit"] is not None)]
        results = {i: run(i, workloads.no_span)[0] for i in picks}
        if failed_ops("cli-scenarios", ops, results) != 0:
            return ["unmodified CLI outputs were counted as failed"]
        wrong = {i: (code + 1, out, csv) for i, (code, out, csv) in results.items()}
        if failed_ops("cli-scenarios", ops, wrong) != len(picks):
            return ["a wrong CLI exit code was not counted as failed"]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print("planted exit codes: counted as failed")
    return []


def main() -> int:
    problems = planted_bound() + planted_exit_code() + run_workloads()
    for p in problems:
        print(f"FAIL {p}")
    print("self-test " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
