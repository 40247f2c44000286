"""certbound benchmark.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from a source checkout of the repository: the package is imported from
``src/`` (byte-compiled first, as an installed package would be), nothing is
installed.  Each workload (see ``workloads.py``) runs closed-loop, one client
with no think time, in fresh worker processes; its inputs are generated here
from ``--seed`` and handed to the worker.  ``all``, the default, runs the
workloads listed in ``BENCHMARK.json``.

With ``--trace 0`` the run reports the end-to-end metrics: ``setup_s`` (the
median, over several fresh processes, of the time from process start to the
first completed op), median and tail op latency, throughput in work items
per second (bounds, trials or invocations, by workload), and peak resident
memory.  The run passes over its pool of ops several times; an op's
latency is its mean over the passes, divided by the host factor measured
in the same run (see ``workloads.reference``).  Each set-up time is
divided by the host factor of reference calls made right after op 0.  ``--trace 1`` reports the
per-layer metrics of ``layers.py``.  The outputs are checked
(``checks.py``); ``correct`` is false if any op failed.  The last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Environment, per-run details
and traces are written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_PROCESSES = 11

sys.path.insert(0, str(HERE))
import workloads  # noqa: E402

UNITS = {
    "setup_s": "s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "items_per_s": "1/s",
    "peak_rss_mb": "MB",
}


class BenchmarkError(RuntimeError):
    """The benchmark could not measure: missing program, crashed worker."""


def _read(path: Path) -> str:
    try:
        return path.read_text(encoding="utf-8").strip()
    except OSError:
        return ""


def git_commit() -> str | None:
    head = _read(ROOT / ".git" / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    commit = _read(ROOT / ".git" / ref)
    if commit:
        return commit
    for line in _read(ROOT / ".git" / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def environment(workload: str, seed: int) -> dict:
    import numpy
    import yaml

    cpu = next((line.split(":", 1)[1].strip() for line in _read(Path("/proc/cpuinfo")).splitlines()
                if line.startswith("model name")), platform.processor() or None)
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind = _read(index / "level"), _read(index / "type")
        if level in ("2", "3") and kind in ("Unified", "Data"):
            caches[f"L{level}"] = _read(index / "size")
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "pyyaml": yaml.__version__,
        "cpu": cpu,
        "l2": caches.get("L2"),
        "l3": caches.get("L3"),
        "commit": git_commit(),
        "workload": workload,
        "seed": seed,
    }


def build() -> None:
    """Check the program is there and byte-compile it and the benchmark."""
    if not (ROOT / "src" / "certbound" / "__init__.py").is_file():
        raise BenchmarkError(f"no certbound package under {ROOT / 'src'}")
    done = subprocess.run([sys.executable, "-m", "compileall", "-q", "src", str(HERE.name)],
                          cwd=ROOT, capture_output=True, text=True)
    if done.returncode != 0:
        raise BenchmarkError(f"byte-compiling failed:\n{done.stdout}{done.stderr}")


def worker(job: dict, mode: str, index: int) -> tuple[dict, float]:
    """Run one fresh worker; return its report and when it was started."""
    workdir = Path(job["workdir"])
    out = workdir / f"{mode}-{index}.json"
    job_path = workdir / f"job-{mode}-{index}.json"
    job_path.write_text(json.dumps({**job, "mode": mode, "out": str(out)}), encoding="utf-8")
    timeout = 3 * job["seconds"] + 120
    started = time.monotonic()
    proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(job_path)], cwd=ROOT,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    try:
        stdout, stderr = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise BenchmarkError(f"{mode} worker timed out after {timeout:g} s") from None
    if proc.returncode != 0 or not out.exists():
        raise BenchmarkError(f"{mode} worker exited {proc.returncode}:\n{stdout}{stderr}")
    return json.loads(out.read_text(encoding="utf-8")), started


def setup_sample(job: dict, mode: str, index: int) -> tuple[dict, float, float]:
    """A fresh worker's report, its set-up time, and that time divided by
    the host factor of the reference calls it made right after op 0."""
    report, started = worker(job, mode, index)
    setup = report["first_op_done"] - started
    return report, setup, setup / workloads.host_factor(report["setup_reference_latencies"])


def end_to_end(job: dict) -> tuple[dict, dict]:
    # Set-up is sampled before and after the measured run, so that one
    # episode of a loaded host does not cover every sample.
    half = SETUP_PROCESSES // 2
    samples = [setup_sample(job, "setup", i) for i in range(half)]
    samples.append(setup_sample(job, "run", 0))
    samples += [setup_sample(job, "setup", i) for i in range(half, SETUP_PROCESSES - 1)]
    report = samples[half][0]
    setups = [s[2] for s in samples]
    lat, work = workloads.mean_per_op(report["executed"], report["latencies"], report["work"])
    factor = workloads.host_factor(report["reference_latencies"])
    percentile, tail = workloads.tail(lat)
    raw = {
        "setup_s": statistics.median(s[1] for s in samples),
        "latency_p50_ms": statistics.median(lat) * 1e3,
        "latency_tail_ms": tail * 1e3,
        "items_per_s": sum(work) / sum(lat),
    }
    values = {
        "setup_s": statistics.median(setups),
        "latency_p50_ms": raw["latency_p50_ms"] / factor,
        "latency_tail_ms": raw["latency_tail_ms"] / factor,
        "items_per_s": raw["items_per_s"] * factor,
        "peak_rss_mb": report["peak_rss_mb"],
    }
    details = {
        "setup_samples_s": setups,
        "setup_unscaled_s": [s[1] for s in samples],
        "tail_percentile": percentile,
        workloads.WORK_UNIT[job["workload"]]: values["items_per_s"],
        "failed_ops_frac": report["failed"] / report["attempted"],
        "errors": report["errors"],
        "passes": len(report["executed"]) / len(lat),
        "host_factor": factor,
        "unscaled": raw,
        "op_latencies_s": lat,
        "op_work": work,
    }
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": metrics}, details


def traced(job: dict) -> tuple[dict, dict]:
    report, _ = worker(job, "trace", 0)
    details = {"failed_ops_frac": report["failed"] / report["attempted"],
               "errors": report["errors"], "trace_file": report["trace_file"]}
    return {"correct": report["failed"] == 0, "attempted": report["attempted"],
            "failed": report["failed"], "metrics": report["per_layer"]}, details


def print_block(workload: str, seed: int, seconds: float, result: dict, details: dict) -> None:
    print(f"workload {workload}  seed {seed}  {seconds:g} s  closed loop, 1 client")
    if "host_factor" in details:
        factor = details["host_factor"]
        print(f"  host factor {factor:.4f}: mean reference time "
              f"{factor * workloads.REFERENCE_NOMINAL_S * 1e6:.1f} us over a nominal "
              f"{workloads.REFERENCE_NOMINAL_S * 1e6:.0f} us; times are divided by it")
    for name, m in result["metrics"].items():
        note = ""
        if name == "setup_s":
            note = f"median of {SETUP_PROCESSES} fresh processes"
        elif name == "latency_tail_ms":
            note = (f"p{details['tail_percentile']:.2f} of {len(details['op_latencies_s'])} "
                    f"ops, mean of {details['passes']:.1f} passes each")
        elif name == "latency_p50_ms":
            note = f"mean of {details['passes']:.1f} passes per op"
        elif name == "items_per_s":
            note = f"= {workloads.WORK_UNIT[workload]}"
        elif name == "reliability.expected_demand_draws":
            note = "computed from the inputs, not measured"
        if name in details.get("unscaled", {}):
            note += f"; unscaled {details['unscaled'][name]:.6g}"
        print(f"  {name:<46} {m['value']:>14.6g} {m['unit']:<8} {note}")
    print(f"  {'failed_ops_frac':<46} {details['failed_ops_frac']:>14.6g} "
          f"{'':<8} {result['failed']} of {result['attempted']} ops")
    print(f"  {'correct':<46} {str(result['correct']).lower():>14}")
    for op, errors in details["errors"].items():
        print(f"    op {op}: {'; '.join(errors)}")


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    import inputs

    tag = f"{workload}-seed{seed}-trace{int(trace)}"
    workdir = OUT / f"work-{tag}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        paths = {}
        for name in (workloads.NAMES if trace else (workload,)):
            path = workdir / f"inputs-{name}.json"
            path.write_text(json.dumps(inputs.generate(name, seed, workdir)), encoding="utf-8")
            paths[name] = str(path)
        job = {"workload": workload, "seed": seed, "seconds": seconds, "root": str(ROOT),
               "workdir": str(workdir), "inputs": paths,
               "trace_out": str(OUT / f"trace-{tag}.json")}
        result, details = (traced if trace else end_to_end)(job)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(workload, seed)
    print(f"env {json.dumps(env)}")
    print_block(workload, seed, seconds, result, details)
    (OUT / f"result-{tag}.json").write_text(
        json.dumps({"env": env, "result": result, "details": details}, indent=1), encoding="utf-8")
    return result


def benchmarked() -> tuple[str, ...]:
    """The workloads of BENCHMARK.json, which ``all`` runs."""
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        raise BenchmarkError(f"cannot read BENCHMARK.json: {exc}") from None
    return tuple(w["name"] for w in spec["workloads"])


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=("all",) + workloads.NAMES)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        build()
        OUT.mkdir(exist_ok=True)
        names = benchmarked() if args.workload == "all" else (args.workload,)
        results = {name: measure(name, args.seed, args.seconds, bool(args.trace)) for name in names}
    except BenchmarkError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    if args.workload == "all":
        final = {
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}/{m}": v for name, r in results.items()
                        for m, v in r["metrics"].items()},
        }
    else:
        final = results[args.workload]
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
