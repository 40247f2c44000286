"""Worker process: runs one workload against the program and reports.

Started by ``run.py`` as ``python worker.py JOB.json``, one fresh process per
setup probe and per measured run, so that start-up and peak memory belong to
that workload alone.  The job names the mode:

* ``setup``: import the program, load the inputs, run op 0, report when it
  completed, time the reference computation a few times to gauge the
  host's speed, exit.
* ``run``: the same, then a closed loop (one client, no think time) over the
  pool for ``seconds``, and at least one whole pass, then the correctness
  checks.  The loop times the benchmark's reference computation after
  every op (see ``workloads.reference``).
* ``trace``: per-layer measurements (see ``layers.py``) and the tracing
  overhead on this workload's own ops.
"""

from __future__ import annotations

import json
import resource
import sys
import time
from pathlib import Path

# Reference calls timed after op 0 and one untimed call (about 10 ms in
# all), for the set-up time's host factor.
SETUP_REFERENCE_CALLS = 40


def peak_rss_mb(children: bool) -> float:
    """Peak resident memory of this process, or of its largest child.

    For this process it is VmHWM: ``getrusage`` would report the parent's
    size at fork time if that were larger, since Linux carries ``maxrss``
    across exec.  Children inherit this worker's size the same way, which
    stays below theirs because the worker does not import the program.
    """
    if children:
        return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0
    status = Path("/proc/self/status").read_text(encoding="utf-8")
    line = next(line for line in status.splitlines() if line.startswith("VmHWM:"))
    return int(line.split()[1]) / 1024.0


def verdict(job: dict, ops: list, executed: list, first: dict, unstable: set) -> dict:
    import numpy as np

    import checks

    rng = np.random.default_rng([job["seed"], 99])
    errors = checks.check(job["workload"], ops, first, rng)
    for k in unstable:
        errors[k] = errors.get(k, []) + ["result changed between repeats of the same op"]
    bad = {k for k, e in errors.items() if e}
    return {
        "attempted": len(executed),
        "failed": sum(1 for k in executed if k in bad),
        "errors": {str(k): errors[k][:3] for k in sorted(bad)[:20]},
    }


def main() -> int:
    job = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    root, workdir = Path(job["root"]), Path(job["workdir"])
    sys.path.insert(0, str(root / "src"))
    import workloads

    workload = job["workload"]
    ops = json.loads(Path(job["inputs"][workload]).read_text(encoding="utf-8"))
    run = workloads.make_runner(workload, ops, root, workdir)
    out = Path(job["out"])

    if job["mode"] == "trace":
        import layers

        per_layer, executed, first, unstable = layers.traced_run(job, workload, ops, run)
        summary = verdict(job, ops, executed, first, unstable)
        summary.update(per_layer=per_layer, trace_file=job["trace_out"])
        out.write_text(json.dumps(summary), encoding="utf-8")
        return 0

    from tracing import no_span

    first_result, _ = run(0, no_span)
    first_done = time.monotonic()
    workloads.reference()
    setup_reference = []
    for _ in range(SETUP_REFERENCE_CALLS):
        t0 = time.perf_counter()
        workloads.reference()
        setup_reference.append(time.perf_counter() - t0)
    if job["mode"] == "setup":
        out.write_text(json.dumps({"first_op_done": first_done,
                                   "setup_reference_latencies": setup_reference}),
                       encoding="utf-8")
        return 0

    loop = workloads.closed_loop(run, len(ops), job["seconds"], workdir / "results.pickle",
                                 min_ops=len(ops), calibrate=True)
    peak = peak_rss_mb(children=workload == "cli-scenarios")
    if loop.digests.get(0, workloads.digest(first_result)) != workloads.digest(first_result):
        loop.unstable.add(0)
    first = loop.first_results()
    first.setdefault(0, first_result)
    summary = verdict(job, ops, [0] + loop.executed, first, loop.unstable)
    summary.update(
        first_op_done=first_done,
        setup_reference_latencies=setup_reference,
        latencies=loop.latencies,
        reference_latencies=loop.reference_latencies,
        work=loop.work,
        executed=loop.executed,
        peak_rss_mb=peak,
    )
    out.write_text(json.dumps(summary), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
