"""The operations of each workload, as the worker process runs them.

``make_runner`` turns a workload's generated inputs into ``run(i, span)``,
which performs pool op ``i`` and returns ``(result, work)``: ``work`` counts
the bounds, trials or invocations the op produced.  ``span`` is the tracer's
span factory, or ``tracing.no_span`` in an untraced run.

Why each workload exists, and what it bypasses:

* ``sweep-grid``: one ``sweep`` call per op on grids of 1 to 256 cells over
  the whole README domain.  The ``inference`` kernel does nearly all the
  work, and the mixed grid sizes expose both per-call overhead and
  throughput of the kernel.  The median grid has about 50 cells: with
  smaller ones the median latency turns on whether a few cells are
  endpoints, and jumps from seed to seed.  It bypasses ``fleet``,
  ``reliability``, ``scenario`` and ``cli``.
* ``fleet-bootstrap``: ``run_bootstrap`` plus ``check_feasibility`` per op.
  The same kernel is called as a dependent chain, where ``r`` grows by each
  window's ``n``, so a speed-up that only suits independent grid cells shows
  here.  It bypasses ``reliability``, ``scenario`` and ``cli``.
* ``monte-carlo``: one ``monte_carlo_survival`` call per op with a fixed
  trial count.  The only workload where the ``reliability`` sampler does the
  work; ``inference`` does none.
* ``cli-scenarios``: one ``python -m certbound.cli`` process per op on a
  scenario file, with warm bytecode caches as for an installed package.
  Interpreter start-up, imports, ``scenario`` and ``cli`` dominate and the
  kernel does little, so an import or schema change shows and a kernel
  change should not.
"""

from __future__ import annotations

import hashlib
import math
import os
import pickle
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from tracing import no_span

NAMES = ("sweep-grid", "fleet-bootstrap", "monte-carlo", "cli-scenarios")
WORK_UNIT = {
    "sweep-grid": "bounds_per_s",
    "fleet-bootstrap": "bounds_per_s",
    "monte-carlo": "trials_per_s",
    "cli-scenarios": "invocations_per_s",
}
CSV_SUBCOMMANDS = ("bootstrap", "sweep")

# The reference computation's nominal time: about its mean on the host the
# benchmark was built on (Intel Xeon, 2 vCPUs, Python 3.11).
REFERENCE_NOMINAL_S = 250e-6
_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0


def _logaddexp(x: float, y: float) -> float:
    hi, lo = (x, y) if x > y else (y, x)
    return hi + math.log1p(math.exp(lo - hi))


def reference() -> float:
    """A fixed computation, independent of certbound, timed after every op
    of a measured run to gauge the host's speed at that moment.

    Pure Python, in the style of the kernel's scalar path: a golden-section
    search over a log-domain function made of closures and float math, then
    a set and a sort of a couple of hundred floats.  It imports nothing, so
    the worker of ``cli-scenarios`` stays smaller than the processes it
    starts (see ``worker.peak_rss_mb``).
    """
    a, b = math.log(0.3), math.log1p(-0.3)

    def log_g(x: float) -> float:
        lu = math.log1p(-math.exp(x))
        return _logaddexp(a, b + 1.1e5 * lu) - _logaddexp(a, b + 1e4 * lu)

    lo, hi = math.log(1e-9), math.log(0.5)
    c, d = hi - _INV_PHI * (hi - lo), lo + _INV_PHI * (hi - lo)
    fc, fd = log_g(c), log_g(d)
    for _ in range(30):
        if fc < fd:
            hi, d, fd = d, c, fc
            c = hi - _INV_PHI * (hi - lo)
            fc = log_g(c)
        else:
            lo, c, fc = c, d, fd
            d = lo + _INV_PHI * (hi - lo)
            fd = log_g(d)
    grid = sorted({round(math.exp(-0.04 * k) * (1 + (k % 7) * 1e-3), 12) for k in range(200)})
    return min(fc, fd) + grid[len(grid) // 2]


def host_factor(reference_latencies: list[float]) -> float:
    """How much slower than nominal the host ran during a measured run: the
    reference's mean time over the nominal one.

    The host switches between a fast and a slow mode for stretches of
    seconds, so an op's or the reference's timings over a run fall into two
    groups.  A median picks one group or the other as the share of slow
    time crosses a half; a mean moves in proportion to that share, on the
    reference as on the ops (see ``mean_per_op``).
    """
    return statistics.fmean(reference_latencies) / REFERENCE_NOMINAL_S


def mean_per_op(executed: list[int], latencies: list[float], work: list[int]) -> tuple[list, list]:
    """Each pool op's mean latency over the run's passes, and its work."""
    times, items = {}, {}
    for k, t, w in zip(executed, latencies, work):
        times.setdefault(k, []).append(t)
        items[k] = w
    return [statistics.fmean(times[k]) for k in sorted(times)], [items[k] for k in sorted(times)]


def tail(values: list[float]) -> tuple[float, float]:
    """The highest percentile with at least ten samples beyond it, and the
    sample there (the maximum when there are fewer than eleven)."""
    n = len(values)
    if n <= 10:
        return 100.0, max(values)
    return 100.0 * (n - 10) / n, sorted(values)[n - 11]


def fleet_scenario(spec: dict):
    from certbound import ConstantGrowth, FleetScenario, LinearGrowth, LogisticGrowth

    growth = dict(spec["growth"])
    kind = growth.pop("kind")
    cls = {"constant": ConstantGrowth, "linear": LinearGrowth, "logistic": LogisticGrowth}[kind]
    return FleetScenario(**{**spec, "growth": cls(**growth)})


def child_env(root: Path) -> dict:
    env = dict(os.environ)
    src = str(root / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def cli_argv(op: dict, csv_path: Path) -> list[str]:
    argv = [sys.executable, "-m", "certbound.cli", op["kind"], "--scenario", op["scenario"]]
    if op["kind"] in CSV_SUBCOMMANDS and op["expect_exit"] is None:
        argv += ["--csv", str(csv_path)]
    return argv


def make_runner(workload: str, ops: list[dict], root: Path, workdir: Path):
    if workload == "sweep-grid":
        from certbound import sweep

        grids = [(o["p_nf"], o["r"], o["n"]) for o in ops]

        def run(i, span):
            with span("inference.sweep"):
                rows = sweep(*grids[i])
            return rows, len(rows)

    elif workload == "fleet-bootstrap":
        from certbound import check_feasibility, run_bootstrap

        scenarios = [fleet_scenario(o) for o in ops]

        def run(i, span):
            scenario = scenarios[i]
            with span("fleet.run_bootstrap"):
                trace = run_bootstrap(scenario)
            with span("fleet.check_feasibility"):
                verdict = check_feasibility(trace)
            per_window = 2 if scenario.include_remaining_lifetime else 1
            return (trace, verdict), per_window * len(trace.windows)

    elif workload == "monte-carlo":
        from certbound import InfeasibleScaleError, MixtureModel, monte_carlo_survival

        calls = [
            (MixtureModel(o["p_nf"], o["q"]), o["n"], o["trials"], o["seed"]) for o in ops
        ]

        def run(i, span):
            model, n, trials, seed = calls[i]
            try:
                with span("reliability.monte_carlo_survival"):
                    return monte_carlo_survival(model, n, trials, seed), trials
            except InfeasibleScaleError as exc:
                return f"refused: {exc}", 0

    elif workload == "cli-scenarios":
        env = child_env(root)
        out = workdir / "csv"
        out.mkdir(parents=True, exist_ok=True)

        def run(i, span):
            csv_path = out / f"{i:02d}.csv"
            csv_path.unlink(missing_ok=True)
            with span("cli.subprocess"):
                proc = subprocess.run(
                    cli_argv(ops[i], csv_path), capture_output=True, text=True, env=env, cwd=root
                )
            csv_text = csv_path.read_text(encoding="utf-8") if csv_path.exists() else None
            return (proc.returncode, proc.stdout, csv_text), 1

    else:
        raise ValueError(f"unknown workload {workload!r}")
    return run


@dataclass
class Loop:
    """What a closed loop ran: per-op latency, work and pool index, a digest
    of the first result per pool index, and indices whose repeat result
    differed.  First results are spilled to ``spill`` rather than kept, so
    that the worker's memory does not grow with the run."""

    spill: Path
    latencies: list[float] = field(default_factory=list)
    reference_latencies: list[float] = field(default_factory=list)
    work: list[int] = field(default_factory=list)
    executed: list[int] = field(default_factory=list)
    digests: dict = field(default_factory=dict)
    unstable: set = field(default_factory=set)

    def first_results(self) -> dict:
        results = {}
        with self.spill.open("rb") as fh:
            while True:
                try:
                    k, blob = pickle.load(fh)
                except EOFError:
                    return results
                results[k] = pickle.loads(blob)


def digest(result) -> bytes:
    return hashlib.sha1(pickle.dumps(result)).digest()


def closed_loop(run, pool_size: int, seconds: float, spill: Path, span=None, start: int = 1,
                min_ops: int = 0, calibrate: bool = False) -> Loop:
    """Run pool ops in order, wrapping around, until ``seconds`` have passed
    and at least ``min_ops`` ops ran.  With ``calibrate``, ``reference`` is
    timed after every op, outside the op's latency.  It runs twice and only
    the second call is timed: the first, slowed by what the op left in the
    caches (by a sixth after a sweep, a third after a process start), would
    tie the host factor to the program's memory use."""
    span = span or no_span
    loop = Loop(spill)
    deadline = time.perf_counter() + seconds
    i = start
    with spill.open("wb") as sink:
        while True:
            k = i % pool_size
            t0 = time.perf_counter()
            with span("op"):
                result, w = run(k, span)
            t1 = time.perf_counter()
            loop.latencies.append(t1 - t0)
            if calibrate:
                reference()
                t2 = time.perf_counter()
                reference()
                loop.reference_latencies.append(time.perf_counter() - t2)
            loop.work.append(w)
            loop.executed.append(k)
            blob = pickle.dumps(result)
            d = hashlib.sha1(blob).digest()
            if k not in loop.digests:
                loop.digests[k] = d
                pickle.dump((k, blob), sink)
            elif d != loop.digests[k]:
                loop.unstable.add(k)
            i += 1
            if t1 >= deadline and i - start >= min_ops:
                return loop
