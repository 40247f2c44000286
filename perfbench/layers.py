"""Per-layer measurements of a traced run.

Every traced run reports every layer, whichever workload it was started for:
each layer is measured on the seeded inputs of the workload that exercises
it, by timing calls into its public functions from outside.  The workload
the run was started for contributes ``trace.overhead_frac``: each of its own
ops runs untraced, traced, then untraced again, and the traced time is
compared with the mean of the two untraced ones.

Layer names follow the package modules (``inference``, ``fleet``,
``reliability``, ``scenario``, ``assessment``, ``cli``), plus ``import`` for
interpreter start-up and import cost.  Comments on each group name the
end-to-end metric it should move.
"""

from __future__ import annotations

import contextlib
import io
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

import workloads
from tracing import Tracer, kernel_spans, no_span

SUBCOMMANDS = ("predict", "survival", "bootstrap", "assess", "sweep")
KERNEL_SAMPLE = 128
IMPORT_REPEATS = 5
# Shares of the run's --seconds given to each timed phase.
OVERHEAD_SHARE = 0.1
PROBE_SHARE = 0.15

UNITS = {
    "inference.sweep.us_per_cell": "us",
    "inference.sweep.self_us_per_cell": "us",
    "inference.sweep.calls": "count",
    "inference.worst_case_survival.us_p50": "us",
    "inference.worst_case_survival.us_tail": "us",
    "inference.interior_share": "fraction",
    "inference.floor_share": "fraction",
    "inference.endpoint_share": "fraction",
    "fleet.run_bootstrap.us_per_window": "us",
    "fleet.run_bootstrap.self_us_per_window": "us",
    "fleet.run_bootstrap.ms_p50": "ms",
    "fleet.check_feasibility.us": "us",
    "fleet.lifetime_share": "fraction",
    "reliability.monte_carlo_survival.ns_per_trial": "ns",
    "reliability.monte_carlo_survival.ms_p50": "ms",
    "reliability.monte_carlo_survival.ms_tail": "ms",
    "reliability.expected_demand_draws": "count",
    "reliability.refused_share": "fraction",
    "import.python_ms": "ms",
    "import.numpy_ms": "ms",
    "import.yaml_ms": "ms",
    "import.certbound_self_ms": "ms",
    "scenario.parse_scenario.us": "us",
    "assessment.aggregate_fault_freeness.us": "us",
    **{f"cli.{sub}.ms": "ms" for sub in SUBCOMMANDS},
    "cli.child_cpu_ms": "ms",
    "cli.spawn_residual_ms": "ms",
    "trace.overhead_frac": "fraction",
}


def _load(job: dict, workload: str) -> list[dict]:
    return json.loads(Path(job["inputs"][workload]).read_text(encoding="utf-8"))


def _probe(job: dict, workload: str, tracer: Tracer, seconds: float):
    ops = _load(job, workload)
    run = workloads.make_runner(workload, ops, Path(job["root"]), Path(job["workdir"]))
    with kernel_spans(tracer):
        loop = workloads.closed_loop(run, len(ops), seconds, Path(job["workdir"]) / "probe.pickle",
                                     span=tracer.span, start=0)
    return ops, loop.executed, loop.first_results()


def inference(job: dict, tracer: Tracer, seconds: float) -> dict:
    # Move bounds_per_s and latency_* on sweep-grid (and, for the single
    # call timings, bounds_per_s on fleet-bootstrap).
    from certbound import worst_case_survival

    ops, executed, first = _probe(job, "sweep-grid", tracer, seconds)
    cells = sum(len(first[k]) for k in executed)
    qs = [row.worst_case_q for rows in first.values() for row in rows]
    rng = np.random.default_rng([job["seed"], 98])
    grid_cells = [(p, r, n) for o in ops for p in o["p_nf"] for r in o["r"] for n in o["n"]]
    single = []
    for k in rng.choice(len(grid_cells), size=min(KERNEL_SAMPLE, len(grid_cells)), replace=False):
        with tracer.span("kernel-sample"):
            t0 = time.perf_counter()
            with tracer.span("inference.worst_case_survival"):
                worst_case_survival(*grid_cells[k])
            single.append(time.perf_counter() - t0)
    return {
        "inference.sweep.us_per_cell": sum(tracer.durations("inference.sweep")) / cells * 1e6,
        "inference.sweep.self_us_per_cell": tracer.self_time("inference.sweep") / cells * 1e6,
        "inference.sweep.calls": len(tracer.durations("inference.sweep")),
        "inference.worst_case_survival.us_p50": statistics.median(single) * 1e6,
        "inference.worst_case_survival.us_tail": workloads.tail(single)[1] * 1e6,
        # Which branch produced each distinct bound: q = 0 is the n = 0 or
        # p_nf = 1 endpoint, q = 1 the r = 0 or p_nf = 0 floor.
        "inference.interior_share": sum(0.0 < q < 1.0 for q in qs) / len(qs),
        "inference.floor_share": sum(q == 1.0 for q in qs) / len(qs),
        "inference.endpoint_share": sum(q == 0.0 for q in qs) / len(qs),
    }


def fleet(job: dict, tracer: Tracer, seconds: float) -> dict:
    # Move bounds_per_s and latency_* on fleet-bootstrap.
    ops, executed, first = _probe(job, "fleet-bootstrap", tracer, seconds)
    windows = sum(ops[k]["window_count"] for k in executed)
    lifetime = sum(ops[k]["window_count"] for k in executed if ops[k]["include_remaining_lifetime"])
    return {
        "fleet.run_bootstrap.us_per_window":
            sum(tracer.durations("fleet.run_bootstrap")) / windows * 1e6,
        "fleet.run_bootstrap.self_us_per_window":
            tracer.self_time("fleet.run_bootstrap") / windows * 1e6,
        "fleet.run_bootstrap.ms_p50": statistics.median(tracer.durations("fleet.run_bootstrap")) * 1e3,
        "fleet.check_feasibility.us":
            statistics.median(tracer.durations("fleet.check_feasibility")) * 1e6,
        "fleet.lifetime_share": lifetime / (windows + lifetime),
    }


def expected_demand_draws(op: dict) -> float:
    """Demands the per-demand algorithm draws on average for one call:
    each faulty trial runs until its first failure or n demands."""
    q, n = op["q"], op["n"]
    per_faulty = float(n) if q == 0.0 else -np.expm1(n * np.log1p(-q)) / q
    return op["trials"] * (1.0 - op["p_nf"]) * per_faulty


def reliability(job: dict, tracer: Tracer, seconds: float) -> dict:
    # Move trials_per_s and latency_* on monte-carlo; refused_share moves
    # its failed-op share.
    ops, executed, first = _probe(job, "monte-carlo", tracer, seconds)
    durations = tracer.durations("reliability.monte_carlo_survival")
    trials = sum(ops[k]["trials"] for k in executed if not isinstance(first[k], str))
    return {
        "reliability.monte_carlo_survival.ns_per_trial": sum(durations) / trials * 1e9,
        "reliability.monte_carlo_survival.ms_p50": statistics.median(durations) * 1e3,
        "reliability.monte_carlo_survival.ms_tail": workloads.tail(durations)[1] * 1e3,
        "reliability.expected_demand_draws":
            statistics.fmean(expected_demand_draws(ops[k]) for k in executed),
        "reliability.refused_share":
            sum(isinstance(first[k], str) for k in executed) / len(executed),
    }


def _spawn(argv: list[str], env: dict, root: Path) -> tuple[float, float, str]:
    """Wall time and child CPU time of one process, and its stderr."""
    before = resource.getrusage(resource.RUSAGE_CHILDREN)
    t0 = time.perf_counter()
    proc = subprocess.run(argv, capture_output=True, text=True, env=env, cwd=root)
    wall = time.perf_counter() - t0
    after = resource.getrusage(resource.RUSAGE_CHILDREN)
    cpu = (after.ru_utime - before.ru_utime) + (after.ru_stime - before.ru_stime)
    return wall, cpu, proc.stderr


def _importtime(stderr: str) -> dict:
    """Self and cumulative microseconds per module from ``-X importtime``."""
    out = {}
    for line in stderr.splitlines():
        if line.startswith("import time:") and "|" in line and "self [us]" not in line:
            own, cumulative, name = line[len("import time:"):].split("|")
            out[name.strip()] = (int(own), int(cumulative))
    return out


def imports(root: Path) -> tuple[dict, float]:
    """Import metrics, and the cumulative import time of certbound in ms."""
    # Move latency_p50_ms on cli-scenarios and setup_s on every workload.
    env = workloads.child_env(root)
    bare = [_spawn([sys.executable, "-c", "pass"], env, root)[0] for _ in range(IMPORT_REPEATS)]
    parsed = [_importtime(_spawn([sys.executable, "-X", "importtime", "-c", "import certbound"],
                                 env, root)[2]) for _ in range(IMPORT_REPEATS)]
    own = [sum(v[0] for k, v in p.items() if k.split(".")[0] == "certbound") for p in parsed]
    return {
        "import.python_ms": statistics.median(bare) * 1e3,
        "import.numpy_ms": statistics.median(p["numpy"][1] for p in parsed) / 1e3,
        "import.yaml_ms": statistics.median(p["yaml"][1] for p in parsed) / 1e3,
        "import.certbound_self_ms": statistics.median(own) / 1e3,
    }, statistics.median(p["certbound"][1] for p in parsed) / 1e3


def cli(job: dict, tracer: Tracer, python_ms: float, import_ms: float) -> dict:
    # Move latency_* and invocations_per_s on cli-scenarios.
    from certbound import aggregate_fault_freeness, parse_scenario
    from certbound import cli as cli_module

    root, workdir = Path(job["root"]), Path(job["workdir"])
    valid = [op for op in _load(job, "cli-scenarios") if op["expect_exit"] is None]
    parse, aggregate, main = [], [], {sub: [] for sub in SUBCOMMANDS}
    for op in valid * 3:
        with tracer.span("scenario.parse_scenario"):
            t0 = time.perf_counter()
            scenario = parse_scenario(op["scenario"])
            parse.append(time.perf_counter() - t0)
        if scenario.assessment is not None:
            for _ in range(10):
                with tracer.span("assessment.aggregate_fault_freeness"):
                    t0 = time.perf_counter()
                    aggregate_fault_freeness(scenario.assessment.groups, scenario.assessment.mode)
                    aggregate.append(time.perf_counter() - t0)
        argv = workloads.cli_argv(op, workdir / "inprocess.csv")[3:]
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with tracer.span(f"cli.{op['kind']}"):
                t0 = time.perf_counter()
                cli_module.main(argv)
                main[op["kind"]].append(time.perf_counter() - t0)
    main_ms = {sub: statistics.median(v) * 1e3 for sub, v in main.items()}
    env = workloads.child_env(root)
    cpu, residual = [], []
    for sub in SUBCOMMANDS:
        for op in [op for op in valid if op["kind"] == sub][:2]:
            with tracer.span("cli.subprocess"):
                wall, child_cpu, _ = _spawn(workloads.cli_argv(op, workdir / "sub.csv"), env, root)
            cpu.append(child_cpu)
            residual.append(wall * 1e3 - python_ms - import_ms - main_ms[sub])
    return {
        "scenario.parse_scenario.us": statistics.median(parse) * 1e6,
        "assessment.aggregate_fault_freeness.us": statistics.median(aggregate) * 1e6,
        **{f"cli.{sub}.ms": main_ms[sub] for sub in SUBCOMMANDS},
        "cli.child_cpu_ms": statistics.median(cpu) * 1e3,
        "cli.spawn_residual_ms": statistics.median(residual),
    }


def traced_run(job: dict, workload: str, ops: list[dict], run):
    """Per-layer metrics, plus the executed op indices, first results and
    unstable indices of this workload's own ops, for the verdict."""
    seconds = job["seconds"]
    root = Path(job["root"])
    tracers = {name: Tracer() for name in ("own", "inference", "fleet", "reliability", "cli")}

    # Tracing overhead on this workload's own ops.  Each op runs untraced,
    # traced, then untraced again, back to back, so that the host's drift
    # over seconds falls on both sides alike.
    run(0, no_span)
    loop = workloads.closed_loop(run, len(ops), OVERHEAD_SHARE * seconds,
                                 Path(job["workdir"]) / "own.pickle")
    unstable, plain, traced = set(loop.unstable), 0.0, 0.0
    for k in loop.executed:
        times = []
        for tracer in (None, tracers["own"], None):
            span = tracer.span if tracer else no_span
            with kernel_spans(tracer) if tracer else contextlib.nullcontext():
                t0 = time.perf_counter()
                with span("op"):
                    result, _ = run(k, span)
                times.append(time.perf_counter() - t0)
            if workloads.digest(result) != loop.digests[k]:
                unstable.add(k)
        plain += (times[0] + times[2]) / 2
        traced += times[1]
    executed = loop.executed * 4
    first = loop.first_results()
    overhead = traced / plain - 1.0

    metrics = {}
    metrics.update(inference(job, tracers["inference"], PROBE_SHARE * seconds))
    metrics.update(fleet(job, tracers["fleet"], PROBE_SHARE * seconds))
    metrics.update(reliability(job, tracers["reliability"], PROBE_SHARE * seconds))
    imported, import_ms = imports(root)
    metrics.update(imported)
    metrics.update(cli(job, tracers["cli"], metrics["import.python_ms"], import_ms))
    metrics["trace.overhead_frac"] = overhead

    trace_path = Path(job["trace_out"])
    trace_path.write_text(
        json.dumps({"fields": ["name", "op", "parent", "start", "end"],
                    "phases": {name: t.spans for name, t in tracers.items()}}),
        encoding="utf-8",
    )
    per_layer = {name: {"value": metrics[name], "unit": unit} for name, unit in UNITS.items()}
    return per_layer, executed, first, unstable
