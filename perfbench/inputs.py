"""Seeded inputs for the four workloads.

Only the benchmark's parent process imports this module; the worker that
runs the program receives the generated inputs as JSON (and, for
``cli-scenarios``, as scenario files on disk).

Each workload draws its pool of operations from its own random stream of
the seed.  The cost of one op spans several decades (grid size, window
count, ``min(n, 1/q)``), so with plain random draws one or two extreme ops
would swing a pool's total cost by tens of percent from seed to seed.  Per-op
parameters therefore come from a Latin hypercube: each parameter's range is
cut into as many equal strata as the pool has ops, and every stratum gets
exactly one op, so every seed covers the parameter space evenly.  Pools are
small enough that a run executes each op several times (see
``workloads.closed_loop``).  The op with the least estimated work is moved
to the front: it is the op that ``setup_s`` waits for.
"""

from __future__ import annotations

import math
from pathlib import Path

import numpy as np
import yaml

SWEEP_POOL = 256
SWEEP_MAX_CELLS = 256
FLEET_POOL = 64
MC_POOL = 512
MC_TRIALS = 100
MC_Q_RANGE = (1e-7, 0.5)
MC_N_MAX = 10**6

STREAM = {"sweep-grid": 0, "fleet-bootstrap": 1, "monte-carlo": 2, "cli-scenarios": 3}


def _lhs(dims: int, count: int, rng: np.random.Generator) -> np.ndarray:
    """``count`` points in [0, 1)**dims, one per stratum of every axis."""
    return np.column_stack(
        [(rng.permutation(count) + rng.random(count)) / count for _ in range(dims)]
    )


def _cheapest_first(ops: list, cost: list[float]) -> list:
    i = int(np.argmin(cost))
    ops[0], ops[i] = ops[i], ops[0]
    return ops


def _log_uniform(u: float, lo: float, hi: float) -> float:
    return 10.0 ** (math.log10(lo) + u * (math.log10(hi) - math.log10(lo)))


def p_nf_value(u: float) -> float:
    """Map u in [0, 1) onto the README's p_nf domain.

    1/16 each on exactly 0 and exactly 1; the rest in equal thirds over
    log-uniform [1e-300, 1e-2], uniform [0.01, 0.99] and 1 - log-uniform
    [1e-15, 1e-2].
    """
    if u < 1 / 16:
        return 0.0
    if u >= 15 / 16:
        return 1.0
    v = (u - 1 / 16) * 8 / 7 * 3
    if v < 1:
        return 10.0 ** (-300 + 298 * v)
    if v < 2:
        return 0.01 + 0.98 * (v - 1)
    return 1.0 - 10.0 ** (-2 - 13 * (v - 2))


def count_value(u: float) -> int:
    """Map u in [0, 1) onto demand counts: 0 with share 1/8, else
    log-uniform over [1, 10**12]."""
    if u < 1 / 8:
        return 0
    return int(round(10.0 ** (12 * (u - 1 / 8) * 8 / 7)))


def _axis(shift: float, length: int, value) -> list:
    """``length`` evenly spaced draws, offset by ``shift`` in [0, 1), through
    ``value``; sorted and distinct.  Taking the shift from the stratified
    point keeps the number of special values (0, 1) per grid balanced over the
    pool, and with it the share of cells the kernel has to solve."""
    u = (np.arange(length) + shift) / length
    return sorted({value(float(x)) for x in u})


def sweep_grid(seed: int) -> list[dict]:
    """Cartesian grids of 1 to 256 cells over the whole README domain; the
    cell count is 256 ** sqrt(u), so about half the grids have 50 or more.

    Each grid is as near a cube as its cell count allows.  With lopsided
    shapes drawn at random, a seed's mix of long and short axes, and of
    single-value axes that happen to hold r = 0 or n = 0, moved the median
    op's cost by a tenth from seed to seed.
    """
    rng = np.random.default_rng([seed, STREAM["sweep-grid"]])
    ops = []
    for u_size, shift_p, shift_r, shift_n in _lhs(4, SWEEP_POOL, rng):
        target = max(1, round(SWEEP_MAX_CELLS ** math.sqrt(u_size)))
        lp = max(1, round(target ** (1 / 3)))
        lr = max(1, round(math.sqrt(target / lp)))
        ln = max(1, round(target / (lp * lr)))
        ops.append(
            {
                "p_nf": _axis(shift_p, lp, p_nf_value),
                "r": _axis(shift_r, lr, count_value),
                "n": _axis(shift_n, ln, count_value),
            }
        )
    return _cheapest_first(ops, [len(o["p_nf"]) * len(o["r"]) * len(o["n"]) for o in ops])


def _growth(kind: str, initial: int, u: float, u_cap: float) -> dict:
    if kind == "constant":
        return {"kind": "constant", "initial_fleet": initial}
    if kind == "linear":
        return {"kind": "linear", "initial_fleet": initial, "added_per_window": round(50 * u)}
    return {
        "kind": "logistic",
        "initial_fleet": initial,
        "growth_rate": 0.05 + 0.95 * u,
        "carrying_capacity": initial * round(2 + 18 * u_cap),
    }


def fleet_scenario(u, windows: int) -> dict:
    """One bootstrap scenario from 10 numbers in [0, 1)."""
    u = [float(x) for x in u]
    one_minus_p = 10.0 ** (-1 - 5 * u[3])
    initial_evidence = 0 if u[4] < 1 / 8 else round(10.0 ** (6 * (u[4] - 1 / 8) * 8 / 7))
    kind = ("constant", "linear", "logistic")[min(2, int(u[2] * 3))]
    return {
        "growth": _growth(kind, round(10.0 ** (2 * u[6])), u[7], u[9]),
        "demands_per_aircraft_per_window": round(10.0 ** (1 + 3 * u[5])),
        "window_count": windows,
        "p_nf": 1.0 - one_minus_p,
        "initial_evidence": initial_evidence,
        # Between p_nf and 1 - (1 - p_nf) / 100, so some runs miss it.
        "confidence_threshold": 1.0 - one_minus_p * 10.0 ** (-2 * u[8]),
        "include_remaining_lifetime": bool(u[1] >= 0.5),
    }


def fleet_bootstrap(seed: int) -> list[dict]:
    """Bootstrap scenarios with 10 to 400 windows and every growth kind."""
    rng = np.random.default_rng([seed, STREAM["fleet-bootstrap"]])
    ops = [fleet_scenario(u, round(10 * 40 ** float(u[0]))) for u in _lhs(10, FLEET_POOL, rng)]
    # Lifetime bounds double an op's kernel calls.  Giving them to every
    # other op in order of window count, rather than at random, keeps the
    # spread of op costs, and with it the latency percentiles, the same for
    # every seed.
    for rank, i in enumerate(np.argsort([o["window_count"] for o in ops], kind="stable")):
        ops[i]["include_remaining_lifetime"] = bool(rank % 2)
    cost = [o["window_count"] * (2 if o["include_remaining_lifetime"] else 1) for o in ops]
    return _cheapest_first(ops, cost)


def monte_carlo(seed: int) -> list[dict]:
    """Mixture models and horizons for a fixed-trial-count sampler call."""
    rng = np.random.default_rng([seed, STREAM["monte-carlo"]])
    ops = []
    for u_p, u_q, u_n in _lhs(3, MC_POOL, rng):
        ops.append(
            {
                "p_nf": 0.999 * u_p,
                "q": _log_uniform(u_q, *MC_Q_RANGE),
                "n": int(MC_N_MAX**u_n),
                "trials": MC_TRIALS,
                "seed": int(rng.integers(2**32)),
            }
        )
    cost = [(1 - o["p_nf"]) * min(o["n"], 1 / o["q"]) for o in ops]
    return _cheapest_first(ops, cost)


# Scenario kinds and how many of each a cli-scenarios pool holds.  Files of
# the kinds in INVALID must be rejected with the given exit code.
CLI_MIX = {"predict": 6, "survival": 5, "bootstrap": 5, "assess": 6, "sweep": 6, "invalid": 4}
INVALID = [
    ("missing", 2, None),
    ("syntax", 3, "model: {p_nf: 0.9\nevidence: [r: 1000\n"),
    ("unknown-key", 4, "model: {p_nf: 0.9, p_nf_typo: 0.5}\n"),
    ("out-of-range", 4, "model: {p_nf: 1.5}\nevidence: {r: 10}\nquery: {n: 10}\n"),
]


def _cli_scenario(kind: str, i: int, rng: np.random.Generator) -> dict:
    def lu(lo: float, hi: float) -> float:
        return float(10.0 ** rng.uniform(lo, hi))

    p_nf = 1.0 - lu(-6, -0.3)
    if kind == "predict":
        k = int(rng.integers(1, 4))
        weights = (1.0 - p_nf) * rng.dirichlet(np.ones(k))
        return {
            "model": {"p_nf": p_nf},
            "evidence": {"r": round(lu(0, 9))},
            "query": {"n_grid": sorted({round(lu(0, 10)) for _ in range(3)})},
            "prior": {
                "p_nf": p_nf,
                "atoms": [{"q": lu(-8, 0), "weight": float(w)} for w in weights],
            },
        }
    if kind == "survival":
        return {
            "model": {"p_nf": p_nf, "p_f_given_faulty": lu(-7, -0.3)},
            "query": {"n_grid": sorted({round(lu(0, 9)) for _ in range(4)} | {0})},
        }
    if kind == "bootstrap":
        return {"bootstrap": fleet_scenario(rng.random(10), int(rng.integers(5, 21)))}
    if kind == "assess":
        groups = [
            {
                "group_id": f"6.{i}.{j}",
                "objective_count": int(rng.integers(1, 11)),
                "p_no_fault": 1.0 - lu(-5, -1),
            }
            for j in range(int(rng.integers(3, 9)))
        ]
        return {"assessment": {"mode": ("conservative", "independent")[i % 2], "groups": groups}}
    if kind == "sweep":
        return {
            "sweep": {
                "p_nf": _axis(rng.random(), int(rng.integers(1, 4)), p_nf_value),
                "r": _axis(rng.random(), int(rng.integers(1, 3)), count_value),
                "n": _axis(rng.random(), int(rng.integers(1, 3)), count_value),
            }
        }
    raise ValueError(kind)


def cli_scenarios(seed: int, directory: Path) -> list[dict]:
    """Scenario files for one-shot CLI calls, written under ``directory``.

    Kinds are interleaved round-robin so that every prefix of the pool mixes
    the subcommands; the first op is a ``predict``.
    """
    rng = np.random.default_rng([seed, STREAM["cli-scenarios"]])
    directory.mkdir(parents=True, exist_ok=True)
    left = dict(CLI_MIX)
    order = []
    while any(left.values()):
        for kind in CLI_MIX:
            if left[kind]:
                left[kind] -= 1
                order.append(kind)
    ops = []
    invalid = iter(INVALID)
    for i, kind in enumerate(order):
        path = directory / f"{i:02d}-{kind}.yaml"
        if kind == "invalid":
            name, code, text = next(invalid)
            path = directory / f"{i:02d}-{name}.yaml"
            if text is not None:
                path.write_text(text, encoding="utf-8")
            ops.append({"kind": "predict", "scenario": str(path), "expect_exit": code})
            continue
        path.write_text(yaml.safe_dump(_cli_scenario(kind, i, rng), sort_keys=False), encoding="utf-8")
        ops.append({"kind": kind, "scenario": str(path), "expect_exit": None})
    return ops


def generate(workload: str, seed: int, directory: Path) -> list[dict]:
    if workload == "sweep-grid":
        return sweep_grid(seed)
    if workload == "fleet-bootstrap":
        return fleet_bootstrap(seed)
    if workload == "monte-carlo":
        return monte_carlo(seed)
    if workload == "cli-scenarios":
        return cli_scenarios(seed, directory / "cli")
    raise ValueError(f"unknown workload {workload!r}")
