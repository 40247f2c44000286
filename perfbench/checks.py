"""Correctness verdict for each workload's outputs, independent of the optimizer.

Run after the timed loop.  ``check`` returns, for every pool op that ran,
the list of violations found in its (first) result; an op with any
violation, or that raised, counts as failed.

* Every bound from ``sweep-grid`` and ``fleet-bootstrap`` must lie in
  [p_nf floor, 1], be at most ``grid_worst_case`` + 1e-10, and be monotone:
  non-decreasing in ``r`` and ``p_nf`` and non-increasing in ``n``, within
  1e-10, along each axis of a grid and along a bootstrap chain.  On a seeded
  sample it must also be at most the mpmath minimum + 1e-10, searched over
  ``x = log(1 - q)`` so that minimizers with ``1 - q`` far below float
  resolution stay representable.
* A Monte Carlo estimate must lie within 5 standard errors of
  ``survival_probability``.
* A CLI call must exit with the expected code, and the numbers it prints and
  the CSV it writes must equal the in-process library result.
"""

from __future__ import annotations

import csv
import io
import math
import re

import mpmath as mp
import numpy as np

from certbound import (
    MixtureModel,
    aggregate_fault_freeness,
    check_feasibility,
    grid_worst_case,
    parse_scenario,
    posterior_predictive_discrete,
    run_bootstrap,
    survival_probability,
    sweep,
    worst_case_survival,
)

TOL = 1e-10
GRID_K = 1000
MP_SAMPLE = 32
MP_DPS = 40
# log(-x) for x = log(1 - q) spans [-80, 12]: 1 - q from exp(-1.6e5) to 1 - 1e-35.
_MP_Y_RANGE = (-80, 12)
# One-sided normal tail mass beyond 5 sigma.
FIVE_SIGMA_TAIL = 2.866515718791939e-07


def mp_minimum(p_nf: float, r: int, n: int):
    """Exact infimum over q in [0, 1] of the point-prior predictive.

    The degenerate corners have closed forms; otherwise golden-section
    search over y = log(-x), x = log(1 - q), on which the predictive is
    unimodal.
    """
    if n == 0 or p_nf == 1.0:
        return mp.mpf(1)
    if r == 0:
        return mp.mpf(p_nf)
    if p_nf == 0.0:
        return mp.mpf(0)
    with mp.workdps(MP_DPS):
        a = mp.mpf(p_nf)
        b = 1 - a

        def g(y):
            x = -mp.exp(y)
            return (a + b * mp.exp((r + n) * x)) / (a + b * mp.exp(r * x))

        inv_phi = (mp.sqrt(5) - 1) / 2
        lo, hi = (mp.mpf(v) for v in _MP_Y_RANGE)
        c, d = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
        gc, gd = g(c), g(d)
        for _ in range(110):
            if gc < gd:
                hi, d, gd = d, c, gc
                c = hi - inv_phi * (hi - lo)
                gc = g(c)
            else:
                lo, c, gc = c, d, gd
                d = lo + inv_phi * (hi - lo)
                gd = g(d)
        return min(gc, gd)


def bound_errors(p_nf: float, r: int, n: int, bound: float) -> list[str]:
    errors = []
    if not p_nf <= bound <= 1.0:
        errors.append(f"bound {bound!r} outside [floor {p_nf!r}, 1] at r={r} n={n}")
    grid = float(grid_worst_case(p_nf, r, n, GRID_K).lower_bound)
    if bound > grid + TOL:
        errors.append(f"bound {bound!r} above grid oracle {grid!r} at p_nf={p_nf!r} r={r} n={n}")
    return errors


def mp_errors(p_nf: float, r: int, n: int, bound: float) -> list[str]:
    exact = mp_minimum(p_nf, r, n)
    if bound > exact + TOL:
        return [f"bound {bound!r} above mpmath minimum {mp.nstr(exact, 17)} "
                f"at p_nf={p_nf!r} r={r} n={n}"]
    return []


def _monotone_errors(values, axis: int, sign: int, what: str) -> list[str]:
    step = sign * np.diff(values, axis=axis)
    if step.size and step.min() < -TOL:
        return [f"bound not monotone in {what}: step {float(step.min()):.3g}"]
    return []


def sweep_cells(op: dict):
    return [(p, r, n) for p in op["p_nf"] for r in op["r"] for n in op["n"]]


def check_sweep(op: dict, rows) -> list[str]:
    cells = sweep_cells(op)
    if [(row.p_nf, row.r, row.n) for row in rows] != cells:
        return ["rows do not echo the grid cells in order"]
    errors = []
    for (p, r, n), row in zip(cells, rows):
        errors += bound_errors(p, r, n, row.lower_bound)
    bounds = np.array([row.lower_bound for row in rows]).reshape(
        len(op["p_nf"]), len(op["r"]), len(op["n"])
    )
    errors += _monotone_errors(bounds, 0, 1, "p_nf")
    errors += _monotone_errors(bounds, 1, 1, "r")
    errors += _monotone_errors(bounds, 2, -1, "n")
    return errors


def fleet_cells(op: dict, result):
    """(p_nf, r, n, bound) for every bound of a bootstrap run, windows first."""
    trace, _ = result
    cells = [(op["p_nf"], w.accumulated_evidence, w.window_demands, float(w.prediction.lower_bound))
             for w in trace.windows]
    cells += [(op["p_nf"], w.accumulated_evidence, w.remaining_lifetime.n,
               float(w.remaining_lifetime.lower_bound))
              for w in trace.windows if w.remaining_lifetime is not None]
    return cells


def check_fleet(op: dict, result) -> list[str]:
    trace, verdict = result
    windows = trace.windows
    errors = []
    if len(windows) != op["window_count"]:
        errors.append(f"{len(windows)} windows, expected {op['window_count']}")
    if op["include_remaining_lifetime"] != all(w.remaining_lifetime is not None for w in windows):
        errors.append("remaining-lifetime predictions missing or unexpected")
    r = op["initial_evidence"]
    remaining = sum(w.window_demands for w in windows)
    threshold = op["confidence_threshold"]
    for w in windows:
        if w.accumulated_evidence != r:
            errors.append(f"window {w.window_index}: evidence {w.accumulated_evidence}, expected {r}")
        if w.window_demands != w.fleet_size * op["demands_per_aircraft_per_window"]:
            errors.append(f"window {w.window_index}: demands do not match the fleet size")
        if w.remaining_lifetime is not None and w.remaining_lifetime.n != remaining:
            errors.append(f"window {w.window_index}: lifetime horizon {w.remaining_lifetime.n}")
        if w.meets_threshold != (w.prediction.lower_bound >= threshold):
            errors.append(f"window {w.window_index}: meets_threshold disagrees with its bound")
        r += w.window_demands
        remaining -= w.window_demands
    for p, r_w, n_w, bound in fleet_cells(op, result):
        errors += bound_errors(p, r_w, n_w, bound)
    # r grows along the chain, so a window's bound cannot drop unless its n grew.
    for prev, cur in zip(windows, windows[1:]):
        if (cur.window_demands <= prev.window_demands
                and cur.prediction.lower_bound < prev.prediction.lower_bound - TOL):
            errors.append(f"window {cur.window_index}: bound dropped with more evidence")
        if (cur.remaining_lifetime is not None
                and cur.remaining_lifetime.lower_bound < prev.remaining_lifetime.lower_bound - TOL):
            errors.append(f"window {cur.window_index}: lifetime bound dropped")
    passes = [w.meets_threshold for w in windows]
    margins = [float(w.prediction.lower_bound) - threshold for w in windows]
    expected = (all(passes), None if all(passes) else passes.index(False),
                trace.cumulative_demands, min(margins) if margins else None)
    got = (verdict.all_windows_pass, verdict.first_failing_window,
           verdict.final_cumulative_demands, verdict.minimum_margin)
    if got != expected or trace.cumulative_demands != r - op["initial_evidence"]:
        errors.append(f"feasibility verdict {got} disagrees with the windows {expected}")
    return errors


def _binomial_tails(k: int, trials: int, p: float) -> tuple[float, float]:
    """P(X <= k) and P(X >= k) for X ~ Binomial(trials, p)."""
    if p <= 0.0 or p >= 1.0:
        point = float(k == (0 if p <= 0.0 else trials))
        return (1.0 if p <= 0.0 or k >= trials else point), (1.0 if p >= 1.0 or k <= 0 else point)
    logs = [math.lgamma(trials + 1) - math.lgamma(j + 1) - math.lgamma(trials - j + 1)
            + j * math.log(p) + (trials - j) * math.log1p(-p) for j in range(trials + 1)]
    pmf = [math.exp(v) for v in logs]
    return math.fsum(pmf[: k + 1]), math.fsum(pmf[k:])


def check_monte_carlo(op: dict, estimate) -> list[str]:
    """Within 5 SE of the closed form, SE taken at the closed-form value.

    Where few failures or survivors are expected the normal band is too
    narrow (one failure at an expected 0.01 lies 10 SE out), so an estimate
    outside it still passes when its exact binomial tail is no rarer than a
    5-sigma normal tail.
    """
    if isinstance(estimate, str):
        return [estimate]
    trials = op["trials"]
    if estimate.trials != trials or estimate.seed != op["seed"]:
        return ["estimate does not echo its trials and seed"]
    p = float(survival_probability(MixtureModel(op["p_nf"], op["q"]), op["n"]))
    se = math.sqrt(p * (1.0 - p) / trials)
    if abs(estimate.estimate - p) <= 5.0 * se:
        return []
    survivors = round(estimate.estimate * trials)
    low, high = _binomial_tails(survivors, trials, p)
    if min(low, high) >= FIVE_SIGMA_TAIL:
        return []
    return [f"estimate {estimate.estimate!r} is {abs(estimate.estimate - p) / se:.1f} SE "
            f"from {p!r} (n={op['n']}, q={op['q']!r})"]


def _g12(value: float) -> str:
    return f"{float(value):.12g}"


_PREDICT_LINE = re.compile(
    r"^\s*(?:lower bound|worst-case q|excess over floor|supplied-prior predictive)\s*:\s*(\S+)",
    re.M,
)
_SURVIVAL_LINE = re.compile(r"^\s*n = (\d+): (\S+)", re.M)
_ASSESS_LINE = re.compile(r"^whole-standard p_nf: (\S+)", re.M)
SWEEP_HEADER = ["p_nf", "r", "n", "lower_bound", "worst_case_q", "excess_over_floor"]
BOOTSTRAP_HEADER = ["window", "fleet_size", "window_demands", "accumulated_r",
                    "lower_bound", "worst_case_q", "meets_threshold"]


def expected_cli(op: dict):
    """(exit code, printed numbers, CSV rows) the library gives for ``op``."""
    if op["expect_exit"] is not None:
        return op["expect_exit"], None, None
    scenario = parse_scenario(op["scenario"])
    kind = op["kind"]
    if kind == "predict":
        p, r = float(scenario.model.p_nf), scenario.evidence.r
        printed = []
        for n in scenario.query.values():
            pred = worst_case_survival(p, r, n)
            printed += [_g12(pred.lower_bound), _g12(pred.worst_case_q),
                        _g12(pred.excess_over_floor)]
            if scenario.prior is not None:
                printed.append(_g12(posterior_predictive_discrete(scenario.prior, r, n)))
        return 0, printed, None
    if kind == "survival":
        model = scenario.model.mixture()
        return 0, [(str(n), _g12(survival_probability(model, n)))
                   for n in scenario.query.values()], None
    if kind == "assess":
        spec = scenario.assessment
        return 0, [_g12(aggregate_fault_freeness(spec.groups, spec.mode))], None
    if kind == "sweep":
        g = scenario.sweep
        rows = [[repr(row.p_nf), str(row.r), str(row.n), repr(row.lower_bound),
                 repr(row.worst_case_q), repr(row.excess_over_floor)]
                for row in sweep(list(g.p_nf), list(g.r), list(g.n))]
        return 0, None, [SWEEP_HEADER] + rows
    if kind == "bootstrap":
        trace = run_bootstrap(scenario.bootstrap)
        rows = [[str(w.window_index), str(w.fleet_size), str(w.window_demands),
                 str(w.accumulated_evidence), repr(float(w.prediction.lower_bound)),
                 repr(float(w.prediction.worst_case_q)), "true" if w.meets_threshold else "false"]
                for w in trace.windows]
        code = 0 if check_feasibility(trace).all_windows_pass else 1
        return code, None, [BOOTSTRAP_HEADER] + rows
    raise ValueError(kind)


def check_cli(op: dict, result, expected) -> list[str]:
    code, stdout, csv_text = result
    want_code, want_printed, want_rows = expected
    errors = []
    if code != want_code:
        errors.append(f"exit code {code}, expected {want_code}")
    if want_printed is not None:
        pattern = {"predict": _PREDICT_LINE, "survival": _SURVIVAL_LINE,
                   "assess": _ASSESS_LINE}[op["kind"]]
        printed = pattern.findall(stdout)
        if printed != want_printed:
            errors.append(f"printed {printed}, library gives {want_printed}")
    if want_rows is not None:
        rows = list(csv.reader(io.StringIO(csv_text or "")))
        if rows != want_rows:
            errors.append("CSV differs from the library result")
    return errors


def check(workload: str, ops: list[dict], results: dict, rng: np.random.Generator,
          mp_sample: list | None = None) -> dict[int, list[str]]:
    """Violations per pool op for the first result of every op that ran.

    ``mp_sample`` lists (op index, cell index) pairs to compare against the
    mpmath minimum; by default MP_SAMPLE of them are drawn from ``rng``.
    """
    errors: dict[int, list[str]] = {}
    cells: list[tuple[int, int, tuple]] = []
    expected_cli_cache: dict[int, tuple] = {}
    for i, result in results.items():
        try:
            if workload == "sweep-grid":
                errors[i] = check_sweep(ops[i], result)
                cells += [(i, j, (p, r, n, row.lower_bound))
                          for j, ((p, r, n), row) in enumerate(zip(sweep_cells(ops[i]), result))]
            elif workload == "fleet-bootstrap":
                errors[i] = check_fleet(ops[i], result)
                cells += [(i, j, c) for j, c in enumerate(fleet_cells(ops[i], result))]
            elif workload == "monte-carlo":
                errors[i] = check_monte_carlo(ops[i], result)
            else:
                if i not in expected_cli_cache:
                    expected_cli_cache[i] = expected_cli(ops[i])
                errors[i] = check_cli(ops[i], result, expected_cli_cache[i])
        except Exception as exc:  # a crash in checking is a failed op, not a crashed benchmark
            errors[i] = [f"check raised {type(exc).__name__}: {exc}"]
    if cells:
        by_key = {(i, j): c for i, j, c in cells}
        if mp_sample is None:
            picks = rng.choice(len(cells), size=min(MP_SAMPLE, len(cells)), replace=False)
            mp_sample = [cells[k][:2] for k in picks]
        for key in mp_sample:
            errors[key[0]] += mp_errors(*by_key[key])
    return errors
