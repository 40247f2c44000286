"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line (run with -s to stream them).

All randomized cases use fixed seeds so the suite is deterministic.
"""

import csv
import math
import time
from pathlib import Path

import mpmath as mp
import numpy as np

from certbound.assessment import ASSURANCE_LEVEL_OBJECTIVES, aggregate_fault_freeness
from certbound.cli import BOOTSTRAP_CSV_HEADER, SWEEP_CSV_HEADER, main
from certbound.fleet import check_feasibility, run_bootstrap
from certbound.inference import (
    DiscretePrior,
    grid_worst_case,
    posterior_predictive_discrete,
    sweep,
    worst_case_survival,
)
from certbound.assessment import ObjectiveGroupAssessment
from certbound.reliability import MixtureModel, monte_carlo_survival, survival_probability
from certbound.scenario import parse_scenario, serialize_scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


def groups_from(ps):
    return [
        ObjectiveGroupAssessment(group_id=f"g{i}", objective_count=1, p_no_fault=p)
        for i, p in enumerate(ps)
    ]


def report(number: int, name: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f"  [{detail}]" if detail and not ok else ""
    print(f"ACCEPTANCE {number} {name}: {status}{suffix}")


def optimizer_cases():
    """The randomized cases shared by criteria 3 and 5."""
    rng = np.random.default_rng(42)
    cases = []
    for _ in range(100):
        p_nf = 1.0 - 10.0 ** rng.uniform(-6, math.log10(0.5))
        r = 0 if rng.random() < 0.05 else int(10.0 ** rng.uniform(0, 6))
        n = int(10.0 ** rng.uniform(0, 9))
        cases.append((p_nf, r, n))
    return cases


def test_criterion_1_floor_recovery():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(50):
        p_nf = rng.uniform(0.0, 1.0)
        n = int(10.0 ** rng.uniform(0, 9))
        pred = worst_case_survival(p_nf, 0, n)
        worst = max(worst, abs(float(pred.lower_bound) - p_nf))
    ok = worst <= 1e-12
    report(1, "floor recovery at r=0", ok, f"max deviation {worst:.3e}")
    assert ok, f"max deviation from floor {worst:.3e} > 1e-12"


def test_criterion_2_worst_case_dominance():
    rng = np.random.default_rng(2)
    violations = []
    for i in range(1000):
        p_nf = rng.uniform(0.0, 1.0)
        k = int(rng.integers(1, 21))
        qs = 10.0 ** rng.uniform(-8, 0, size=k)
        raw = rng.exponential(size=k)
        weights = raw / raw.sum() * (1.0 - p_nf)
        prior = DiscretePrior(p_nf=p_nf, atoms=tuple(zip(qs, weights)))
        r = int(rng.integers(0, 10**6 + 1))
        n = int(rng.integers(0, 10**6 + 1))
        exact = posterior_predictive_discrete(prior, r, n)
        bound = worst_case_survival(p_nf, r, n).lower_bound
        if exact < bound - 1e-9:
            violations.append((p_nf, r, n, float(exact), float(bound)))
    ok = not violations
    report(2, "worst-case dominance over discrete priors", ok, f"{len(violations)} violations")
    assert ok, f"dominance violated on {violations[:3]}"


def test_criterion_3_optimizer_matches_grid_oracle():
    worst = 0.0
    for p_nf, r, n in optimizer_cases():
        pred = worst_case_survival(p_nf, r, n)
        oracle = grid_worst_case(p_nf, r, n, 10**6)
        worst = max(worst, abs(float(pred.lower_bound) - float(oracle.lower_bound)))
    ok = worst <= 1e-6
    report(3, "optimizer vs 10^6-point grid", ok, f"max gap {worst:.3e}")
    assert ok, f"max optimizer-grid gap {worst:.3e} > 1e-6"


def test_criterion_4_monte_carlo_agreement():
    rng = np.random.default_rng(4)
    outliers = 0
    for i in range(50):
        p_nf = rng.uniform(0.2, 0.95)
        q = 10.0 ** rng.uniform(-3, math.log10(0.5))
        n = int(rng.integers(1, 10**3 + 1))
        model = MixtureModel(p_nf, q)
        mc = monte_carlo_survival(model, n, trials=10**6, seed=40_000 + i)
        analytic = survival_probability(model, n)
        if abs(float(analytic) - mc.estimate) > 3.0 * mc.standard_error:
            outliers += 1
    ok = outliers <= 2
    report(4, "analytic survival within 3 SE of Monte Carlo", ok, f"{outliers} outliers")
    assert ok, f"{outliers} of 50 cases beyond 3 standard errors (tolerance 2)"


def test_criterion_5_interior_minimizers_are_stationary():
    worst = 0.0
    checked = 0
    for p_nf, r, n in optimizer_cases():
        pred = worst_case_survival(p_nf, r, n)
        q = float(pred.worst_case_q)
        if not 0.0 < q < 1.0:
            continue
        checked += 1
        a = mp.mpf(p_nf)
        u = 1 - mp.mpf(q)
        lhs = a * (r + n) * mp.power(u, n) + (1 - a) * n * mp.power(u, r + n)
        worst = max(worst, float(abs(lhs - a * r) / (a * r)))
    ok = worst <= 1e-6 and checked > 0
    report(5, "stationarity of interior minimizers", ok,
           f"{checked} interior cases, max residual {worst:.3e}")
    assert checked > 0
    assert ok, f"max relative stationarity residual {worst:.3e} > 1e-6"


def test_criterion_6_evidence_vs_exposure():
    p_nf, n = 0.9, 10**4
    r_values = [0, 10**3, 10**4, 10**5]
    grid_bounds = [float(grid_worst_case(p_nf, r, n, 10**6).lower_bound) for r in r_values]
    opt_bounds = [float(worst_case_survival(p_nf, r, n).lower_bound) for r in r_values]

    strictly_increasing = all(b > a for a, b in zip(grid_bounds, grid_bounds[1:]))
    floor_at_zero = abs(grid_bounds[0] - p_nf) <= 1e-12
    big_excess = grid_bounds[-1] >= p_nf + 1e-3
    agree = all(abs(g - o) <= 1e-6 for g, o in zip(grid_bounds, opt_bounds))
    ok = strictly_increasing and floor_at_zero and big_excess and agree
    report(6, "bound strictly grows with evidence", ok,
           f"bounds {[f'{b:.6f}' for b in grid_bounds]}")
    assert strictly_increasing, grid_bounds
    assert floor_at_zero, grid_bounds[0]
    assert big_excess, grid_bounds[-1] - p_nf
    assert agree


def test_criterion_7_bootstrap_at_fleet_scale():
    fleet = parse_scenario(SCENARIOS / "fleet_bootstrap.yaml").bootstrap
    start = time.monotonic()
    trace = run_bootstrap(fleet)
    elapsed = time.monotonic() - start
    verdict = check_feasibility(trace)

    scale = trace.cumulative_demands >= 10**8
    fast = elapsed < 10.0
    confident = all(float(w.prediction.lower_bound) >= 0.99 for w in trace.windows)
    exact_accounting = all(
        nxt.accumulated_evidence - cur.accumulated_evidence == cur.window_demands
        for cur, nxt in zip(trace.windows, trace.windows[1:])
    ) and trace.cumulative_demands == sum(w.window_demands for w in trace.windows)
    ok = scale and fast and confident and exact_accounting and verdict.all_windows_pass
    report(7, "fleet bootstrap reaches 10^8 demands", ok,
           f"cumulative {trace.cumulative_demands}, {elapsed:.2f}s")
    assert scale, trace.cumulative_demands
    assert fast, elapsed
    assert confident
    assert exact_accounting
    assert verdict.all_windows_pass


def test_criterion_8_presets_and_aggregation_ordering():
    presets_ok = [ASSURANCE_LEVEL_OBJECTIVES[l] for l in "ABCD"] == [71, 69, 62, 26]
    rng = np.random.default_rng(8)
    ordering_ok = True
    for _ in range(200):
        size = int(rng.integers(1, 11))
        ps = [
            rng.uniform(0.9, 1.0) if rng.random() < 0.5 else rng.uniform(0.0, 1.0)
            for _ in range(size)
        ]
        groups = groups_from(ps)
        conservative = aggregate_fault_freeness(groups, "conservative")
        independent = aggregate_fault_freeness(groups, "independent")
        if not (conservative <= independent + 1e-12 and independent <= min(ps) + 1e-12):
            ordering_ok = False
            break
    ok = presets_ok and ordering_ok
    report(8, "level presets and aggregation ordering", ok)
    assert presets_ok
    assert ordering_ok


def test_criterion_9_cli_equivalence_and_round_trip(capsys, tmp_path):
    shipped = sorted(SCENARIOS.glob("*.yaml"))
    round_trip_ok = True
    for path in shipped:
        first = parse_scenario(path)
        copy = tmp_path / f"rt_{path.name}"
        copy.write_text(serialize_scenario(first), encoding="utf-8")
        if parse_scenario(copy) != first:
            round_trip_ok = False

    sweep_csv = tmp_path / "sweep.csv"
    assert main(["sweep", "--scenario", str(SCENARIOS / "sweep_grid.yaml"),
                 "--csv", str(sweep_csv)]) == 0
    grids = parse_scenario(SCENARIOS / "sweep_grid.yaml").sweep
    expected = sweep(list(grids.p_nf), list(grids.r), list(grids.n))
    with sweep_csv.open(newline="") as fh:
        rows = list(csv.reader(fh))
    sweep_ok = rows[0] == SWEEP_CSV_HEADER and len(rows) == len(expected) + 1
    for row, cell in zip(rows[1:], expected):
        sweep_ok = sweep_ok and abs(float(row[3]) - cell.lower_bound) <= 1e-12
        sweep_ok = sweep_ok and abs(float(row[4]) - cell.worst_case_q) <= 1e-12

    trace_csv = tmp_path / "trace.csv"
    assert main(["bootstrap", "--scenario", str(SCENARIOS / "fleet_bootstrap.yaml"),
                 "--csv", str(trace_csv)]) == 0
    fleet = parse_scenario(SCENARIOS / "fleet_bootstrap.yaml").bootstrap
    trace = run_bootstrap(fleet)
    with trace_csv.open(newline="") as fh:
        rows = list(csv.reader(fh))
    boot_ok = rows[0] == BOOTSTRAP_CSV_HEADER and len(rows) == len(trace.windows) + 1
    for row, window in zip(rows[1:], trace.windows):
        boot_ok = boot_ok and abs(float(row[4]) - float(window.prediction.lower_bound)) <= 1e-12

    capsys.readouterr()  # drop subcommand output
    ok = round_trip_ok and sweep_ok and boot_ok
    report(9, "CLI equivalence and scenario round-trip", ok)
    assert round_trip_ok
    assert sweep_ok
    assert boot_ok
