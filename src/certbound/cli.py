"""Command-line front end.

Subcommands map one-to-one onto library operations and add no arithmetic of
their own: ``predict`` (conservative worst-case bound), ``survival``
(mixture-model survival, with optional Monte Carlo cross-check),
``bootstrap`` (fleet simulation plus feasibility verdict), ``assess``
(objective-group aggregation) and ``sweep`` (grid of worst-case bounds).

Each subcommand reads its inputs either from ``--scenario`` or from inline
value flags, never both; inline values pass the same schema checks as a
scenario file before anything is printed.

Exit codes: 0 success; 1 a bootstrap verdict failed its threshold; 2 I/O
error (the scenario file or the --csv output); 3 scenario syntax error; 4
validation error; 5 usage error (bad or missing arguments, reported by
argparse).
"""

from __future__ import annotations

import argparse
import csv
import sys
from dataclasses import replace
from typing import Optional, Sequence

from .assessment import aggregate_fault_freeness
from .fleet import check_feasibility, run_bootstrap
from .inference import posterior_predictive_discrete, sweep
from .reliability import check_demand_count, monte_carlo_survival, survival_probability
from .scenario import (
    ScenarioFile,
    ScenarioSyntaxError,
    parse_scenario,
    scenario_from_mapping,
)

SWEEP_CSV_HEADER = ["p_nf", "r", "n", "lower_bound", "worst_case_q", "excess_over_floor"]
BOOTSTRAP_CSV_HEADER = [
    "window",
    "fleet_size",
    "window_demands",
    "accumulated_r",
    "lower_bound",
    "worst_case_q",
    "meets_threshold",
]

EXIT_THRESHOLD_MISS = 1
EXIT_IO_ERROR = 2
EXIT_SYNTAX_ERROR = 3
EXIT_VALIDATION_ERROR = 4
EXIT_USAGE_ERROR = 5


def format_probability(p: float) -> str:
    """12 significant digits, plus the distance from 0 or 1 when that close."""
    text = f"{p:.12g}"
    if 0.0 < p < 1e-6:
        text += f" (0 + {p:.3g})"
    elif 1.0 - 1e-6 < p < 1.0:
        text += f" (1 - {1.0 - p:.3g})"
    return text


def _resolve(args: argparse.Namespace) -> ScenarioFile:
    """The subcommand's inputs: the --scenario file, or else the inline value
    flags validated by the same schema.  Either way every section the
    subcommand reads is present."""
    given = [dest for dest in args.inline if getattr(args, dest) is not None]
    if args.scenario is not None:
        if given:
            flags = ", ".join("--" + dest.replace("_", "-") for dest in given)
            raise ValueError(f"--scenario cannot be combined with {flags}")
        scenario = parse_scenario(args.scenario)
    else:
        raw = {section: {} for section, _ in args.inline.values()}
        for dest in given:
            section, key = args.inline[dest]
            raw[section][key] = getattr(args, dest)
        scenario = scenario_from_mapping(raw)
    missing = [name for name in args.sections if getattr(scenario, name) is None]
    if missing:
        raise ValueError(f"{args.command}: the scenario lacks sections {missing}")
    return scenario


def _write_csv(path: str, header: list[str], rows: list[list]) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def cmd_predict(args: argparse.Namespace) -> int:
    scenario = _resolve(args)
    p_nf, r = scenario.model.p_nf, scenario.evidence.r
    if scenario.prior is not None and scenario.prior.p_nf != p_nf:
        raise ValueError(
            f"prior.p_nf ({scenario.prior.p_nf!r}) must equal model.p_nf ({p_nf!r}): "
            "the bound holds only for priors with the assessed fault-free mass"
        )

    lines = []
    for pred in sweep((p_nf,), (r,), scenario.query.values()):
        lines += [
            f"  n = {pred.n}:",
            f"    lower bound       : {format_probability(pred.lower_bound)}",
            f"    worst-case q      : {format_probability(pred.worst_case_q)}",
            f"    excess over floor : {pred.excess_over_floor:.12g}",
        ]
        if scenario.prior is not None:
            exact = posterior_predictive_discrete(scenario.prior, r, pred.n)
            lines.append(f"    supplied-prior predictive : {format_probability(exact)}")

    print("conservative prediction of failure-free operation")
    print(f"  assessed p_nf : {format_probability(p_nf)}")
    print(f"  evidence r    : {r}")
    print("\n".join(lines))
    return 0


def cmd_survival(args: argparse.Namespace) -> int:
    scenario = _resolve(args)
    model = scenario.model.mixture()
    for flag, value in (("--mc-trials", args.mc_trials), ("--seed", args.seed)):
        check_demand_count(value, flag)

    lines = []
    for n in scenario.query.values():
        lines.append(f"  n = {n}: {format_probability(survival_probability(model, n))}")
        if args.mc_trials:
            mc = monte_carlo_survival(model, n, trials=args.mc_trials, seed=args.seed)
            lines.append(
                f"    monte carlo ({mc.trials} trials, seed {mc.seed}): "
                f"{format_probability(mc.estimate)} +/- {mc.standard_error:.3g}"
            )

    print("survival probability under the two-component model")
    print(f"  p_nf             : {format_probability(model.p_nf)}")
    print(f"  p_f_given_faulty : {format_probability(model.p_f_given_faulty)}")
    print("\n".join(lines))
    return 0


def cmd_bootstrap(args: argparse.Namespace) -> int:
    # The table and CSV show no remaining_lifetime bounds, so none are solved.
    trace = run_bootstrap(replace(_resolve(args).bootstrap, include_remaining_lifetime=False))
    verdict = check_feasibility(trace)
    if args.csv:
        rows = [
            [
                w.window_index,
                w.fleet_size,
                w.window_demands,
                w.accumulated_evidence,
                repr(w.prediction.lower_bound),
                repr(w.prediction.worst_case_q),
                "true" if w.meets_threshold else "false",
            ]
            for w in trace.windows
        ]
        _write_csv(args.csv, BOOTSTRAP_CSV_HEADER, rows)

    print("fleet bootstrap run")
    print(f"  threshold           : {format_probability(trace.threshold)}")
    print(f"  cumulative demands  : {trace.cumulative_demands}")
    print(f"{'window':>6} {'fleet':>8} {'demands':>12} {'r_before':>14} "
          f"{'lower_bound':>18} {'meets':>6}")
    for w in trace.windows:
        print(
            f"{w.window_index:>6} {w.fleet_size:>8} {w.window_demands:>12} "
            f"{w.accumulated_evidence:>14} {w.prediction.lower_bound:>18.12f} "
            f"{'yes' if w.meets_threshold else 'NO':>6}"
        )
    if verdict.all_windows_pass:
        margin = verdict.minimum_margin
        print(f"verdict: all windows meet the threshold (minimum margin {margin:.12g})")
    else:
        print(f"verdict: window {verdict.first_failing_window} misses the threshold")
    if args.csv:
        print(f"wrote {args.csv}")
    return 0 if verdict.all_windows_pass else EXIT_THRESHOLD_MISS


def cmd_assess(args: argparse.Namespace) -> int:
    spec = _resolve(args).assessment
    result = aggregate_fault_freeness(spec.groups, spec.mode)
    objectives = sum(g.objective_count for g in spec.groups)
    print(f"assessed groups   : {len(spec.groups)} ({objectives} objectives)")
    for g in spec.groups:
        print(f"  {g.group_id:<12} p_no_fault = {format_probability(g.p_no_fault)}")
    print(f"aggregation mode  : {spec.mode}")
    print(f"whole-standard p_nf: {format_probability(result)}")
    return 0


def _comma_floats(text: str) -> list[float]:
    return [float(part) for part in text.split(",") if part != ""]


def _comma_ints(text: str) -> list[int]:
    return [int(part) for part in text.split(",") if part != ""]


def cmd_sweep(args: argparse.Namespace) -> int:
    grids = _resolve(args).sweep
    rows = sweep(grids.p_nf, grids.r, grids.n)
    if args.csv:
        _write_csv(
            args.csv,
            SWEEP_CSV_HEADER,
            [[repr(getattr(row, column)) for column in SWEEP_CSV_HEADER] for row in rows],
        )
    print(f"{'p_nf':>10} {'r':>12} {'n':>12} {'lower_bound':>18} {'worst_case_q':>14} {'excess':>12}")
    for row in rows:
        print(
            f"{row.p_nf:>10.6g} {row.r:>12} {row.n:>12} {row.lower_bound:>18.12f} "
            f"{row.worst_case_q:>14.6g} {row.excess_over_floor:>12.6g}"
        )
    if args.csv:
        print(f"wrote {args.csv}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports usage errors with EXIT_USAGE_ERROR, not argparse's 2, which is
    EXIT_IO_ERROR here.  Subparsers inherit the class."""

    def error(self, message: str):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE_ERROR, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="certbound",
        description="Conservative survival bounds for software certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("predict", help="worst-case conservative bound from p_nf, r and n")
    p.add_argument("--scenario", help="scenario file (model, evidence, query sections)")
    p.add_argument("--p-nf", dest="p_nf", type=float, help="assessed fault-freeness probability")
    p.add_argument("--r", type=int, help="observed failure-free demands")
    p.add_argument("--n", type=int, help="future demands to predict over")
    p.set_defaults(func=cmd_predict, sections=("model", "evidence", "query"),
                   inline={"p_nf": ("model", "p_nf"), "r": ("evidence", "r"), "n": ("query", "n")})

    p = sub.add_parser("survival", help="mixture-model survival probability")
    p.add_argument("--scenario", help="scenario file (model, query sections)")
    p.add_argument("--p-nf", dest="p_nf", type=float, help="fault-freeness probability")
    p.add_argument("--p-fail", dest="p_fail", type=float, help="per-demand failure probability if faulty")
    p.add_argument("--n", type=int, help="number of demands")
    p.add_argument("--mc-trials", dest="mc_trials", type=int, default=0,
                   help="also run a Monte Carlo cross-check with this many trials (0: off)")
    p.add_argument("--seed", type=int, default=0, help="Monte Carlo seed (>= 0)")
    p.set_defaults(func=cmd_survival, sections=("model", "query"),
                   inline={"p_nf": ("model", "p_nf"), "p_fail": ("model", "p_f_given_faulty"),
                           "n": ("query", "n")})

    p = sub.add_parser("bootstrap", help="run a fleet bootstrap scenario")
    p.add_argument("--scenario", required=True, help="scenario file with a bootstrap section")
    p.add_argument("--csv", help="write the per-window trace to this CSV file")
    p.set_defaults(func=cmd_bootstrap, sections=("bootstrap",), inline={})

    p = sub.add_parser("assess", help="aggregate objective-group judgments into p_nf")
    p.add_argument("--scenario", required=True, help="scenario file with an assessment section")
    p.set_defaults(func=cmd_assess, sections=("assessment",), inline={})

    p = sub.add_parser("sweep", help="worst-case bounds over a grid of p_nf, r, n")
    p.add_argument("--scenario", help="scenario file with a sweep section")
    p.add_argument("--p-nf", dest="p_nf", type=_comma_floats, help="comma-separated p_nf values")
    p.add_argument("--r", type=_comma_ints, help="comma-separated r values")
    p.add_argument("--n", type=_comma_ints, help="comma-separated n values")
    p.add_argument("--csv", help="write the sweep table to this CSV file")
    p.set_defaults(func=cmd_sweep, sections=("sweep",),
                   inline={"p_nf": ("sweep", "p_nf"), "r": ("sweep", "r"), "n": ("sweep", "n")})

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO_ERROR
    except ScenarioSyntaxError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX_ERROR
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_VALIDATION_ERROR


if __name__ == "__main__":
    sys.exit(main())
