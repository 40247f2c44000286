"""Fleet bootstrap walkthrough.

Runs the shipped growing-fleet scenario with remaining-lifetime predictions
enabled, to show the core effect: a conservative bound over the whole
remaining lifetime starts hopeless, while the per-window bound clears the
threshold from the first window and keeps climbing as evidence accumulates.
"""

from dataclasses import replace
from pathlib import Path

from certbound import check_feasibility, parse_scenario, run_bootstrap

SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "fleet_bootstrap.yaml"


def main() -> None:
    fleet = parse_scenario(SCENARIO).bootstrap
    fleet = replace(fleet, include_remaining_lifetime=True)
    trace = run_bootstrap(fleet)
    verdict = check_feasibility(trace)

    print(f"assessed p_nf {fleet.p_nf}, threshold {fleet.confidence_threshold}, "
          f"starting evidence r = {fleet.initial_evidence}")
    print(f"{'window':>6} {'fleet':>6} {'demands':>10} {'r so far':>12} "
          f"{'window bound':>14} {'lifetime bound':>15} {'pass':>5}")
    print("-" * 75)
    for w in trace.windows:
        print(
            f"{w.window_index:>6} {w.fleet_size:>6} {w.window_demands:>10} "
            f"{w.accumulated_evidence:>12} {w.prediction.lower_bound:>14.8f} "
            f"{w.remaining_lifetime.lower_bound:>15.8f} "
            f"{'yes' if w.meets_threshold else 'NO':>5}"
        )

    print("-" * 75)
    print(f"cumulative demands: {trace.cumulative_demands:,}")
    if verdict.all_windows_pass:
        print(f"every window clears the threshold (minimum margin {verdict.minimum_margin:.2e})")
    else:
        print(f"first miss at window {verdict.first_failing_window}")
    first, last = trace.windows[0], trace.windows[-1]
    print(
        f"note: up front, the whole-lifetime bound exceeds the bare p_nf floor by only "
        f"{first.remaining_lifetime.excess_over_floor:.1e} - the initial evidence is "
        f"nearly worthless at that exposure - while the first window already has a "
        f"{first.prediction.excess_over_floor:.1e} margin; by the last window the "
        f"bootstrapped evidence has lifted the bound to "
        f"{last.prediction.lower_bound:.6f}."
    )


if __name__ == "__main__":
    main()
