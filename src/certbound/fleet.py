"""Windowed fleet operation with bootstrapped certification confidence.

Certification evidence rarely covers a type's whole lifetime up front:
confidence is needed only for the next operating window, and each window
survived failure-free becomes evidence for the next, larger one.  This
module simulates that loop: per window, the fleet flies a known number of
demands, the conservative bound for that window is computed from the
evidence accumulated so far, and - the simulation assumes failure-free
operation throughout - the window's demands are added to the evidence.

Windows are abstract; wall-clock duration never enters the arithmetic.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import accumulate
from typing import NamedTuple, Optional, Union

from .inference import SurvivalPrediction, _rows
from .reliability import _check_positive_count, _count_text, check_demand_count, check_probability

__all__ = [
    "ConstantGrowth",
    "LinearGrowth",
    "LogisticGrowth",
    "FleetGrowthModel",
    "FleetScenario",
    "WindowRecord",
    "BootstrapTrace",
    "FeasibilityVerdict",
    "run_bootstrap",
    "check_feasibility",
]


@dataclass(frozen=True)
class ConstantGrowth:
    """Fixed fleet size in every window."""

    initial_fleet: int

    kind = "constant"

    def __post_init__(self) -> None:
        _check_positive_count(self.initial_fleet, "initial_fleet")

    def fleet_size(self, window_index: int) -> int:
        return self.initial_fleet


@dataclass(frozen=True)
class LinearGrowth:
    """Fleet grows by a fixed number of aircraft per window."""

    initial_fleet: int
    added_per_window: int

    kind = "linear"

    def __post_init__(self) -> None:
        _check_positive_count(self.initial_fleet, "initial_fleet")
        check_demand_count(self.added_per_window, "added_per_window")

    def fleet_size(self, window_index: int) -> int:
        return self.initial_fleet + self.added_per_window * window_index


@dataclass(frozen=True)
class LogisticGrowth:
    """S-curve growth toward a carrying capacity, rounded to whole aircraft."""

    initial_fleet: int
    growth_rate: float
    carrying_capacity: int

    kind = "logistic"

    def __post_init__(self) -> None:
        _check_positive_count(self.initial_fleet, "initial_fleet")
        if not (math.isfinite(self.growth_rate) and self.growth_rate >= 0.0):
            raise ValueError(f"growth_rate must be finite and >= 0, got {self.growth_rate}")
        check_demand_count(self.carrying_capacity, "carrying_capacity")
        if self.carrying_capacity < self.initial_fleet:
            raise ValueError(
                f"carrying_capacity {_count_text(self.carrying_capacity)} below "
                f"initial_fleet {_count_text(self.initial_fleet)}"
            )

    def fleet_size(self, window_index: int) -> int:
        n0 = self.initial_fleet
        cap = self.carrying_capacity
        size = cap / (1.0 + (cap - n0) / n0 * math.exp(-self.growth_rate * window_index))
        return int(size + 0.5)  # aircraft are discrete; size > 0, so this rounds half up


FleetGrowthModel = Union[ConstantGrowth, LinearGrowth, LogisticGrowth]


@dataclass(frozen=True)
class FleetScenario:
    """Everything a bootstrap run needs: growth, demand rate, windows,
    assessed fault-freeness, starting evidence (a count of failure-free
    demands already observed), and the pass threshold.

    ``include_remaining_lifetime`` additionally records, at each window, the
    prediction over all demands remaining in the scenario, for comparison
    against the per-window bounds.
    """

    growth: FleetGrowthModel
    demands_per_aircraft_per_window: int
    window_count: int
    p_nf: float
    initial_evidence: int
    confidence_threshold: float
    include_remaining_lifetime: bool = False

    def __post_init__(self) -> None:
        _check_positive_count(self.demands_per_aircraft_per_window, "demands_per_aircraft_per_window")
        if check_demand_count(self.window_count, "window_count") > 10**5:  # ~450 B a window
            raise ValueError(f"window_count must be <= 100000, got {_count_text(self.window_count)}")
        check_demand_count(self.initial_evidence, "initial_evidence")
        object.__setattr__(self, "p_nf", check_probability(self.p_nf))
        object.__setattr__(self, "confidence_threshold", check_probability(self.confidence_threshold))


class WindowRecord(NamedTuple):
    """One window of the trace; ``accumulated_evidence`` is the evidence the
    window's prediction was computed from (before the window's own demands)."""

    window_index: int
    fleet_size: int
    window_demands: int
    accumulated_evidence: int
    prediction: SurvivalPrediction
    meets_threshold: bool
    remaining_lifetime: Optional[SurvivalPrediction] = None


class BootstrapTrace(NamedTuple):
    windows: tuple[WindowRecord, ...]
    cumulative_demands: int
    threshold: float


class FeasibilityVerdict(NamedTuple):
    all_windows_pass: bool
    first_failing_window: Optional[int]
    final_cumulative_demands: int
    minimum_margin: Optional[float]


def run_bootstrap(scenario: FleetScenario) -> BootstrapTrace:
    """Run every window, accumulating failure-free demands as evidence.

    Window w is predicted from the evidence r_w available before it starts;
    afterwards r_{w+1} = r_w + n_w.  A window that misses the confidence
    threshold is recorded as such; the run never halts early, since the
    point is to see whether confidence keeps pace with fleet growth.  The
    final evidence is checked against the count cap before any window is
    solved; then all windows are solved in one pass of the row kernel.
    """
    sizes = [scenario.growth.fleet_size(w) for w in range(scenario.window_count)]
    window_demands = [size * scenario.demands_per_aircraft_per_window for size in sizes]
    final = scenario.initial_evidence + sum(window_demands)
    check_demand_count(final, "initial_evidence + all window demands")
    evidence = list(accumulate(window_demands, initial=scenario.initial_evidence))[:-1]
    p_nfs = (scenario.p_nf,)
    predictions = _rows(p_nfs, zip(evidence, window_demands))
    lifetimes = (_rows(p_nfs, ((r, final - r) for r in evidence))
                 if scenario.include_remaining_lifetime else [None] * len(evidence))
    windows = zip(sizes, window_demands, evidence, predictions, lifetimes)
    threshold = scenario.confidence_threshold
    records = tuple(  # positionally, in field order: half the cost of keywords
        WindowRecord(w, size, n_w, r, prediction, prediction.lower_bound >= threshold, lifetime)
        for w, (size, n_w, r, prediction, lifetime) in enumerate(windows)
    )
    return BootstrapTrace(
        windows=records,
        cumulative_demands=final - scenario.initial_evidence,
        threshold=threshold,
    )


def check_feasibility(trace: BootstrapTrace) -> FeasibilityVerdict:
    """Summarize a trace: did every window clear its threshold, and by how much?"""
    failing = [w.window_index for w in trace.windows if not w.meets_threshold]
    margins = [w.prediction.lower_bound - trace.threshold for w in trace.windows]
    return FeasibilityVerdict(
        all_windows_pass=not failing,
        first_failing_window=failing[0] if failing else None,
        final_cumulative_demands=trace.cumulative_demands,
        minimum_margin=min(margins) if margins else None,
    )
