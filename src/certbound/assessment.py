"""Aggregate per-objective-group fault-freeness judgments into one number.

Judgments are elicited per group of assurance objectives ("given that this
group's objectives were all accomplished, how confident are we that no fault
of this kind exists?").  Combining groups needs a dependence assumption; the
two closed forms here bracket the plausible range:

* ``conservative``: the Frechet lower bound max(0, 1 - sum(1 - p_i)), which
  assumes nothing about dependence between fault kinds.
* ``independent``: the product of the group probabilities.

A structured belief-net backend could refine these; it is an extension
point, not implemented.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Literal

from .reliability import _SHORT, _check_positive_count, check_probability

__all__ = [
    "ObjectiveGroupAssessment",
    "ASSURANCE_LEVEL_OBJECTIVES",
    "aggregate_fault_freeness",
]

# DO-178C objective counts per software level.
ASSURANCE_LEVEL_OBJECTIVES = {"A": 71, "B": 69, "C": 62, "D": 26}

AggregationMode = Literal["conservative", "independent"]


@dataclass(frozen=True)
class ObjectiveGroupAssessment:
    """Confidence that no fault of one group's kind exists, given its
    objectives were accomplished."""

    group_id: str
    objective_count: int
    p_no_fault: float

    def __post_init__(self) -> None:
        if not self.group_id:
            raise ValueError("group_id must be non-empty")
        _check_positive_count(self.objective_count, "objective_count")
        object.__setattr__(self, "p_no_fault", check_probability(self.p_no_fault))


def aggregate_fault_freeness(
    groups: Iterable[ObjectiveGroupAssessment],
    mode: AggregationMode,
) -> float:
    """Whole-standard probability of fault-freeness from per-group judgments.

    ``conservative`` uses the Frechet lower bound, ``independent`` the plain
    product; the conservative result never exceeds the independent one.
    """
    groups = tuple(groups)
    if not groups:
        raise ValueError("groups must be non-empty")
    ids = [g.group_id for g in groups]
    if len(set(ids)) != len(ids):
        dupes = sorted({i for i in ids if ids.count(i) > 1})
        raise ValueError(f"duplicate group ids: {_SHORT.repr(dupes)}")
    if mode == "conservative":
        return check_probability(max(0.0, 1.0 - math.fsum(1.0 - g.p_no_fault for g in groups)))
    if mode == "independent":
        return check_probability(math.prod(g.p_no_fault for g in groups))
    raise ValueError(f"mode must be 'conservative' or 'independent', got {mode!r}")
