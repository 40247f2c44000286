"""Two-component reliability model for demand-based software failure.

The software is fault-free with probability ``p_nf`` (in which case it never
fails); otherwise every demand fails independently with probability
``p_f_given_faulty``.  Everything downstream of this package reduces to the
probability of surviving a run of independent demands under that mixture, so
the powers ``(1 - q)**k`` are evaluated in the log domain, accurate for q near
0 and any count below 2**1022; the README gives the domain the tests cover.
Probabilities and counts are plain floats and ints, validated where they enter
by ``check_probability`` and ``check_demand_count``.
"""

from __future__ import annotations

import math
import operator
import reprlib
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

__all__ = [
    "MixtureModel",
    "MonteCarloEstimate",
    "InfeasibleScaleError",
    "check_probability",
    "check_demand_count",
    "pfd",
    "survival_probability",
    "monte_carlo_survival",
]

# Trials drawn per vectorized chunk in the Monte Carlo sampler (memory bound).
_TRIAL_CHUNK = 1 << 20

# numpy's geometric draws saturate here, so `first failure > n` is exact only below it.
_GEOMETRIC_CAP = 2**63 - 1
_COUNT_CAP = 2**1022  # demand counts stay below it, so r + n converts to a float
_SHORT = reprlib.Repr()  # values in messages: top level only, 4 items of 24 characters
_SHORT.maxlevel, _SHORT.maxlist, _SHORT.maxtuple, _SHORT.maxdict, _SHORT.maxset = 1, 4, 4, 2, 4
_SHORT.maxstring = _SHORT.maxlong = _SHORT.maxother = 24


class InfeasibleScaleError(ValueError):
    """A simulation was requested at a scale the sampler cannot resolve."""


def _count_text(n: int) -> str:
    """n for a message: whole up to 20 digits, else by its bit length."""
    if abs(n) < 10**20:
        return str(n)
    return f"a {'negative ' if n < 0 else ''}{n.bit_length()}-bit integer"


def check_probability(value: float) -> float:
    """Validate a probability: float(value) finite and in [0, 1]; -0.0 comes back as 0.0."""
    v = float(value)
    if not math.isfinite(v) or not 0.0 <= v <= 1.0:
        raise ValueError(f"probability must be finite and in [0, 1], got {value!r}")
    return 0.0 if v == 0.0 else v  # -0.0 would print as "-0"


def check_demand_count(value: int, name: str = "count") -> int:
    """Validate a demand count: an integer in [0, 2**1022), so r + n converts to a float."""
    if isinstance(value, bool):  # an int subclass, but never a count
        raise TypeError(f"{name} must be an integer, got {value!r}")
    try:
        n = operator.index(value)
    except TypeError:
        raise TypeError(f"{name} must be an integer, got {value!r}") from None
    if n < 0:
        raise ValueError(f"{name} must be >= 0, got {_count_text(n)}")
    if n >= _COUNT_CAP:
        raise ValueError(f"{name} must be < 2**1022, got {_count_text(n)}")
    return n


def _check_positive_count(value: int, name: str) -> int:
    """check_demand_count, for a count that must also be at least 1."""
    if (n := check_demand_count(value, name)) < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return n


def _store_count(record: object, name: str, check: Callable = _check_positive_count) -> int:
    object.__setattr__(record, name, n := check(getattr(record, name), name))
    return n


@dataclass(frozen=True)
class MixtureModel:
    """Fault-freeness confidence plus the per-demand failure probability if faulty."""

    p_nf: float
    p_f_given_faulty: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_nf", check_probability(self.p_nf))
        object.__setattr__(self, "p_f_given_faulty", check_probability(self.p_f_given_faulty))


class MonteCarloEstimate(NamedTuple):
    """Survival fraction from simulation, with its binomial standard error."""

    estimate: float
    standard_error: float
    trials: int
    seed: int


def pfd(model: MixtureModel) -> float:
    """Unconditional probability of failure on a single demand.

    Fault-free software never fails, so only the faulty branch contributes:
    ``p_f_given_faulty * (1 - p_nf)``.
    """
    return check_probability(model.p_f_given_faulty * (1.0 - model.p_nf))


def survival_probability(model: MixtureModel, n: int) -> float:
    """Probability of surviving n independent demands without failure.

    ``p_nf + (1 - p_nf) * (1 - p_f_given_faulty)**n``.  The first term is a
    floor independent of n; the second decays geometrically.
    """
    n = check_demand_count(n, "n")
    if n == 0:
        return 1.0
    q = model.p_f_given_faulty
    survive = 0.0 if q == 1.0 else math.exp(n * math.log1p(-q))
    return check_probability(model.p_nf + (1.0 - model.p_nf) * survive)


def monte_carlo_survival(
    model: MixtureModel,
    n: int,
    trials: int,
    seed: int,
) -> MonteCarloEstimate:
    """Estimate the n-demand survival probability by simulating the mixture.

    Each trial first decides fault-freeness (probability ``p_nf``).  A faulty
    trial then draws the index of its first failing demand from
    ``Geometric(p_f_given_faulty)`` and survives iff that index exceeds n.
    This is the distribution of n independent demands, at O(trials) cost for
    any n, and it never evaluates ``(1 - q)**n``, so it stays an independent
    check of :func:`survival_probability`.

    Randomness comes from numpy's PCG64 generator seeded with ``seed``, so
    results are reproducible bit-for-bit on a given platform.

    Raises:
        InfeasibleScaleError: if n >= 2**63 - 1, where numpy's int64
            geometric draws saturate and can no longer exceed n.
    """
    n = check_demand_count(n, "n")
    trials = _check_positive_count(trials, "trials")
    if n >= _GEOMETRIC_CAP:
        raise InfeasibleScaleError(
            f"n must be < 2**63 - 1, where geometric draws saturate, got {_count_text(n)}"
        )

    rng = np.random.default_rng(seed)
    p_nf, q = model.p_nf, model.p_f_given_faulty

    survivors = 0
    for start in range(0, trials, _TRIAL_CHUNK):
        size = min(_TRIAL_CHUNK, trials - start)
        faulty = int((rng.random(size) >= p_nf).sum())
        survivors += size - faulty
        if n == 0 or q == 0.0:  # geometric(0) raises; no demand can fail
            survivors += faulty
        else:
            survivors += int((rng.geometric(q, faulty) > n).sum())

    estimate = survivors / trials
    stderr = math.sqrt(estimate * (1.0 - estimate) / trials)
    return MonteCarloEstimate(estimate=estimate, standard_error=stderr, trials=trials, seed=seed)
