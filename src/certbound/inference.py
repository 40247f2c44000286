"""Conservative posterior prediction of failure-free operation.

Given an assessed probability ``p_nf`` that the software is fault-free, and
``r`` observed failure-free demands, the probability of surviving ``n``
further demands depends on the unknown prior for the per-demand failure
probability of faulty software.  Among all priors that put mass ``p_nf`` on
the fault-free point, the one minimizing the posterior predictive is a
single point mass at some location q, so minimizing over q in [0, 1] yields
a bound that is guaranteed conservative whatever the true prior.

For a point mass at q the predictive is

    g(q) = (p_nf + (1 - p_nf) * (1 - q)**(r + n)) / (p_nf + (1 - p_nf) * (1 - q)**r)

The minimum is the root of a closed form in itself (see ``_rows``), safe for
demand counts up to 2**1022; ``posterior_predictive_discrete`` evaluates any
finite prior's predictive through its complement, to relative accuracy.
``grid_worst_case`` is a deliberately brute-force minimizer kept independent
of the optimizer so the two can check each other.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import Iterable

import numpy as np

from .reliability import _count_text, check_demand_count, check_probability

__all__ = [
    "DiscretePrior",
    "SurvivalPrediction",
    "worst_case_survival",
    "grid_worst_case",
    "posterior_predictive_discrete",
    "sweep",
]

# Brute-force oracle grid runs log-spaced over [_GRID_Q_MIN, 1] plus {0, 1}.
_GRID_Q_MIN = 1e-15
# Newton evaluations allowed per interior cell: 2.06 on average and 5 at most over perfbench's
# sweep-grid pools of seeds 1-3 and 201.  A step within _STEP_TOL is the last (see _rows).
_NEWTON_STEP_CAP = 1000
_STEP_TOL = 2.0**-27
_LOG2 = math.log(2.0)
_SWEEP_CELL_CAP = 10**6  # sweep holds every row, about 234 bytes each


@dataclass(frozen=True)
class DiscretePrior:
    """Finite mixture prior: mass ``p_nf`` on fault-freeness plus point atoms.

    ``atoms`` is a sequence of (q, weight) pairs with q in (0, 1] and positive
    weights; ``p_nf`` plus the total atom weight must equal 1 within 1e-12.
    """

    p_nf: float
    atoms: tuple[tuple[float, float], ...]

    def __post_init__(self) -> None:
        object.__setattr__(self, "p_nf", check_probability(self.p_nf))
        atoms = tuple((float(q), float(w)) for q, w in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        if not atoms and self.p_nf != 1.0:
            raise ValueError("atoms must be non-empty unless p_nf == 1")
        for q, w in atoms:
            if not 0.0 < q <= 1.0:
                raise ValueError(f"atom location must be in (0, 1], got {q}")
            if not (math.isfinite(w) and w > 0.0):
                raise ValueError(f"atom weight must be positive and finite, got {w}")
        total = self.p_nf + math.fsum(w for _, w in atoms)
        if abs(total - 1.0) > 1e-12:
            raise ValueError(f"p_nf + atom weights must sum to 1, got {total!r}")


@dataclass(frozen=True)
class SurvivalPrediction:
    """Conservative lower bound on surviving n further demands after r
    failure-free ones, with the q where the worst case lies.

    The fields are plain floats and ints in the sweep CSV's column order.
    ``p_nf`` is the floor: the bound is never below it.
    """

    p_nf: float
    r: int
    n: int
    lower_bound: float
    worst_case_q: float

    @property
    def excess_over_floor(self) -> float:
        return self.lower_bound - self.p_nf


# The row kernel's hot names; expm1 stays on math, where a test wraps it to read the root.
# _rows fills each record's __dict__: an item write assigns no attribute, so __setattr__ never runs.
_new, _exp, _log, _log1p = object.__new__, math.exp, math.log, math.log1p


@functools.lru_cache(maxsize=1)
def _oracle_grid(K: int) -> tuple[np.ndarray, np.ndarray]:
    """The oracle's q grid and log1p(-q) on it, read-only; kept for the last K."""
    qs = np.concatenate([[0.0], np.geomspace(_GRID_Q_MIN, 1.0, K - 1), [1.0]])
    with np.errstate(divide="ignore"):
        lu = np.log1p(-qs)  # -inf at q == 1
    qs.flags.writeable = lu.flags.writeable = False
    return qs, lu


def _log_predictive_vec(a: float, lu: np.ndarray, r: int, n: int) -> np.ndarray:
    """Vectorized log g over an array of x = log(1 - q), q in [0, 1]; n >= 1 assumed.

    At q == 1 with a == 0 and r >= 1 the entry is the q -> 1 limit (-inf).
    """
    if a == 0.0:
        return n * lu
    log_a = math.log(a)
    if a == 1.0:
        return np.zeros_like(lu)
    log_b = math.log1p(-a)
    log_num = np.logaddexp(log_a, log_b + (r + n) * lu)
    log_den = np.logaddexp(log_a, log_b + r * lu) if r > 0 else 0.0
    return log_num - log_den


def worst_case_survival(p_nf: float, r: int, n: int) -> SurvivalPrediction:
    """Minimum over q in [0, 1] of the point-prior predictive, with its location.

    This is the guaranteed-conservative bound: no prior consistent with the
    given p_nf can yield a lower posterior predictive survival probability.
    With r = 0 the minimum sits at q = 1 and equals the p_nf floor.  For
    p_nf in (0, 1) and r, n >= 1, g(0) = g(1) = 1 and g dips below 1 in
    between, where g'(q) = 0 has exactly one root; so that stationary point
    is the global minimum and is returned directly.  It is found from a closed
    form in the minimum itself, so the bound stays accurate where 1 - q underflows.
    """
    a = check_probability(p_nf)
    return _rows((a,), ((check_demand_count(r, "r"), check_demand_count(n, "n")),))[0]


def _rows(p_nfs: Iterable[float], pairs: Iterable[tuple[int, int]]) -> list[SurvivalPrediction]:
    """worst_case_survival for each validated a in p_nfs (outermost) and (r, n) in pairs.

    Each pair's terms below are taken once (NaN where r or n is 0: an endpoint), and so is each
    a's d.  A cell's float operations, and their order, do not depend on the other cells, so
    every row is bit-identical to a lone call.  Interior bounds are clamped to [a, 1].

    An interior cell (a in (0, 1), r, n >= 1, b = 1 - a, s = r/n) solves for the minimum t*
    itself.  g >= t for all u = 1 - q exactly when h(u) = a*(1 - t) + b*u**r*(u**n - t) >= 0,
    and h is least at u**n = t*r/(r + n), so t* is the root in (0, 1) of the decreasing

        f(t) = log1p(-t) - s1*log t = K,   s1 = 1 + s,   K = M - l,   l = log1p(s),
        M = d - s*c1,   d = log1p(-a) - log a,   c1 = log1p(n/r),

    and n*x* = log t* - c1 at x* = log(1 - q*): both terms are <= 0, so q* = -expm1(x*)
    loses nothing.  f(1/2) = s*log 2, so t* > 1/2 exactly when K < s*log 2.  Then the unknown
    is w = log(s1*c), c = 1 - t: G(w) = w - s1*log1p(-e**w/s1) - M, G' = 1 + e**w/t; the bound
    is 1 - c.  Linearising log1p gives z + log z = M, z = e**w, whose two-term expansions start
    w at log M - log(M)/M for M > 1, else at M - y*(2 + y)/(2 + 3*y), y = e**M; w is capped at
    l - log 2, so c <= 1/2.  Else the unknown is v = log t: H(v) = log1p(-e**v) - s1*v - K,
    H' = -s1 - t/c, from v = min(-K/s1, -log 2), where H <= 0.  G is convex and increasing, H
    concave and decreasing, so any Newton step lands right of the root, and later ones fall.

    Stop rule.  On its half (c or t <= 1/2) each equation has |second derivative| <= 2*|first|:
    G'' = e**w/t**2, |H''| = t/c**2.  So a step D from an iterate off by err leaves at most
    err**2 (err**2*exp(2|D|) from the left, where |err| <= |D|).  Right of the root err <= 2|D|
    for H (|H'| is in [s1, s1 + 1]) and err <= 8|D| for G unless |D| > 0.3 (G >= err + e**w -
    e**w*, G' <= 1 + 2*e**w, and log G' changes at rate <= 2).  The first step with
    |D| <= 2**-27 thus leaves D**2*(1 + 2**-20) <= 2**-54*(1 + 2**-20), relative in c or t; the
    loop applies it to first order, c*(1 - D) or t*(1 + D), and stops.  It raises
    ArithmeticError after _NEWTON_STEP_CAP evaluations.  Both equations hold at t* = 1/2.

    Rounding, to first order in u = 2**-53 (exp, log, log1p within 2u), with lam = |log a| +
    |log b| and J = |dt/dK| = t*c/(t + s1*c): M is off by u*(3*lam + |M| + 5), K by
    u*(2*l + |K| + 1) more.  As errors in K, an evaluation adds u*(5 + 5*s1*|log t| + |M|)
    for G (with c's and s1's roundings) and u*(2*s1 + 2*|log c| + 5*s1*|log t| + |K|) for H.
    The last step adds 7u/4 of c or t, and 1 - c another u/2.  So |bound - t*| <= E, at most
    6.9e-16 over the README's domain and out to counts of 2**1021, where

        t* > 1/2:  E = J*u*(3*lam + 2*|M| + 5*s1*|log t| + 10) + 7u/4*c + u/2
        t* <= 1/2: E = J*u*(3*lam + |M| + 2*(|K| + l + s1 + |log c|) + 5*s1*|log t| + 6) + 7u/4*t
    """
    # Bound once per call, not per cell; the cap is read per call because tests patch it.
    steps, lo, hi = range(_NEWTON_STEP_CAP), -_STEP_TOL, _STEP_TOL
    terms = []
    for r, n in pairs:
        if r == 0 or n == 0:
            terms.append((r, n) + (math.nan,) * 7)
        else:
            s, c1 = r / n, _log1p(n / r)
            l = _log1p(s)
            terms.append((r, n, c1, float(n), 1.0 + s, l, l - _LOG2, s * _LOG2 + l, -s * c1))
    rows = []
    for a in p_nfs:
        interior = 0.0 < a < 1.0
        if interior:
            d = _log1p(-a) - _log(a)
        for r, n, c1, n_f, s1, l, w_cap, m_half, m_rn in terms:
            if interior and r and n:
                m = d + m_rn
                if m < m_half:  # t* > 1/2: solve for w = log(s1*c), c = 1 - t*
                    if m > 1.0:
                        y = _log(m)
                        w = y - y / m
                    else:
                        y = _exp(m)
                        w = m - y * (2.0 + y) / (2.0 + 3.0 * y)
                    for _ in steps:
                        if w > w_cap:
                            w = w_cap
                        e = _exp(w)
                        c = e / s1
                        t = 1.0 - c
                        log_t = _log1p(-c)
                        step = (w - s1 * log_t - m) / (1.0 + e / t)
                        if lo <= step <= hi:
                            break
                        w -= step
                    else:
                        raise ArithmeticError(f"closed form took over {_NEWTON_STEP_CAP} steps")
                    log_t += step * c / t
                    g = 1.0 - (c - step * c)
                else:  # t* <= 1/2: solve for v = log t*
                    k = m - l
                    v = -k / s1 if k > s1 * _LOG2 else -_LOG2
                    for _ in steps:
                        t = _exp(v)
                        step = (_log1p(-t) - s1 * v - k) / (s1 + t / (1.0 - t))
                        if lo <= step <= hi:
                            break
                        v += step
                    else:
                        raise ArithmeticError(f"closed form took over {_NEWTON_STEP_CAP} steps")
                    log_t = v + step
                    g = t + step * t
                bound = a if g < a else 1.0 if g > 1.0 else g
                q = -math.expm1((log_t - c1) / n_f)
            elif n == 0 or a == 1.0:
                bound, q = 1.0, 0.0
            else:  # r == 0 or a == 0: the floor
                bound, q = a, 1.0
            row = _new(SurvivalPrediction)
            fields = row.__dict__
            fields["p_nf"] = a
            fields["r"] = r
            fields["n"] = n
            fields["lower_bound"] = bound
            fields["worst_case_q"] = q
            rows.append(row)
    return rows


def grid_worst_case(p_nf: float, r: int, n: int, K: int) -> SurvivalPrediction:
    """Brute-force minimum of the point-prior predictive over a fixed grid.

    The grid is K - 1 points log-spaced in q over [1e-15, 1] plus the
    endpoints {0, 1}; a uniform grid in q would waste nearly all its points
    because the minimizer typically sits near q ~ 1 / (r + n).  Ties resolve
    to the smallest q.  This is the oracle worst_case_survival is checked
    against; it deliberately shares no search logic with the optimizer.
    """
    a = check_probability(p_nf)
    r = check_demand_count(r, "r")
    n = check_demand_count(n, "n")
    if K < 2:
        raise ValueError(f"K must be >= 2, got {K}")

    if n == 0:
        return SurvivalPrediction(a, r, n, 1.0, 0.0)

    qs, lu = _oracle_grid(K)
    logg = _log_predictive_vec(a, lu, r, n)
    i = int(np.argmin(logg))
    g = math.exp(float(logg[i]))
    return SurvivalPrediction(a, r, n, min(1.0, max(a, g)), float(qs[i]))


def posterior_predictive_discrete(prior: DiscretePrior, r: int, n: int) -> float:
    """Exact Bayesian posterior predictive for a finite mixture prior,

        (p_nf + sum_i w_i (1 - q_i)**(r + n)) / (p_nf + sum_i w_i (1 - q_i)**r),

    returned as 1 - c, its complement c evaluated to relative accuracy by ``_complement``.

    Raises:
        ValueError: if the denominator is zero: the prior gives the r demands probability 0.
    """
    c = _complement(prior, check_demand_count(r, "r"), check_demand_count(n, "n"))
    return check_probability(1.0 - c)


def _complement(prior: DiscretePrior, r: int, n: int) -> float:
    """c = fsum_i E_i*t_i / fsum_j E_j, where E_j = exp(L_j - m), m = max L, L_0 = log a
    (a = p_nf), L_i = log w_i + r*x_i, x_i = log1p(-q_i) and t_i = -expm1(n*x_i), t_0 = 0.
    All terms are positive, so nothing cancels, and c <= 1 as E_i*t_i <= E_i.  At q_i = 1,
    r = 0 gives L_i = log w_i and n = 0 gives t_i = 0.  With a = 0 there is no L_0 term,
    and L_i = log w_i + r*(x_i - x_max), x_max = max x_i, instead: dropping the common
    r*x_max leaves every E_j as it was, and the atom at x_max keeps L_i = log w_i where
    r*x_i alone would overflow to -inf.  Only r >= 1 with every q_i = 1 leaves m = -inf.

    Error, to first order in eps = 2**-53 (+, *, / and fsum within eps; exp, expm1, log
    and log1p within 2*eps): L_0 is off by |d_0| <= 2*eps*|log a| and L_i by
    |d_i| <= eps*(3*|log w_i| + 5*r*|x_i|); with a = 0, where x_max is one fixed float,
    by |d_i| <= eps*(3*|log w_i| + 2*r*|x_i| + 4*r*(x_max - x_i)).  An error common to all
    L cancels, so E_j is off by |p_j| <= |d_j| + |d_m| + eps*(y_j + 2), y_j = m - L_j,
    relatively.  t_i is within 6*eps (1 - e**v has condition number
    |v|*e**v/(1 - e**v) <= 1 at v < 0); products, fsums and division add 4*eps.  With
    N, D the two sums, s_j = E_j*t_j/N and f_j = E_j/D, sum_j |s_j - f_j| <= 2 and
    log(computed c / c) = sum_j p_j*(s_j - f_j) + 10*eps at most, so

        |computed c / c - 1| <= 10*eps + 2*max_j (|d_j| + |d_m| + eps*(y_j + 2))

    over the terms with y_j < 745; the rest underflow to 0 and, with subnormal roundings,
    add at most 2*K*2**-1074 absolute over K atoms.  As m >= log a, such a term has
    r*|x_i| <= |log w_i| + |log a| + 745, so for a > 0 the bound is at most
    eps*(32*max|log w_i| + 20*|log a| + 16404): 5.8e-12 at a, w_i >= 1e-300.

    Raises:
        ValueError: if every term is 0 (m = -inf).
    """
    a = prior.p_nf
    xs = [math.log1p(-q) if q < 1.0 else -math.inf for q, _ in prior.atoms]
    # x - 0.0 == x, so every term with a > 0, or with every q_i = 1, is as without the shift.
    x_max = max(xs) if a == 0.0 and max(xs) > -math.inf else 0.0
    logs, tails = [math.log(a) if a > 0.0 else -math.inf], [0.0]
    for x, (_, w) in zip(xs, prior.atoms):
        logs.append(math.log(w) + (r * (x - x_max) if r else 0.0))
        tails.append(-math.expm1(n * x) if n else 0.0)
    m = max(logs)
    if m == -math.inf:
        raise ValueError(
            f"prior assigns probability 0 to the r = {_count_text(r)} observed demands"
        )
    weights = [math.exp(v - m) for v in logs]
    return math.fsum(e * t for e, t in zip(weights, tails)) / math.fsum(weights)


def sweep(
    p_nf_grid: Iterable[float],
    r_grid: Iterable[int],
    n_grid: Iterable[int],
) -> list[SurvivalPrediction]:
    """worst_case_survival over the Cartesian product of the three grids.

    Grids are any iterables, numpy arrays included; each value is validated once, before an
    empty grid, or one of more than 10**6 cells, is refused.  Each (r, n) pair's terms and
    each p_nf's logs are taken once.  Rows come in input order, p_nf outermost, n innermost.
    """
    p_nfs = [check_probability(p) for p in p_nf_grid]
    rs = [check_demand_count(r, "r") for r in r_grid]
    ns = [check_demand_count(n, "n") for n in n_grid]
    if not p_nfs or not rs or not ns:
        raise ValueError("sweep grids must be non-empty")
    if (cells := len(p_nfs) * len(rs) * len(ns)) > _SWEEP_CELL_CAP:
        raise ValueError(f"sweep grid has {cells} cells, more than the cap of {_SWEEP_CELL_CAP}")
    return _rows(p_nfs, ((r, n) for r in rs for n in ns))
