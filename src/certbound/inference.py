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

All powers are evaluated as exp(k * log1p(-q)), so demand counts up to
2**1022 are safe.  The minimum is the stationarity root's first term (see
``_rows``); ``posterior_predictive_discrete`` evaluates any finite prior's
predictive through its complement, to relative accuracy.  ``grid_worst_case``
is a deliberately brute-force minimizer kept independent of the optimizer so
the two can check each other.
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
    "DegenerateConditioningError",
    "worst_case_survival",
    "grid_worst_case",
    "posterior_predictive_discrete",
    "sweep",
]

# Brute-force oracle grid runs log-spaced over [_GRID_Q_MIN, 1] plus {0, 1}.
_GRID_Q_MIN = 1e-15
# Newton steps allowed for the stationarity root.  From its closed-form start
# and an unconditional first step (on a convex, increasing F any step lands
# right of the root) it takes 2.9 steps on average and at most 9 over
# perfbench's sweep-grid pools of seeds 1-3 and 71-73, and 3 at r = 2**1022 - 1, n = 1.
_NEWTON_STEP_CAP = 1000
# Below this M the root estimate moves x by less than an ulp (see _rows).
_M_FLAT = math.log(2.0**-53)


class DegenerateConditioningError(ValueError):
    """The prior assigns zero probability to the observed failure-free run."""


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


# _rows fills each record's __dict__: an item write assigns no attribute, so __setattr__ never runs.
_new = object.__new__


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
    is the global minimum and is returned directly.  The root is found in
    x = log(1 - q), so the bound stays accurate where 1 - q underflows.
    """
    a = check_probability(p_nf)
    return _rows((a,), ((check_demand_count(r, "r"), check_demand_count(n, "n")),))[0]


def _rows(p_nfs: Iterable[float], pairs: Iterable[tuple[int, int]]) -> list[SurvivalPrediction]:
    """worst_case_survival for each validated a in p_nfs (outermost) and (r, n) in pairs.

    Each pair's root terms, log1p(n/r), log n, log r, n and r + n as floats and M's part
    -(r/n)*log1p(n/r), are taken once (NaN where r or n is 0: an endpoint), and so are
    each a's logs.  A cell's float operations, and their order, do not depend on the other
    cells, so every row is bit-identical to a lone call.  Interior bounds are clamped to [a, 1].

    An interior cell (a in (0, 1), r, n >= 1) finds x* = log(1 - q*) at the
    unique interior minimum of g.  Clearing denominators in g'(q) = 0 and
    dividing by a*r gives, with u = 1 - q and b = 1 - a,

        A + B = 1,  A = (1 + n/r)*u**n,  B = (b/a)*(n/r)*u**(r + n)

    Scaled this way both sides are O(1), so the root keeps its resolution
    when r >> n.  In x = log u the equation is F(x) = 0, where the log of the
    left side, F(x) = logaddexp(t1, t2) with t1 = c1 + n*x, t2 = c2 + s*x,
    c1 = log1p(n/r), c2 = log(b/a) + log n - log r and s = r + n, is convex
    and increasing.

    Newton's method starts at an estimate of the root x_a - z/s, x_a = -c1/n
    (where A = 1).  Taking 1 - exp(-n*z/s) ~ n*z/s, A + B = 1 becomes
    z + log z = M, M = c2 + s*x_a + log1p(r/n) = log(b/a) - (r/n)*c1, whose
    root is z ~ M - log M + log(M)/M for M > 1 and z ~ y*(2 + y)/(2 + 3*y),
    y = exp(M), otherwise (two-term expansions as M -> inf and y -> 0).
    Below M = _M_FLAT = log(2**-53) the start is x_a, which is then within an
    ulp of the root: z*n/(s*c1) <= z <= y*(1 + z).

    The estimate may lie on either side of the root, so the first step is
    taken whatever its direction: F' >= n > 0 and a convex F lies above
    each tangent, so a step from any x lands right of the root.  Right of
    the root each tangent meets zero between the root and x, so the later
    iterates fall monotonically and never overshoot.  The loop stops at the
    first later step that no longer decreases x, and raises ArithmeticError
    after _NEWTON_STEP_CAP steps, the first one included.  Its last
    evaluation is at the returned x, so t1, t2 and e = exp(-|t1 - t2|) are
    those of the root.

    At the root g = A and 1 - g = B: in general
    1 - g = (b/a)*u**r*(1 - u**n)/(1 + (b/a)*u**r), and at the root
    1 - u**n = u**n*(n/r)*(1 + (b/a)*u**r).  So the bound is exp(t1).

    Error, to first order in eps = 2**-53 (exp, log, log1p within 1 ulp): with
    e1, e2 the errors of the computed t1 and t2 at the returned x, and
    e3 = log(exp(t1) + exp(t2)) there, the bound is off from g by
    A*(B*(s*e1 - n*e2) + n*e3)/(n*A + s*B) + 2*eps*g.  So e1 weighs at most
    min(A, A*B*s/n), e2 at most min(A*B, A*n/s) and e3 at most A, and no
    |log a| cancels as in a ratio of log-add-exps.
    |e1| <= eps*(3*c1 + 2*|log A| + 1),
    |e2| <= eps*(s*|x| + |log B| + 5*|d| + 4*log n + 3*log r + 3) with e2's
    weight times |d| below 1.72, and the stop leaves
    |e3| <= eps*(|x|*(n*A + s*B) + 2).  Summed, the error is at most
    eps*(2*c1 + log n + log r + 18): 1.2e-14 for counts up to 10**12.
    """
    terms = []
    for r, n in pairs:
        if r == 0 or n == 0:
            terms.append((r, n, math.nan, math.nan, math.nan, math.nan, math.nan, math.nan))
        else:
            c1 = math.log1p(n / r)
            terms.append((r, n, c1, math.log(n), math.log(r), float(n), float(r + n), -(r / n) * c1))
    rows = []
    for a in p_nfs:
        interior = 0.0 < a < 1.0
        if interior:
            d = math.log1p(-a) - math.log(a)
        for r, n, c1, log_n, log_r, n_f, s_f, m_rn in terms:
            if interior and r and n:
                c2, m = d + log_n - log_r, d + m_rn
                x = -c1 / n_f
                if m > 1.0:
                    y = math.log(m)
                    x -= (m - y + y / m) / s_f
                elif m > _M_FLAT:
                    y = math.exp(m)
                    x -= y * (2.0 + y) / ((2.0 + 3.0 * y) * s_f)
                for i in range(_NEWTON_STEP_CAP):
                    # F and F' from the same two exponentials, the larger one factored out.
                    t1, t2 = c1 + n_f * x, c2 + s_f * x
                    if t1 >= t2:
                        e = math.exp(t2 - t1)
                        x_next = x - (t1 + math.log1p(e)) * (1.0 + e) / (n_f + s_f * e)
                    else:
                        e = math.exp(t1 - t2)
                        x_next = x - (t2 + math.log1p(e)) * (1.0 + e) / (s_f + n_f * e)
                    if x_next >= x and i:
                        break
                    x = x_next
                else:
                    raise ArithmeticError(
                        f"stationarity root took over {_NEWTON_STEP_CAP} Newton steps"
                    )
                g = math.exp(t1)
                bound, q = a if g < a else 1.0 if g > 1.0 else g, -math.expm1(x)
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
        DegenerateConditioningError: if the denominator is zero, i.e. the
            prior gives the observed r failure-free demands no probability.
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
        DegenerateConditioningError: if every term is 0 (m = -inf).
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
        raise DegenerateConditioningError(
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

    Grids are any iterables, numpy arrays included; each value is validated once,
    before an empty grid is refused.  Each (r, n) pair's root terms and each p_nf's
    logs are taken once.  Rows come in input order, p_nf outermost and n innermost.
    """
    p_nfs = [check_probability(p) for p in p_nf_grid]
    rs = [check_demand_count(r, "r") for r in r_grid]
    ns = [check_demand_count(n, "n") for n in n_grid]
    if not p_nfs or not rs or not ns:
        raise ValueError("sweep grids must be non-empty")
    return _rows(p_nfs, ((r, n) for r in rs for n in ns))
