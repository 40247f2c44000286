"""Reference implementations, independent of the package.

They exist only so tests can check the package against values computed by a
separate route.  The closed forms and minimizers are evaluated with mpmath
at 60 significant digits; ``per_demand_survival_fraction`` simulates every
demand, as a reference for the package's Monte Carlo sampler.
"""

import mpmath as mp
import numpy as np

mp.mp.dps = 60


def survival_mp(p_nf, q, n):
    """p_nf + (1 - p_nf) * (1 - q)**n, exactly."""
    a = mp.mpf(p_nf)
    qq = mp.mpf(q)
    return a + (1 - a) * mp.power(1 - qq, n)


def point_predictive_mp(p_nf, q, r, n):
    """The single-atom posterior predictive ratio, exactly."""
    a = mp.mpf(p_nf)
    qq = mp.mpf(q)
    b = 1 - a
    num = a + b * mp.power(1 - qq, r + n)
    den = a + b * mp.power(1 - qq, r)
    return num / den


def discrete_predictive_mp(p_nf, atoms, r, n):
    """Finite-mixture posterior predictive, exactly."""
    a = mp.mpf(p_nf)
    num = a + mp.fsum(mp.mpf(w) * mp.power(1 - mp.mpf(q), r + n) for q, w in atoms)
    den = a + mp.fsum(mp.mpf(w) * mp.power(1 - mp.mpf(q), r) for q, w in atoms)
    return num / den


def discrete_complement_mp(p_nf, atoms, r, n):
    """1 minus the finite-mixture posterior predictive, computed directly as
    sum_i w_i u_i**r (1 - u_i**n) / (p_nf + sum_i w_i u_i**r), u_i = 1 - q_i,
    so that it keeps its digits far below 1e-60, where 1 - discrete_predictive_mp
    has none left."""
    a = mp.mpf(p_nf)
    weights, tails = [], []
    for q, w in atoms:
        u = 1 - mp.mpf(q)
        weights.append(mp.mpf(w) * mp.power(u, r))
        tails.append(-mp.expm1(n * mp.log(u)) if u else mp.mpf(n > 0))
    den = a + mp.fsum(weights)
    return mp.fsum(s * t for s, t in zip(weights, tails)) / den


def minimize_point_predictive_mp(p_nf, r, n, iterations=300):
    """Ternary search in log q for the minimum of the single-atom predictive.

    The predictive has a unique interior minimum for p_nf in (0, 1) and
    r, n >= 1, so ternary search over log q is exact up to the tolerance
    implied by the iteration count.  Returns (value, q).
    """
    f = lambda lq: point_predictive_mp(p_nf, mp.exp(lq), r, n)
    lo, hi = mp.log(mp.mpf("1e-18")), mp.mpf(0)
    for _ in range(iterations):
        m1 = lo + (hi - lo) / 3
        m2 = hi - (hi - lo) / 3
        if f(m1) < f(m2):
            hi = m2
        else:
            lo = m1
    lq = (lo + hi) / 2
    return f(lq), mp.exp(lq)


def point_predictive_log1m_mp(p_nf, x, r, n):
    """The single-atom posterior predictive at x = log(1 - q), exactly."""
    a = mp.mpf(p_nf)
    b = 1 - a
    return (a + b * mp.exp((r + n) * x)) / (a + b * mp.exp(r * x))


def minimize_point_predictive_log1m_mp(p_nf, r, n, iterations=200):
    """Golden-section search in t = log(-x), x = log(1 - q), for the minimum
    of the single-atom predictive.  Returns (value, x).

    Searching in log(-x) rather than log q reaches minimizers where 1 - q is
    far below float resolution (1 - q ~ 1e-150 at p_nf = 1e-300, r = n = 1)
    as well as those at q ~ 1e-13.  The bracket -x in [1e-20, 1e4] covers
    p_nf in [1e-300, 1) and r, n in [1, 10**12].  Far out in x the predictive
    is flat at 1 to 60 digits, so ties move the search towards smaller -x,
    where the minimum is.
    """
    f = lambda t: point_predictive_log1m_mp(p_nf, -mp.exp(t), r, n)
    inv_phi = (mp.sqrt(5) - 1) / 2
    lo, hi = mp.log(mp.mpf("1e-20")), mp.log(mp.mpf("1e4"))
    m1, m2 = hi - inv_phi * (hi - lo), lo + inv_phi * (hi - lo)
    f1, f2 = f(m1), f(m2)
    for _ in range(iterations):
        if f1 <= f2:
            hi, m2, f2 = m2, m1, f1
            m1 = hi - inv_phi * (hi - lo)
            f1 = f(m1)
        else:
            lo, m1, f1 = m1, m2, f2
            m2 = lo + inv_phi * (hi - lo)
            f2 = f(m2)
    t = (lo + hi) / 2
    return f(t), -mp.exp(t)


def stationarity_root_log1m_mp(p_nf, r, n, iterations=300):
    """x = log(1 - q) at the interior root of a*(r+n)*u**n + b*n*u**(r+n) = a*r, u = 1 - q.

    Bisection in x = log u on the undivided equation; the left side
    increases with x and exceeds a*r at hi = -log1p(n/r)/n < 0.  The bracket
    starts at [2*hi, hi] and doubles leftwards until it holds the root, so
    its width is a small multiple of |x| and the bisection's resolution is
    relative, even where x is far below 1e-60.  The equation cancels about
    log10(r/n) digits, so for counts past 10**12 callers raise the working
    precision (``mp.workdps``) by log10 of the larger count.
    """
    a = mp.mpf(p_nf)
    b = 1 - a
    F = lambda x: a * (r + n) * mp.exp(n * x) + b * n * mp.exp((r + n) * x) - a * r
    hi = -mp.log1p(mp.mpf(n) / r) / n
    lo = 2 * hi
    while F(lo) > 0:
        lo = hi - 2 * (hi - lo)
    for _ in range(iterations):
        mid = (lo + hi) / 2
        if F(mid) > 0:
            hi = mid
        else:
            lo = mid
    return (lo + hi) / 2


def stationarity_root_mp(p_nf, r, n, iterations=300):
    """q at the interior root found by ``stationarity_root_log1m_mp``."""
    return -mp.expm1(stationarity_root_log1m_mp(p_nf, r, n, iterations))


def per_demand_survival_fraction(p_nf, q, n, trials, seed):
    """Monte Carlo survival fraction that draws every demand of every trial.

    Each trial is fault-free with probability p_nf; a faulty trial survives
    iff all n of its demands draw a uniform >= q.  Demands are drawn in
    blocks, stopping once every faulty trial has failed.  Costs O(trials * n).
    """
    rng = np.random.default_rng(seed)
    faulty = int((rng.random(trials) >= p_nf).sum())
    alive, done = faulty, 0
    while alive > 0 and done < n:
        block = min(n - done, max(1, (1 << 20) // alive))
        alive = int((rng.random((alive, block)) >= q).all(axis=1).sum())
        done += block
    return (trials - faulty + alive) / trials
