import dataclasses
import inspect
import math
import pickle
from unittest import mock

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certbound import inference
from certbound.cli import SWEEP_CSV_HEADER
from certbound.fleet import ConstantGrowth, FleetScenario, run_bootstrap
from certbound.inference import (
    DegenerateConditioningError,
    DiscretePrior,
    SurvivalPrediction,
    grid_worst_case,
    posterior_predictive_discrete,
    sweep,
    worst_case_survival,
)
from certbound.reliability import MixtureModel, survival_probability

from oracles import (
    discrete_complement_mp,
    discrete_predictive_mp,
    minimize_point_predictive_log1m_mp,
    minimize_point_predictive_mp,
    point_predictive_log1m_mp,
    point_predictive_mp,
    stationarity_root_log1m_mp,
    stationarity_root_mp,
)

probabilities = st.floats(min_value=0.0, max_value=1.0)

# The domain the README claims: p_nf down to 1e-300 and within 1e-15 of 1
# (log-uniform in p_nf and in 1 - p_nf), demand counts log-uniform up to 10**12.
extreme_p_nf = st.one_of(
    st.floats(min_value=-300.0, max_value=math.log10(0.5)).map(lambda e: 10.0**e),
    st.floats(min_value=-15.0, max_value=math.log10(0.5)).map(lambda e: 1.0 - 10.0**e),
)
extreme_counts = st.floats(min_value=0.0, max_value=12.0).map(lambda e: int(round(10.0**e)))
# Sweep axes add the endpoints the kernel special-cases: p_nf in {0, -0.0, 1}, r = 0, n = 0.
grid_p_nf = st.lists(
    st.one_of(extreme_p_nf, st.sampled_from([0.0, -0.0, 1.0])), min_size=1, max_size=3
)
counts = st.one_of(extreme_counts, st.just(0))
grid_counts = st.lists(counts, min_size=1, max_size=3)
# Past the README domain: r and n log-uniform up to 2**1021, just inside the 2**1022 cap.
huge_counts = st.floats(min_value=0.0, max_value=1021.0).map(lambda e: int(round(2.0**e)))
# Discrete priors of 1-5 atoms: q and a raw weight each log-uniform over [1e-12, 1].
log_uniform_unit = st.floats(min_value=-12.0, max_value=0.0).map(lambda e: 10.0**e)
raw_atoms = st.lists(st.tuples(log_uniform_unit, log_uniform_unit), min_size=1, max_size=5)

# Frozen from the mpmath oracles (60-digit evaluation, see oracles.py):
#   point_predictive_mp(0.9, 1e-3, 1e3, 1e4)        = 0.9607503448749972381
#   minimize_point_predictive_mp(0.9, 1e3, 1e4)[0]  = 0.92689313370995706036
#   minimize_point_predictive_mp(0.5, 10, 10)[0]    = 0.8284271247461900976
#   minimize_point_predictive_mp(0.99, 1e6, 1e9)[0] = 0.99007808706268742427
#   discrete_predictive_mp(0.9, ((1e-4,.05),(1e-2,.05)), 1e3, 1e4)
#                                                   = 0.96974202381577762695
POINT_PRED_VALUE = 0.9607503448749972
WC_09_1E3_1E4 = 0.9268931337099571
WC_05_10_10 = 0.8284271247461901
WC_099_1E6_1E9 = 0.9900780870626874
DISCRETE_TWO_ATOM = 0.9697420238157776


def complement_tolerance(prior, r):
    """The first-order bound derived in inference._complement's docstring: its
    relative part, and its absolute part for terms that underflow."""
    eps = 2.0**-53
    log_a = math.log(prior.p_nf)
    terms = [(log_a, 2 * eps * abs(log_a))]  # (L_j, bound on its error d_j)
    for q, w in prior.atoms:
        rx = -r * math.log1p(-q) if q < 1.0 else math.inf if r else 0.0
        terms.append((math.log(w) - rx, eps * (3 * abs(math.log(w)) + 5 * rx)))
    m, d_m = max(terms)
    relative = 10 * eps + 2 * max(d + d_m + eps * (m - L + 2) for L, d in terms if m - L < 745)
    largest_log_w = max(abs(math.log(w)) for _, w in prior.atoms)
    assert relative <= eps * (32 * largest_log_w + 20 * abs(log_a) + 16404)
    return relative, 2 * len(prior.atoms) * 2.0**-1074


def huge_count_digits(r, n) -> int:
    """Working digits for the mpmath oracles at counts up to 2**1021: the root's
    equation cancels about log10(r/n) digits, so 60 are not enough past 10**60."""
    return 60 + int(math.log10(max(r, n)))


def root_tolerance(p_nf, r, n, x) -> float:
    """First-order bound on inference._rows's relative error in the root x, with
    eps = 2**-53 (exp, log, log1p within 2*eps).  t1 = c1 + n*x is off by at most
    eps*(3*c1 + 2*n*|x| + |t1|) and t2 = c2 + s*x (s = r + n) by k2 + eps*(2*s*|x| + |t2|),
    k2 the roundings of c2 = log1p(-a) - log a + log n - log r.  F = log(e**t1 + e**t2)
    adds at most eps*(min(A, B)*(|t2 - t1| + 2) + 2*min(|t1|, |t2|)), A = e**t1,
    B = e**t2, A + B = 1.  Over F' = n*A + s*B that moves the root, and the last step
    rounds twice.  Over 1,500 random cells it stayed below 33*eps with counts up to 10**12
    and reached 890*eps with counts up to 2**1021, as c2's absolute error grows with log r."""
    eps = 2.0**-53
    a, log_n, log_r = p_nf, math.log(n), math.log(r)
    c1, d, s = math.log1p(n / r), math.log1p(-a) - math.log(a), r + n
    c2 = d + log_n - log_r
    t1, t2 = c1 + n * x, c2 + s * x
    A, B = math.exp(t1), math.exp(t2)
    k2 = eps * (2 * abs(math.log1p(-a)) + 2 * abs(math.log(a)) + abs(d) + 2 * log_n
                + abs(d + log_n) + 2 * log_r + abs(c2))
    e1 = eps * (3 * c1 + 2 * n * abs(x) + abs(t1))
    e2 = k2 + eps * (2 * s * abs(x) + abs(t2))
    e3 = eps * (min(A, B) * (abs(t2 - t1) + 2) + 2 * min(abs(t1), abs(t2)))
    return 2 * eps + (A * e1 + B * e2 + e3) / ((n * A + s * B) * abs(x))


def kernel_root(p_nf, r, n) -> float:
    """The root x = log(1 - q) that inference._rows found for an interior cell: the
    argument of the one expm1 call that turns x into worst_case_q."""
    with mock.patch.object(inference.math, "expm1", wraps=math.expm1) as expm1:
        worst_case_survival(p_nf, r, n)
    expm1.assert_called_once()
    return expm1.call_args.args[0]


def stationarity_residual(p_nf, q, r, n) -> float:
    """Relative residual of a*(r+n)*u**n + b*n*u**(r+n) - a*r at u = 1 - q."""
    a = mp.mpf(p_nf)
    b = 1 - a
    u = 1 - mp.mpf(q)
    lhs = a * (r + n) * mp.power(u, n) + b * n * mp.power(u, r + n)
    return float(abs(lhs - a * r) / (a * r))


class TestWorstCase:
    def test_no_evidence_gives_floor(self):
        pred = worst_case_survival(0.9, 0, 10**6)
        assert pred.lower_bound == 0.9
        assert pred.worst_case_q == 1.0

    def test_no_future_demands_is_certain(self):
        pred = worst_case_survival(0.99, 10**3, 0)
        assert pred.lower_bound == 1.0

    def test_certain_fault_freeness(self):
        pred = worst_case_survival(1.0, 10**3, 10**4)
        assert pred.lower_bound == 1.0
        assert pred.worst_case_q == 0.0  # ties resolve to the smallest q

    def test_zero_confidence(self):
        pred = worst_case_survival(0.0, 10, 5)
        assert pred.lower_bound == 0.0
        assert pred.worst_case_q == 1.0

    def test_rejects_bool_count(self):
        with pytest.raises(TypeError, match="r must be an integer"):
            worst_case_survival(0.9, True, 10)

    @pytest.mark.parametrize(
        "p_nf,r,n,expected",
        [
            (0.9, 10**3, 10**4, WC_09_1E3_1E4),
            (0.5, 10, 10, WC_05_10_10),
            (0.99, 10**6, 10**9, WC_099_1E6_1E9),
        ],
    )
    def test_known_minima(self, p_nf, r, n, expected):
        pred = worst_case_survival(p_nf, r, n)
        assert float(pred.lower_bound) == pytest.approx(expected, abs=1e-10)

    def test_agrees_with_grid_oracle(self):
        pred = worst_case_survival(0.9, 10**3, 10**4)
        oracle = grid_worst_case(0.9, 10**3, 10**4, 10**6)
        assert abs(pred.lower_bound - oracle.lower_bound) <= 1e-6

    def test_randomized_grid_agreement(self):
        rng = np.random.default_rng(7)
        for _ in range(20):
            p_nf = 1.0 - 10.0 ** rng.uniform(-6, -0.3)
            r = int(10.0 ** rng.uniform(0, 6))
            n = int(10.0 ** rng.uniform(0, 7))
            pred = worst_case_survival(p_nf, r, n)
            oracle = grid_worst_case(p_nf, r, n, 10**5)
            assert abs(pred.lower_bound - oracle.lower_bound) <= 1e-6, (p_nf, r, n)

    def test_interior_minimizer_is_stationary(self):
        rng = np.random.default_rng(21)
        for _ in range(25):
            p_nf = rng.uniform(0.5, 0.999)
            r = int(10.0 ** rng.uniform(1, 6))
            n = int(10.0 ** rng.uniform(1, 7))
            pred = worst_case_survival(p_nf, r, n)
            q = float(pred.worst_case_q)
            if 0.0 < q < 1.0:
                assert stationarity_residual(p_nf, q, r, n) <= 1e-12, (p_nf, r, n, q)

    @given(
        extreme_p_nf, extreme_p_nf,
        extreme_counts, extreme_counts, extreme_counts, extreme_counts,
    )
    @example(1e-300, 1e-300, 1, 1, 1, 1)
    @example(1.0 - 1e-15, 1.0 - 1e-15, 10**12, 10**12, 1, 1)
    @settings(max_examples=40, deadline=None)
    def test_extreme_domain(self, p_nf, p_nf2, r, r2, n, n2):
        bound = float(worst_case_survival(p_nf, r, n).lower_bound)
        minimum, _ = minimize_point_predictive_log1m_mp(p_nf, r, n)
        assert bound <= float(minimum) + 1e-10, (p_nf, r, n, bound, minimum)
        assert bound >= p_nf
        lo_p, hi_p = sorted((p_nf, p_nf2))
        lo_r, hi_r = sorted((r, r2))
        lo_n, hi_n = sorted((n, n2))
        bound_at = lambda p, rr, nn: float(worst_case_survival(p, rr, nn).lower_bound)
        assert bound_at(lo_p, r, n) <= bound_at(hi_p, r, n) + 1e-10
        assert bound_at(p_nf, lo_r, n) <= bound_at(p_nf, hi_r, n) + 1e-10
        assert bound_at(p_nf, r, lo_n) >= bound_at(p_nf, r, hi_n) - 1e-10

    @pytest.mark.parametrize(
        "p_nf,r,n",
        [(0.9, 10**14, 1), (0.9, 10**15, 3), (0.9, 2**60, 1), (0.999999, 10**12, 1)],
    )
    def test_worst_case_q_when_evidence_dwarfs_exposure(self, p_nf, r, n):
        q = float(worst_case_survival(p_nf, r, n).worst_case_q)
        expected = stationarity_root_mp(p_nf, r, n)
        assert q > 0.0
        assert float(abs(q - expected) / expected) <= 1e-12, (q, expected)

    # extreme_counts starts at 10**0, so r, n >= 1: the root's domain.
    @given(extreme_p_nf, extreme_counts, extreme_counts)
    @example(1e-300, 10**12, 1)
    @example(1e-300, 1, 1)
    @example(1.0 - 1e-15, 10**12, 10**12)
    # The start's estimate at the edges of its branches: M just above and just
    # below 1, then just above and just below _M_FLAT (M = -36.7366, -36.7370).
    @example(0.1553, 1, 1)
    @example(0.1554, 1, 1)
    @example(1.0 - 2.0**-52, 999, 1000)
    @example(1.0 - 2.0**-52, 1001, 1000)
    # The estimate lies left of the root, so the first step goes right.
    @example(0.5, 10**6, 1)
    @settings(max_examples=60, deadline=None)
    def test_stationarity_root_matches_high_precision_root(self, p_nf, r, n):
        # A root that reached the step cap would raise ArithmeticError here.
        x = kernel_root(p_nf, r, n)
        expected = stationarity_root_log1m_mp(p_nf, r, n, iterations=200)
        assert float(abs(x - expected) / abs(expected)) <= 1e-14, (p_nf, r, n, x, expected)

    @given(extreme_p_nf, extreme_counts, extreme_counts)
    @example(1e-300, 10**9, 2)
    @example(1.0 - 1e-15, 1, 10**12)
    @example(0.99, 100, 10**4)
    @settings(max_examples=60, deadline=None)
    def test_interior_bound_within_derived_error(self, p_nf, r, n):
        # The first-order error bound derived in inference._rows's docstring.
        exact = point_predictive_log1m_mp(p_nf, stationarity_root_log1m_mp(p_nf, r, n), r, n)
        tol = 2.0**-53 * (2 * math.log1p(n / r) + math.log(n) + math.log(r) + 18)
        assert tol <= 2e-14
        bound = worst_case_survival(p_nf, r, n).lower_bound
        assert abs(mp.mpf(bound) - exact) <= tol, (p_nf, r, n, bound, exact)

    @given(extreme_p_nf, huge_counts, huge_counts)
    @example(1e-300, 2**1021, 1)
    @example(0.5, 1, 2**1021)
    @example(1.0 - 1e-15, 2**1021, 2**1021)
    @example(0.1, int(round(2.0**584.125)), 1)  # 1.2e-14: past 1e-14, within tolerance
    @settings(max_examples=30, deadline=None)
    def test_stationarity_root_to_the_count_cap(self, p_nf, r, n):
        x = kernel_root(p_nf, r, n)
        with mp.workdps(huge_count_digits(r, n)):
            expected = stationarity_root_log1m_mp(p_nf, r, n, iterations=200)
            error = float(abs(x - expected) / abs(expected))
        tol = root_tolerance(p_nf, r, n, float(expected))
        assert error <= tol, (p_nf, r, n, x, expected, tol)

    @given(extreme_p_nf, huge_counts, huge_counts)
    @example(1e-300, 2**1021, 1)
    @example(1.0 - 1e-15, 1, 2**1021)
    @example(0.5, 2**1021, 2**1021)
    @settings(max_examples=30, deadline=None)
    def test_bound_within_derived_error_to_the_count_cap(self, p_nf, r, n):
        # _rows's derived bound, which grows to 2.4e-13 at r = 1, n = 2**1021.
        tol = 2.0**-53 * (2 * math.log1p(n / r) + math.log(n) + math.log(r) + 18)
        bound = worst_case_survival(p_nf, r, n).lower_bound
        with mp.workdps(huge_count_digits(r, n)):
            x = stationarity_root_log1m_mp(p_nf, r, n)
            exact = point_predictive_log1m_mp(p_nf, x, r, n)
            assert abs(mp.mpf(bound) - exact) <= tol, (p_nf, r, n, bound, exact)

    def test_stationarity_root_step_cap_raises(self, monkeypatch):
        monkeypatch.setattr(inference, "_NEWTON_STEP_CAP", 1)
        with pytest.raises(ArithmeticError):
            worst_case_survival(0.9, 10**3, 10**4)
        with pytest.raises(ArithmeticError):
            sweep([0.9], [10**3], [10**4])
        scenario = FleetScenario(ConstantGrowth(10), 10**3, 1, 0.9, 10**3, 0.5)
        with pytest.raises(ArithmeticError):
            run_bootstrap(scenario)

    @given(grid_p_nf, grid_counts, grid_counts)
    @example([0.0361], [7462339471], [2])
    @example([1e-300], [10**12], [1])
    @settings(max_examples=60, deadline=None)
    def test_stationarity_root_takes_at_most_12_steps(self, p_nfs, rs, ns):
        # About ln(r/n) steps from the old start x = -c1/n: (1e-300, 10**12, 1) took 28.
        with mock.patch.object(inference, "_NEWTON_STEP_CAP", 12):
            sweep(p_nfs, rs, ns)

    @pytest.mark.parametrize("p_nf", [1e-300, 0.5, 1.0 - 1e-15])
    @pytest.mark.parametrize(
        "r, n", [(2**1022 - 1, 2**1022 - 1), (2**1022 - 1, 1)], ids=["r=n=cap-1", "r=cap-1,n=1"]
    )
    def test_largest_counts_give_finite_bounds(self, p_nf, r, n):
        # About ln(2**1022) = 708 Newton steps at most, well inside the cap.
        pred = worst_case_survival(p_nf, r, n)
        assert p_nf <= pred.lower_bound <= 1.0
        assert 0.0 <= pred.worst_case_q < 1.0

    @given(
        probabilities,
        st.integers(min_value=0, max_value=10**6),
        st.integers(min_value=0, max_value=10**8),
    )
    @settings(max_examples=60, deadline=None)
    def test_floor_invariant(self, p_nf, r, n):
        pred = worst_case_survival(p_nf, r, n)
        assert pred.lower_bound >= p_nf
        assert pred.lower_bound <= 1.0

    @given(probabilities, st.integers(min_value=1, max_value=10**8))
    @settings(max_examples=40, deadline=None)
    def test_no_evidence_equals_survival_minimum(self, p_nf, n):
        pred = worst_case_survival(p_nf, 0, n)
        assert abs(pred.lower_bound - p_nf) <= 1e-12
        # the q = 1 point of the unconditional mixture attains the minimum
        assert survival_probability(MixtureModel(p_nf, 1.0), n) == pytest.approx(
            float(pred.lower_bound), abs=1e-12
        )

    def test_zero_future_demands_is_certain_even_without_evidence(self):
        assert worst_case_survival(0.3, 0, 0).lower_bound == 1.0

    def test_monotonicity(self):
        rng = np.random.default_rng(13)
        for _ in range(25):
            p_nf = rng.uniform(0.3, 0.999)
            r = int(rng.integers(0, 10**5))
            n = int(rng.integers(1, 10**6))
            base = worst_case_survival(p_nf, r, n).lower_bound
            more_evidence = worst_case_survival(p_nf, r + int(rng.integers(1, 10**5)), n)
            more_exposure = worst_case_survival(p_nf, r, n + int(rng.integers(1, 10**6)))
            higher_confidence = worst_case_survival(min(1.0, p_nf + 0.0005), r, n)
            assert more_evidence.lower_bound >= base - 1e-12
            assert more_exposure.lower_bound <= base + 1e-12
            assert higher_confidence.lower_bound >= base - 1e-12


class TestGridOracle:
    def test_certainty_is_flat(self):
        pred = grid_worst_case(1.0, 17, 10**5, 100)
        assert pred.lower_bound == 1.0

    def test_floor_case_on_grid(self):
        pred = grid_worst_case(0.9, 0, 10, 10)
        assert pred.lower_bound == pytest.approx(0.9, abs=1e-15)
        assert pred.worst_case_q == 1.0

    def test_matches_independent_minimizer(self):
        value, _ = minimize_point_predictive_mp(0.9, 10**3, 10**4)
        oracle = grid_worst_case(0.9, 10**3, 10**4, 10**6)
        assert float(oracle.lower_bound) == pytest.approx(float(value), abs=1e-9)

    def test_no_future_demands_is_certain(self):
        # Without the n = 0 return, 0 * log(1 - q) at q = 1 would put a NaN before argmin.
        pred = grid_worst_case(0.0, 5, 0, 10)
        assert (pred.lower_bound, pred.worst_case_q) == (1.0, 0.0)

    def test_rejects_tiny_grid(self):
        with pytest.raises(ValueError):
            grid_worst_case(0.9, 1, 1, 1)

    @pytest.mark.parametrize(
        "p_nf,r,n", [(0.9, 10**3, 10**4), (1e-300, 1, 1), (1.0 - 1e-15, 10**12, 1), (0.0, 5, 3)]
    )
    def test_cached_grid_gives_identical_bits(self, p_nf, r, n):
        bits = lambda pred: (pred.lower_bound.hex(), pred.worst_case_q.hex())
        grid_worst_case(0.5, 1, 1, 2)  # leaves another K's grid cached
        first = grid_worst_case(p_nf, r, n, 1000)
        assert bits(grid_worst_case(p_nf, r, n, 1000)) == bits(first)


class TestDiscretePrior:
    def test_requires_normalization(self):
        with pytest.raises(ValueError):
            DiscretePrior(p_nf=0.9, atoms=((0.5, 0.2),))

    def test_requires_positive_atom_locations(self):
        with pytest.raises(ValueError):
            DiscretePrior(p_nf=0.5, atoms=((0.0, 0.5),))

    @pytest.mark.parametrize("weight", [0.0, -0.5, math.nan, math.inf])
    def test_requires_positive_finite_atom_weights(self, weight):
        with pytest.raises(ValueError, match="atom weight must be positive and finite"):
            DiscretePrior(p_nf=0.5, atoms=((0.5, weight),))

    def test_requires_atoms_unless_certain(self):
        with pytest.raises(ValueError):
            DiscretePrior(p_nf=0.5, atoms=())
        DiscretePrior(p_nf=1.0, atoms=())  # allowed

    def test_certain_prior_predictive(self):
        assert posterior_predictive_discrete(DiscretePrior(1.0, ()), 0, 10**9) == 1.0

    def test_known_two_atom_value(self):
        prior = DiscretePrior(0.9, ((1e-4, 0.05), (1e-2, 0.05)))
        value = posterior_predictive_discrete(prior, 10**3, 10**4)
        assert value == pytest.approx(DISCRETE_TWO_ATOM, abs=1e-13)
        assert value == pytest.approx(
            float(discrete_predictive_mp(0.9, ((1e-4, 0.05), (1e-2, 0.05)), 10**3, 10**4)),
            abs=1e-13,
        )
        assert value >= worst_case_survival(0.9, 10**3, 10**4).lower_bound

    def test_known_one_atom_value(self):
        prior = DiscretePrior(0.9, ((1e-3, 1.0 - 0.9),))
        value = posterior_predictive_discrete(prior, 10**3, 10**4)
        assert value == pytest.approx(POINT_PRED_VALUE, abs=1e-14)
        assert value == pytest.approx(
            float(point_predictive_mp(0.9, 1e-3, 10**3, 10**4)), abs=1e-14
        )
        assert type(value) is float

    def test_degenerate_conditioning_raises(self):
        prior = DiscretePrior(p_nf=0.0, atoms=((1.0, 1.0),))
        for r, n in [(1, 1), (5, 3), (5, 0), (2**1021, 1)]:
            with pytest.raises(DegenerateConditioningError):
                posterior_predictive_discrete(prior, r, n)

    def test_zero_p_nf_with_evidence_past_float_range(self):
        # With p_nf = 0 only the atoms' weight ratios count.  At r = 2**1021,
        # r*log1p(-q) overflows to -inf at q = 1 - 2**-53, yet a lone atom there
        # keeps all the posterior weight, so the predictive is (1 - q)**1.
        u = 2.0**-53
        prior = DiscretePrior(0.0, ((1.0 - u, 1.0),))
        for r in (2**1010, 2**1021):
            assert posterior_predictive_discrete(prior, r, 1) == u
        # Beside an atom at q = 0.5 the overflowing atom and the q = 1 one weigh nothing.
        prior = DiscretePrior(0.0, ((1.0 - u, 0.25), (0.5, 0.5), (1.0, 0.25)))
        assert posterior_predictive_discrete(prior, 2**1021, 3) == 0.5**3

    def test_rejects_invalid_counts(self):
        prior = DiscretePrior(0.5, ((0.1, 0.5),))
        with pytest.raises(TypeError, match="r must be an integer"):
            posterior_predictive_discrete(prior, True, 1)
        with pytest.raises(ValueError, match="n must be >= 0"):
            posterior_predictive_discrete(prior, 1, -1)
        with pytest.raises(ValueError, match=r"n must be < 2\*\*1022"):
            posterior_predictive_discrete(prior, 1, 2**1022)

    def test_certain_failure_atom(self):
        prior = DiscretePrior(0.5, ((1.0, 0.5),))
        # Surviving one demand rules the atom out; u**0 = 1 keeps it when r = 0.
        assert posterior_predictive_discrete(prior, 1, 10**6) == 1.0
        assert posterior_predictive_discrete(prior, 5, 0) == 1.0
        assert posterior_predictive_discrete(prior, 0, 3) == 0.5

    @given(extreme_p_nf, raw_atoms, counts, counts)
    @example(5.8e-248, [(7.3e-8, 1.0)], 7_700_000_000, 23067)
    @example(2.1573283432004632e-157, [(0.9998465990802559, 1.0)], 41, 553)
    @example(0.5, [(0.5, 1.0)], 1070, 1)  # c = 4e-323 is subnormal
    @settings(max_examples=60, deadline=None)
    def test_complement_within_derived_error(self, p_nf, raw, r, n):
        total = math.fsum(w for _, w in raw)
        prior = DiscretePrior(p_nf, tuple((q, w / total * (1.0 - p_nf)) for q, w in raw))
        relative, absolute = complement_tolerance(prior, r)
        exact = discrete_complement_mp(p_nf, prior.atoms, r, n)
        value = posterior_predictive_discrete(prior, r, n)
        assert abs(1 - mp.mpf(value) - exact) <= relative * exact + absolute + 2.0**-54, (
            p_nf, prior.atoms, r, n, value, exact)
        c = inference._complement(prior, r, n)
        assert abs(mp.mpf(c) - exact) <= relative * exact + absolute, (
            p_nf, prior.atoms, r, n, c, exact)

    def test_dominance_over_randomized_priors(self):
        rng = np.random.default_rng(2024)
        for _ in range(200):
            p_nf = rng.uniform(0.0, 1.0)
            k = int(rng.integers(1, 21))
            qs = 10.0 ** rng.uniform(-8, 0, size=k)
            raw = rng.exponential(size=k)
            weights = raw / raw.sum() * (1.0 - p_nf)
            prior = DiscretePrior(p_nf=p_nf, atoms=tuple(zip(qs, weights)))
            r = int(rng.integers(0, 10**6))
            n = int(rng.integers(0, 10**6))
            exact = posterior_predictive_discrete(prior, r, n)
            bound = worst_case_survival(p_nf, r, n).lower_bound
            assert exact >= bound - 1e-9, (p_nf, r, n, prior.atoms)


class TestSweep:
    def test_single_floor_cell(self):
        rows = sweep([0.9], [0], [10**6])
        assert len(rows) == 1
        assert rows[0].lower_bound == 0.9
        assert rows[0].excess_over_floor == 0.0

    def test_certainty_cell(self):
        rows = sweep([1.0], [0], [1])
        assert rows[0].lower_bound == 1.0

    def test_increasing_in_evidence(self):
        rows = sweep([0.9, 0.99], [10**2, 10**3, 10**4], [10**4])
        assert len(rows) == 6
        for p_nf in (0.9, 0.99):
            bounds = [row.lower_bound for row in rows if row.p_nf == p_nf]
            assert bounds == sorted(bounds)
            assert bounds[0] < bounds[1] < bounds[2]

    def test_row_order_is_input_order(self):
        rows = sweep([0.5, 0.9], [1, 2], [3, 4])
        key = [(row.p_nf, row.r, row.n) for row in rows]
        assert key == [
            (0.5, 1, 3), (0.5, 1, 4), (0.5, 2, 3), (0.5, 2, 4),
            (0.9, 1, 3), (0.9, 1, 4), (0.9, 2, 3), (0.9, 2, 4),
        ]

    def test_rejects_empty_grid(self):
        with pytest.raises(ValueError):
            sweep([], [1], [1])

    def test_any_iterable_grid_gives_the_list_rows(self):
        rows = sweep([0.9, 0.99], [0, 1, 2], [1, 10])
        assert sweep(np.array([0.9, 0.99]), np.arange(3), np.array([1, 10])) == rows
        assert sweep(iter([0.9, 0.99]), range(3), (1, 10)) == rows

    def test_bad_value_beside_an_empty_grid_is_reported(self):
        with pytest.raises(ValueError, match="probability"):
            sweep([1.5], [], [1])

    @given(grid_p_nf, grid_counts, grid_counts)
    @example([0.0, -0.0, 1.0, 1e-300, 0.5], [0, 1, 10**12], [0, 1, 10**12])
    @settings(max_examples=60, deadline=None)
    def test_rows_match_cell_by_cell_bits(self, p_grid, r_grid, n_grid):
        rows = sweep(p_grid, r_grid, n_grid)
        cells = [(p, r, n) for p in p_grid for r in r_grid for n in n_grid]
        assert len(rows) == len(cells)
        bits = lambda pred: (float.hex(pred.p_nf), pred.r, pred.n,
                             float.hex(pred.lower_bound), float.hex(pred.worst_case_q))
        for row, cell in zip(rows, cells):
            assert bits(row) == bits(worst_case_survival(*cell)), cell

    @pytest.mark.parametrize(
        "axis, bad",
        [(0, math.nan), (0, 1.5), (0, -0.1)]
        + [(axis, bad) for axis in (1, 2) for bad in (True, -1, 2.5, 2**1022)],
        ids=lambda v: "2**1022" if v == 2**1022 else repr(v),
    )
    def test_bad_axis_value_raises_as_its_cell_does(self, axis, bad):
        cell = [0.9, 10, 100]
        cell[axis] = bad
        with pytest.raises((TypeError, ValueError)) as single:
            worst_case_survival(*cell)
        grids = [[0.5, 0.9], [0, 10], [1, 100]]
        grids[axis].insert(1, bad)
        with pytest.raises((TypeError, ValueError)) as swept:
            sweep(*grids)
        assert type(swept.value) is type(single.value)
        assert str(swept.value) == str(single.value)

    def test_rows_are_the_cells_bounds(self):
        grids = ([0.0, 1e-300, 0.9, 1.0], [0, 1, 10**12], [0, 1, 10**4])
        rows = sweep(*grids)
        cells = [(p, r, n) for p in grids[0] for r in grids[1] for n in grids[2]]
        assert rows == [worst_case_survival(p, r, n) for p, r, n in cells]
        for row in rows:
            assert [type(getattr(row, f)) for f in ("p_nf", "r", "n")] == [float, int, int]
            assert type(row.lower_bound) is float and type(row.worst_case_q) is float


class TestSurvivalPredictionRecord:
    VALUES = {"p_nf": 0.9, "r": 3, "n": 4, "lower_bound": 0.95, "worst_case_q": 1e-3}

    def field_by_field(self) -> SurvivalPrediction:
        """The record as the generated frozen __init__ would build it."""
        record = object.__new__(SurvivalPrediction)
        for name, value in self.VALUES.items():
            object.__setattr__(record, name, value)
        return record

    def test_fields_are_the_sweep_csv_columns(self):
        names = [f.name for f in dataclasses.fields(SurvivalPrediction)]
        assert names == SWEEP_CSV_HEADER[:5]
        assert list(inspect.signature(SurvivalPrediction).parameters) == names

    @pytest.mark.parametrize("name", VALUES)
    def test_fields_are_frozen(self, name):
        record = SurvivalPrediction(**self.VALUES)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(record, name, 0)

    def test_non_field_attributes_are_frozen(self):
        record = SurvivalPrediction(**self.VALUES)
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot assign to field 'extra'"):
            record.extra = 0
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'extra'"):
            del record.extra
        with pytest.raises(dataclasses.FrozenInstanceError, match="cannot delete field 'r'"):
            del record.r

    def test_matches_a_record_built_field_by_field(self):
        record, reference = SurvivalPrediction(*self.VALUES.values()), self.field_by_field()
        assert record == reference and not record != reference
        assert hash(record) == hash(reference) == hash(tuple(self.VALUES.values()))
        assert repr(record) == repr(reference) == (
            "SurvivalPrediction(p_nf=0.9, r=3, n=4, lower_bound=0.95, worst_case_q=0.001)"
        )
        assert dataclasses.asdict(record) == dataclasses.asdict(reference) == self.VALUES

    def test_pickle_and_replace(self):
        record = SurvivalPrediction(**self.VALUES)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is SurvivalPrediction
        moved = dataclasses.replace(record, lower_bound=0.96)
        assert dataclasses.asdict(moved) == {**self.VALUES, "lower_bound": 0.96}
        assert record.lower_bound == 0.95

    @pytest.mark.parametrize(
        "build",
        [lambda: worst_case_survival(0.9, 1000, 10000), lambda: sweep([0.9], [1000], [10000])[0]],
        ids=["worst_case_survival", "sweep"],
    )
    def test_kernel_record_is_ordinary(self, build):
        record = build()
        assert 0.0 < record.worst_case_q < 1.0  # an interior cell: the Newton path built it
        values = dataclasses.astuple(record)
        reference = SurvivalPrediction(*values)
        assert record == reference and hash(record) == hash(reference)
        assert repr(record) == repr(reference)
        copy = pickle.loads(pickle.dumps(record))
        assert copy == record and type(copy) is SurvivalPrediction
        names = [f.name for f in dataclasses.fields(SurvivalPrediction)]
        assert dataclasses.asdict(record) == dict(zip(names, values))
        assert dataclasses.replace(record, n=5) == SurvivalPrediction(*values[:2], 5, *values[3:])
        for name in [*names, "extra"]:
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot assign to field '{name}'"):
                setattr(record, name, 0)
            with pytest.raises(dataclasses.FrozenInstanceError, match=f"cannot delete field '{name}'"):
                delattr(record, name)
        assert dataclasses.astuple(record) == values
