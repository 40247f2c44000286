import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from certbound.reliability import (
    InfeasibleScaleError,
    MixtureModel,
    check_demand_count,
    check_probability,
    monte_carlo_survival,
    pfd,
    survival_probability,
)

from oracles import per_demand_survival_fraction, survival_mp

probabilities = st.floats(min_value=0.0, max_value=1.0)

# survival_mp(0.9, 0.01, 100) = 0.9366032341273229638...
SURVIVAL_09_001_100 = 0.9366032341273230


class TestProbability:
    @pytest.mark.parametrize("bad", [-0.1, 1.0000001, 1.5, math.nan, math.inf, -math.inf])
    def test_rejects_out_of_range(self, bad):
        with pytest.raises(ValueError):
            check_probability(bad)

    @given(probabilities)
    def test_accepts_unit_interval(self, p):
        assert check_probability(p).hex() == p.hex()

    def test_negative_zero_is_normalised(self):
        assert math.copysign(1.0, check_probability(-0.0)) == 1.0


class TestDemandCount:
    def test_accepts_counts_below_the_cap(self):
        assert check_demand_count(0) == 0
        assert check_demand_count(2**1022 - 1, "r") == 2**1022 - 1

    # 10**5000 is past the 4,300 digits int.__str__ will print.
    @pytest.mark.parametrize("base, exponent", [(2, 1022), (10, 320), (10, 5000)])
    def test_rejects_counts_past_float_range(self, base, exponent):
        with pytest.raises(ValueError, match=r"r must be < 2\*\*1022"):
            check_demand_count(base**exponent, "r")

    def test_survival_rejects_count_past_float_range(self):
        with pytest.raises(ValueError, match=r"n must be < 2\*\*1022"):
            survival_probability(MixtureModel(0.9, 0.01), 10**320)


class TestPfd:
    def test_fault_free_never_fails(self):
        assert pfd(MixtureModel(p_nf=1.0, p_f_given_faulty=0.7)) == 0.0

    def test_zero_failure_rate(self):
        assert pfd(MixtureModel(p_nf=0.3, p_f_given_faulty=0.0)) == 0.0

    def test_exact_product(self):
        assert pfd(MixtureModel(p_nf=0.5, p_f_given_faulty=0.5)) == 0.25

    @given(probabilities, probabilities)
    def test_consistent_with_one_demand_survival(self, p_nf, q):
        model = MixtureModel(p_nf=p_nf, p_f_given_faulty=q)
        assert abs(survival_probability(model, 1) - (1.0 - pfd(model))) <= 1e-15


class TestSurvivalProbability:
    def test_zero_demands_always_survived(self):
        assert survival_probability(MixtureModel(0.9, 0.01), 0) == 1.0

    # p_nf == 1 takes the general formula, 1.0 + 0.0 * survive, which is exactly 1.
    @pytest.mark.parametrize("q", [0.0, 5e-324, 1e-300, 0.5, 1.0 - 1e-16, 1.0])
    @pytest.mark.parametrize("n", [1, 10**9, 2**1021])
    def test_certain_fault_freeness_dominates(self, q, n):
        assert survival_probability(MixtureModel(1.0, q), n) == 1.0

    def test_exact_at_the_corners(self):
        assert survival_probability(MixtureModel(0.25, 1.0), 3) == 0.25
        assert survival_probability(MixtureModel(0.25, 0.0), 10**12) == 1.0

    def test_known_value(self):
        value = survival_probability(MixtureModel(0.9, 0.01), 100)
        assert value == pytest.approx(SURVIVAL_09_001_100, abs=1e-15)
        assert value == pytest.approx(float(survival_mp(0.9, 0.01, 100)), abs=1e-15)

    @given(probabilities, probabilities, st.integers(min_value=0, max_value=10**12))
    def test_floor_property(self, p_nf, q, n):
        value = survival_probability(MixtureModel(p_nf, q), n)
        assert p_nf <= value <= 1.0

    @given(
        probabilities,
        probabilities,
        st.integers(min_value=0, max_value=10**9),
        st.integers(min_value=0, max_value=10**9),
    )
    def test_non_increasing_in_n(self, p_nf, q, n1, n2):
        model = MixtureModel(p_nf, q)
        lo, hi = sorted((n1, n2))
        assert survival_probability(model, hi) <= survival_probability(model, lo)

    @given(probabilities, probabilities, probabilities, st.integers(min_value=0, max_value=10**9))
    def test_monotone_in_model(self, a, b, q, n):
        lo, hi = sorted((a, b))
        assert survival_probability(MixtureModel(hi, q), n) >= survival_probability(
            MixtureModel(lo, q), n
        )
        q_lo, q_hi = sorted((a, b))
        assert survival_probability(MixtureModel(q, q_hi), n) <= survival_probability(
            MixtureModel(q, q_lo), n
        )

    @given(st.floats(min_value=0.0, max_value=1.0 - 1e-9), st.floats(min_value=1e-6, max_value=1.0))
    def test_large_n_limit_is_floor(self, p_nf, q):
        value = survival_probability(MixtureModel(p_nf, q), 10**12)
        assert abs(value - p_nf) < 1e-9


class TestMonteCarlo:
    def test_fault_free_is_exact(self):
        mc = monte_carlo_survival(MixtureModel(1.0, 0.37), 10**3, trials=10**4, seed=7)
        assert mc.estimate == 1.0

    def test_zero_demands_is_exact(self):
        mc = monte_carlo_survival(MixtureModel(0.2, 0.9), 0, trials=10**4, seed=7)
        assert mc.estimate == 1.0

    def test_agrees_with_analytic(self):
        model = MixtureModel(0.9, 0.01)
        mc = monte_carlo_survival(model, 100, trials=10**6, seed=12345)
        analytic = survival_probability(model, 100)
        assert abs(mc.estimate - analytic) <= 3.0 * mc.standard_error

    def test_randomized_agreement(self):
        rng = np.random.default_rng(99)
        misses = 0
        for i in range(10):
            p_nf = rng.uniform(0.2, 0.95)
            q = 10.0 ** rng.uniform(-3, -0.5)
            n = int(rng.integers(1, 500))
            model = MixtureModel(p_nf, q)
            mc = monte_carlo_survival(model, n, trials=10**5, seed=1000 + i)
            if abs(mc.estimate - survival_probability(model, n)) > 3.0 * mc.standard_error:
                misses += 1
        assert misses <= 1

    def test_deterministic_for_fixed_seed(self):
        model = MixtureModel(0.5, 0.05)
        a = monte_carlo_survival(model, 50, trials=2000, seed=3)
        b = monte_carlo_survival(model, 50, trials=2000, seed=3)
        c = monte_carlo_survival(model, 50, trials=2000, seed=4)
        assert a.estimate == b.estimate
        assert a.estimate != c.estimate

    def test_standard_error_definition(self):
        mc = monte_carlo_survival(MixtureModel(0.5, 0.1), 20, trials=5000, seed=11)
        expected = math.sqrt(mc.estimate * (1.0 - mc.estimate) / mc.trials)
        assert mc.standard_error == pytest.approx(expected, abs=1e-15)

    def test_large_n_runs(self):
        model = MixtureModel(0.5, 0.1)
        mc = monte_carlo_survival(model, 10**7, trials=10**4, seed=0)
        assert abs(mc.estimate - survival_probability(model, 10**7)) <= 3.0 * mc.standard_error

    @pytest.mark.parametrize("trials", [True, 2.5])
    def test_non_integer_trials_rejected(self, trials):
        with pytest.raises(TypeError, match="trials must be an integer"):
            monte_carlo_survival(MixtureModel(0.5, 0.1), 10, trials=trials, seed=0)

    def test_numpy_trials_are_stored_as_int(self):
        mc = monte_carlo_survival(MixtureModel(0.5, 0.1), 10, trials=np.int64(1000), seed=0)
        assert (type(mc.trials), type(mc.estimate)) == (int, float)

    def test_unresolvable_scale_refused(self):
        with pytest.raises(InfeasibleScaleError):
            monte_carlo_survival(MixtureModel(0.5, 0.1), 2**63 - 1, trials=10, seed=0)

    def test_saturated_first_failure_survives(self):
        mc = monte_carlo_survival(MixtureModel(0.5, 1e-300), 10**12, trials=10**4, seed=5)
        assert mc.estimate == 1.0

    def test_every_trial_counted_across_chunks(self):
        trials = 2**20 + 3
        assert monte_carlo_survival(MixtureModel(1.0, 0.5), 10, trials, seed=1).estimate == 1.0
        mc = monte_carlo_survival(MixtureModel(0.5, 1.0), 1, trials, seed=1)
        assert mc.trials == trials
        assert abs(mc.estimate - 0.5) <= 4.0 * mc.standard_error

    @pytest.mark.parametrize(
        "p_nf, q, n",
        [(0.5, 0.1, 10), (0.2, 0.01, 50), (0.9, 0.5, 3), (0.0, 0.03, 20), (0.3, 1.0, 4)],
    )
    def test_agrees_with_per_demand_reference(self, p_nf, q, n):
        trials = 10**5
        mc = monte_carlo_survival(MixtureModel(p_nf, q), n, trials, seed=21)
        ref = per_demand_survival_fraction(p_nf, q, n, trials, seed=22)
        ref_se = math.sqrt(ref * (1.0 - ref) / trials)
        assert abs(mc.estimate - ref) <= 4.0 * math.hypot(mc.standard_error, ref_se)

    def test_rejects_zero_trials(self):
        with pytest.raises(ValueError):
            monte_carlo_survival(MixtureModel(0.5, 0.1), 10, trials=0, seed=0)
