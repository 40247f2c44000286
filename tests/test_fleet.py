import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from certbound.fleet import (
    BootstrapTrace,
    ConstantGrowth,
    FleetScenario,
    LinearGrowth,
    LogisticGrowth,
    check_feasibility,
    run_bootstrap,
)
from certbound.inference import grid_worst_case, worst_case_survival

# Scenarios over every growth kind, the p_nf endpoints and extremes, and evidence up to 10**12.
growths = st.one_of(
    st.builds(ConstantGrowth, st.integers(1, 1000)),
    st.builds(LinearGrowth, st.integers(1, 1000), st.integers(0, 100)),
    st.integers(1, 1000).flatmap(lambda size: st.builds(
        LogisticGrowth, st.just(size), st.floats(0.0, 2.0), st.integers(size, 20 * size))),
)
scenario_p_nf = st.one_of(
    st.sampled_from([0.0, 1.0]),
    st.floats(min_value=-300.0, max_value=math.log10(0.5)).map(lambda e: 10.0**e),
    st.floats(min_value=-15.0, max_value=math.log10(0.5)).map(lambda e: 1.0 - 10.0**e),
)
log_counts = lambda top: st.floats(0.0, top).map(lambda e: int(round(10.0**e)))
fleet_scenarios = st.builds(
    FleetScenario,
    growth=growths,
    demands_per_aircraft_per_window=log_counts(6.0),
    window_count=st.integers(1, 6),
    p_nf=scenario_p_nf,
    initial_evidence=st.one_of(st.just(0), log_counts(12.0)),
    confidence_threshold=st.floats(0.0, 1.0),
    include_remaining_lifetime=st.booleans(),
)


def constant_scenario(**overrides):
    base = dict(
        growth=ConstantGrowth(initial_fleet=100),
        demands_per_aircraft_per_window=10**3,
        window_count=20,
        p_nf=0.99,
        initial_evidence=10**3,
        confidence_threshold=0.99,
    )
    base.update(overrides)
    return FleetScenario(**base)


class TestGrowthModels:
    def test_constant(self):
        assert ConstantGrowth(10).fleet_size(0) == 10
        assert ConstantGrowth(10).fleet_size(99) == 10

    def test_linear(self):
        growth = LinearGrowth(initial_fleet=1, added_per_window=1)
        assert [growth.fleet_size(w) for w in range(4)] == [1, 2, 3, 4]

    def test_logistic_stays_at_initial_without_growth(self):
        growth = LogisticGrowth(initial_fleet=7, growth_rate=0.0, carrying_capacity=700)
        assert [growth.fleet_size(w) for w in range(3)] == [7, 7, 7]

    def test_logistic_monotone_and_capped(self):
        growth = LogisticGrowth(initial_fleet=10, growth_rate=0.5, carrying_capacity=500)
        sizes = [growth.fleet_size(w) for w in range(40)]
        assert sizes == sorted(sizes)
        assert sizes[0] == 10
        assert sizes[-1] == 500
        assert all(isinstance(s, int) and s >= 1 for s in sizes)

    def test_logistic_rounds_half_up(self):
        # exp(-2 ln 2) is exactly 0.25 in floats, so the window-1 size is
        # exactly 2.5; half-up gives 3 where banker's rounding would give 2
        growth = LogisticGrowth(
            initial_fleet=1, growth_rate=2 * math.log(2.0), carrying_capacity=5
        )
        assert growth.fleet_size(1) == 3

    def test_validation(self):
        with pytest.raises(ValueError, match="initial_fleet must be >= 1, got 0"):
            ConstantGrowth(0)
        with pytest.raises(ValueError, match="added_per_window must be >= 0, got -1"):
            LinearGrowth(initial_fleet=1, added_per_window=-1)
        with pytest.raises(ValueError):
            LogisticGrowth(initial_fleet=10, growth_rate=0.1, carrying_capacity=9)
        for rate in (math.nan, -0.1, math.inf):
            with pytest.raises(ValueError, match="growth_rate must be finite and >= 0"):
                LogisticGrowth(initial_fleet=1, growth_rate=rate, carrying_capacity=5)

    @pytest.mark.parametrize(
        "make",
        [
            lambda: ConstantGrowth(2.5),
            lambda: ConstantGrowth(True),
            lambda: LinearGrowth(initial_fleet=1.5, added_per_window=1),
            lambda: LinearGrowth(initial_fleet=1, added_per_window=0.5),
            lambda: LogisticGrowth(initial_fleet=1.5, growth_rate=0.1, carrying_capacity=5),
            lambda: LogisticGrowth(initial_fleet=1, growth_rate=0.1, carrying_capacity=5.5),
        ],
        ids=["constant", "constant-bool", "linear-initial", "linear-added",
             "logistic-initial", "logistic-capacity"],
    )
    def test_fractional_counts_raise(self, make):
        with pytest.raises(TypeError):
            make()


class TestDemandsInWindow:
    def test_constant_fleet_product(self):
        scenario = constant_scenario(
            growth=ConstantGrowth(10), demands_per_aircraft_per_window=500, window_count=3
        )
        assert run_bootstrap(scenario).windows[0].window_demands == 5000

    def test_smallest_case(self):
        scenario = constant_scenario(
            growth=LinearGrowth(initial_fleet=1, added_per_window=1),
            demands_per_aircraft_per_window=1,
            window_count=2,
        )
        windows = run_bootstrap(scenario).windows
        assert [w.window_demands for w in windows] == [1, 2]


class TestRunBootstrap:
    def test_zero_windows_raises(self):
        # A run of no windows checks nothing, so it can give no verdict.
        with pytest.raises(ValueError, match=r"^window_count must be >= 1, got 0$"):
            constant_scenario(window_count=0)

    def test_certain_fault_freeness_always_passes(self):
        trace = run_bootstrap(constant_scenario(p_nf=1.0, window_count=5))
        assert all(w.meets_threshold for w in trace.windows)
        assert all(w.prediction.lower_bound == 1.0 for w in trace.windows)

    def test_windows_match_grid_oracle(self):
        trace = run_bootstrap(constant_scenario())
        assert len(trace.windows) == 20
        for w in trace.windows:
            oracle = grid_worst_case(0.99, w.accumulated_evidence, w.window_demands, 10**5)
            assert abs(w.prediction.lower_bound - oracle.lower_bound) <= 1e-6

    def test_evidence_accounting(self):
        trace = run_bootstrap(constant_scenario())
        for prev, cur in zip(trace.windows, trace.windows[1:]):
            assert cur.accumulated_evidence - prev.accumulated_evidence == prev.window_demands
        total = sum(w.window_demands for w in trace.windows)
        assert trace.cumulative_demands == total
        last = trace.windows[-1]
        r_final = last.accumulated_evidence + last.window_demands
        assert r_final - trace.windows[0].accumulated_evidence == total

    def test_floor_per_window(self):
        trace = run_bootstrap(constant_scenario(p_nf=0.75, confidence_threshold=0.5))
        assert all(w.prediction.lower_bound >= 0.75 for w in trace.windows)

    def test_constant_fleet_bounds_never_decrease(self):
        trace = run_bootstrap(constant_scenario())
        bounds = [float(w.prediction.lower_bound) for w in trace.windows]
        assert bounds == sorted(bounds)

    def test_deterministic(self):
        assert run_bootstrap(constant_scenario()) == run_bootstrap(constant_scenario())

    def test_remaining_lifetime_predictions(self):
        scenario = constant_scenario(window_count=4, include_remaining_lifetime=True)
        trace = run_bootstrap(scenario)
        first = trace.windows[0]
        expected = worst_case_survival(0.99, 10**3, trace.cumulative_demands)
        assert first.remaining_lifetime == expected
        # last window's remaining span is just its own demands
        last = trace.windows[-1]
        assert last.remaining_lifetime == last.prediction

    @given(fleet_scenarios)
    @example(constant_scenario(p_nf=1e-300, initial_evidence=0, include_remaining_lifetime=True))
    @settings(max_examples=60, deadline=None)
    def test_windows_match_single_calls_bit_for_bit(self, scenario):
        trace = run_bootstrap(scenario)
        assert len(trace.windows) == scenario.window_count
        final = scenario.initial_evidence + trace.cumulative_demands
        bits = lambda pred: (float.hex(pred.p_nf), pred.r, pred.n,
                             float.hex(pred.lower_bound), float.hex(pred.worst_case_q))
        for w in trace.windows:
            r, n = w.accumulated_evidence, w.window_demands
            assert bits(w.prediction) == bits(worst_case_survival(scenario.p_nf, r, n))
            if scenario.include_remaining_lifetime:
                lifetime = worst_case_survival(scenario.p_nf, r, final - r)
                assert bits(w.remaining_lifetime) == bits(lifetime)
            else:
                assert w.remaining_lifetime is None

    def test_each_window_fleet_size_is_computed_once(self):
        calls = []

        class CountingGrowth:
            def fleet_size(self, window_index):
                calls.append(window_index)
                return 10 + window_index

        trace = run_bootstrap(constant_scenario(growth=CountingGrowth(), window_count=5))
        assert calls == [0, 1, 2, 3, 4]
        assert [w.fleet_size for w in trace.windows] == [10, 11, 12, 13, 14]
        assert [w.window_demands for w in trace.windows] == [10**4, 11000, 12000, 13000, 14000]

    def test_evidence_past_count_cap_names_scenario_keys(self):
        # Windows of 1, 2, 3 and 4 times 2**1020 demands: every window's own
        # count is valid, but the evidence reaches 10 * 2**1020 >= 2**1022.
        scenario = constant_scenario(
            growth=LinearGrowth(initial_fleet=1, added_per_window=1),
            demands_per_aircraft_per_window=2**1020,
            window_count=4,
        )
        message = r"initial_evidence \+ all window demands must be < 2\*\*1022"
        with pytest.raises(ValueError, match=message):
            run_bootstrap(scenario)

    def test_window_count_cap(self):
        # A run holds every window at once, so the count is refused before any list is built.
        trace = run_bootstrap(constant_scenario(growth=ConstantGrowth(1), window_count=10**5))
        assert len(trace.windows) == 10**5
        with pytest.raises(ValueError, match=r"^window_count must be <= 100000, got 100001$"):
            constant_scenario(window_count=10**5 + 1)
        with pytest.raises(ValueError, match=r"^window_count must be <= 100000, got a 84-bit"):
            constant_scenario(window_count=10**25)

    @pytest.mark.parametrize("growth", [
        lambda count: ConstantGrowth(count(2**20)),
        lambda count: LinearGrowth(count(2**20), count(1)),
        lambda count: LogisticGrowth(count(2**20), 0.5, count(2**21)),
    ], ids=["constant", "linear", "logistic"])
    def test_numpy_counts_are_stored_as_int(self, growth):
        # 2**20 aircraft flying 2**44 demands each is 2**64 demands a window:
        # an int64 product wraps, so counts kept as np.int64 give wrong windows.
        scenario = lambda count: FleetScenario(
            growth(count), count(2**44), count(3), 0.9, count(0), 0.5)
        wide = scenario(np.int64)
        stored = [v for k, v in vars(wide.growth).items() if k != "growth_rate"]
        stored += [wide.demands_per_aircraft_per_window, wide.window_count, wide.initial_evidence]
        assert [type(v) for v in stored] == [int] * len(stored)
        expected = run_bootstrap(scenario(int))
        assert expected.windows[0].window_demands >= 2**64
        assert run_bootstrap(wide).windows == expected.windows

    def test_negative_initial_evidence_raises(self):
        with pytest.raises(ValueError, match="initial_evidence"):
            constant_scenario(initial_evidence=-1)

    def test_zero_demand_rate_raises(self):
        with pytest.raises(ValueError, match="demands_per_aircraft_per_window must be >= 1, got 0"):
            constant_scenario(demands_per_aircraft_per_window=0)

    def test_fractional_demand_rate_raises(self):
        with pytest.raises(TypeError, match="demands_per_aircraft_per_window"):
            constant_scenario(demands_per_aircraft_per_window=2.5)


class TestCheckFeasibility:
    def test_margin_against_threshold(self):
        trace = run_bootstrap(constant_scenario(p_nf=1.0, window_count=3))
        verdict = check_feasibility(trace)
        assert verdict.all_windows_pass
        assert verdict.minimum_margin == pytest.approx(0.01, abs=1e-12)

    def test_reports_first_failing_window(self):
        # demanding threshold with weak assessment: early windows miss
        scenario = constant_scenario(p_nf=0.9, confidence_threshold=0.99, window_count=5)
        trace = run_bootstrap(scenario)
        verdict = check_feasibility(trace)
        assert not verdict.all_windows_pass
        assert verdict.first_failing_window == 0

    def test_verdict_matches_recomputation(self):
        trace = run_bootstrap(constant_scenario())
        verdict = check_feasibility(trace)
        recomputed = [
            worst_case_survival(0.99, w.accumulated_evidence, w.window_demands)
            for w in trace.windows
        ]
        passes = [p.lower_bound >= trace.threshold for p in recomputed]
        assert verdict.all_windows_pass == all(passes)
        margins = [float(p.lower_bound) - float(trace.threshold) for p in recomputed]
        assert verdict.minimum_margin == pytest.approx(min(margins), abs=1e-15)

    @given(fleet_scenarios)
    @settings(max_examples=20, deadline=None)
    def test_every_verdict_has_a_float_margin(self, scenario):
        trace = run_bootstrap(scenario)
        verdict = check_feasibility(trace)
        margins = [w.prediction.lower_bound - trace.threshold for w in trace.windows]
        assert type(verdict.minimum_margin) is float
        assert verdict.minimum_margin == min(margins)
        assert verdict.all_windows_pass == (verdict.minimum_margin >= 0.0)
