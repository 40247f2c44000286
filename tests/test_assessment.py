import pytest
from hypothesis import given
from hypothesis import strategies as st

from certbound.assessment import (
    ASSURANCE_LEVEL_OBJECTIVES,
    ObjectiveGroupAssessment,
    aggregate_fault_freeness,
)


def groups_from(ps):
    return [
        ObjectiveGroupAssessment(group_id=f"g{i}", objective_count=1, p_no_fault=p)
        for i, p in enumerate(ps)
    ]


group_probs = st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=12)


class TestLevelPreset:
    def test_objective_counts(self):
        assert ASSURANCE_LEVEL_OBJECTIVES == {"A": 71, "B": 69, "C": 62, "D": 26}


class TestAggregate:
    def test_single_group_is_identity(self):
        groups = groups_from([0.95])
        assert aggregate_fault_freeness(groups, "conservative") == 0.95
        assert aggregate_fault_freeness(groups, "independent") == 0.95

    def test_perfect_groups(self):
        groups = groups_from([1.0, 1.0, 1.0])
        assert aggregate_fault_freeness(groups, "conservative") == 1.0
        assert aggregate_fault_freeness(groups, "independent") == 1.0

    def test_two_group_example(self):
        groups = groups_from([0.99, 0.98])
        assert aggregate_fault_freeness(groups, "conservative") == pytest.approx(0.97, abs=1e-12)
        assert aggregate_fault_freeness(groups, "independent") == pytest.approx(0.9702, abs=1e-12)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fault_freeness([], "conservative")

    @pytest.mark.parametrize("mode", ["conservative", "independent"])
    def test_one_shot_iterable_matches_list(self, mode):
        groups = groups_from([0.9, 0.8])
        assert aggregate_fault_freeness(iter(groups), mode) == aggregate_fault_freeness(
            groups, mode
        )
        with pytest.raises(ValueError):
            aggregate_fault_freeness(iter([]), mode)

    def test_duplicate_ids_rejected(self):
        groups = [
            ObjectiveGroupAssessment("6.3.2", 7, 0.99),
            ObjectiveGroupAssessment("6.3.2", 7, 0.98),
        ]
        with pytest.raises(ValueError, match="6.3.2"):
            aggregate_fault_freeness(groups, "conservative")

    def test_duplicate_ids_message_stays_short(self):
        ids = ["x" * 10_000 + str(i) for i in range(100)]
        groups = [ObjectiveGroupAssessment(i, 1, 0.99) for i in ids + ids]
        with pytest.raises(ValueError, match="^duplicate group ids: ") as exc:
            aggregate_fault_freeness(groups, "conservative")
        assert len(str(exc.value)) <= 200

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            aggregate_fault_freeness(groups_from([0.9]), "optimistic")

    @given(group_probs)
    def test_ordering(self, ps):
        groups = groups_from(ps)
        conservative = aggregate_fault_freeness(groups, "conservative")
        independent = aggregate_fault_freeness(groups, "independent")
        assert conservative <= independent + 1e-12
        assert independent <= min(ps) + 1e-12

    @given(group_probs, st.randoms(use_true_random=False))
    def test_permutation_invariance(self, ps, rand):
        shuffled = list(ps)
        rand.shuffle(shuffled)
        for mode in ("conservative", "independent"):
            original = aggregate_fault_freeness(groups_from(ps), mode)
            permuted = aggregate_fault_freeness(groups_from(shuffled), mode)
            assert original == pytest.approx(permuted, abs=1e-12)

    @given(group_probs, st.floats(min_value=0.0, max_value=1.0 - 1e-9))
    def test_imperfect_group_never_helps(self, ps, extra):
        for mode in ("conservative", "independent"):
            base = aggregate_fault_freeness(groups_from(ps), mode)
            extended = aggregate_fault_freeness(groups_from(ps + [extra]), mode)
            assert extended <= base + 1e-12

    @given(group_probs)
    def test_conservative_saturates_at_zero(self, ps):
        deficit = sum(1.0 - p for p in ps)
        result = aggregate_fault_freeness(groups_from(ps), "conservative")
        if deficit >= 1.0:
            assert result == 0.0

    def test_group_validation(self):
        with pytest.raises(ValueError):
            ObjectiveGroupAssessment(group_id="", objective_count=1, p_no_fault=0.5)
        with pytest.raises(ValueError):
            ObjectiveGroupAssessment(group_id="g", objective_count=0, p_no_fault=0.5)
        with pytest.raises(ValueError):
            ObjectiveGroupAssessment(group_id="g", objective_count=1, p_no_fault=1.5)

    @pytest.mark.parametrize("count", [True, 2.5], ids=["bool", "fraction"])
    def test_group_objective_count_must_be_an_integer(self, count):
        with pytest.raises(TypeError, match="objective_count must be an integer"):
            ObjectiveGroupAssessment(group_id="g", objective_count=count, p_no_fault=0.9)
