import dataclasses
import pickle
import subprocess
import sys
from pathlib import Path

import pytest

import certbound
from certbound import assessment, fleet, inference, reliability, scenario

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"

EXPORTED = {
    # assessment
    "ASSURANCE_LEVEL_OBJECTIVES", "ObjectiveGroupAssessment", "aggregate_fault_freeness",
    # fleet
    "BootstrapTrace", "ConstantGrowth", "FeasibilityVerdict", "FleetGrowthModel",
    "FleetScenario", "LinearGrowth", "LogisticGrowth", "WindowRecord",
    "check_feasibility", "run_bootstrap",
    # inference
    "DegenerateConditioningError", "DiscretePrior", "SurvivalPrediction", "grid_worst_case",
    "posterior_predictive_discrete", "sweep", "worst_case_survival",
    # reliability
    "InfeasibleScaleError", "MixtureModel", "MonteCarloEstimate", "check_demand_count",
    "check_probability", "monte_carlo_survival", "pfd", "survival_probability",
    # scenario
    "AssessmentSpec", "Evidence", "ModelSection", "Query", "ScenarioError", "ScenarioFile",
    "ScenarioIOError", "ScenarioSyntaxError", "ScenarioValidationError", "SweepGrids",
    "parse_scenario", "serialize_scenario",
}


def test_top_level_exports_are_pinned():
    assert len(certbound.__all__) == len(EXPORTED)
    assert set(certbound.__all__) == EXPORTED


def test_top_level_names_are_the_submodules_objects():
    for module in (assessment, fleet, inference, reliability, scenario):
        for name in module.__all__:
            assert getattr(certbound, name) is getattr(module, name)


def test_import_loads_numpy_and_yaml():
    # The benchmark's per-layer import timing (perfbench/layers.py, imports()) indexes
    # numpy and yaml among the modules `import certbound` loads; a tree importing them
    # lazily made its traced run exit 2 with KeyError: 'numpy'.  Delete this test with
    # the change that lands ROADMAP items 2 and 3.
    src = str(Path(certbound.__file__).resolve().parent.parent)
    code = (f"import sys; sys.path.insert(0, {src!r}); import certbound; "
            "print('numpy' in sys.modules, 'yaml' in sys.modules)")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         check=True).stdout
    assert out.split() == ["True", "True"]


def _samples() -> dict:
    """One instance of every public record class, built from sample values."""
    c = certbound
    prediction = c.SurvivalPrediction(0.9, 3, 4, 0.95, 1e-3)
    window = c.WindowRecord(0, 3, 30, 0, prediction, True, prediction)
    group = c.ObjectiveGroupAssessment("6.3.2", 7, 0.999)
    growth = c.LinearGrowth(3, 2)
    fleet_scenario = c.FleetScenario(growth, 10, 2, 0.9, 0, 0.5, True)
    model, evidence, query = c.ModelSection(0.9, None), c.Evidence(5), c.Query(n=4)
    prior = c.DiscretePrior(0.9, ((1e-2, 0.1),))
    assessment_spec = c.AssessmentSpec("conservative", (group,))
    grids = c.SweepGrids((0.9,), (0, 5), (4,))
    return {type(obj): obj for obj in [
        prediction, window, group, growth, fleet_scenario, model, evidence, query, prior,
        assessment_spec, grids, c.BootstrapTrace((window,), 30, 0.5),
        c.FeasibilityVerdict(True, None, 30, 0.45), c.MonteCarloEstimate(0.95, 0.02, 100, 7),
        c.MixtureModel(0.9, 0.01), c.ConstantGrowth(3), c.LogisticGrowth(3, 0.35, 80),
        c.ScenarioFile(model, evidence, query, prior, assessment_spec, fleet_scenario, grids),
    ]}


RECORDS = [
    obj for obj in map(vars(certbound).get, certbound.__all__)
    if isinstance(obj, type) and (dataclasses.is_dataclass(obj) or issubclass(obj, tuple))
]


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_record_invariants(cls):
    assert len(RECORDS) == 18
    record = _samples()[cls]
    # A record that checks its inputs is a frozen dataclass; one that only
    # carries values is a NamedTuple.  SurvivalPrediction stays a dataclass.
    is_dataclass = dataclasses.is_dataclass(cls)
    assert is_dataclass == (hasattr(cls, "__post_init__") or cls is certbound.SurvivalPrediction)
    assert issubclass(cls, tuple) != is_dataclass
    copy = pickle.loads(pickle.dumps(record))
    assert copy == record and type(copy) is cls and hash(copy) == hash(record)
    names = [f.name for f in dataclasses.fields(cls)] if is_dataclass else cls._fields
    text = repr(record)
    assert text.startswith(f"{cls.__name__}(")
    assert all(f"{name}=" in text for name in names)
    for name in names:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))


# Every field that holds a probability, by record class.
PROBABILITY_FIELDS = {
    certbound.MixtureModel: ("p_nf", "p_f_given_faulty"),
    certbound.DiscretePrior: ("p_nf",),
    certbound.FleetScenario: ("p_nf", "confidence_threshold"),
    certbound.ObjectiveGroupAssessment: ("p_no_fault",),
    certbound.ModelSection: ("p_nf", "p_f_given_faulty"),
    certbound.BootstrapTrace: ("threshold",),
    certbound.SurvivalPrediction: ("p_nf", "lower_bound", "worst_case_q"),
}


def test_probabilities_are_plain_floats():
    shipped = [certbound.parse_scenario(SCENARIOS / name)
               for name in ("fleet_bootstrap.yaml", "point_prediction.yaml")]
    records = [*_samples().values(), *shipped]
    records += [part for f in shipped for part in f if part is not None]
    records += [g for f in shipped if f.assessment for g in f.assessment.groups]
    trace = certbound.run_bootstrap(shipped[0].bootstrap)
    records += [trace, trace.windows[0].prediction]
    assert {type(record) for record in records} >= set(PROBABILITY_FIELDS)
    for record in records:
        for name in PROBABILITY_FIELDS.get(type(record), ()):
            value = getattr(record, name)
            assert value is None or type(value) is float, (type(record).__name__, name)
        assert "Probability(" not in repr(record)
    model = certbound.MixtureModel(0.9, 0.01)
    prior = certbound.DiscretePrior(0.9, ((1e-2, 0.1),))
    group = certbound.ObjectiveGroupAssessment("6.3.2", 7, 0.999)
    results = [certbound.pfd(model), certbound.survival_probability(model, 100),
               certbound.posterior_predictive_discrete(prior, 10, 100),
               certbound.aggregate_fault_freeness([group], "conservative"),
               certbound.aggregate_fault_freeness([group], "independent")]
    assert [type(value) for value in results] == [float] * 5
