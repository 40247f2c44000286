import subprocess
import sys
from pathlib import Path

import certbound
from certbound import assessment, fleet, inference, reliability, scenario

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
    "InfeasibleScaleError", "MixtureModel", "MonteCarloEstimate", "Probability",
    "check_demand_count", "monte_carlo_survival", "pfd", "survival_probability",
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
