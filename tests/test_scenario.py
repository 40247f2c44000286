import re
from pathlib import Path

import pytest

from certbound.fleet import ConstantGrowth, LinearGrowth, LogisticGrowth
from certbound.scenario import (
    Query,
    ScenarioFile,
    ScenarioIOError,
    ScenarioSyntaxError,
    ScenarioValidationError,
    parse_scenario,
    serialize_scenario,
)

SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"
SHIPPED = sorted(SCENARIOS.glob("*.yaml"))


def write(tmp_path, text):
    path = tmp_path / "scenario.yaml"
    path.write_text(text, encoding="utf-8")
    return path


def test_shipped_scenarios_exist():
    assert len(SHIPPED) >= 5


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_scenarios_parse(path):
    parse_scenario(path)


@pytest.mark.parametrize("path", SHIPPED, ids=lambda p: p.name)
def test_shipped_scenarios_round_trip(path, tmp_path):
    first = parse_scenario(path)
    rewritten = write(tmp_path, serialize_scenario(first))
    assert parse_scenario(rewritten) == first


def test_minimal_model_only(tmp_path):
    scenario = parse_scenario(write(tmp_path, "model:\n  p_nf: 0.9\n"))
    assert float(scenario.model.p_nf) == 0.9
    assert scenario.model.p_f_given_faulty is None
    assert scenario.evidence is None
    assert scenario.bootstrap is None


def test_missing_file_is_io_error(tmp_path):
    with pytest.raises(ScenarioIOError):
        parse_scenario(tmp_path / "nope.yaml")


@pytest.mark.parametrize(
    "data, message",
    [
        (b"model: [unclosed\n", ""),
        (b"model: {p_nf: 0.9, p_nf: 0.5}\n", r"duplicate key 'p_nf'\n.* line 1, column 20"),
        (b"model: {p_nf: 0.9}\nevidence: {r: 5}\nmodel: {p_nf: 0.5}\n",
         r"duplicate key 'model'\n.* line 3, column 1"),
        (b"# caf\xe9\nmodel: {p_nf: 0.9}\n", "invalid continuation byte"),
        (b"model: {p_nf: 0.9}\x00\n", "special characters are not allowed"),
        # yaml composes nested nodes recursively, so this deep it runs out of stack.
        (b"model: " + b"[" * 1000 + b"]" * 1000 + b"\n", "maximum recursion depth exceeded"),
        (b"model: " + b"{a: " * 1000 + b"1" + b"}" * 1000 + b"\n", "maximum recursion depth exceeded"),
        # yaml's constructors raise ValueError on scalars they cannot build.
        (b"model: {p_nf: " + b"1" * 5000 + b"}\n", "Exceeds the limit"),
        (b"model: {p_nf: 2001-13-01}\n", "month must be in 1..12"),
    ],
    ids=["unclosed", "duplicate-key", "duplicate-section", "latin-1", "nul", "deep-list",
         "deep-mapping", "5000-digit-integer", "bad-date"],
)
def test_bad_yaml_is_syntax_error(tmp_path, data, message):
    path = tmp_path / "scenario.yaml"
    path.write_bytes(data)
    with pytest.raises(ScenarioSyntaxError, match=f"invalid YAML in {re.escape(str(path))}: (?s:.*){message}"):
        parse_scenario(path)


def test_key_beside_a_merge_overrides_it(tmp_path):
    scenario = parse_scenario(write(tmp_path, "query: {n: 5, <<: {n: 7}}\n"))
    assert scenario.query == Query(n=5)


@pytest.mark.parametrize("encoding", ["utf-8-sig", "utf-16"])
def test_byte_order_mark_selects_the_encoding(tmp_path, encoding):
    path = tmp_path / "scenario.yaml"
    path.write_bytes("model: {p_nf: 0.9}\n".encode(encoding))
    assert float(parse_scenario(path).model.p_nf) == 0.9


def test_out_of_range_probability_names_key(tmp_path):
    with pytest.raises(ScenarioValidationError, match="p_nf"):
        parse_scenario(write(tmp_path, "model:\n  p_nf: 1.5\n"))


@pytest.mark.parametrize("r", [-3, 2**1022], ids=["negative", "2**1022"])
def test_count_out_of_range_names_key(tmp_path, r):
    with pytest.raises(ScenarioValidationError, match=r"evidence\.r: count must be"):
        parse_scenario(write(tmp_path, f"evidence:\n  r: {r}\n"))


@pytest.mark.parametrize(
    "text, message",
    [
        ("- {model: {p_nf: 0.9}}\n", "<root>: expected a mapping of sections"),
        ("model: [0.9]\n", "model: expected a mapping"),
        ("query: {n_grid: 5}\n", "query.n_grid: expected a non-empty list"),
        ("bootstrap:\n  growth: {initial_fleet: 2}\n  demands_per_aircraft_per_window: 10\n"
         "  window_count: 2\n  p_nf: 0.9\n  initial_evidence: 0\n  confidence_threshold: 0.5\n",
         r"bootstrap\.growth: missing required keys \['kind'\]"),
    ],
    ids=["root-list", "section-list", "n_grid-scalar", "growth-without-kind"],
)
def test_malformed_structure_names_key(tmp_path, text, message):
    with pytest.raises(ScenarioValidationError, match=message):
        parse_scenario(write(tmp_path, text))


def test_empty_file_is_an_empty_scenario(tmp_path):
    assert parse_scenario(write(tmp_path, "")) == ScenarioFile()


@pytest.mark.parametrize(
    "text, message",
    [
        ("model:\n  p_nf: 0.9\nextra:\n  x: 1\n", "unknown sections"),
        ("1: a\nx: b\n", r"<root>: unknown sections \[1, 'x'\]"),
    ],
    ids=["string-key", "mixed-type-keys"],
)
def test_unknown_top_level_section_rejected(tmp_path, text, message):
    with pytest.raises(ScenarioValidationError, match=message):
        parse_scenario(write(tmp_path, text))


@pytest.mark.parametrize(
    "text, message",
    [
        ("model:\n  p_nf: 0.9\n  typo: 1\n", "typo"),
        ("model: {1: a, x: b}\n", r"model: unknown keys \[1, 'x'\]"),
    ],
    ids=["string-key", "mixed-type-keys"],
)
def test_unknown_nested_key_rejected(tmp_path, text, message):
    with pytest.raises(ScenarioValidationError, match=message):
        parse_scenario(write(tmp_path, text))


def test_wrong_scalar_types_rejected(tmp_path):
    with pytest.raises(ScenarioValidationError, match="evidence.r"):
        parse_scenario(write(tmp_path, "evidence:\n  r: lots\n"))
    with pytest.raises(ScenarioValidationError, match="evidence.r"):
        parse_scenario(write(tmp_path, "evidence:\n  r: 3.5\n"))
    with pytest.raises(ScenarioValidationError, match="model.p_nf"):
        parse_scenario(write(tmp_path, "model:\n  p_nf: true\n"))
    with pytest.raises(ScenarioValidationError, match="evidence.r"):
        parse_scenario(write(tmp_path, "evidence:\n  r: -5\n"))


def test_query_needs_exactly_one_form(tmp_path):
    with pytest.raises(ScenarioValidationError, match="exactly one"):
        parse_scenario(write(tmp_path, "query:\n  n: 5\n  n_grid: [1, 2]\n"))
    with pytest.raises(ScenarioValidationError, match="exactly one"):
        parse_scenario(write(tmp_path, "query: {}\n"))
    scenario = parse_scenario(write(tmp_path, "query:\n  n_grid: [1, 2, 3]\n"))
    assert scenario.query.values() == (1, 2, 3)


def test_prior_normalization_enforced(tmp_path):
    text = (
        "prior:\n"
        "  p_nf: 0.9\n"
        "  atoms:\n"
        "    - {q: 0.5, weight: 0.2}\n"
    )
    with pytest.raises(ScenarioValidationError, match="sum to 1"):
        parse_scenario(write(tmp_path, text))


def test_assessment_mode_validated(tmp_path):
    text = (
        "assessment:\n"
        "  mode: hopeful\n"
        "  groups:\n"
        "    - {group_id: a, objective_count: 1, p_no_fault: 0.9}\n"
    )
    with pytest.raises(ScenarioValidationError, match="assessment.mode"):
        parse_scenario(write(tmp_path, text))


def test_growth_kind_validated(tmp_path):
    text = (
        "bootstrap:\n"
        "  growth: {kind: exponential, initial_fleet: 2}\n"
        "  demands_per_aircraft_per_window: 10\n"
        "  window_count: 2\n"
        "  p_nf: 0.9\n"
        "  initial_evidence: 0\n"
        "  confidence_threshold: 0.5\n"
    )
    with pytest.raises(ScenarioValidationError, match="bootstrap.growth.kind"):
        parse_scenario(write(tmp_path, text))


def test_growth_requires_kind_specific_keys(tmp_path):
    text = (
        "bootstrap:\n"
        "  growth: {kind: linear, initial_fleet: 2}\n"
        "  demands_per_aircraft_per_window: 10\n"
        "  window_count: 2\n"
        "  p_nf: 0.9\n"
        "  initial_evidence: 0\n"
        "  confidence_threshold: 0.5\n"
    )
    with pytest.raises(ScenarioValidationError, match="added_per_window"):
        parse_scenario(write(tmp_path, text))


def test_bootstrap_section_builds_fleet_scenario():
    scenario = parse_scenario(SCENARIOS / "fleet_bootstrap.yaml")
    fleet = scenario.bootstrap
    assert fleet.growth == LinearGrowth(initial_fleet=25, added_per_window=25)
    assert fleet.window_count == 40
    assert fleet.initial_evidence == 1000
    assert float(fleet.confidence_threshold) == 0.99


FULL_SCENARIO = """\
model: {p_nf: 0.9, p_f_given_faulty: 0.01}
evidence: {r: 1000}
query: QUERY
prior:
  p_nf: 0.9
  atoms:
    - {q: 1.0e-4, weight: 0.05}
    - {q: 0.25, weight: 0.05}
assessment:
  mode: independent
  groups:
    - {group_id: "6.3.2", objective_count: 7, p_no_fault: 0.999}
    - {group_id: "6.4", objective_count: 5, p_no_fault: 0.997}
bootstrap:
  growth: GROWTH
  demands_per_aircraft_per_window: 5000
  window_count: 12
  p_nf: 0.99
  initial_evidence: 1000
  confidence_threshold: 0.99
  include_remaining_lifetime: true
sweep: {p_nf: [0.0, 0.9, 1.0], r: [0, 1000000000000], n: [1]}
"""
GROWTHS = {
    "{kind: constant, initial_fleet: 3}": ConstantGrowth(3),
    "{kind: linear, initial_fleet: 3, added_per_window: 2}": LinearGrowth(3, 2),
    "{kind: logistic, initial_fleet: 3, growth_rate: 0.35, carrying_capacity: 80}":
        LogisticGrowth(3, 0.35, 80),
}
QUERIES = {"{n: 10000}": (10000,), "{n_grid: [0, 100, 10000]}": (0, 100, 10000)}


@pytest.mark.parametrize("query", QUERIES)
@pytest.mark.parametrize("growth", GROWTHS)
def test_every_field_round_trips(growth, query, tmp_path):
    text = FULL_SCENARIO.replace("GROWTH", growth).replace("QUERY", query)
    first = parse_scenario(write(tmp_path, text))
    assert first.bootstrap.growth == GROWTHS[growth]
    assert first.bootstrap.include_remaining_lifetime is True
    assert first.query.values() == QUERIES[query]
    assert all(getattr(first, name) is not None for name in first._fields)
    rewritten = serialize_scenario(first)
    second = parse_scenario(write(tmp_path, rewritten))
    assert second == first
    assert serialize_scenario(second) == rewritten


def test_query_type_enforces_exactly_one_form():
    with pytest.raises(ValueError, match="exactly one"):
        Query()
    with pytest.raises(ValueError, match="exactly one"):
        Query(n=1, n_grid=(1,))
    assert Query(n_grid=(1, 2)).values() == (1, 2)
