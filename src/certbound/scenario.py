"""Scenario files: strict YAML schema shared by the CLI subcommands.

A scenario is a YAML mapping with optional sections; each section feeds one
or more subcommands:

    model:       p_nf and (optionally) p_f_given_faulty
    evidence:    r, the observed failure-free demands
    query:       n or n_grid, the future demands to predict over
    prior:       an explicit discrete prior (fault-free mass plus atoms)
    assessment:  objective-group judgments and the aggregation mode
    bootstrap:   a full fleet scenario
    sweep:       grids of p_nf, r and n for the sweep subcommand

One table, ``_SECTIONS``, maps each key of each section to a value kind that
both loads (checks) and dumps the value, so parsing and serialisation agree
by construction.  Parsing is strict: unknown keys anywhere are rejected, as
are keys written twice and values of the wrong type (a typo in a
certification input should never pass silently).  Validation errors always
name the offending key and value, long values and key lists shortened.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable, NamedTuple, Optional, get_args

import yaml

from .assessment import AggregationMode, ObjectiveGroupAssessment
from .fleet import (
    ConstantGrowth,
    FleetScenario,
    LinearGrowth,
    LogisticGrowth,
)
from .inference import DiscretePrior
from .reliability import _SHORT, MixtureModel, check_demand_count, check_probability

__all__ = [
    "ScenarioError",
    "ScenarioIOError",
    "ScenarioSyntaxError",
    "ScenarioValidationError",
    "ModelSection",
    "Evidence",
    "Query",
    "AssessmentSpec",
    "SweepGrids",
    "ScenarioFile",
    "parse_scenario",
    "serialize_scenario",
]


class ScenarioError(Exception):
    """Base class for scenario-file problems."""


class ScenarioIOError(ScenarioError):
    """The scenario file could not be read."""


class ScenarioSyntaxError(ScenarioError):
    """The scenario file is not well-formed YAML."""


class ScenarioValidationError(ScenarioError):
    """The scenario file is well-formed but violates the schema."""


class ModelSection(NamedTuple):
    p_nf: float
    p_f_given_faulty: Optional[float] = None

    def mixture(self) -> MixtureModel:
        if self.p_f_given_faulty is None:
            raise ScenarioValidationError(
                "model.p_f_given_faulty: required for survival computations"
            )
        return MixtureModel(p_nf=self.p_nf, p_f_given_faulty=self.p_f_given_faulty)


class Evidence(NamedTuple):
    """A count of consecutive failure-free demands already observed."""

    r: int


@dataclass(frozen=True)
class Query:
    """Future demands to predict over: one count ``n`` or a grid ``n_grid``."""

    n: Optional[int] = None
    n_grid: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        if (self.n is None) == (self.n_grid is None):
            raise ValueError("exactly one of 'n' and 'n_grid' must be given")

    def values(self) -> tuple[int, ...]:
        return (self.n,) if self.n is not None else self.n_grid


class AssessmentSpec(NamedTuple):
    mode: AggregationMode
    groups: tuple[ObjectiveGroupAssessment, ...]


class SweepGrids(NamedTuple):
    p_nf: tuple[float, ...]
    r: tuple[int, ...]
    n: tuple[int, ...]


class ScenarioFile(NamedTuple):
    model: Optional[ModelSection] = None
    evidence: Optional[Evidence] = None
    query: Optional[Query] = None
    prior: Optional[DiscretePrior] = None
    assessment: Optional[AssessmentSpec] = None
    bootstrap: Optional[FleetScenario] = None
    sweep: Optional[SweepGrids] = None


def _fail(path: str, message: str, value: Any = ...) -> "ScenarioValidationError":
    if value is not ...:
        message = f"{message}, got {_SHORT.repr(value)}"
    return ScenarioValidationError(f"{path}: {message}")


def _sorted_keys(keys: set) -> str:
    """Keys of any YAML types in a fixed order (strings in string order), shortened."""
    return _SHORT.repr(sorted(keys, key=lambda k: (str(k), repr(k))))


def _build(build: Callable, value: Any, path: str) -> Any:
    """``build(value)``, with a ValueError or OverflowError it raises reported at ``path``."""
    try:
        return build(value)
    except (ValueError, OverflowError) as exc:
        raise _fail(path, str(exc)) from None


class _Kind(NamedTuple):
    """How one schema value is loaded from parsed YAML and dumped back."""

    load: Callable[[Any, str], Any]  # (raw value, path) -> checked value
    dump: Callable[[Any], Any]  # checked value -> plain YAML value


def _scalar(
    what: str, types: tuple, build: Callable = lambda v: v, dump: Callable = lambda v: v
) -> _Kind:
    def load(value: Any, path: str) -> Any:
        # bool is an int subclass; a YAML `true` is never a number.
        if not isinstance(value, types) or (isinstance(value, bool) and bool not in types):
            raise _fail(path, f"expected {what}", value)
        return _build(build, value, path)

    return _Kind(load, dump)


def _choice(*options: str) -> _Kind:
    def build(value: str) -> str:
        if value not in options:
            raise ValueError(f"expected one of {', '.join(map(repr, options))}, "
                             f"got {_SHORT.repr(value)}")
        return value

    return _scalar("a string", (str,), build)


def _list(item: _Kind) -> _Kind:
    def load(value: Any, path: str) -> tuple:
        if not isinstance(value, list) or not value:
            raise _fail(path, "expected a non-empty list", value)
        return tuple(item.load(v, f"{path}[{i}]") for i, v in enumerate(value))

    return _Kind(load, lambda values: [item.dump(v) for v in values])


def _mapping(value: Any, path: str) -> dict:
    if not isinstance(value, dict):
        raise _fail(path, "expected a mapping", value)
    return value


def _record(build: Callable, fields: dict[str, _Kind], optional: set = frozenset()) -> _Kind:
    """A mapping of the keys ``fields`` (``optional`` ones may be absent, and
    None is not dumped), passed by name to ``build``.  A record built as a
    plain tuple dumps its items in field order."""
    allowed, required = set(fields), set(fields) - optional

    def load(value: Any, path: str) -> Any:
        m = _mapping(value, path)
        unknown, missing = set(m) - allowed, required - set(m)
        if unknown:
            # The full allowed list (143 characters for bootstrap) gets a line of its own.
            raise _fail(path, f"unknown keys {_sorted_keys(unknown)}\n  allowed: {sorted(allowed)}")
        if missing:
            raise _fail(path, f"missing required keys {sorted(missing)}")
        kwargs = {k: kind.load(m[k], f"{path}.{k}") for k, kind in fields.items() if k in m}
        return _build(lambda kw: build(**kw), kwargs, path)

    def dump(obj: Any) -> dict:
        values = obj if type(obj) is tuple else [getattr(obj, k) for k in fields]
        return {k: kind.dump(v) for (k, kind), v in zip(fields.items(), values) if v is not None}

    return _Kind(load, dump)


def _tagged(*variants: tuple[type, dict[str, _Kind]]) -> _Kind:
    """A record whose ``kind`` key picks one of ``variants``, (class, fields)
    pairs whose class carries its tag as the class attribute ``kind``."""
    records = {
        cls.kind: _record(lambda kind, _cls=cls, **kw: _cls(**kw), {"kind": _STR, **fields})
        for cls, fields in variants
    }
    choose = _choice(*records)

    def load(value: Any, path: str) -> Any:
        m = _mapping(value, path)
        if "kind" not in m:
            raise _fail(path, "missing required keys ['kind']")
        return records[choose.load(m["kind"], f"{path}.kind")].load(m, path)

    return _Kind(load, lambda obj: records[obj.kind].dump(obj))


_NUMBER = _scalar("a number", (int, float), float, float)
_COUNT = _scalar("an integer", (int,), check_demand_count, int)
_PROBABILITY = _scalar("a number", (int, float), lambda v: check_probability(float(v)), float)
_STR = _scalar("a string", (str,))
_BOOL = _scalar("a boolean", (bool,))

_GROWTH = _tagged(
    (ConstantGrowth, {"initial_fleet": _COUNT}),
    (LinearGrowth, {"initial_fleet": _COUNT, "added_per_window": _COUNT}),
    (LogisticGrowth, {"initial_fleet": _COUNT, "growth_rate": _NUMBER,
                      "carrying_capacity": _COUNT}),
)
_ATOM = _record(lambda q, weight: (q, weight), {"q": _NUMBER, "weight": _NUMBER})
_GROUP = _record(
    ObjectiveGroupAssessment,
    {"group_id": _STR, "objective_count": _COUNT, "p_no_fault": _PROBABILITY},
)

_SECTIONS: dict[str, _Kind] = {
    "model": _record(ModelSection, {"p_nf": _PROBABILITY, "p_f_given_faulty": _PROBABILITY},
                     optional={"p_f_given_faulty"}),
    "evidence": _record(Evidence, {"r": _COUNT}),
    "query": _record(Query, {"n": _COUNT, "n_grid": _list(_COUNT)}, optional={"n", "n_grid"}),
    "prior": _record(DiscretePrior, {"p_nf": _PROBABILITY, "atoms": _list(_ATOM)}),
    "assessment": _record(
        AssessmentSpec, {"mode": _choice(*get_args(AggregationMode)), "groups": _list(_GROUP)}
    ),
    "bootstrap": _record(
        FleetScenario,
        {
            "growth": _GROWTH,
            "demands_per_aircraft_per_window": _COUNT,
            "window_count": _COUNT,
            "p_nf": _PROBABILITY,
            "initial_evidence": _COUNT,
            "confidence_threshold": _PROBABILITY,
            "include_remaining_lifetime": _BOOL,
        },
        optional={"include_remaining_lifetime"},
    ),
    "sweep": _record(SweepGrids, {"p_nf": _list(_PROBABILITY), "r": _list(_COUNT),
                                  "n": _list(_COUNT)}),
}


class _UniqueKeyLoader(yaml.SafeLoader):
    """A SafeLoader that refuses a key written twice in one mapping.  It
    checks each mapping as composed, before merge keys (``<<``) are expanded,
    so a key written next to a merge still overrides the merged one."""

    def compose_mapping_node(self, anchor: Any) -> yaml.MappingNode:
        node = super().compose_mapping_node(anchor)
        seen = set()
        for key, _ in node.value:
            if not isinstance(key, yaml.ScalarNode) or key.tag == "tag:yaml.org,2002:merge":
                continue
            if (key.tag, key.value) in seen:
                raise yaml.composer.ComposerError(
                    "while composing a mapping", node.start_mark,
                    f"found duplicate key {key.value!r}", key.start_mark,
                )
            seen.add((key.tag, key.value))
        return node


def scenario_from_mapping(raw: Any) -> ScenarioFile:
    """Validate an already-parsed mapping of sections (None means empty)."""
    if raw is None:
        raw = {}
    if not isinstance(raw, dict):
        raise _fail("<root>", "expected a mapping of sections", raw)
    unknown = set(raw) - set(_SECTIONS)
    if unknown:
        raise _fail("<root>", f"unknown sections {_sorted_keys(unknown)}")
    return ScenarioFile(
        **{name: kind.load(raw[name], name) for name, kind in _SECTIONS.items() if name in raw}
    )


def parse_scenario(path: "str | Path") -> ScenarioFile:
    """Load and validate a scenario file.

    Raises:
        ScenarioIOError: the file does not exist or cannot be read.
        ScenarioSyntaxError: the file is not valid YAML, nests too deep to load,
            or holds a scalar yaml cannot construct.
        ScenarioValidationError: the content violates the schema.
    """
    try:
        data = Path(path).read_bytes()
    except OSError as exc:
        raise ScenarioIOError(f"cannot read scenario file {path}: {exc}") from exc
    try:
        # yaml decodes the bytes itself, so a bad encoding is a YAMLError too.  It
        # recurses once per nesting level, and its constructors raise ValueError on
        # scalars they cannot build: an integer past 4,300 digits, a date like 2001-13-01.
        raw = yaml.load(data, Loader=_UniqueKeyLoader)
    except (yaml.YAMLError, RecursionError, ValueError) as exc:
        raise ScenarioSyntaxError(f"invalid YAML in {path}: {exc}") from exc
    return scenario_from_mapping(raw)


def serialize_scenario(scenario: ScenarioFile) -> str:
    """YAML text that parses back to an identical scenario."""
    sections = ((name, kind, getattr(scenario, name)) for name, kind in _SECTIONS.items())
    mapping = {name: kind.dump(value) for name, kind, value in sections if value is not None}
    return yaml.safe_dump(mapping, sort_keys=False)
