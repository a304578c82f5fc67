"""The JSON codec, fuzzed through the run config and grid.json parsers.

Valid documents, generated from the config dataclasses' own annotations,
must round-trip byte for byte. Documents broken by one mutation (a wrong
scalar type, a wrong tuple length, NaN or Infinity, an unknown key at any
depth, a section that is not an object) must raise only the parser's
declared error. ``derandomize`` keeps the examples the same on every run.
"""

import dataclasses
import json
import math
import typing

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from safemap import jsoncodec
from safemap.geo.grid import GridError, GridSpec
from safemap.model.config import SubregionScheme
from safemap.runconfig import RunConfig, RunConfigError, dumps_resolved, load_run_config

FUZZ = settings(derandomize=True, database=None, deadline=None, max_examples=100,
                suppress_health_check=[HealthCheck.too_slow])


def _hints(cls):
    return typing.get_type_hints(cls)


def _optional_arg(tp):
    """X for Optional[X], else None."""
    if typing.get_origin(tp) is typing.Union:
        return next(a for a in typing.get_args(tp) if a is not type(None))
    return None


def _is_fixed_tuple(tp):
    args = typing.get_args(tp)
    return typing.get_origin(tp) is tuple and not (len(args) == 2 and args[1] is Ellipsis)


SECTIONS = _hints(RunConfig)  # section name -> dataclass

# every (path to an object, key, annotation) a run config can hold; the
# scheme object is reached through model.schemes[0]
FIELDS = [((name,), key, tp) for name, cls in SECTIONS.items()
          for key, tp in _hints(cls).items() if key != "schemes"]
FIELDS += [(("model", "schemes", 0), key, tp) for key, tp in _hints(SubregionScheme).items()]

# values each section's own checks accept, for the keys whose type alone
# does not make a value valid
SCHEMES = st.lists(st.sampled_from([{"kind": "HS", "count": 4}, {"kind": "VS", "count": 2},
                                    {"kind": "SQ", "count": 9},
                                    {"kind": "SQ", "count": 1, "pooled": [7, 7]}]).map(dict),
                   min_size=1, max_size=3)
SPECIAL = {
    ("model", "schemes"): SCHEMES,
    ("da", "batch_size"): st.integers(1, 32).map(lambda n: 2 * n),
}


def _value(tp):
    """A value of ``tp`` that every config's own checks accept."""
    inner = _optional_arg(tp)
    if inner is not None:
        return st.none() | _value(inner)
    origin, args = typing.get_origin(tp), typing.get_args(tp)
    if origin is typing.Literal:
        return st.sampled_from(args)
    if origin is tuple:
        return st.tuples(*map(_value, args)).map(list)
    if tp is int:
        return st.integers(2, 10**6)
    if tp is float:
        return st.integers(1, 100) | st.floats(1e-6, 1e6)
    if tp is bool:
        return st.booleans()
    assert tp is str, tp
    return st.text(max_size=12)


def _section(name, cls):
    return st.fixed_dictionaries({}, optional={
        key: SPECIAL[name, key] if (name, key) in SPECIAL else _value(tp)
        for key, tp in _hints(cls).items()})


RUN_CONFIGS = st.fixed_dictionaries(
    {}, optional={name: _section(name, cls) for name, cls in SECTIONS.items()})

GRID_SPECS = st.builds(
    GridSpec,
    origin_lat=st.floats(-80, 80), origin_lon=st.floats(-180, 180),
    cell_size_m=st.integers(1, 500) | st.floats(0.5, 500),
    columns=st.integers(1, 5000), rows=st.integers(1, 5000),
    ref_lat=st.floats(-80, 80), earth_radius_m=st.floats(6.3e6, 6.4e6))


def _wrong_values(tp):
    """Values of another type than ``tp`` (a bool for an int included)."""
    inner = _optional_arg(tp)
    if inner is not None:
        return [v for v in _wrong_values(inner) if v is not None]
    if typing.get_origin(tp) is typing.Literal:
        return ["bogus", 1, None]
    if typing.get_origin(tp) is tuple:
        return [1, "x", {"a": 1}, None]
    return {int: [True, False, 1.5, "1", [1], None],
            float: [True, "1.0", [1.0], {}, None],
            bool: [1, 0, "true", None],
            str: [1, True, ["a"], None]}[tp]


@pytest.fixture(scope="module")
def doc_path(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "run.json"


def _load(path, doc):
    path.write_text(json.dumps(doc), encoding="utf-8")
    return load_run_config(path)


def _assert_holds(resolved, given):
    """Every value the document gave is in the resolved one, type included."""
    if isinstance(given, dict):
        for key, value in given.items():
            _assert_holds(resolved[key], value)
    elif isinstance(given, list):
        assert len(resolved) == len(given)
        for r, g in zip(resolved, given):
            _assert_holds(r, g)
    else:
        assert resolved == given and type(resolved) is type(given)


@FUZZ
@given(doc=RUN_CONFIGS)
def test_valid_run_config_round_trips(doc_path, doc):
    text = dumps_resolved(_load(doc_path, doc))
    _assert_holds(json.loads(text), doc)
    doc_path.write_text(text, encoding="utf-8")
    assert dumps_resolved(load_run_config(doc_path)) == text


def _set(doc, path, key, value):
    """Put ``value`` at ``doc[path...][key]``, making valid parents as needed."""
    obj = doc.setdefault(path[0], {})
    if len(path) > 1:  # the first scheme object
        schemes = obj.setdefault("schemes", [{"kind": "SQ", "count": 4}])
        obj = schemes[0]
    obj[key] = value


@FUZZ
@given(doc=RUN_CONFIGS, data=st.data())
def test_mutated_run_config_raises_only_run_config_error(doc_path, doc, data):
    kind = data.draw(st.sampled_from(["type", "length", "non_finite", "unknown", "section"]))
    if kind == "type":
        path, key, tp = data.draw(st.sampled_from(FIELDS))
        _set(doc, path, key, data.draw(st.sampled_from(_wrong_values(tp))))
    elif kind == "length":
        path, key, tp = data.draw(st.sampled_from([f for f in FIELDS if _is_fixed_tuple(f[2])]))
        n = len(typing.get_args(tp)) + data.draw(st.sampled_from([-1, 1]))
        _set(doc, path, key, [1] * n)
    elif kind == "non_finite":
        bad = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
        floats = [f for f in FIELDS if float in (f[2], _optional_arg(f[2]))
                  or float in typing.get_args(f[2])]
        path, key, tp = data.draw(st.sampled_from(floats))
        value = bad if typing.get_origin(tp) is not tuple else [bad] * len(typing.get_args(tp))
        _set(doc, path, key, value)
    elif kind == "unknown":
        depth = data.draw(st.sampled_from([(), ("train",), ("model", "schemes", 0)]))
        if depth:
            _set(doc, depth, "no_such_key", 1)
        else:
            doc["no_such_section"] = {}
    else:
        section = data.draw(st.sampled_from(sorted(SECTIONS)))
        doc[section] = data.draw(st.sampled_from([[], [1], 1, "x", None, True]))
    with pytest.raises(RunConfigError):
        _load(doc_path, doc)


@FUZZ
@given(spec=GRID_SPECS)
def test_grid_spec_round_trips(spec):
    text = json.dumps(spec.to_dict(), sort_keys=True)
    back = GridSpec.from_dict(json.loads(text))
    assert back == spec
    assert json.dumps(back.to_dict(), sort_keys=True) == text


GRID_FIELDS = _hints(GridSpec)
GRID_REQUIRED = [f.name for f in dataclasses.fields(GridSpec)
                 if f.default is dataclasses.MISSING]


@FUZZ
@given(spec=GRID_SPECS, data=st.data())
def test_mutated_grid_spec_raises_only_grid_error(spec, data):
    obj = json.loads(json.dumps(spec.to_dict()))
    key = data.draw(st.sampled_from(sorted(GRID_FIELDS)))
    kind = data.draw(st.sampled_from(["type", "non_finite", "unknown", "missing", "object"]))
    if kind == "type":
        obj[key] = data.draw(st.sampled_from(_wrong_values(GRID_FIELDS[key])))
    elif kind == "non_finite":
        obj[key] = data.draw(st.sampled_from([math.nan, math.inf, -math.inf]))
    elif kind == "unknown":
        obj["no_such_key"] = 1
    elif kind == "missing":
        del obj[data.draw(st.sampled_from(GRID_REQUIRED))]
    else:
        obj = data.draw(st.sampled_from([[], [obj], 1, "x", None]))
    with pytest.raises(GridError):
        GridSpec.from_dict(json.loads(json.dumps(obj)))


def test_type_hints_resolve_once_per_class(monkeypatch, doc_path):
    resolved = []
    real = jsoncodec.get_type_hints
    monkeypatch.setattr(jsoncodec, "get_type_hints",
                        lambda cls: resolved.append(cls.__name__) or real(cls))
    jsoncodec._field_types.cache_clear()
    for _ in range(3):
        _load(doc_path, {"model": {"schemes": [{"kind": "HS"}]}, "train": {"epochs": 2}})
    assert sorted(resolved) == ["DamConfig", "RunConfig", "SubregionScheme", "TrainConfig"]
