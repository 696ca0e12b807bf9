"""The built-in config check against jsonschema's Draft 2020-12 validator.

jsonschema is the test reference only: no run imports it.  The built-in
check rejects two things JSON Schema accepts, an integral float in an
integer field and a non-finite number; `STRICT` is the reference with
those two types narrowed the same way.
"""

import copy
import json
import math
from pathlib import Path

import jsonschema
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovskale import ModelParams, ScaleSpec, SeriesConfig
from ovskale.cli import main
from ovskale.config import CONFIG_SCHEMA, KEYWORDS, _errors, build_runtime, validate_config
from ovskale.errors import ConfigError
from ovskale.scale import DEFAULT_REGULAR_CONSTANT

ROOT = Path(__file__).resolve().parents[1]
STOCK = {p.stem: json.loads(p.read_text()) for p in sorted((ROOT / "configs").glob("*.json"))}

PLAIN = jsonschema.Draft202012Validator(CONFIG_SCHEMA)
_base = jsonschema.Draft202012Validator.TYPE_CHECKER
STRICT = jsonschema.validators.extend(
    jsonschema.Draft202012Validator,
    type_checker=_base.redefine_many(
        {
            "integer": lambda _, x: isinstance(x, int) and not isinstance(x, bool),
            "number": lambda c, x: _base.is_type(x, "number") and math.isfinite(x),
        }
    ),
)(CONFIG_SCHEMA)


def _subschemas(schema: dict):
    """Every schema nested in schema, itself included."""
    yield schema
    for key, value in schema.items():
        if key == "properties":
            for sub in value.values():
                yield from _subschemas(sub)
        elif key == "items":
            yield from _subschemas(value)
        elif key in ("anyOf", "oneOf"):
            for sub in value:
                yield from _subschemas(sub)


def _nodes(doc, path=()):
    """(path, value) of every value in a JSON document, the root included."""
    yield path, doc
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _nodes(value, path + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _nodes(value, path + (i,))


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _first_error(doc):
    """(path, message) the built-in check reports, or None when doc passes."""
    try:
        validate_config(doc)
    except ConfigError as err:
        where, message = str(err).removeprefix("config invalid at ").split(": ", 1)
        return where, message
    return None


def _strictly_typed(value) -> bool:
    """Whether value holds a float that is integral or not finite."""
    return any(
        isinstance(v, float) and (v.is_integer() or not math.isfinite(v)) for _, v in _nodes(value)
    )


_NAMES = sorted({key for s in _subschemas(CONFIG_SCHEMA) for key in s.get("properties", {})})
_WORDS = sorted(
    {s["const"] for s in _subschemas(CONFIG_SCHEMA) if "const" in s}
    | {w for s in _subschemas(CONFIG_SCHEMA) for w in s.get("enum", ())}
)
_SCALARS = st.one_of(
    st.none(),
    st.booleans(),
    st.integers(-2, 14),
    st.sampled_from([100, 99, 2**70]),
    st.integers(-2, 14).map(float),
    st.floats(),
    st.sampled_from([math.nan, math.inf, -math.inf, 0.5, 1.0000001, 1e-300]),
    st.sampled_from(_WORDS),
    st.text(max_size=3),
)
_JSON = st.recursive(
    _SCALARS,
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(_NAMES) | st.text(max_size=3), inner, max_size=3),
    max_leaves=6,
)


@st.composite
def _mutated(draw):
    """A stock config with one to three values replaced, keys deleted or keys added."""
    doc = copy.deepcopy(STOCK[draw(st.sampled_from(sorted(STOCK)))])
    for _ in range(draw(st.integers(1, 3))):
        nodes = list(_nodes(doc))
        kind = draw(st.sampled_from(["replace", "delete", "add"]))
        if kind == "replace":
            # mostly a leaf; an object or array now and then
            leaf = draw(st.integers(0, 3)) > 0
            values = [p for p, v in nodes if p and leaf != isinstance(v, (dict, list))]
            path = draw(st.sampled_from(values))
            _at(doc, path[:-1])[path[-1]] = draw(_JSON)
        elif kind == "delete":
            keys = [p for p, _ in nodes if p and isinstance(_at(doc, p[:-1]), dict)]
            path = draw(st.sampled_from(keys))
            del _at(doc, path[:-1])[path[-1]]
        else:
            objects = [p for p, v in nodes if isinstance(v, dict)]
            target = _at(doc, draw(st.sampled_from(objects)))
            target[draw(st.sampled_from(_NAMES) | st.text(max_size=3))] = draw(_JSON)
    return doc


@settings(max_examples=400, deadline=None)
@given(doc=_mutated())
def test_check_agrees_with_jsonschema_on_mutated_stock_configs(doc):
    ours = _first_error(doc)
    errors = sorted(STRICT.iter_errors(doc), key=lambda e: list(e.absolute_path))
    assert (ours is None) == (not errors)
    # the strict reference differs from JSON Schema only on the two documented types
    if errors and PLAIN.is_valid(doc):
        assert _strictly_typed(doc)
    if not errors:
        return
    first = errors[0]
    where = "/".join(map(str, first.absolute_path)) or "(root)"
    if first.validator in ("anyOf", "oneOf"):
        # the check may name the failing field of the experiment's own branch
        assert ours[0] == where or ours[0].startswith(where + "/")
    elif first.validator == "type" and "finite" in ours[1]:
        assert ours[0] == where and first.message == f"{ours[1].split()[0]} is not of type 'number'"
    else:
        assert ours == (where, first.message)


# (path into the stock vlasov config, value, passes) on both sides of each bound
_LIMITS = [
    (("model", "torus", "dim"), 1, True),
    (("model", "torus", "dim"), 0, False),
    (("model", "torus", "dim"), 3, True),
    (("model", "torus", "dim"), 4, False),
    (("model", "truncation"), 12, True),
    (("model", "truncation"), 13, False),
    (("model", "m"), 0, False),
    (("model", "m"), 5e-324, True),
    (("model", "epsilon"), 0, True),
    (("model", "epsilon"), -5e-324, False),
    (("scale", "alpha_s"), 1, False),
    (("scale", "alpha_s"), 1.0000000000000002, True),
    (("seed",), 0, True),
    (("seed",), -1, False),
    (("seed",), True, False),
    (("seed",), 2**70, True),
    (("output",), "", False),
    (("output",), "x", True),
    (("experiment", "samples"), 1, True),
    (("experiment", "samples"), 0, False),
    (("experiment", "epsilons"), [], True),
    (("experiment", "epsilons", 0), -0.0, True),
    (("experiment", "epsilons", 0), False, False),
    (("experiment", "name"), "bounds", False),
    (("model", "kernels", "a", "params", "sigma"), 0, False),
]


@pytest.mark.parametrize("path, value, passes", _LIMITS)
def test_bounds_agree_with_jsonschema_at_their_limits(path, value, passes):
    doc = copy.deepcopy(STOCK["vlasov"])
    _at(doc, path[:-1])[path[-1]] = value
    assert (_first_error(doc) is None) == PLAIN.is_valid(doc) == passes


@pytest.mark.parametrize("name", sorted(STOCK))
def test_every_key_deletion_agrees_with_jsonschema(name):
    keys = [p for p, _ in _nodes(STOCK[name]) if p and isinstance(p[-1], str)]
    for path in keys:
        doc = copy.deepcopy(STOCK[name])
        del _at(doc, path[:-1])[path[-1]]
        assert (_first_error(doc) is None) == PLAIN.is_valid(doc), path


def test_bifurcation_grids_are_not_empty():
    doc = copy.deepcopy(STOCK["bifurcation"])
    doc["experiment"]["c_values"] = []
    assert _first_error(doc) == ("experiment/c_values", "[] should be non-empty")
    assert not PLAIN.is_valid(doc)


# keyword semantics on schemas of their own: bool against number, and more
# than one branch of a oneOf holding
_SMALL = [
    ({"enum": [1, "a"]}, True),
    ({"enum": [1, "a"]}, 1.0),
    ({"const": 0}, False),
    ({"const": 0}, 0.0),
    ({"const": True}, True),
    ({"oneOf": [{"minimum": 0}, {"type": "number"}]}, 3),
    ({"oneOf": [{"minimum": 0}, {"type": "number"}]}, -3),
    ({"oneOf": [{"minimum": 0}, {"type": "number"}]}, "x"),
    ({"anyOf": [{"minimum": 0}, {"type": "string"}]}, -1),
    ({"minItems": 2}, [1]),
    ({"minLength": 2}, "ab"),
    ({"maximum": 2}, 2.5),
    ({"type": "boolean"}, 1),
]


@pytest.mark.parametrize("schema, value", _SMALL)
def test_keywords_agree_with_jsonschema_on_small_schemas(schema, value):
    errors = list(_errors(value, schema, ()))
    reference = list(jsonschema.Draft202012Validator(schema).iter_errors(value))
    assert (not errors) == (not reference)
    if errors:
        # jsonschema lists the first valid branch of a oneOf last
        ours, theirs = errors[0][1], reference[0].message
        assert ours.partition(" each of ")[0] == theirs.partition(" each of ")[0]


def test_schema_uses_only_checked_keywords():
    for schema in _subschemas(CONFIG_SCHEMA):
        assert set(schema) <= KEYWORDS, set(schema) - KEYWORDS
        assert schema.get("additionalProperties", False) is False
        assert isinstance(schema.get("type", ""), str)


def test_an_unchecked_keyword_fails_loudly(monkeypatch):
    monkeypatch.setitem(CONFIG_SCHEMA, "maxProperties", 3)
    with pytest.raises(NotImplementedError, match="maxProperties"):
        validate_config(STOCK["evolve"])


@pytest.mark.parametrize("name", sorted(STOCK))
def test_stock_configs_pass_both_checks(name):
    validate_config(STOCK[name])
    assert PLAIN.is_valid(STOCK[name])


def _floats(doc):
    """doc with every integer written as a float."""
    if isinstance(doc, dict):
        return {k: _floats(v) for k, v in doc.items()}
    if isinstance(doc, list):
        return [_floats(v) for v in doc]
    if isinstance(doc, int) and not isinstance(doc, bool):
        return float(doc)
    return doc


def _run(tmp_path, doc, capsys):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(doc))
    out = tmp_path / "out"
    code = main(["run", "--config", str(path), "--out", str(out)])
    err = capsys.readouterr().err
    # a schema failure exits 2 before anything is written
    assert code == 2 and not out.exists()
    return err


@pytest.mark.parametrize("name", sorted(STOCK))
def test_integral_floats_in_integer_fields_exit_2(tmp_path, capsys, name):
    doc = _floats(STOCK[name])
    assert PLAIN.is_valid(doc)
    err = _run(tmp_path, doc, capsys)
    where, message = err.removeprefix("error: config invalid at ").split(": ", 1)
    stock = _at(STOCK[name], [int(k) if k.isdigit() else k for k in where.split("/")])
    assert message == f"{float(stock)!r} is not of type 'integer'\n"
    assert isinstance(stock, int)


@pytest.mark.parametrize(
    "path, value, where",
    [
        (("experiment", "epsilons", 0), math.nan, "experiment/epsilons/0"),
        (("experiment", "epsilons", 2), math.inf, "experiment/epsilons/2"),
        (("experiment", "gap_time"), math.inf, "experiment/gap_time"),
        (("model", "m"), -math.inf, "model/m"),
        (("scale", "alpha_s"), math.nan, "scale/alpha_s"),
    ],
)
def test_non_finite_numbers_exit_2(tmp_path, capsys, path, value, where):
    doc = copy.deepcopy(STOCK["vlasov"])
    _at(doc, path[:-1])[path[-1]] = value
    err = _run(tmp_path, doc, capsys)
    assert err == f"error: config invalid at {where}: {value!r} is not a finite number\n"
    # the file holds the NaN and Infinity tokens json.load reads
    assert ("NaN" if math.isnan(value) else "Infinity") in (tmp_path / "cfg.json").read_text()


def test_build_runtime_passes_the_keys_given_and_keeps_the_defaults():
    doc = copy.deepcopy(STOCK["evolve"])
    doc["scale"] = {"alpha_s": 1.5, "alpha_star": 2.5}
    doc["solver"] = {"upsilon": 0.0116}
    bundle = build_runtime(doc)
    assert bundle.params == ModelParams(1.0, 1.0)
    assert bundle.scale == ScaleSpec(1.5, 2.5)
    assert bundle.bound.regular(2.0) == DEFAULT_REGULAR_CONSTANT
    assert bundle.solver == SeriesConfig(upsilon=0.0116)

    doc["model"]["epsilon"] = 0.25
    doc["scale"].update(nu=1.5, n_hat=0.125)
    doc["solver"].update(
        q=1.75, alpha=2.0, grid_points=64, n_max=12, term_tol=1e-9, quad_tol=1e-7,
        majorant_slack=1e-5, trajectory_points=17,
    )
    assert set(doc["solver"]) == set(CONFIG_SCHEMA["properties"]["solver"]["properties"])
    bundle = build_runtime(doc)
    assert bundle.params == ModelParams(1.0, 1.0, 0.25)
    assert bundle.scale == ScaleSpec(1.5, 2.5, 1.5)
    assert bundle.bound.regular(2.0) == 0.125
    assert bundle.solver == SeriesConfig(
        upsilon=0.0116, q=1.75, alpha=2.0, time_grid_points=64, n_max=12, term_tol=1e-9,
        quad_tol=1e-7, majorant_slack=1e-5, trajectory_points=17,
    )
