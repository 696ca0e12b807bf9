"""Experiment configuration: schema, validation, and runtime assembly.

One JSON document drives one run.  The schema rejects unknown keys so stale
or misspelled options fail fast instead of silently using defaults.
"""

from __future__ import annotations

import json
import math
import operator
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .errors import ConfigError
from .lattice import KernelPair, Torus, kernel_pair_from_spec
from .operators import ModelParams
from .scale import BoundModel, ScaleSpec, model_bound

# CPython's builtin SHA-256 gives hashlib's digest without loading OpenSSL
try:
    from _sha2 import sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256  # Python 3.10-3.11
    except ImportError:
        from hashlib import sha256

_KERNEL_SCHEMA = {
    "type": "object",
    "additionalProperties": False,
    "required": ["kind"],
    "properties": {
        "kind": {"enum": ["gaussian", "tophat", "table"]},
        "params": {
            "type": "object",
            "additionalProperties": False,
            "properties": {
                "amplitude": {"type": "number", "minimum": 0},
                "sigma": {"type": "number", "exclusiveMinimum": 0},
                "radius": {"type": "number", "minimum": 0},
                "origin": {"type": "number", "minimum": 0},
                "values": {"type": "array", "items": {"type": "number", "minimum": 0}},
            },
        },
    },
}

_EXPERIMENTS = {
    "evolve": {
        "required": ["name", "t"],
        "properties": {
            "name": {"const": "evolve"},
            "t": {"type": "number", "exclusiveMinimum": 0},
            "s": {"type": "number", "minimum": 0},
            "initial": {
                "type": "object",
                "additionalProperties": False,
                "required": ["kind"],
                "properties": {
                    "kind": {"enum": ["product", "random"]},
                    "rho": {"type": "number", "minimum": 0},
                },
            },
            "flow_tau": {"type": "number", "exclusiveMinimum": 0},
            "check_apriori": {"type": "boolean"},
        },
    },
    "vlasov": {
        "required": ["name", "epsilons"],
        "properties": {
            "name": {"const": "vlasov"},
            "epsilons": {
                "type": "array",
                "items": {"type": "number", "minimum": 0},
            },
            "rho0": {"type": "number", "exclusiveMinimum": 0},
            "samples": {"type": "integer", "minimum": 1},
            "gap_time": {"type": "number", "exclusiveMinimum": 0},
            "gap_alpha_lo": {"type": "number", "exclusiveMinimum": 1},
            "gap_alpha_hi": {"type": "number", "exclusiveMinimum": 1},
        },
    },
    "kinetic": {
        "required": ["name", "t_end", "dt"],
        "properties": {
            "name": {"const": "kinetic"},
            "rho0": {
                "anyOf": [
                    {"type": "number", "minimum": 0},
                    {"type": "array", "minItems": 1, "items": {"type": "number", "minimum": 0}},
                ]
            },
            "t_end": {"type": "number", "minimum": 0},
            "dt": {"type": "number", "exclusiveMinimum": 0},
            "store_every": {"type": "integer", "minimum": 1},
            "full_field": {"type": "boolean"},
        },
    },
    "bifurcation": {
        "required": ["name", "b_values", "c_values"],
        "properties": {
            "name": {"const": "bifurcation"},
            "b_values": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "number", "minimum": 0},
            },
            "c_values": {
                "type": "array",
                "minItems": 1,
                "items": {"type": "number", "exclusiveMinimum": 0},
            },
            "x_hi": {"type": "number", "exclusiveMinimum": 0},
            "resolution": {"type": "integer", "minimum": 100},
            "fold_points": {"type": "integer", "minimum": 2},
        },
    },
    "bounds": {
        "required": ["name"],
        "properties": {
            "name": {"const": "bounds"},
            "samples": {"type": "integer", "minimum": 1},
        },
    },
    "horizon": {
        "required": ["name"],
        "properties": {
            "name": {"const": "horizon"},
            "search_hi": {"type": "number", "exclusiveMinimum": 1},
            "scan_points": {"type": "integer", "minimum": 10},
            "elapsed": {"type": "number", "minimum": 0},
        },
    },
}

CONFIG_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ovskale experiment configuration",
    "type": "object",
    "additionalProperties": False,
    "required": ["model", "scale", "solver", "experiment", "seed"],
    "properties": {
        "model": {
            "type": "object",
            "additionalProperties": False,
            "required": ["torus", "kernels", "m", "lambda", "truncation"],
            "properties": {
                "torus": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["dim", "sites", "spacing"],
                    "properties": {
                        "dim": {"type": "integer", "minimum": 1, "maximum": 3},
                        "sites": {"type": "integer", "minimum": 1},
                        "spacing": {"type": "number", "exclusiveMinimum": 0},
                    },
                },
                "kernels": {
                    "type": "object",
                    "additionalProperties": False,
                    "required": ["a", "phi"],
                    "properties": {"a": _KERNEL_SCHEMA, "phi": _KERNEL_SCHEMA},
                },
                "m": {"type": "number", "exclusiveMinimum": 0},
                "lambda": {"type": "number", "exclusiveMinimum": 0},
                "epsilon": {"type": "number", "minimum": 0},
                "truncation": {"type": "integer", "minimum": 1, "maximum": 12},
            },
        },
        "scale": {
            "type": "object",
            "additionalProperties": False,
            "required": ["alpha_s", "alpha_star"],
            "properties": {
                "alpha_s": {"type": "number", "exclusiveMinimum": 1},
                "alpha_star": {"type": "number", "exclusiveMinimum": 1},
                "nu": {"type": "number", "minimum": 1},
                "n_hat": {"type": "number", "minimum": 0},
            },
        },
        "solver": {
            "type": "object",
            "additionalProperties": False,
            "required": ["upsilon"],
            "properties": {
                "upsilon": {"type": "number", "exclusiveMinimum": 0},
                "q": {"type": "number", "exclusiveMinimum": 1},
                "alpha": {"type": "number", "exclusiveMinimum": 1},
                "grid_points": {"type": "integer", "minimum": 2},
                "n_max": {"type": "integer", "minimum": 1},
                "term_tol": {"type": "number", "exclusiveMinimum": 0},
                "quad_tol": {"type": "number", "exclusiveMinimum": 0},
                "majorant_slack": {"type": "number", "minimum": 0},
                "trajectory_points": {"type": "integer", "minimum": 2},
            },
        },
        "experiment": {
            "type": "object",
            "required": ["name"],
            "properties": {"name": {"enum": sorted(_EXPERIMENTS)}},
            "oneOf": [
                {
                    "properties": spec["properties"],
                    "required": spec["required"],
                    "additionalProperties": False,
                }
                for spec in _EXPERIMENTS.values()
            ],
        },
        "seed": {"type": "integer", "minimum": 0},
        "output": {"type": "string", "minLength": 1},
    },
}


def schema_json() -> str:
    return json.dumps(CONFIG_SCHEMA, indent=2, sort_keys=True)


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# two types are stricter than JSON Schema's: an integer has no fraction part
# (6.0 fails) and a number is finite (json.load reads NaN and Infinity)
_TYPES = {
    "object": lambda x: isinstance(x, dict),
    "array": lambda x: isinstance(x, list),
    "string": lambda x: isinstance(x, str),
    "boolean": lambda x: isinstance(x, bool),
    "integer": lambda x: isinstance(x, int) and not isinstance(x, bool),
    "number": lambda x: _is_number(x) and math.isfinite(x),
}
_BOUNDS = {
    "minimum": (operator.lt, "less than the minimum of"),
    "maximum": (operator.gt, "greater than the maximum of"),
    "exclusiveMinimum": (operator.le, "less than or equal to the minimum of"),
}
# the keywords CONFIG_SCHEMA uses, checked with the jsonschema package's
# messages; "$schema" and "title" are annotations
KEYWORDS = {*_BOUNDS, "$schema", "title", "type", "properties", "required", "const", "enum"}
KEYWORDS |= {"additionalProperties", "items", "minItems", "minLength", "anyOf", "oneOf"}


def _errors(x, schema: dict, path: tuple):
    """(path, message, keyword) of each way x breaks schema, in keyword order."""
    for key, v in schema.items():
        if key not in KEYWORDS or (key == "additionalProperties" and v is not False):
            raise NotImplementedError(f"config schema keyword {key}: {v!r} is not checked")
        if key == "type" and not _TYPES[v](x):
            kind = "a finite number" if v == "number" and _is_number(x) else f"of type {v!r}"
            yield path, f"{x!r} is not {kind}", key
        elif key == "const" and (x != v or isinstance(x, bool) != isinstance(v, bool)):
            yield path, f"{v!r} was expected", key  # JSON equality: true is not 1
        elif key == "enum" and all(x != c or isinstance(x, bool) != isinstance(c, bool) for c in v):
            yield path, f"{x!r} is not one of {v!r}", key
        elif key in _BOUNDS and _is_number(x) and _BOUNDS[key][0](x, v):
            yield path, f"{x!r} is {_BOUNDS[key][1]} {v!r}", key
        elif isinstance(x, {"minItems": list, "minLength": str}.get(key, ())) and len(x) < v:
            yield path, f"{x!r} {'should be non-empty' if v == 1 else 'is too short'}", key
        elif key in ("anyOf", "oneOf"):
            errors = [list(_errors(x, branch, path)) for branch in v]
            valid = [branch for branch, errs in zip(v, errors) if not errs]
            # a tagged union (on the experiment's name) reports the errors of its tag's branch
            named = [errs for errs in errors if all(e[2] != "const" for e in errs)]
            if not valid and len(named) == 1:
                yield from named[0]
            elif not valid:
                yield path, f"{x!r} is not valid under any of the given schemas", key
            elif key == "oneOf" and len(valid) > 1:
                yield path, f"{x!r} is valid under each of {', '.join(map(repr, valid))}", key
        elif key == "items" and isinstance(x, list):
            for i, item in enumerate(x):
                yield from _errors(item, v, path + (i,))
        elif key == "properties" and isinstance(x, dict):
            for name in filter(x.__contains__, v):
                yield from _errors(x[name], v[name], path + (name,))
        elif key == "required" and isinstance(x, dict):
            yield from ((path, f"{n!r} is a required property", key) for n in v if n not in x)
        elif key == "additionalProperties" and isinstance(x, dict):
            extra = sorted((k for k in x if k not in schema.get("properties", {})), key=str)
            if extra:
                names = ", ".join(map(repr, extra)) + (" was" if len(extra) == 1 else " were")
                yield path, f"Additional properties are not allowed ({names} unexpected)", key


def validate_config(doc: dict) -> None:
    """Schema-check a config document; raises ConfigError at its first error in path order."""
    first = min(_errors(doc, CONFIG_SCHEMA, ()), key=lambda e: e[0], default=None)
    if first is not None:
        where = "/".join(map(str, first[0])) or "(root)"
        raise ConfigError(f"config invalid at {where}: {first[1]}")


def read_config(path: str) -> dict:
    """Read a configuration file, unchecked; ConfigError if it is unreadable or not JSON."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as err:
        raise ConfigError(f"cannot read config {path}: {err}") from err
    except json.JSONDecodeError as err:
        raise ConfigError(f"config {path} is not valid JSON: {err}") from err


def load_config(path: str) -> dict:
    """Read and schema-validate a configuration file."""
    doc = read_config(path)
    validate_config(doc)
    return doc


def config_hash(doc: dict) -> str:
    """Hash of the canonical serialization, for run manifests."""
    canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
    return sha256(canon.encode("utf-8")).hexdigest()


@dataclass
class SeriesConfig:
    """Run parameters of the series solver, from the config's solver section.

    upsilon is the guaranteed sub-horizon the run is certified for (t - s
    must not exceed it); q and alpha are the majorant shape parameters,
    defaulted from the horizon geometry when omitted.  quad_tol is the
    Richardson disagreement gate and defaults to 10 * term_tol.
    """

    upsilon: float
    q: float | None = None
    alpha: float | None = None
    time_grid_points: int = 256
    n_max: int = 40
    term_tol: float = 1e-10
    quad_tol: float | None = None
    majorant_slack: float = 1e-6
    trajectory_points: int = 129

    def __post_init__(self):
        if not (self.upsilon > 0 and math.isfinite(self.upsilon)):
            raise ValueError("upsilon must be positive and finite")
        if self.q is not None and not (self.q > 1.0):
            raise ValueError("q must exceed 1")
        if self.time_grid_points < 2 or self.time_grid_points % 2:
            raise ValueError("time_grid_points must be even and >= 2")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not (self.term_tol > 0):
            raise ValueError("term_tol must be positive")
        if self.quad_tol is not None and not (self.quad_tol > 0):
            raise ValueError("quad_tol must be positive")
        if not (self.majorant_slack >= 0):
            raise ValueError("majorant_slack must be >= 0")
        if self.trajectory_points < 2:
            raise ValueError("trajectory_points must be >= 2")

    @property
    def richardson_gate(self) -> float:
        return self.quad_tol if self.quad_tol is not None else 10.0 * self.term_tol

    def for_horizon(self, dt: float) -> "SeriesConfig":
        """Clone for a sub-run over duration dt, re-deriving q and alpha."""
        return replace(self, upsilon=dt, q=None, alpha=None)


@dataclass
class RuntimeBundle:
    """Everything a run needs, assembled from one validated document.

    solves is the run's solve ledger: the runner appends one entry per series
    solve and the manifest records them.  rng, the generator seeded from the
    config, is built on first use, so a run that draws nothing never loads
    numpy.random.
    """

    torus: Torus
    kernels: KernelPair
    params: ModelParams
    truncation: int
    scale: ScaleSpec
    bound: BoundModel
    solver: SeriesConfig
    experiment: dict
    seed: int
    solves: list = field(default_factory=list)

    @cached_property
    def rng(self) -> np.random.Generator:
        return np.random.default_rng(self.seed)


# config keys whose keyword argument has another name
_ARGUMENT_NAMES = {
    "m": "death_amplitude",
    "lambda": "birth_intensity",
    "n_hat": "regular_constant",
    "grid_points": "time_grid_points",
}


def _arguments(section: dict, *keys: str) -> dict:
    """Keyword arguments of those keys the section gives: absent ones keep their defaults."""
    return {_ARGUMENT_NAMES.get(key, key): section[key] for key in keys if key in section}


def build_runtime(doc: dict, *, validated: bool = False) -> RuntimeBundle:
    """Assemble a config document into live model objects.

    The document is schema-checked first unless the caller has done so
    (validated).  Semantic constraints beyond the schema (index ordering,
    kernel symmetry, horizon feasibility) surface here as ConfigError.
    """
    if not validated:
        validate_config(doc)
    model = doc["model"]
    tor = model["torus"]
    try:
        torus = Torus(tor["dim"], tor["sites"], tor["spacing"])
        kernels = kernel_pair_from_spec(torus, model["kernels"]["a"], model["kernels"]["phi"])
        params = ModelParams(**_arguments(model, "m", "lambda", "epsilon"))
        sc = doc["scale"]
        scale = ScaleSpec(**_arguments(sc, "alpha_s", "alpha_star", "nu"))
        bound = model_bound(kernels, params, **_arguments(sc, "n_hat"))
        if not math.isfinite(bound.singular(scale.alpha_star)):
            raise ValueError(f"the singular coefficient overflows at alpha_star {scale.alpha_star}")
        # the pairing weights h^{d n} and the scale weights alpha^n up to the truncation
        truncation = model["truncation"]
        try:
            torus.cell_volume**truncation, scale.alpha_star**truncation
        except OverflowError:
            raise ValueError(
                f"cell volume {torus.cell_volume} or alpha_star {scale.alpha_star}"
                f" to the power {truncation} overflows"
            ) from None
        # the schema admits only SeriesConfig's fields in the solver section
        solver = SeriesConfig(**_arguments(doc["solver"], *doc["solver"]))
    except (ValueError, TypeError) as err:
        raise ConfigError(str(err)) from err
    return RuntimeBundle(
        torus=torus,
        kernels=kernels,
        params=params,
        truncation=truncation,
        scale=scale,
        bound=bound,
        solver=solver,
        experiment=dict(doc["experiment"]),
        seed=doc["seed"],
    )
