"""Workload definitions: seeded config generation and headline outputs.

A workload is a list of ovskale config documents run one after another in a
single program process.  The seed picks one of `VARIANTS` input variants, so
every seed maps to inputs whose headline outputs are recorded in
`references.json`; the same seed always yields the same documents.
"""

from __future__ import annotations

import copy
import csv
import json
import math
import random
from pathlib import Path

VARIANTS = 32
REFERENCE_FILE = Path(__file__).resolve().parent / "references.json"

# relative tolerance for float headline outputs: loose enough for a change of
# summation order (vectorised assembly, orbit reduction), tight enough that a
# wrong answer fails
RTOL = 1e-9
ATOL = 1e-15

_KERNELS = {
    "a": {"kind": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.7}},
    "phi": {"kind": "gaussian", "params": {"amplitude": 0.8, "sigma": 0.5}},
}
_SCALE = {"alpha_s": 1.5, "alpha_star": 2.5}


def _model(dim: int, sites: int, truncation: int) -> dict:
    return {
        "torus": {"dim": dim, "sites": sites, "spacing": 0.5},
        "kernels": copy.deepcopy(_KERNELS),
        "m": 1.0,
        "lambda": 1.0,
        "truncation": truncation,
    }


def _evolve_random(rng: random.Random) -> list[dict]:
    return [
        {
            "model": _model(1, 18, 5),
            "scale": dict(_SCALE),
            "solver": {"upsilon": 0.0116, "term_tol": 1e-10, "quad_tol": 1e-7},
            "experiment": {
                "name": "evolve",
                "t": 0.0115,
                "flow_tau": 0.007,
                "initial": {"kind": "random"},
                "check_apriori": True,
            },
            "seed": rng.randrange(1, 2**31),
        }
    ]


def _eps_sweep(rng: random.Random) -> list[dict]:
    return [
        {
            "model": _model(2, 4, 4),
            "scale": dict(_SCALE),
            "solver": {"upsilon": 0.0092, "term_tol": 1e-11, "quad_tol": 1e-8},
            "experiment": {
                "name": "vlasov",
                "epsilons": [0.4, 0.2, 0.1, 0.05, 0.025, 0.0],
                "rho0": round(rng.uniform(0.45, 0.55), 6),
                "samples": 20,
                "gap_time": 0.02,
            },
            "seed": rng.randrange(1, 2**31),
        }
    ]


def _kinetic_fold(rng: random.Random) -> list[dict]:
    kinetic = {
        "model": _model(2, 64, 3),
        "scale": dict(_SCALE),
        "solver": {"upsilon": 0.01},
        "experiment": {
            "name": "kinetic",
            "rho0": round(rng.uniform(0.4, 0.6), 6),
            "t_end": 2.0,
            "dt": 0.001,
            "store_every": 100,
        },
        "seed": rng.randrange(1, 2**31),
    }
    bifurcation = {
        "model": _model(1, 6, 3),
        "scale": dict(_SCALE),
        "solver": {"upsilon": 0.01},
        "experiment": {
            "name": "bifurcation",
            "b_values": [0.005, 0.01, 0.02, 0.05],
            "c_values": [0.1, 0.2, 0.3, 0.36, 0.5, 1.0],
            "resolution": 100_000,
            "fold_points": 33,
        },
        "seed": rng.randrange(1, 2**31),
    }
    return [kinetic, bifurcation]


def _evolve_headline(out_dirs: list[Path]) -> dict:
    result = json.loads((out_dirs[0] / "result.json").read_text())
    return {
        "n_used": result["n_used"],
        "norm_alpha_star": result["norm_alpha_star"][-1],
        "norm_alpha": result["norm_alpha"][-1],
        "layer_sup": [max(abs(v) for v in layer) for layer in result["final_state"]["layers"]],
    }


def _sweep_headline(out_dirs: list[Path]) -> dict:
    summary = json.loads((out_dirs[0] / "summary.json").read_text())
    return {"sup_gaps": summary["sup_gaps"], "z_poles": summary["z_poles"]}


def _kinetic_headline(out_dirs: list[Path]) -> dict:
    with open(out_dirs[0] / "trajectory.csv", encoding="utf-8", newline="") as fh:
        final = list(csv.DictReader(fh))[-1]
    with open(out_dirs[1] / "bifurcation.csv", encoding="utf-8", newline="") as fh:
        counts = [int(row["root_count"]) for row in csv.DictReader(fh)]
    return {"rho_mean": float(final["rho_mean"]), "root_counts": counts}


# name -> (config generator, headline reader)
WORKLOADS = {
    "evolve-random": (_evolve_random, _evolve_headline),
    "eps-sweep": (_eps_sweep, _sweep_headline),
    "kinetic-fold": (_kinetic_fold, _kinetic_headline),
}


def variant_of(seed: int) -> int:
    return seed % VARIANTS


def generate(workload: str, seed: int) -> list[dict]:
    """Config documents of `workload` for `seed`; same seed, same documents."""
    index = list(WORKLOADS).index(workload)
    rng = random.Random(1_000_003 * index + variant_of(seed))
    return WORKLOADS[workload][0](rng)


def headline(workload: str, out_dirs: list[Path]) -> dict:
    """Headline outputs of one finished run, read from its output files."""
    return WORKLOADS[workload][1](out_dirs)


def _close(got, want) -> bool:
    if isinstance(want, list):
        return (
            isinstance(got, list)
            and len(got) == len(want)
            and all(_close(g, w) for g, w in zip(got, want))
        )
    if isinstance(want, int) and not isinstance(want, bool):
        return got == want
    return math.isclose(got, want, rel_tol=RTOL, abs_tol=ATOL)


def mismatches(got: dict, want: dict) -> list[str]:
    """Names of headline outputs that miss the reference."""
    return sorted(key for key in want if key not in got or not _close(got[key], want[key]))


def load_references() -> dict:
    return json.loads(REFERENCE_FILE.read_text())


def reference(references: dict, workload: str, seed: int) -> dict:
    return references[workload][str(variant_of(seed))]
