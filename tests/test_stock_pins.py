"""The certified numbers: every file the stock configs write, against its pins.

tests/stock_pins.json holds every number the six stock configs write
(manifest.json aside), recorded by tests/record_stock_pins.py.  A value
must match to 1e-12 relative; a difference of nearly equal results (a flow
or Richardson disagreement, a residual) to 1e-12 of the operands it was
taken from.  Assertion details are the other numbers formatted to a few
digits, so only their names and verdicts are compared.  Every variant of
the eps-sweep benchmark workload and two of evolve-random are also checked
against the benchmark's recorded headlines, at the benchmark's own tolerance.
"""

from __future__ import annotations

import importlib.util
import json
import math
from pathlib import Path

import pytest

from ovskale.experiments import run_experiment
from record_stock_pins import CONFIGS, PIN_FILE, run_stock

ROOT = Path(__file__).resolve().parents[1]
PINS = json.loads(PIN_FILE.read_text())
RTOL = 1e-12


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", ROOT / "perfbench" / "workloads.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _operand_scales(files: dict) -> dict:
    """file -> {key path of each pinned difference: the size of its operands}."""
    scales = {}
    if "result.json" in files:
        result = files["result.json"]
        # the flow check compares final states in the norm at alpha_star, the
        # Richardson rerun in the norm at alpha; the residuals are relative
        scales["result.json"] = {
            "flow.difference": result["norm_alpha_star"][-1],
            "flow.relative": 1.0,
            "quad_disagreement": result["norm_alpha"][-1],
            "quad_error": result["norm_alpha"][-1],
            "compression_residual": 1.0,
        }
    if "horizon.json" in files and files["horizon.json"]["localization"]:
        elapsed = files["horizon.json"]["localization"]["elapsed"]
        scales["horizon.json"] = {"localization.residual": elapsed}
    return scales


def _compare(got, want, path: str, scales: dict, misses: list) -> None:
    if isinstance(want, dict):
        if not isinstance(got, dict) or sorted(got) != sorted(want):
            misses.append(f"{path}: keys {sorted(got) if isinstance(got, dict) else got}")
            return
        for key in want:
            if key != "detail":
                _compare(got[key], want[key], f"{path}.{key}".lstrip("."), scales, misses)
    elif isinstance(want, list):
        if not isinstance(got, list) or len(got) != len(want):
            misses.append(f"{path}: length {len(got) if isinstance(got, list) else got}")
            return
        for i, (g, w) in enumerate(zip(got, want)):
            _compare(g, w, f"{path}[{i}]", scales, misses)
    elif isinstance(want, float) and isinstance(got, (int, float)) and not isinstance(got, bool):
        if path in scales:
            ok = abs(got - want) <= RTOL * scales[path]
        else:
            ok = math.isclose(got, want, rel_tol=RTOL, abs_tol=0.0)
        if not ok:
            misses.append(f"{path}: {got!r} != {want!r}")
    elif type(got) is not type(want) or got != want:
        misses.append(f"{path}: {got!r} != {want!r}")


def _misses(got: dict, want: dict) -> list[str]:
    """What of the files got misses the pinned files want, one line per value."""
    if sorted(got) != sorted(want):
        return [f"files {sorted(got)} != {sorted(want)}"]
    scales = _operand_scales(want)
    misses = []
    for name in want:
        found = []
        _compare(got[name], want[name], "", scales.get(name, {}), found)
        misses += [f"{name}: {line}" for line in found]
    return misses


def test_the_pins_cover_every_stock_config():
    assert sorted(PINS) == sorted(c.stem for c in CONFIGS)
    assert all(pin["exit_code"] == 0 for pin in PINS.values())


@pytest.mark.parametrize("config", CONFIGS, ids=lambda c: c.stem)
def test_stock_config_writes_its_pinned_numbers(config, tmp_path):
    got = run_stock(config, tmp_path / config.stem)
    want = PINS[config.stem]
    assert got["exit_code"] == want["exit_code"]
    assert _misses(got["files"], want["files"]) == []


def test_a_moved_number_misses_its_pin():
    want = PINS["evolve"]["files"]
    got = json.loads(json.dumps(want))
    got["result.json"]["q"] *= 1.0 + 4 * RTOL
    got["result.json"]["flow"]["difference"] += 0.5 * RTOL * want["result.json"]["norm_alpha_star"][-1]
    got["trajectory.csv"]["rows"][3][1] *= 1.0 - 4 * RTOL
    assert _misses(got, want) == [
        "result.json: q: " + f"{got['result.json']['q']!r} != {want['result.json']['q']!r}",
        "trajectory.csv: rows[3][1]: "
        + f"{got['trajectory.csv']['rows'][3][1]!r} != {want['trajectory.csv']['rows'][3][1]!r}",
    ]


@pytest.mark.parametrize("workload", ["evolve-random", "eps-sweep"])
def test_hierarchy_workloads_match_the_benchmark_references(workload, tmp_path):
    workloads = _load_workloads()
    references = workloads.load_references()
    # every eps-sweep z_pole depends on the random stream that the sweep's
    # gaps share, so each variant of it is checked; two of evolve-random
    seeds = range(workloads.VARIANTS) if workload == "eps-sweep" else (0, 17)
    for seed in seeds:
        out_dirs = []
        for i, doc in enumerate(workloads.generate(workload, seed)):
            out_dirs.append(tmp_path / f"{seed}-{i}")
            assert run_experiment(doc, str(out_dirs[-1]))["exit_code"] == 0
        got = workloads.headline(workload, out_dirs)
        want = workloads.reference(references, workload, seed)
        assert workloads.mismatches(got, want) == [], f"{workload} variant {seed}"
