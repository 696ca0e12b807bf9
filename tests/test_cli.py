"""End-to-end command line behavior: exit codes, outputs, determinism."""

import csv
import json
import math
import os
import subprocess
import sys
import tempfile
import time
import warnings
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovskale import OperatorHandle, config_hash, load_config, time_horizon
from ovskale.cli import main
from ovskale.config import build_runtime, validate_config
from ovskale.errors import ConfigError
from ovskale import experiments, kinetic, orbits
from ovskale.experiments import run_experiment

from conftest import make_instance

SRC = Path(__file__).resolve().parents[1] / "src"
SMALL = make_instance(sites=4, n_max=2)
T_SMALL = time_horizon(1.5, 2.5, SMALL.bound)


def base_doc() -> dict:
    return {
        "model": {
            "torus": {"dim": 1, "sites": 4, "spacing": 0.5},
            "kernels": {
                "a": {"kind": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.7}},
                "phi": {"kind": "gaussian", "params": {"amplitude": 0.8, "sigma": 0.5}},
            },
            "m": 1.0,
            "lambda": 1.0,
            "truncation": 2,
        },
        "scale": {"alpha_s": 1.5, "alpha_star": 2.5},
        "solver": {
            "upsilon": 0.5 * T_SMALL,
            "grid_points": 128,
            "n_max": 30,
            "term_tol": 1e-12,
            "quad_tol": 1e-8,
            "trajectory_points": 9,
        },
        "experiment": {
            "name": "evolve",
            "t": 0.5 * T_SMALL,
            "flow_tau": 0.3 * T_SMALL,
            "initial": {"kind": "product", "rho": 0.5},
        },
        "seed": 11,
    }


def write_doc(tmp_path: Path, doc: dict, name: str = "cfg.json") -> str:
    path = tmp_path / name
    path.write_text(json.dumps(doc, indent=2))
    return str(path)


def read_rows(path: Path) -> list:
    with open(path, newline="") as fh:
        return list(csv.reader(fh))


def _refuse_constant(name: str):
    raise ValueError(f"{name} is not a JSON value")


def read_strict_json(path: Path):
    """The JSON document at path, refusing the NaN and Infinity that RFC 8259 has no token for."""
    return json.loads(path.read_text(), parse_constant=_refuse_constant)


def test_schema_command(capsys):
    assert main(["schema"]) == 0
    doc = json.loads(capsys.readouterr().out)
    for key in ("model", "scale", "solver", "experiment", "seed"):
        assert key in doc["properties"]


def test_validate_paths(tmp_path, capsys):
    path = write_doc(tmp_path, base_doc())
    assert main(["validate", "--config", path]) == 0
    assert "valid" in capsys.readouterr().out

    assert main(["validate", "--config", str(tmp_path / "absent.json")]) == 2
    err = capsys.readouterr().err
    assert "absent.json" in err

    bad = tmp_path / "broken.json"
    bad.write_text("{not json")
    assert main(["validate", "--config", str(bad)]) == 2
    assert "error" in capsys.readouterr().err

    doc = base_doc()
    doc["experiment"]["name"] = "nonsense"
    assert main(["validate", "--config", write_doc(tmp_path, doc, "bad.json")]) == 2
    capsys.readouterr()


def test_run_evolve_success(tmp_path, capsys):
    doc = base_doc()
    path = write_doc(tmp_path, doc)
    out = tmp_path / "runs"
    assert main(["run", "--config", path, "--out", str(out), "--verbose"]) == 0
    stdout = capsys.readouterr().out
    assert "[PASS]" in stdout
    assert "exit 0" in stdout

    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 0
    assert manifest["error"] is None
    assert manifest["experiment"] == "evolve"
    assert manifest["seed"] == 11
    assert manifest["config_sha256"] == config_hash(doc)
    for key in ("ovskale", "python", "numpy", "scipy"):
        assert key in manifest["versions"]
    # the size checks' largest estimate, and the time of each stage
    assert isinstance(manifest["memory_estimate_bytes"], int)
    assert manifest["memory_estimate_bytes"] > 0
    timings = manifest["timings"]
    assert set(timings) == {"imports_s", "build_runtime_s", "runner_s"}
    assert all(value >= 0.0 for value in timings.values())
    assert sum(timings.values()) <= manifest["wall_time_s"]
    assert all(item["passed"] for item in manifest["assertions"])
    names = {item["name"] for item in manifest["assertions"]}
    assert {"series_converged", "majorant_domination", "flow_property"} <= names
    for rel in manifest["outputs"]:
        assert (out / rel).exists()

    result = json.loads((out / "result.json").read_text())
    n_used = result["n_used"]
    # the ledger holds the main solve, with the figures result.json reports
    [solve] = manifest["solves"]
    assert (solve["epsilon"], solve["d"], solve["n_used"]) == (1.0, 11, n_used)
    # a product state runs on the orbits (empty set, a site, pairs at distance
    # 1 and 2), and nnz is that of the 4 x 4 matrix the levels multiply
    assert solve["orbits"] == 4
    assert 0 < solve["nnz"] <= 16
    assert solve["richardson_ratio"] == result["quad_disagreement"] / doc["solver"]["quad_tol"]
    assert 0.0 <= solve["min_majorant_slack"] < 1.0
    for key in (
        "compression_residual", "interpolation_nodes", "interpolation_bound", "exact_rank_levels"
    ):
        assert solve[key] == result[key]
    assert 0.0 < result["compression_residual"] <= 1e-14
    assert 1 <= result["interpolation_nodes"] <= 16
    assert result["exact_rank_levels"] == 0
    rows = read_rows(out / "plot_series_majorant.csv")
    assert rows[0] == ["series", "x", "y"]
    body = rows[1:]
    by_series = {}
    for series, n, _ in body:
        by_series.setdefault(series, []).append(int(float(n)))
    for ns in by_series.values():
        # one row per Duhamel order, exactly n_used of them
        assert ns == list(range(1, n_used + 1))

    term_rows = read_rows(out / "series_terms.csv")
    assert len(term_rows) == n_used + 2  # header plus orders 0..n_used


@pytest.mark.parametrize("initial", ["random", "vlasov"])
def test_ledger_records_the_route_of_each_solve(tmp_path, initial):
    # a random state stays on the full route; every solve of a sweep runs on orbits
    doc = base_doc()
    if initial == "random":
        doc["experiment"]["initial"] = {"kind": "random"}
    else:
        doc["experiment"] = {"name": "vlasov", "epsilons": [0.4, 0.2], "samples": 2}
    manifest = run_experiment(doc, str(tmp_path))
    assert manifest["exit_code"] == 0
    full_nnz = OperatorHandle("perturbation", SMALL.kernels, SMALL.params, 2).matrix().nnz
    for solve in manifest["solves"]:
        assert solve["d"] == 11
        if initial == "random":
            assert (solve["orbits"], solve["nnz"]) == (None, full_nnz)
        else:
            assert solve["orbits"] == 4 and solve["nnz"] <= 16
    assert len(manifest["solves"]) == (1 if initial == "random" else 3)


def test_large_product_evolve_passes_the_size_check_on_orbits(tmp_path, monkeypatch):
    # 1-D S=40, n=5 (d = 760,099) with a flow check: the full route's
    # estimate was 3.56 GB; on its 9,706 orbits only the orbit map and the
    # layer scans of assembly are over d
    doc = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "evolve.json"))
    doc["model"]["torus"]["sites"] = 40
    doc["model"]["truncation"] = 5
    needs = []
    monkeypatch.setattr(experiments, "_check_budget", lambda need, detail: needs.append(need))

    class Stop(Exception):
        pass

    def stop(*args):
        raise Stop

    # stop once the runner's size check has passed, before the orbit map
    monkeypatch.setattr(orbits, "orbit_map", stop)
    with pytest.raises(Stop):
        run_experiment(doc, str(tmp_path))
    # the site tables, the preflight (the orbit map over d) and the runner's check
    assert len(needs) == 3
    solver = build_runtime(doc).solver
    experiments._check_footprint(40, 5, (solver, 1.0), trajectories=4)
    full = needs.pop()
    assert full > 3e9
    assert max(needs) < 0.2 * full


def _no_proc(path, *args, **kwargs):
    """open, as on a system without /proc."""
    if str(path).startswith("/proc/"):
        raise FileNotFoundError(path)
    return open(path, *args, **kwargs)


def test_manifest_records_the_peak_resident_set(tmp_path, monkeypatch):
    # a stock evolve records the process's peak so far, in bytes, from
    # /proc's VmHWM or else from the resource module; a platform with neither
    # records null
    doc = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "evolve.json"))
    manifest = run_experiment(doc, str(tmp_path / "stock"))
    assert manifest["exit_code"] == 0
    assert isinstance(manifest["peak_rss_bytes"], int)
    assert manifest["peak_rss_bytes"] > 0
    written = json.loads((tmp_path / "stock" / "manifest.json").read_text())
    assert written["peak_rss_bytes"] == manifest["peak_rss_bytes"]
    monkeypatch.setattr(experiments, "open", _no_proc, raising=False)
    assert isinstance(run_experiment(doc, str(tmp_path / "rusage"))["peak_rss_bytes"], int)
    with mock.patch.dict(sys.modules, {"resource": None}):
        assert run_experiment(doc, str(tmp_path / "bare"))["peak_rss_bytes"] is None


# holds about 220 MB, then runs the stock evolve in a child interpreter
LARGE_PARENT = """
import subprocess, sys
held = b"x" * (220 << 20)
sys.exit(subprocess.run(
    [sys.executable, "-m", "ovskale.cli", "run", "--config", sys.argv[1], "--out", sys.argv[2]]
).returncode)
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the kernel's VmHWM")
def test_a_child_of_a_large_process_reports_its_own_peak(tmp_path):
    # Linux carries ru_maxrss across fork and exec: read there, the child
    # would report the parent's 220 MB
    config = Path(__file__).resolve().parents[1] / "configs" / "evolve.json"
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run(
        [sys.executable, "-c", LARGE_PARENT, str(config), str(tmp_path)], env=env, timeout=120
    )
    assert done.returncode == 0
    peak = read_strict_json(tmp_path / "manifest.json")["peak_rss_bytes"]
    assert 0 < peak < 150e6


def test_rerun_is_byte_identical(tmp_path):
    doc = base_doc()
    path = write_doc(tmp_path, doc)
    outs = []
    for name in ("one", "two"):
        out = tmp_path / name
        assert main(["run", "--config", path, "--out", str(out)]) == 0
        outs.append(out)
    manifest = json.loads((outs[0] / "manifest.json").read_text())
    assert manifest["outputs"]
    for rel in manifest["outputs"]:
        first = (outs[0] / rel).read_bytes()
        second = (outs[1] / rel).read_bytes()
        assert first == second, f"{rel} differs between identical runs"


def test_seed_override(tmp_path):
    doc = base_doc()
    doc["experiment"] = {"name": "bounds", "samples": 20}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "r"
    assert main(["run", "--config", path, "--out", str(out), "--seed", "99"]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["seed"] == 99
    report = json.loads((out / "bounds.json").read_text())

    out2 = tmp_path / "r2"
    assert main(["run", "--config", path, "--out", str(out2)]) == 0
    report2 = json.loads((out2 / "bounds.json").read_text())
    assert report["max_ratio"] != report2["max_ratio"]

    assert main(["run", "--config", path, "--out", str(out), "--seed", "-3"]) == 2


def test_a_run_checks_its_config_once(tmp_path):
    # the command line reads the file unchecked and run_experiment checks it,
    # with the seed given; build_runtime, called by run_experiment, does not
    # check it again, but public callers of either still get ConfigError
    from ovskale import cli, config

    doc = base_doc()
    doc["experiment"] = {"name": "horizon"}
    path = write_doc(tmp_path, doc)
    calls = []
    check = config.validate_config

    def counted(document):
        calls.append(document["seed"])
        return check(document)

    with mock.patch.object(config, "validate_config", counted), \
            mock.patch.object(experiments, "validate_config", counted), \
            mock.patch.object(cli, "validate_config", counted):
        assert main(["run", "--config", path, "--out", str(tmp_path / "r"), "--seed", "5"]) == 0
        assert calls == [5]
        assert main(["validate", "--config", path]) == 0
        assert calls == [5, 11]
    bad = dict(doc, seed=-1)
    with pytest.raises(ConfigError, match="seed"):
        run_experiment(bad, str(tmp_path / "bad"))
    with pytest.raises(ConfigError, match="seed"):
        build_runtime(bad)
    # a file that is not an object fails the run's check, with or without a seed
    listed = tmp_path / "list.json"
    listed.write_text("[]")
    for extra in ([], ["--seed", "3"]):
        assert main(["run", "--config", str(listed), "--out", str(tmp_path / "l"), *extra]) == 2


def test_exit_1_when_assertion_fails(tmp_path, capsys):
    doc = base_doc()
    # the horizon keeps growing through this window, so its scan maximum
    # lands on the search boundary and the interior check fails honestly
    doc["experiment"] = {"name": "horizon", "search_hi": 2.0, "elapsed": 0.5 * T_SMALL}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "h"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    stdout = capsys.readouterr().out
    assert "[FAIL]" in stdout
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 1
    failed = {a["name"] for a in manifest["assertions"] if not a["passed"]}
    assert "interior_maximum" in failed


def test_exit_2_on_semantic_config_error(tmp_path, capsys):
    doc = base_doc()
    doc["scale"] = {"alpha_s": 2.5, "alpha_star": 1.5}  # schema-valid, unbuildable
    path = write_doc(tmp_path, doc)
    assert main(["run", "--config", path, "--out", str(tmp_path / "x")]) == 2
    assert "error" in capsys.readouterr().err
    manifest = json.loads((tmp_path / "x" / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert manifest["error"].startswith("ConfigError: ")


@pytest.mark.parametrize(
    "experiment",
    [
        {"name": "evolve", "t": 0.5 * T_SMALL, "initial": {"kind": "product", "rho": 1e200}},
        {"name": "vlasov", "epsilons": [0.2, 0.1, 0.0], "rho0": 1e200},
    ],
    ids=["evolve", "vlasov"],
)
def test_exit_2_when_product_density_overflows(tmp_path, capsys, experiment):
    # schema-valid: rho^2 overflows the order-2 layer of the product state
    doc = base_doc()
    doc["experiment"] = experiment
    path = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "1e+200" in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert "ConfigError" in manifest["error"]


def test_exit_3_on_numerical_failure(tmp_path, capsys):
    doc = base_doc()
    doc["experiment"] = {"name": "kinetic", "t_end": 1e6, "dt": 1e6, "rho0": 0.5}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "k"
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert "StepSizeCollapse" in manifest["error"]


def test_exit_3_when_a_constant_march_overflows(tmp_path, capsys):
    # 2 k2 overflows to -inf in every trial step, so each one is rejected as
    # negative; a Python-float march overflows with no RuntimeWarning, which
    # the suite's filter would turn into an error
    doc = base_doc()
    for kernel in doc["model"]["kernels"].values():
        kernel["params"]["amplitude"] = 0.0
    doc["experiment"] = {"name": "kinetic", "t_end": 0.01, "dt": 1e-3, "rho0": 1e308}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "k"
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith(
        "StepSizeCollapse: negativity rejection forced too many step halvings"
    )


def test_kinetic_run_times_its_stages(tmp_path):
    doc = base_doc()
    doc["experiment"] = {"name": "kinetic", "t_end": 0.05, "dt": 0.001, "rho0": 0.5}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "k"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert "homogeneous_consistency" in {item["name"] for item in manifest["assertions"]}
    timings = manifest["timings"]
    assert set(timings) == {"imports_s", "build_runtime_s", "runner_s"}
    assert all(value >= 0.0 for value in timings.values())
    assert sum(timings.values()) <= manifest["wall_time_s"]


def test_a_kinetic_field_of_mixed_zero_signs_skips_the_homogeneous_check(tmp_path):
    # 0.0 == -0.0, but the field is not constant bit for bit, so it marches
    # on the full torus, and the check of the scalar march does not run
    doc = base_doc()
    doc["experiment"] = {
        "name": "kinetic", "t_end": 0.01, "dt": 0.001, "rho0": [0.0, -0.0, 0.0, 0.0]
    }
    path = write_doc(tmp_path, doc)
    out = tmp_path / "k"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert {item["name"] for item in manifest["assertions"]} == {"density_nonnegative"}


def _large_constant_kinetic_doc(rho0: float) -> dict:
    # zero kernels: the density decays as 1 - r, so a large one stays large
    doc = base_doc()
    for kernel in doc["model"]["kernels"].values():
        kernel["params"]["amplitude"] = 0.0
    doc["experiment"] = {"name": "kinetic", "t_end": 0.01, "dt": 0.5, "rho0": rho0}
    return doc


def test_a_large_constant_density_passes_the_homogeneous_check(tmp_path):
    # the march and the scalar solve agree to about 8e-13 relative, which
    # at a density of 1e154 is an absolute gap of about 8e141
    path = write_doc(tmp_path, _large_constant_kinetic_doc(1e154))
    out = tmp_path / "k"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    [check] = [a for a in manifest["assertions"] if a["name"] == "homogeneous_consistency"]
    assert check["passed"]


@pytest.mark.parametrize("rho0", [0.5, 1e154])
def test_a_scalar_reference_off_by_1e_6_relative_fails_the_check(tmp_path, monkeypatch, rho0):
    solve = kinetic.homogeneous_scalar_ode
    monkeypatch.setattr(
        kinetic, "homogeneous_scalar_ode", lambda *args: solve(*args) * (1.0 + 1e-6)
    )
    path = write_doc(tmp_path, _large_constant_kinetic_doc(rho0))
    out = tmp_path / "k"
    assert main(["run", "--config", path, "--out", str(out)]) == 1
    manifest = json.loads((out / "manifest.json").read_text())
    failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
    assert failed == ["homogeneous_consistency"]


def test_exit_3_when_the_scalar_reference_exceeds_its_budget(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(kinetic, "_SCALAR_MAX_STEPS", 2)
    doc = base_doc()
    doc["experiment"] = {"name": "kinetic", "t_end": 0.05, "dt": 0.001, "rho0": 0.5}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "k"
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    err = capsys.readouterr().err
    assert "numerical failure" in err and "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("ConvergenceError: scalar kinetic solve")
    assert manifest["timings"]["runner_s"] is None


@pytest.mark.parametrize(
    "experiment",
    [
        {"name": "evolve", "t": 0.001},
        {"name": "vlasov", "epsilons": [0.5]},
        {"name": "bounds", "samples": 2},
    ],
    ids=lambda e: e["name"],
)
def test_exit_3_when_the_hierarchy_exceeds_memory(tmp_path, capsys, experiment):
    # d = sum C(200, k), k <= 12, is about 6e18: refused before any allocation
    doc = base_doc()
    doc["model"]["torus"]["sites"] = 200
    doc["model"]["truncation"] = 12
    doc["experiment"] = experiment
    path = write_doc(tmp_path, doc)
    out = tmp_path / "big"
    start = time.perf_counter()
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 0.5
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("DimensionCapError: estimated ")
    assert "d=" in manifest["error"] and "physical memory" in manifest["error"]
    # refused in the preflight: no stage ran
    assert manifest["timings"] == {"imports_s": None, "build_runtime_s": None, "runner_s": None}


@pytest.mark.parametrize("name", ["kinetic", "evolve"])
def test_exit_3_before_tabulating_a_huge_torus(tmp_path, capsys, name):
    # 2000^3 = 8e9 sites: refused from the config alone, before the kernels
    doc = base_doc()
    doc["model"]["torus"] = {"dim": 3, "sites": 2000, "spacing": 0.5}
    if name == "kinetic":
        doc["experiment"] = {"name": "kinetic", "t_end": 0.01, "dt": 0.001, "rho0": 0.5}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "huge"
    start = time.perf_counter()
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 0.5
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("DimensionCapError: estimated ")
    assert "sites=8000000000" in manifest["error"]


# runs a config in a fresh interpreter and prints the manifest's estimate
# and how far the run lifted the peak resident set above its set-up's; the
# peak is the kernel's VmHWM, since a child's ru_maxrss starts from the
# resident set of the process that forked it
PAIR_PROBE = """
import json, sys
from ovskale import experiments
import ovskale.csr


def peak():
    with open("/proc/self/status", encoding="utf-8") as fh:
        line = next(line for line in fh if line.startswith("VmHWM:"))
    return int(line.split()[1]) * 1024


with open(sys.argv[1], encoding="utf-8") as fh:
    doc = json.load(fh)
before = peak()
manifest = experiments.run_experiment(doc, sys.argv[2])
print(json.dumps([manifest["exit_code"], manifest["memory_estimate_bytes"], peak() - before]))
"""


@pytest.mark.skipif(not Path("/proc/self/status").exists(), reason="reads the kernel's VmHWM")
def test_size_check_covers_the_site_pair_tables(tmp_path):
    # the stock evolve on a 2-D 40x40 torus at n = 1 from a random state:
    # d = 1,601, but 2.56e6 site pairs, whose tables lift the peak by 75-105 MB
    doc = json.loads((SRC.parent / "configs" / "evolve.json").read_text())
    doc["model"]["torus"] = {"dim": 2, "sites": 40, "spacing": 0.5}
    doc["model"]["truncation"] = 1
    doc["experiment"]["initial"] = {"kind": "random"}
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(SRC), env.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", PAIR_PROBE, write_doc(tmp_path, doc), str(tmp_path / "o")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    exit_code, estimate, grown = json.loads(out.stdout.splitlines()[-1])
    assert exit_code == 0
    assert grown > 50e6
    assert estimate >= grown


def test_exit_3_when_the_site_pair_tables_exceed_memory(tmp_path, capsys, monkeypatch):
    # a budget of 100 MB: the 1,600 sites' kernel tables fit, so a kinetic
    # run on the torus starts, but the hierarchy's 2.56e6 site pairs do not
    physical = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    monkeypatch.setattr(experiments, "_MEMORY_SHARE", 100e6 / physical)
    doc = base_doc()
    doc["model"]["torus"] = {"dim": 2, "sites": 40, "spacing": 0.5}
    doc["model"]["truncation"] = 1
    path = write_doc(tmp_path, doc)
    out = tmp_path / "pairs"
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("DimensionCapError: estimated ")
    assert "site pairs=2560000" in manifest["error"]
    # refused in the preflight: no stage ran
    assert manifest["timings"] == {"imports_s": None, "build_runtime_s": None, "runner_s": None}
    doc["experiment"] = {"name": "kinetic", "t_end": 0.002, "dt": 0.001, "rho0": 0.5}
    path = write_doc(tmp_path, doc, "kinetic.json")
    assert main(["run", "--config", path, "--out", str(tmp_path / "k")]) == 0


def test_exit_2_when_kinetic_rho0_has_the_wrong_length(tmp_path, capsys):
    # schema-valid: an array rho0, but of 2 entries on a 4-site torus
    doc = base_doc()
    doc["experiment"] = {"name": "kinetic", "t_end": 0.01, "dt": 0.001, "rho0": [0.5, 0.2]}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "k"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert manifest["error"].startswith("ConfigError: kinetic rho0: rho must have shape (4,)")


# vlasov at alpha_star 2.2 runs its sweep inside this shorter horizon
T_NARROW = time_horizon(1.5, 2.2, SMALL.bound)


@pytest.mark.parametrize(
    "alpha_star, experiment, message",
    [
        (
            2.2,
            {"name": "vlasov", "epsilons": [0.2, 0.0], "samples": 2},
            "perturbation gap: alpha_star 2.2 leaves no room for index splits",
        ),
        (
            2.5,
            {
                "name": "vlasov", "epsilons": [0.2, 0.0], "samples": 2,
                "gap_alpha_lo": 2.4, "gap_alpha_hi": 1.6,
            },
            "semigroup gap indices: need 1 < alpha_lo < alpha_hi",
        ),
        (2.5, {"name": "horizon", "search_hi": 1.5}, "horizon search: search_hi must exceed"),
        (1.0015, {"name": "bounds", "samples": 5}, "singular bound sampling: alpha_star 1.0015"),
    ],
    ids=["vlasov-split", "vlasov-gap-indices", "horizon", "bounds"],
)
def test_exit_2_when_an_experiment_rejects_its_indices(
    tmp_path, capsys, monkeypatch, alpha_star, experiment, message
):
    # schema-valid configs whose index choices the experiment cannot use; the
    # vlasov gap indices depend on the config alone and are rejected before
    # the sweep solves anything
    def no_sweep(*args, **kwargs):
        raise AssertionError("the sweep ran before its gap indices were checked")

    monkeypatch.setattr(experiments, "vlasov_limit", no_sweep)
    doc = base_doc()
    doc["scale"] = {"alpha_s": min(1.5, 0.5 * (1.0 + alpha_star)), "alpha_star": alpha_star}
    doc["solver"]["upsilon"] = 0.4 * T_NARROW
    doc["experiment"] = experiment
    path = write_doc(tmp_path, doc)
    out = tmp_path / "o"
    assert main(["run", "--config", path, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "Traceback" not in err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 2
    assert manifest["error"].startswith("ConfigError: " + message)


@pytest.mark.parametrize(
    "experiment",
    [
        {"name": "bifurcation", "b_values": [0.02], "c_values": [0.3], "resolution": 10**12},
        {"name": "kinetic", "t_end": 1e6, "dt": 1e-9, "rho0": 0.5},
    ],
    ids=lambda e: e["name"],
)
def test_exit_3_when_a_kinetic_run_exceeds_memory(tmp_path, capsys, experiment):
    # 10^12 scan cells, or 10^15 stored rows: refused before any allocation
    doc = base_doc()
    doc["experiment"] = experiment
    path = write_doc(tmp_path, doc)
    out = tmp_path / "big"
    start = time.perf_counter()
    assert main(["run", "--config", path, "--out", str(out)]) == 3
    assert time.perf_counter() - start < 0.5
    assert "numerical failure" in capsys.readouterr().err
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("DimensionCapError: estimated ")
    assert "physical memory" in manifest["error"]


CONFIGS = Path(__file__).resolve().parents[1] / "configs"


def _run_edited_stock(tmp_path, capsys, name: str, edit) -> dict:
    """Run a stock config after edit(doc); checks the manifest and that every JSON file is strict."""
    doc = load_config(str(CONFIGS / f"{name}.json"))
    edit(doc)
    out = tmp_path / "out"
    code = main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)])
    assert "Traceback" not in capsys.readouterr().err
    for path in out.glob("*.json"):
        read_strict_json(path)
    manifest = read_strict_json(out / "manifest.json")
    assert manifest["exit_code"] == code
    return manifest


def _set(*path_and_value):
    *path, key, value = path_and_value

    def edit(doc):
        section = doc
        for step in path:
            section = section[step]
        section[key] = value

    return edit


@pytest.mark.parametrize(
    "name, edit",
    [
        ("evolve", _set("scale", "alpha_star", 900)),
        ("evolve", _set("model", "kernels", "phi", "params", "amplitude", 1e300)),
        ("evolve", _set("model", "torus", "spacing", 1e300)),
        ("bounds", _set("scale", "alpha_star", 1e300)),
        ("horizon", _set("model", "kernels", "phi", "params", "amplitude", 1e300)),
    ],
    ids=["evolve-alpha-star", "evolve-phi", "evolve-spacing", "bounds", "horizon"],
)
def test_an_overflowing_singular_coefficient_is_a_typed_error(tmp_path, capsys, name, edit):
    manifest = _run_edited_stock(tmp_path, capsys, name, edit)
    assert manifest["exit_code"] == 2
    assert manifest["error"].startswith("ConfigError: the singular coefficient overflows")


def test_a_far_horizon_search_still_finds_the_interior_maximum(tmp_path, capsys):
    # a uniform scan of (alpha_s, 1e300] has no point below 1e297, where the
    # singular coefficient reads +inf and every horizon is 0; the log-spaced
    # rescans bracket the peak at beta = 2.32 and the index alpha = 1.6475
    # that reaches the elapsed time
    runs = []
    for search_hi in (2.5, 6.0, 1e300):
        edit = _set("experiment", "search_hi", search_hi)
        assert _run_edited_stock(tmp_path, capsys, "horizon", edit)["exit_code"] == 0
        runs.append(read_strict_json(tmp_path / "out" / "horizon.json"))
    stock, near, got = runs
    assert got["beta_opt"] == pytest.approx(near["beta_opt"], rel=1e-9)
    assert got["horizon_max"] > 0.0 and not got["at_boundary"]
    alpha = stock["localization"]["alpha"]
    assert got["localization"]["alpha"] == pytest.approx(alpha, rel=1e-9)
    assert got["localization"]["residual"] <= 1e-9


def test_an_overflowing_apriori_constant_is_a_typed_error(tmp_path, capsys):
    manifest = _run_edited_stock(tmp_path, capsys, "evolve", _set("scale", "n_hat", 1e5))
    assert manifest["exit_code"] == 3
    assert manifest["error"].startswith("HorizonError: the a-priori constant")


@pytest.mark.parametrize("name", ["evolve", "vlasov"])
def test_an_overflowing_majorant_is_a_typed_error(tmp_path, capsys, name):
    manifest = _run_edited_stock(tmp_path, capsys, name, _set("scale", "n_hat", 1e300))
    assert manifest["exit_code"] == 3
    prefix = "HorizonError: " + ("epsilon=0.4: " if name == "vlasov" else "")
    assert manifest["error"].startswith(prefix + "the majorant of term")


@pytest.mark.parametrize("name", ["evolve", "vlasov", "kinetic", "bifurcation", "bounds", "horizon"])
@pytest.mark.parametrize(
    "spec, missing",
    [
        ({"kind": "tophat"}, "amplitude, radius"),
        ({"kind": "table"}, "values"),
        ({"kind": "gaussian", "params": {"sigma": 0.5}}, "amplitude"),
    ],
    ids=["tophat", "table", "gaussian"],
)
def test_a_kernel_without_its_params_is_a_config_error(tmp_path, capsys, name, spec, missing):
    manifest = _run_edited_stock(tmp_path, capsys, name, _set("model", "kernels", "a", spec))
    assert manifest["exit_code"] == 2
    kind = spec["kind"]
    assert manifest["error"] == f"ConfigError: {kind} kernel needs params {missing}"


_SMALL_KERNEL = st.one_of(
    st.builds(
        lambda amp, sigma: {"kind": "gaussian", "params": {"amplitude": amp, "sigma": sigma}},
        st.floats(0.0, 2.0),
        st.floats(0.05, 3.0),
    ),
    st.builds(
        lambda amp, radius: {"kind": "tophat", "params": {"amplitude": amp, "radius": radius}},
        st.floats(0.0, 2.0),
        st.floats(0.0, 3.0),
    ),
)
# a model that builds: a small torus, bounded kernels and rates
_MODEL = st.fixed_dictionaries(
    {
        "torus": st.fixed_dictionaries(
            {"dim": st.integers(1, 2), "sites": st.integers(1, 5), "spacing": st.floats(0.1, 2.0)}
        ),
        "kernels": st.fixed_dictionaries({"a": _SMALL_KERNEL, "phi": _SMALL_KERNEL}),
        "m": st.floats(0.01, 5.0),
        "lambda": st.floats(0.01, 5.0),
        "truncation": st.integers(1, 3),
    }
)
# densities stay O(1): a large one only forces more halved steps, which is slow
_DENSITY = st.floats(0.0, 5.0)
_KINETIC = st.fixed_dictionaries(
    {
        "name": st.just("kinetic"),
        "t_end": st.floats(0.0, 0.05),
        "dt": st.floats(1e-3, 10.0),
    },
    optional={
        "rho0": st.one_of(_DENSITY, st.lists(_DENSITY, min_size=1, max_size=30)),
        "store_every": st.integers(1, 10**6),
        "full_field": st.booleans(),
    },
)
_ANY_POSITIVE = st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)
_BIFURCATION = st.fixed_dictionaries(
    {
        "name": st.just("bifurcation"),
        "b_values": st.lists(
            st.one_of(st.floats(0.0, 0.1), st.floats(0.0, allow_infinity=False)),
            min_size=1,
            max_size=3,
        ),
        "c_values": st.lists(
            st.one_of(st.floats(1e-3, 2.0), _ANY_POSITIVE), min_size=1, max_size=3
        ),
    },
    optional={
        "x_hi": st.one_of(st.floats(1.0, 60.0), _ANY_POSITIVE),
        "resolution": st.integers(100, 2000),
        "fold_points": st.integers(2, 12),
    },
)


@settings(max_examples=60, deadline=None)
@given(
    model=_MODEL,
    experiment=st.one_of(_KINETIC, _BIFURCATION),
    seed=st.integers(0, 2**31),
)
def test_run_experiment_fuzz_kinetic_and_bifurcation(model, experiment, seed):
    doc = {
        "model": model,
        "scale": {"alpha_s": 1.5, "alpha_star": 2.5},
        "solver": {"upsilon": 0.01},
        "experiment": experiment,
        "seed": seed,
    }
    validate_config(doc)
    with tempfile.TemporaryDirectory() as out, warnings.catch_warnings():
        # an edge root warns by design; a RuntimeWarning still fails the test
        warnings.simplefilter("ignore", UserWarning)
        manifest = run_experiment(doc, out)
        assert manifest["exit_code"] in {0, 1, 2, 3}
        docs = {path.name: read_strict_json(path) for path in Path(out).rglob("*.json")}
    written = docs["manifest.json"]
    assert written["exit_code"] == manifest["exit_code"]


@st.composite
def _hierarchy_model(draw):
    """A model that builds, with at most 300 entries per state."""
    dim = draw(st.integers(1, 2))
    sites = draw(st.integers(1, 5 if dim == 1 else 3))
    count = sites**dim
    top = max(n for n in range(1, 4) if sum(math.comb(count, k) for k in range(n + 1)) <= 300)
    return {
        "torus": {"dim": dim, "sites": sites, "spacing": draw(st.floats(0.1, 2.0))},
        "kernels": {"a": draw(_SMALL_KERNEL), "phi": draw(_SMALL_KERNEL)},
        "m": draw(st.floats(0.01, 5.0)),
        "lambda": draw(st.floats(0.01, 5.0)),
        "truncation": draw(st.integers(1, top)),
        **draw(st.fixed_dictionaries({}, optional={"epsilon": st.floats(0.0, 1.0)})),
    }


@st.composite
def _index_pair(draw):
    alpha_s = draw(st.floats(1.0, 3.0, exclude_min=True))
    return {"alpha_s": alpha_s, "alpha_star": alpha_s + draw(st.floats(1e-4, 3.0))}


_SOLVER = st.fixed_dictionaries(
    {"upsilon": st.floats(1e-5, 0.05)},
    optional={
        "grid_points": st.integers(1, 16).map(lambda h: 2 * h),
        "n_max": st.integers(1, 40),
        "term_tol": st.floats(1e-13, 1e-3),
        "quad_tol": st.floats(1e-12, 1e-2),
        "trajectory_points": st.integers(2, 40),
        "alpha": st.floats(1.0, 6.0, exclude_min=True),
        "q": st.floats(1.0, 10.0, exclude_min=True),
    },
)
_EVOLVE = st.fixed_dictionaries(
    {"name": st.just("evolve"), "t": st.floats(1e-6, 0.05)},
    optional={
        "s": st.floats(0.0, 1.0),
        "initial": st.fixed_dictionaries(
            {"kind": st.sampled_from(["product", "random"])}, optional={"rho": _DENSITY}
        ),
        "flow_tau": st.floats(1e-6, 0.05),
        "check_apriori": st.booleans(),
    },
)
_INDEX = st.floats(1.0, 4.0, exclude_min=True)
_VLASOV = st.fixed_dictionaries(
    {
        "name": st.just("vlasov"),
        "epsilons": st.lists(st.floats(0.0, 1.0), max_size=3).map(
            lambda eps: sorted(eps, reverse=True)
        ),
    },
    optional={
        "rho0": st.floats(0.01, 5.0),
        "samples": st.integers(1, 4),
        "gap_time": st.floats(1e-4, 0.1),
        "gap_alpha_lo": _INDEX,
        "gap_alpha_hi": _INDEX,
    },
)
_BOUNDS = st.fixed_dictionaries(
    {"name": st.just("bounds")}, optional={"samples": st.integers(1, 20)}
)
# past the float range of the bound's exponentials
_OVERFLOWING = st.floats(10.0, 1e300)
_HORIZON = st.fixed_dictionaries(
    {"name": st.just("horizon")},
    optional={
        "search_hi": st.one_of(st.floats(1.0, 6.0, exclude_min=True), _OVERFLOWING),
        "scan_points": st.integers(10, 200),
        "elapsed": st.floats(0.0, 0.1),
    },
)


# at most one edit per example: a value set past the float range, or a
# kernel param dropped (the kernel's first or second param, by name)
_EXTREME = st.one_of(
    st.none(),
    st.tuples(
        st.sampled_from([
            ("scale", "alpha_star"),
            ("scale", "n_hat"),
            ("model", "torus", "spacing"),
            ("model", "kernels", "phi", "params", "amplitude"),
        ]),
        _OVERFLOWING,
    ),
    st.tuples(st.sampled_from(["a", "phi"]), st.integers(0, 1)),
)


def _apply_extreme(doc: dict, extreme) -> None:
    if extreme is None:
        return
    path, value = extreme
    if isinstance(path, str):
        params = doc["model"]["kernels"][path]["params"]
        del params[sorted(params)[value]]
    else:
        _set(*path, value)(doc)


@settings(max_examples=60, deadline=None)
@given(
    model=_hierarchy_model(),
    scale=_index_pair(),
    solver=_SOLVER,
    experiment=st.one_of(_EVOLVE, _VLASOV, _BOUNDS, _HORIZON),
    seed=st.integers(0, 2**31),
    extreme=_EXTREME,
)
def test_run_experiment_fuzz_hierarchy_runs(model, scale, solver, experiment, seed, extreme):
    doc = {"model": model, "scale": scale, "solver": solver, "experiment": experiment, "seed": seed}
    _apply_extreme(doc, extreme)
    validate_config(doc)
    with tempfile.TemporaryDirectory() as out:
        # a traceback fails here, and so does a RuntimeWarning (pytest config)
        manifest = run_experiment(doc, out)
        assert manifest["exit_code"] in {0, 1, 2, 3}
        docs = {path.name: read_strict_json(path) for path in Path(out).rglob("*.json")}
    written = docs["manifest.json"]
    assert written["exit_code"] == manifest["exit_code"]


def test_vlasov_empty_sweep_writes_headers_only(tmp_path):
    doc = base_doc()
    doc["experiment"] = {"name": "vlasov", "epsilons": [], "rho0": 0.5}
    path = write_doc(tmp_path, doc)
    out = tmp_path / "v"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    sweep_rows = read_rows(out / "sweep.csv")
    assert len(sweep_rows) == 1  # header only
    plot_rows = read_rows(out / "plot_eps_gap.csv")
    assert len(plot_rows) == 1
    summary = json.loads((out / "summary.json").read_text())
    assert summary["epsilons"] == []
    assert summary["assertions"] == []


def test_vlasov_zero_gaps_write_null_ratios(tmp_path):
    # on a 1-site torus every sup gap is 0, so every ratio is 0/0
    doc = base_doc()
    doc["model"]["torus"]["sites"] = 1
    doc["model"]["truncation"] = 1
    doc["experiment"] = {"name": "vlasov", "epsilons": [0.5, 0.25, 0.0], "rho0": 0.5}
    out = tmp_path / "v"
    assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 1
    summary = read_strict_json(out / "summary.json")
    assert summary["sup_gaps"] == [0.0, 0.0]
    assert summary["ratios"] == [None]
    checks = {c["name"]: c["passed"] for c in summary["assertions"]}
    assert checks["limit_gap_ratios"] is False


def test_bifurcation_monostable_grid(tmp_path):
    doc = base_doc()
    doc["experiment"] = {
        "name": "bifurcation",
        "b_values": [0.05],
        "c_values": [0.1, 0.3, 1.0],
        "x_hi": 40.0,
        "resolution": 4000,
    }
    path = write_doc(tmp_path, doc)
    out = tmp_path / "b"
    assert main(["run", "--config", path, "--out", str(out)]) == 0
    rows = read_rows(out / "bifurcation.csv")
    header, body = rows[0], rows[1:]
    count_col = header.index("root_count")
    assert len(body) == 3
    assert all(row[count_col] == "1" for row in body)


def test_bifurcation_solves_each_fold_window_once_and_frees_its_grid(tmp_path):
    doc = base_doc()
    doc["experiment"] = {
        "name": "bifurcation",
        "b_values": [0.01, 0.02, 0.01, 0.05],
        "c_values": [0.1, 0.3, 0.36],
        "x_hi": 40.0,
        "resolution": 4000,
        "fold_points": 2,
    }
    calls = []
    solve = kinetic.critical_c_range

    def counted(b):
        calls.append(b)
        return solve(b)

    out = tmp_path / "b"
    with mock.patch.object(kinetic, "critical_c_range", counted):
        assert main(["run", "--config", write_doc(tmp_path, doc), "--out", str(out)]) == 0
    # one window per distinct b below threshold, then one per fold point
    assert sorted(calls[:2]) == [0.01, 0.02]
    assert len(calls) == 2 + 2
    assert len(read_rows(out / "bifurcation.csv")) == 1 + 9
    assert kinetic.scan_grid.cache_info().currsize == 0


def test_config_round_trip_and_hash(tmp_path):
    doc = base_doc()
    path = write_doc(tmp_path, doc)
    assert load_config(path) == doc
    reordered = json.loads(json.dumps(doc, sort_keys=True))
    assert config_hash(reordered) == config_hash(doc)
    tweaked = json.loads(json.dumps(doc))
    tweaked["seed"] = 12
    assert config_hash(tweaked) != config_hash(doc)


def test_config_hash_is_hashlibs_sha256_of_the_canonical_json():
    # config_hash takes CPython's builtin SHA-256; manifests keep their hashes
    import hashlib

    docs = [json.loads(p.read_text()) for p in sorted(CONFIGS.glob("*.json"))]
    assert len(docs) == 6
    unicode_doc = base_doc()
    unicode_doc["output"] = "runs/ρ₀ é 密度 \U0001f600"
    for doc in docs + [unicode_doc]:
        canon = json.dumps(doc, sort_keys=True, separators=(",", ":"))
        assert config_hash(doc) == hashlib.sha256(canon.encode("utf-8")).hexdigest()


def test_run_uses_config_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = base_doc()
    doc["output"] = "nested/run"
    path = write_doc(tmp_path, doc)
    assert main(["run", "--config", path]) == 0
    assert (tmp_path / "nested" / "run" / "manifest.json").exists()
