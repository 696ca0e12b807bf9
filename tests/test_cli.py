"""End-to-end command line behavior: exit codes, outputs, determinism."""

import csv
import json
from pathlib import Path

import pytest

from ovskale import config_hash, load_config, time_horizon
from ovskale.cli import main

from conftest import make_instance

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
    assert all(item["passed"] for item in manifest["assertions"])
    names = {item["name"] for item in manifest["assertions"]}
    assert {"series_converged", "majorant_domination", "flow_property"} <= names
    for rel in manifest["outputs"]:
        assert (out / rel).exists()

    result = json.loads((out / "result.json").read_text())
    n_used = result["n_used"]
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


def test_config_round_trip_and_hash(tmp_path):
    doc = base_doc()
    path = write_doc(tmp_path, doc)
    assert load_config(path) == doc
    reordered = json.loads(json.dumps(doc, sort_keys=True))
    assert config_hash(reordered) == config_hash(doc)
    tweaked = json.loads(json.dumps(doc))
    tweaked["seed"] = 12
    assert config_hash(tweaked) != config_hash(doc)


def test_run_uses_config_output_directory(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    doc = base_doc()
    doc["output"] = "nested/run"
    path = write_doc(tmp_path, doc)
    assert main(["run", "--config", path]) == 0
    assert (tmp_path / "nested" / "run" / "manifest.json").exists()
