"""Import boundaries: a run loads no scipy module, only scipy's compiled
kernels, and jsonschema (the config check's test reference) nowhere.

Each probe starts a fresh interpreter, because this process has long since
loaded every module.  The checks read sys.modules, so they need no timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest
import scipy

import ovskale

ROOT = Path(__file__).resolve().parents[1]
# loaded only where used: ovskale.csr (scipy's compiled sparse kernels) by
# the hierarchy runs, ovskale.kinetic (scipy's compiled FFT kernels) by the
# kinetic runs, and scipy.sparse by the oracle, which no run calls; the
# package loads scipy.integrate (its DOP853 is scipy's compiled one, loaded
# as ovskale._dop), scipy.optimize, scipy.fft, scipy.special, numpy.fft,
# jsonschema and numpy.ma (which np.unique imports on its first call)
# nowhere
LAZY = (
    "ovskale.csr",
    "jsonschema",
    "numpy.ma",
    "scipy.sparse",
    "scipy.optimize",
    "scipy.integrate",
    "scipy.fft",
    "scipy.special",
    "numpy.fft",
    "ovskale.kinetic",
)

# the scipy.sparse package and what its import pulls in: the array-API
# layer's numpy clone imports numpy's lazy f2py and testing submodules
HEAVY = ("scipy.sparse", "scipy._lib._array_api", "numpy.f2py", "numpy.testing")


def _scipy_modules(modules) -> list:
    return [m for m in modules if m == "scipy" or m.startswith("scipy.")]


# prints which LAZY modules are loaded after `import ovskale.cli`, and, given
# a config and an output directory, when its runner is entered and after the
# run through the command line entry, with the modules the runner itself
# loaded and every module loaded at the end
PROBE = """
import json, sys
import ovskale.cli
from ovskale import experiments

lazy = sys.argv[1].split(",")


def loaded():
    return [m for m in lazy if m in sys.modules]


seen = {"import": loaded()}
if len(sys.argv) > 2:
    with open(sys.argv[2], encoding="utf-8") as fh:
        name = json.load(fh)["experiment"]["name"]
    runner = experiments.RUNNERS[name]

    def entered(*args):
        seen["runner"] = loaded()
        before = set(sys.modules)
        try:
            return runner(*args)
        finally:
            seen["runner_loads"] = sorted(set(sys.modules) - before)

    experiments.RUNNERS[name] = entered
    seen["exit"] = ovskale.cli.main(["run", "--config", sys.argv[2], "--out", sys.argv[3]])
    seen["run"] = loaded()
    seen["modules"] = sorted(sys.modules)
print(json.dumps(seen))
"""


def _python(code: str, *args: str):
    """The last line printed by code in a fresh interpreter, read as JSON."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def _probe(*args: str) -> dict:
    return _python(PROBE, ",".join(LAZY), *args)


def test_cli_import_loads_no_optional_subpackage():
    assert _probe()["import"] == []


def _config(tmp_path, name: str) -> str:
    """A stock config, or for "random" the stock evolve from a random state."""
    if name != "random":
        return str(ROOT / "configs" / f"{name}.json")
    doc = json.loads((ROOT / "configs" / "evolve.json").read_text())
    doc["experiment"]["initial"] = {"kind": "random"}
    path = tmp_path / "random.json"
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.mark.parametrize("name", ["evolve", "vlasov", "bounds", "random"])
def test_hierarchy_runs_load_no_optional_subpackage(tmp_path, name):
    # ovskale.csr is set-up: loaded before the runner is entered; it loads
    # scipy's sparse kernels and no scipy module, and the manifest records
    # the version of the scipy they came from.  The runner loads only the
    # orbit module, on the product runs.
    seen = _probe(_config(tmp_path, name), str(tmp_path / "out"))
    assert seen["exit"] == 0
    assert seen["runner"] == ["ovskale.csr"]
    assert seen["run"] == ["ovskale.csr"]
    assert seen["runner_loads"] == ([] if name in ("bounds", "random") else ["ovskale.orbits"])
    assert _scipy_modules(seen["modules"]) == []
    assert [m for m in seen["modules"] if m.startswith(HEAVY)] == []
    # no ODE is solved
    assert "ovskale._dop" not in seen["modules"]
    manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == scipy.__version__


@pytest.mark.parametrize("name", ["evolve", "vlasov"])
def test_product_runs_load_the_orbit_module_in_the_runner(tmp_path, name):
    # canonicalising on orbits is the runner's work: set-up does not load it
    seen = _python(PROBE, "ovskale.orbits", str(ROOT / "configs" / f"{name}.json"), str(tmp_path))
    assert seen["exit"] == 0
    assert (seen["import"], seen["runner"], seen["run"]) == ([], [], ["ovskale.orbits"])


def test_the_oracle_loads_scipy_sparse_when_called():
    # and not scipy.integrate: its Runge-Kutta route is the compiled DOP853
    code = """
import json, sys
from ovskale import CorrelationVector, ModelParams, OperatorHandle, Torus, kernel_pair_from_spec
from ovskale.series import oracle_evolve

names = ("scipy.sparse.linalg", "scipy.integrate", "ovskale._dop")
gauss = {"kind": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.7}}
torus = Torus(1, 4, 0.5)
full = OperatorHandle("full", kernel_pair_from_spec(torus, gauss, gauss), ModelParams(1.0, 1.0), 2)
full.matrix()
seen = [[name in sys.modules for name in names]]
oracle_evolve(CorrelationVector.product_form(torus, 2, 0.5), 0.01, full)
print(json.dumps(seen + [[name in sys.modules for name in names]]))
"""
    assert _python(code) == [[False, False, False], [True, False, True]]


@pytest.mark.parametrize("name", ["kinetic", "bifurcation", "horizon"])
def test_runs_without_an_operator_load_no_scipy_subpackage(tmp_path, name):
    seen = _probe(str(ROOT / "configs" / f"{name}.json"), str(tmp_path))
    assert seen["exit"] == 0
    assert _scipy_modules(seen["modules"]) == []
    assert [m for m in seen["modules"] if m.startswith(HEAVY)] == []
    assert "jsonschema" not in seen["run"]
    # the kinetic equation runs on scipy's FFT kernels, not on numpy.fft
    assert "numpy.fft" not in seen["modules"]
    if name != "horizon":
        # the kinetic module is set-up too
        assert "ovskale.kinetic" in seen["runner"]
    # the kinetic run checks its constant field against the scalar solve,
    # on scipy's compiled DOP853
    assert ("ovskale._dop" in seen["modules"]) == (name == "kinetic")


@pytest.mark.parametrize("name", ["kinetic", "bifurcation", "horizon"])
def test_runs_without_an_operator_load_no_scipy(tmp_path, name):
    # not even scipy itself; the manifest records the version of the scipy
    # whose compiled FFT kernels the kinetic module loaded, and null for a
    # run that loaded none
    seen = _python(PROBE, "scipy", str(ROOT / "configs" / f"{name}.json"), str(tmp_path))
    assert seen["exit"] == 0
    assert seen["run"] == []
    assert _scipy_modules(seen["modules"]) == []
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["versions"]["scipy"] == (None if name == "horizon" else scipy.__version__)


def test_kinetic_module_loads_no_scipy_subpackage():
    code = "import json, sys, ovskale.kinetic; print(json.dumps(sorted(sys.modules)))"
    modules = _python(code)
    assert _scipy_modules(modules) == []
    assert "numpy.fft" not in modules


def test_every_exported_name_resolves():
    for name in ovskale.__all__:
        assert getattr(ovskale, name) is not None
    namespace: dict = {}
    exec("from ovskale import *", namespace)
    assert set(ovskale.__all__) <= set(namespace)
    assert set(ovskale.__all__) <= set(dir(ovskale))
    assert len(set(ovskale.__all__)) == len(ovskale.__all__)


def test_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ovskale.no_such_name
    with pytest.raises(ImportError):
        exec("from ovskale import no_such_name", {})
    # the duality reference lives with the tests
    assert not hasattr(ovskale, "apply_observable_generator")
