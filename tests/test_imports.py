"""Import boundaries: a run loads only the scipy subpackages it uses.

Each probe starts a fresh interpreter, because this process has long since
loaded every module.  The checks read sys.modules, so they need no timing.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ovskale

ROOT = Path(__file__).resolve().parents[1]
# loaded only by the runs that use them: the kinetic equation (scipy.fft,
# which pulls in scipy.special, and scipy.integrate), the horizon search
# (scipy.optimize) and the oracle
LAZY = ("scipy.optimize", "scipy.integrate", "scipy.fft", "scipy.special", "ovskale.kinetic")

# prints which LAZY modules are loaded after `import ovskale.cli`, and, given
# a config and an output directory, when its runner is entered and after the
# run through the command line entry
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
        return runner(*args)

    experiments.RUNNERS[name] = entered
    seen["exit"] = ovskale.cli.main(["run", "--config", sys.argv[2], "--out", sys.argv[3]])
    seen["run"] = loaded()
print(json.dumps(seen))
"""


def _probe(*args: str) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, ",".join(LAZY), *args],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    return json.loads(out.stdout.splitlines()[-1])


def test_cli_import_loads_no_optional_subpackage():
    assert _probe()["import"] == []


@pytest.mark.parametrize("name", ["evolve", "vlasov", "bounds"])
def test_hierarchy_runs_load_no_optional_subpackage(tmp_path, name):
    seen = _probe(str(ROOT / "configs" / f"{name}.json"), str(tmp_path))
    assert seen["exit"] == 0
    assert seen["run"] == []


def test_kinetic_run_loads_its_subpackages_before_the_runner(tmp_path):
    # imports are set-up: the runner's own time holds none of them
    seen = _probe(str(ROOT / "configs" / "kinetic.json"), str(tmp_path))
    assert seen["exit"] == 0
    assert {"scipy.integrate", "scipy.fft", "ovskale.kinetic"} <= set(seen["runner"])


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
