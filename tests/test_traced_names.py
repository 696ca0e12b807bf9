"""The benchmark tracer finds every program name it wraps, and reads a solve."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() rewrites module globals for the whole process, so each probe runs
# apart; one small evolve with a flow check, one small vlasov sweep (its
# limit run passes the eps = 0 diagonal handle), and a kinetic run followed
# by a bifurcation run in one process, as the benchmark's kinetic-fold runs
# them, run under the tracer, so that a reshaped solver or sweep call, or a
# kinetic name loaded past the tracer, fails here rather than in the
# benchmark's traced runs
PROBE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import ovskale.cli
from ovskale.experiments import run_experiment
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
docs = json.loads(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    codes = [run_experiment(doc, f"{tmp}/{i}")["exit_code"] for i, doc in enumerate(docs)]
    tracer.dump(str(Path(tmp) / "spans.json"), 0.0, "probe")
    metrics = layer_metrics(json.loads((Path(tmp) / "spans.json").read_text()))
report = {"missing": tracer.missing, "exit_codes": codes, "metrics": metrics}
print(json.dumps(report))
"""


def _small_doc(name: str) -> dict:
    doc = json.loads((ROOT / "configs" / f"{name}.json").read_text())
    doc["model"]["torus"]["sites"] = 4
    doc["model"]["truncation"] = 2
    doc["solver"]["grid_points"] = 32
    doc.pop("output")
    return doc


def _probe(*docs: dict) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench"), json.dumps(docs)],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["missing"] == []
    assert report["exit_codes"] == [0] * len(docs)
    return report["metrics"]


def test_tracer_finds_every_traced_name():
    evolve = _probe(_small_doc("evolve"))
    # the flow check's direct leg, which is the main solve, and its two
    # composed legs
    assert evolve["series.evolve_calls"] == 3
    assert evolve["series.levels"] > 0
    # the orbit route's energies, of the diagonal block and the semigroup,
    # come from the traced interaction_energies
    assert evolve["operators.energies_s"] > 0
    vlasov = _probe(_small_doc("vlasov"))
    # every epsilon of the sweep, the limit included, is one traced solve
    assert vlasov["series.evolve_calls"] == 5
    assert vlasov["series.levels"] > 0
    assert vlasov["vlasov.pool_overlap"] > 0


def test_tracer_sees_the_lazily_loaded_kinetic_module():
    kinetic = json.loads((ROOT / "configs" / "kinetic.json").read_text())
    kinetic["model"]["torus"]["sites"] = 16
    kinetic["experiment"].update(t_end=0.05, store_every=10)
    fold = json.loads((ROOT / "configs" / "bifurcation.json").read_text())
    fold["experiment"]["resolution"] = 2000
    for doc in (kinetic, fold):
        doc.pop("output")
    metrics = _probe(kinetic, fold)
    assert metrics["kinetic.integrate_s"] > 0
    assert metrics["kinetic.scan_s"] > 0
