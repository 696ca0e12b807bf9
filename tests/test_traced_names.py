"""The benchmark tracer finds every program name it wraps, and reads a solve."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() rewrites module globals for the whole process, so it runs apart;
# one small evolve with a flow check then runs under the tracer, so that a
# reshaped solver call fails here rather than in the benchmark's traced run
PROBE = """
import json, sys, tempfile
from pathlib import Path
sys.path.insert(0, sys.argv[1])
import ovskale.cli
from ovskale.experiments import run_experiment
from tracer import Tracer, layer_metrics
tracer = Tracer()
tracer.install()
doc = json.loads(sys.argv[2])
with tempfile.TemporaryDirectory() as tmp:
    manifest = run_experiment(doc, tmp)
    tracer.dump(str(Path(tmp) / "spans.json"), 0.0, "probe")
    metrics = layer_metrics(json.loads((Path(tmp) / "spans.json").read_text()))
report = {"missing": tracer.missing, "exit_code": manifest["exit_code"], "metrics": metrics}
print(json.dumps(report))
"""


def _evolve_doc() -> dict:
    doc = json.loads((ROOT / "configs" / "evolve.json").read_text())
    doc["model"]["torus"]["sites"] = 4
    doc["model"]["truncation"] = 2
    doc["solver"]["grid_points"] = 32
    doc.pop("output")
    return doc


def test_tracer_finds_every_traced_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench"), json.dumps(_evolve_doc())],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    report = json.loads(out.stdout.splitlines()[-1])
    assert report["missing"] == []
    assert report["exit_code"] == 0
    assert report["metrics"]["series.evolve_calls"] > 0
    assert report["metrics"]["series.levels"] > 0
