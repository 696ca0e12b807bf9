"""The benchmark tracer finds every program name it wraps."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# install() rewrites module globals for the whole process, so it runs apart
PROBE = """
import json, sys
sys.path.insert(0, sys.argv[1])
import ovskale.cli
from tracer import Tracer
tracer = Tracer()
tracer.install()
print(json.dumps(tracer.missing))
"""


def test_tracer_finds_every_traced_name():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c", PROBE, str(ROOT / "perfbench")],
        env=env, capture_output=True, text=True, check=True, timeout=120,
    )
    assert json.loads(out.stdout.splitlines()[-1]) == []
