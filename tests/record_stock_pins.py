"""Record every number the stock configs write, for tests/test_stock_pins.py.

    PYTHONPATH=src python tests/record_stock_pins.py

Runs each config under configs/ once, reads back every file the run writes
except manifest.json (timings, versions and memory differ between runs)
and writes the parsed contents to tests/stock_pins.json.  Record only when
an output is meant to change; the point of the file is that later versions
of the program are checked against it.
"""

from __future__ import annotations

import csv
import json
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = sorted((ROOT / "configs").glob("*.json"))
PIN_FILE = Path(__file__).resolve().parent / "stock_pins.json"


def _cell(text: str):
    """A CSV cell as the number it prints, or as its text (an empty root column)."""
    try:
        return float(text)
    except ValueError:
        return text


def read_outputs(out: Path) -> dict:
    """Every file of a finished run but its manifest: JSON parsed, CSV as rows of cells."""
    files = {}
    for path in sorted(out.iterdir()):
        if path.name == "manifest.json":
            continue
        if path.suffix == ".json":
            files[path.name] = json.loads(path.read_text())
        else:
            with open(path, encoding="utf-8", newline="") as fh:
                header, *rows = csv.reader(fh)
            files[path.name] = {"header": header, "rows": [[_cell(c) for c in r] for r in rows]}
    return files


def run_stock(config: Path, out: Path) -> dict:
    """Run one stock config into out; its exit code and read-back outputs."""
    from ovskale import load_config
    from ovskale.experiments import run_experiment

    manifest = run_experiment(load_config(str(config)), str(out))
    return {"exit_code": manifest["exit_code"], "files": read_outputs(out)}


def main() -> int:
    pins = {}
    with tempfile.TemporaryDirectory() as tmp:
        for config in CONFIGS:
            pins[config.stem] = run_stock(config, Path(tmp) / config.stem)
            print(f"{config.stem}: exit {pins[config.stem]['exit_code']}", flush=True)
    PIN_FILE.write_text(json.dumps(pins, indent=1, sort_keys=True, allow_nan=False) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
