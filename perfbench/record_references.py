"""Record the headline outputs of every workload variant at this commit.

    python3 perfbench/record_references.py

Runs each variant once through the benchmark's own launcher, requires exit
code 0 and every manifest assertion passing, and writes the headline
outputs to references.json.  Run it only when the benchmark's inputs change;
the point of the file is that later versions of the program are checked
against it.
"""

from __future__ import annotations

import json
import sys

import run
import workloads


def main() -> int:
    refs: dict = {}
    for name in workloads.WORKLOADS:
        table = refs[name] = {}
        for variant in range(workloads.VARIANTS):
            work = run.WORK / "record" / name
            configs = run.write_configs(workloads.generate(name, variant), work)
            result = run.run_once(name, configs, {}, work / "run", spans=False)
            if result["errors"]:
                print(f"{name} variant {variant}: {result['errors']}", file=sys.stderr)
                return 1
            out_dirs = [work / "run" / "out" / str(i) for i in range(len(configs))]
            table[str(variant)] = workloads.headline(name, out_dirs)
            print(f"{name} variant {variant}: {result['wall_s']:.2f} s", flush=True)
    workloads.REFERENCE_FILE.write_text(json.dumps(refs, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
