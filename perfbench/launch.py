"""One program run: execute ovskale configs in this process, in order.

    python3 launch.py --timings T.json [--spans S.json --run-id ID] OUT_ROOT CFG...

Each config runs through the `ovskale run` command-line entry with output
directory OUT_ROOT/<index>.  The experiment runners are wrapped so that
T.json records, on the system-wide monotonic clock, when each one started
and ended; the caller compares them with its own spawn and exit times.
T.json also records the environment as this process sees it: versions,
thread settings and the sweep worker count the program's default gives.
With --spans the tracer from `tracer.py` wraps the package's public calls
and writes its spans to S.json when the run ends.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
import time

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "OVSKALE_THREADS")


def _timed(name, fn, record):
    def runner(*args, **kwargs):
        start = time.monotonic()
        try:
            return fn(*args, **kwargs)
        finally:
            record.append([name, start, time.monotonic()])

    return runner


def environment(configs: list[str]) -> dict:
    import numpy
    import scipy
    from ovskale import vlasov

    cap = getattr(vlasov, "thread_cap", None)
    sweeps = []
    for path in configs:
        with open(path, encoding="utf-8") as fh:
            experiment = json.load(fh)["experiment"]
        if experiment["name"] == "vlasov":
            sweeps.append(len(experiment["epsilons"]))
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "threads_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "sweep_workers": cap(max(sweeps)) if cap and sweeps else None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--timings", required=True)
    parser.add_argument("--spans", default=None)
    parser.add_argument("--run-id", default="0")
    parser.add_argument("out_root")
    parser.add_argument("configs", nargs="+")
    args = parser.parse_args(argv)

    start = time.monotonic()
    import ovskale.cli
    import ovskale.experiments

    import_s = time.monotonic() - start
    tracer = None
    if args.spans:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    runners: list = []
    table = ovskale.experiments.RUNNERS
    for name, fn in list(table.items()):
        table[name] = _timed(name, fn, runners)

    code = 0
    for index, config in enumerate(args.configs):
        code = ovskale.cli.main(["run", "--config", config, "--out", f"{args.out_root}/{index}"])
        if code != 0:
            break
    with open(args.timings, "w", encoding="utf-8") as fh:
        json.dump({"import_s": import_s, "runners": runners, "environment": environment(args.configs)}, fh)
    if tracer is not None:
        tracer.dump(args.spans, import_s, args.run_id)
    return code


if __name__ == "__main__":
    sys.exit(main())
