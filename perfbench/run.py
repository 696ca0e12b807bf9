"""ovskale benchmark: seeded workloads, end-to-end timings, traced layers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  The driver generates the workload's config
documents from the seed, validates them, and starts one program process at a
time (`launch.py`) until the next one would end after S seconds.  Every run
is checked: exit code 0, every manifest assertion passed, headline outputs
equal to the recorded reference within tolerance.  With --trace 0 the result
holds the end-to-end metrics, medians over the runs; with --trace 1
untraced and traced runs alternate and the result holds the per-layer
metrics, medians over the traced runs.  A traced run fails if the tracer
found a traced call missing from the program.  The last line of standard output is
the result as one JSON object.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
# two runs that time out must still end well within the 180 s a benchmark run may take
CHILD_TIMEOUT_S = 75.0

sys.path.insert(0, str(HERE))
import tracer  # noqa: E402
import workloads  # noqa: E402


def _child_env() -> dict:
    env = dict(os.environ)
    # measure the program's own default worker count
    env.pop("OVSKALE_THREADS", None)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


def _wait(proc: subprocess.Popen, timeout: float):
    """Reap proc, killing it after timeout; returns (exit code, rusage, timed out)."""
    expired = threading.Event()

    def kill():
        expired.set()
        proc.send_signal(signal.SIGKILL)

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    finally:
        timer.cancel()
        timer.join()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage, expired.is_set()


def run_once(workload: str, configs: list[Path], reference: dict, run_dir: Path, spans: bool) -> dict:
    """One program process over the workload's configs, timed and checked."""
    shutil.rmtree(run_dir, ignore_errors=True)
    run_dir.mkdir(parents=True)
    timings = run_dir / "timings.json"
    cmd = [sys.executable, str(HERE / "launch.py"), "--timings", str(timings)]
    if spans:
        cmd += ["--spans", str(run_dir / "spans.json"), "--run-id", run_dir.name]
    cmd += [str(run_dir / "out"), *map(str, configs)]
    with open(run_dir / "launch.log", "w", encoding="utf-8") as log:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, env=_child_env(), cwd=ROOT, stdout=log, stderr=subprocess.STDOUT)
        code, usage, timed_out = _wait(proc, CHILD_TIMEOUT_S)
        end = time.monotonic()
    run = {"wall_s": end - start, "peak_rss_mb": usage.ru_maxrss / 1024.0, "traced": spans, "errors": []}
    if timed_out:
        run["errors"].append(f"killed after {CHILD_TIMEOUT_S:.0f} s")
    elif code != 0:
        run["errors"].append(f"exit code {code}")
    try:
        doc = json.loads(timings.read_text())
        runners = doc["runners"]
        run["setup_s"] = runners[0][1] - start
        run["solve_s"] = sum(stop - begin for _, begin, stop in runners)
        run["environment"] = doc["environment"]
        out_dirs = [run_dir / "out" / str(i) for i in range(len(configs))]
        for out in out_dirs:
            manifest = json.loads((out / "manifest.json").read_text())
            failed = [a["name"] for a in manifest["assertions"] if not a["passed"]]
            if manifest["exit_code"] != 0 or failed:
                run["errors"].append(f"{out.name}: exit {manifest['exit_code']}, failed {failed}")
        missed = workloads.mismatches(workloads.headline(workload, out_dirs), reference)
        if missed:
            run["errors"].append(f"headline outputs off the reference: {missed}")
        if spans:
            run["layers"] = tracer.layer_metrics(json.loads((run_dir / "spans.json").read_text()))
    except (OSError, ValueError, KeyError, IndexError) as err:
        run["errors"].append(f"outputs unreadable: {type(err).__name__}: {err}")
    if run["errors"]:
        tail = (run_dir / "launch.log").read_text(errors="replace")[-2000:]
        print(f"run failed: {'; '.join(run['errors'])}\n{tail}", file=sys.stderr)
    return run


def write_configs(docs: list[dict], work: Path) -> list[Path]:
    """Validate the documents and write them into a fresh work directory."""
    sys.path.insert(0, str(ROOT / "src"))
    from ovskale.config import validate_config

    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    paths = []
    for i, doc in enumerate(docs):
        validate_config(doc)
        path = work / f"config_{i}.json"
        path.write_text(json.dumps(doc, indent=2, sort_keys=True))
        paths.append(path)
    return paths


def _median(runs: list[dict], key: str) -> float:
    values = [r[key] for r in runs if key in r]
    return statistics.median(values) if values else 0.0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=list(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "ovskale" / "__init__.py").is_file():
        print(f"error: no ovskale sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    docs = workloads.generate(args.workload, args.seed)
    reference = workloads.reference(workloads.load_references(), args.workload, args.seed)
    work = WORK / args.workload
    configs = write_configs(docs, work)

    # --trace 1 alternates untraced and traced runs, so that the overhead
    # compares runs made over the same stretch of time
    least = 2 if args.trace else 1
    runs: list[dict] = []
    begin = time.monotonic()
    while True:
        traced = bool(args.trace) and len(runs) % 2 == 1
        runs.append(run_once(args.workload, configs, reference, work / f"run_{len(runs)}", traced))
        elapsed = time.monotonic() - begin
        if len(runs) >= least and elapsed + max(r["wall_s"] for r in runs) > args.seconds:
            break

    failed = sum(1 for r in runs if r["errors"])
    good = [r for r in runs if not r["errors"]] or runs
    if args.trace:
        traced = [r for r in good if r["traced"]]
        untraced = [r for r in good if not r["traced"]]
        spec = bench["per_layer"]
        metrics = {m["name"]: _median([r["layers"] for r in traced], m["name"]) for m in spec}
        metrics["trace.untraced_solve_s"] = _median(untraced, "solve_s")
        # each traced run against the untraced run just before it, so that a
        # slow drift of the machine's speed cancels
        diffs = [
            runs[i + 1]["wall_s"] - runs[i]["wall_s"]
            for i in range(0, len(runs) - 1, 2)
            if not runs[i]["errors"] and not runs[i + 1]["errors"]
        ]
        metrics["trace.overhead_s"] = statistics.median(diffs) if diffs else 0.0
    else:
        spec = bench["end_to_end"]
        metrics = {m["name"]: _median(good, m["name"]) for m in spec}

    counted = len(traced) if args.trace else len(good)
    print(
        f"ovskale benchmark: workload {args.workload}, seed {args.seed} "
        f"(variant {workloads.variant_of(args.seed)}), {len(runs)} runs, {failed} failed, "
        f"medians over {counted} {'traced ' if args.trace else ''}runs"
    )
    for i, r in enumerate(runs):
        kind = "traced" if r["traced"] else "untraced"
        times = "  ".join(f"{k} {r[k]:.4f}" for k in ("wall_s", "setup_s", "solve_s") if k in r)
        print(f"  run {i} ({kind}): {times}  {'; '.join(r['errors']) or 'ok'}")
    for m in spec:
        print(f"  {m['name']:<34} {metrics[m['name']]:>16.6f} {m['unit']}")
    print(f"  {'fail_rate':<34} {failed / len(runs):>16.6f} ratio")
    env = next((r["environment"] for r in runs if "environment" in r), None)
    print("environment " + json.dumps(env, sort_keys=True))
    result = {
        "correct": failed == 0,
        "attempted": len(runs),
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in spec},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
