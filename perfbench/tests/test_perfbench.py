"""Tests of the benchmark itself: generation, checks, tracing arithmetic."""

from __future__ import annotations

import json
import re
import sys
import threading
from pathlib import Path

import pytest

BENCH_DIR = Path(__file__).resolve().parents[1]
ROOT = BENCH_DIR.parent
sys.path.insert(0, str(BENCH_DIR))
sys.path.insert(0, str(ROOT / "src"))

import tracer  # noqa: E402
import workloads  # noqa: E402
from ovskale.config import validate_config  # noqa: E402

BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_generation_is_deterministic_per_seed(workload):
    for seed in (0, 1, 7, 12345):
        assert workloads.generate(workload, seed) == workloads.generate(workload, seed)
    assert workloads.generate(workload, 1) != workloads.generate(workload, 2)


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_every_generated_config_validates(workload):
    for variant in range(workloads.VARIANTS):
        for doc in workloads.generate(workload, variant):
            validate_config(doc)


def test_references_cover_every_variant():
    refs = workloads.load_references()
    for workload in workloads.WORKLOADS:
        assert sorted(refs[workload], key=int) == [str(v) for v in range(workloads.VARIANTS)]


def test_headline_tolerance():
    want = {"n_used": 6, "gaps": [1.5e-4, 7.25e-5], "rho_mean": 0.48879936233469379}
    close = {"n_used": 6, "gaps": [1.5e-4 * (1 + 1e-12), 7.25e-5], "rho_mean": 0.4887993623346938}
    assert workloads.mismatches(close, want) == []
    wrong = {"n_used": 7, "gaps": [1.5e-4 * (1 + 1e-6), 7.25e-5], "rho_mean": 0.5}
    assert workloads.mismatches(wrong, want) == ["gaps", "n_used", "rho_mean"]
    assert workloads.mismatches({}, want) == ["gaps", "n_used", "rho_mean"]


def _span(sid, name, start, end, parent):
    return {"id": sid, "name": name, "start": start, "end": end, "parent": parent, "run": "r"}


def test_self_time_subtracts_union_of_children():
    spans = [
        _span(1, "a", 0.0, 10.0, 0),
        _span(2, "b", 1.0, 4.0, 1),
        _span(3, "c", 1.5, 2.5, 2),
        _span(4, "c", 3.0, 3.5, 2),
        _span(5, "d", 6.0, 12.0, 1),  # runs past its parent
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(10.0 - 3.0 - 4.0)
    assert own[2] == pytest.approx(3.0 - 1.0 - 0.5)
    assert own[3] == pytest.approx(1.0)
    assert own[4] == pytest.approx(0.5)
    assert own[5] == pytest.approx(6.0)
    assert sum(own.values()) == pytest.approx(12.0)


def test_self_time_shares_time_between_threads():
    # two pooled solves overlap on 2..3; the sweep waits on both
    spans = [
        _span(1, "sweep", 0.0, 6.0, 0),
        _span(2, "solve", 1.0, 3.0, 1),
        _span(3, "solve", 2.0, 5.0, 1),
        _span(4, "norm", 4.0, 4.5, 3),
    ]
    own = tracer.self_times(spans)
    assert own[1] == pytest.approx(2.0)
    assert own[2] == pytest.approx(1.0 + 0.5)
    assert own[3] == pytest.approx(0.5 + 1.0 + 0.5)
    assert own[4] == pytest.approx(0.5)
    assert sum(own.values()) == pytest.approx(6.0)


def _dump(spans, counts=None, missing=()):
    return {"import_s": 0.5, "spans": spans, "counts": counts or {}, "missing": list(missing)}


def test_a_missing_traced_call_fails_the_traced_run():
    # a renamed OperatorHandle.matrix would otherwise read as zero assembly time
    with pytest.raises(ValueError, match="OperatorHandle.matrix"):
        tracer.layer_metrics(_dump([], missing=["ovskale.operators.OperatorHandle.matrix"]))


def test_layer_metrics_from_a_synthetic_run():
    spans = [
        _span(1, "config.build_runtime", 0.0, 0.25, 0),
        _span(2, tracer.RUNNER, 1.0, 9.0, 0),
        _span(3, "series.evolve", 1.0, 5.0, 2),
        _span(4, "operators.assembly", 1.5, 3.5, 3),
        _span(5, "scale.norm", 4.0, 4.5, 3),
        _span(6, "experiments.write", 8.0, 8.5, 2),
    ]
    counts = {
        "operators.nnz_assembled": 1000,
        "operators.distinct": 1,
        "series.spmm_flop": 3e9,
        "kinetic.convolutions": 16,
    }
    m = tracer.layer_metrics(_dump(spans, counts))
    assert m["setup.import_s"] == 0.5
    assert m["config.build_runtime_s"] == pytest.approx(0.25)
    assert m["series.evolve_s"] == pytest.approx(4.0 - 2.0 - 0.5)
    assert m["operators.assembly_s"] == pytest.approx(2.0)
    assert m["operators.assembly_ns_per_nnz"] == pytest.approx(2.0e6)
    assert m["operators.assembly_useful_ratio"] == 1.0
    assert m["series.gflops"] == pytest.approx(3.0 / 1.5)
    assert m["kinetic.steps"] == 2
    assert m["experiments.runner_s"] == pytest.approx(8.0 - 4.0 - 0.5)
    assert m["trace.solve_s"] == pytest.approx(8.0)
    # layer self times plus the runner's own time add up to the runner span
    assert m["trace.layer_cover_s"] + m["experiments.runner_s"] == pytest.approx(m["trace.solve_s"])


class _Clock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        self.now += 1.0
        return self.now


def test_tracer_links_nested_and_worker_spans():
    tr = tracer.Tracer(clock=_Clock())
    leaf = tr.span("leaf", lambda: None)

    def pooled():
        worker = threading.Thread(target=leaf)
        worker.start()
        worker.join(timeout=10)
        assert not worker.is_alive()

    outer = tr.span("outer", lambda: (leaf(), pooled()))
    outer()
    by_name = {}
    for sid, name, start, end, parent in tr.spans:
        by_name.setdefault(name, []).append((sid, parent))
    (outer_id, outer_parent), = by_name["outer"]
    assert outer_parent == 0
    # the nested call and the worker-thread call both hang under outer
    assert [parent for _, parent in by_name["leaf"]] == [outer_id, outer_id]


def test_first_call_records_one_span_per_argument():
    from functools import lru_cache

    @lru_cache(maxsize=None)
    def table(n):
        return list(range(n))

    tr = tracer.Tracer()
    cached = tr.first_call("lattice.enumerate", table)
    for n in (3, 3, 4, 3):
        cached(n)
    assert [s[1] for s in tr.spans] == ["lattice.enumerate"] * 2


def test_benchmark_file_matches_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.WORKLOADS)
    assert all(len(w["why"]) <= 200 and "\n" not in w["why"] for w in BENCH["workloads"])
    assert 1 <= BENCH["run_seconds"] <= 60
    metrics = BENCH["end_to_end"] + BENCH["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]) and UNIT.fullmatch(m["unit"])
        assert m["better"] in ("lower", "higher")
    for m in BENCH["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    assert {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25} in BENCH["end_to_end"]


def test_result_metric_names_are_declared():
    # fail_rate is printed beside them but is carried by "failed"/"attempted"
    printed_layers = set(tracer.layer_metrics(_dump([]))) | {"trace.untraced_solve_s", "trace.overhead_s"}
    assert printed_layers == {m["name"] for m in BENCH["per_layer"]}
    # the end-to-end metrics are the per-run fields run.run_once measures
    assert {m["name"] for m in BENCH["end_to_end"]} == {"wall_s", "setup_s", "solve_s", "peak_rss_mb"}
    assert all(re.fullmatch(r"[A-Za-z0-9_.-]+", name) for name in printed_layers)
