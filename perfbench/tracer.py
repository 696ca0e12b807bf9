"""In-memory span tracer for one program run, and the per-layer metrics.

`Tracer.install` wraps the public calls of each ovskale module, wherever a
module holds them by name, so that every call records a span: name, start,
end and parent span.  Spans stay in memory and `Tracer.dump` writes them out
with the counts when the run ends.  `layer_metrics` turns one dump into the
per-layer metrics; every `_s` metric is self time, a span's duration minus
the part of it that its child spans cover.

A call running on a worker thread with no open span of its own takes the
innermost open span of the main thread as parent: the sweep that submitted
it to the pool and waits for it.  Where spans of different threads run at
once, their overlapping self time is shared among them.
"""

from __future__ import annotations

import inspect
import itertools
import json
import os
import sys
import threading
import time
import weakref
from collections import Counter, defaultdict

# (module, function, span name): each call of the function records a span
SPANS = [
    ("ovskale.config", "build_runtime", "config.build_runtime"),
    ("ovskale.states", "random_correlation", "states.initial"),
    ("ovskale.operators", "interaction_energies", "operators.energies"),
    ("ovskale.scale", "time_horizon", "scale.horizon"),
    ("ovskale.scale", "localization_index", "scale.horizon"),
    ("ovskale.scale", "optimal_terminal", "scale.horizon"),
    ("ovskale.series", "default_intermediate_alpha", "scale.horizon"),
    ("ovskale.scale", "norm_alpha", "scale.norm"),
    ("ovskale.scale", "norm_alpha_flat", "scale.norm"),
    ("ovskale.series", "ovsyannikov_evolve", "series.evolve"),
    ("ovskale.series", "flow_compose_check", "series.flow"),
    ("ovskale.series", "apriori_estimate_check", "series.apriori"),
    ("ovskale.vlasov", "vlasov_limit", "vlasov.sweep"),
    ("ovskale.vlasov", "perturbation_gap", "vlasov.pgap"),
    ("ovskale.vlasov", "semigroup_gap", "vlasov.sgap"),
    ("ovskale.vlasov", "semigroup_gap_intermediate", "vlasov.sgap"),
    ("ovskale.vlasov", "semigroup_gap_bound", "vlasov.sgap"),
    ("ovskale.kinetic", "integrate_kinetic", "kinetic.integrate"),
    ("ovskale.kinetic", "homogeneous_scalar_ode", "kinetic.scalar_ode"),
    ("ovskale.kinetic", "stationary_scan", "kinetic.scan"),
    ("ovskale.kinetic", "critical_c_range", "kinetic.fold"),
    ("ovskale.experiments", "write_csv", "experiments.write"),
    ("ovskale.experiments", "write_json", "experiments.write"),
]
# cached enumerators: only the first call for an argument does work, so
# only that call records a span
FIRST_CALLS = [
    ("ovskale.lattice", "subsets_of_order", "lattice.enumerate"),
    ("ovskale.lattice", "subset_position", "lattice.enumerate"),
    ("ovskale.lattice", "diff_table", "lattice.enumerate"),
]
RUNNER = "experiments.runner"
# RK4 evaluates the right-hand side four times a step, two convolutions each
CONVOLUTIONS_PER_STEP = 8


class Tracer:
    def __init__(self, clock=time.monotonic):
        self.clock = clock
        self.spans: list[tuple] = []
        self.counts: Counter = Counter()
        self.missing: list[str] = []
        self._lock = threading.Lock()
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._main = self._stack()
        self._handles: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._kinds: set = set()

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def add(self, key: str, value: float = 1) -> None:
        with self._lock:
            self.counts[key] += value

    def peak(self, key: str, value: float) -> None:
        with self._lock:
            self.counts[key] = max(self.counts[key], value)

    def call(self, name, fn, args, kwargs):
        """Run fn inside a span."""
        stack = self._stack()
        parent = stack[-1] if stack else (self._main[-1] if self._main else 0)
        sid = next(self._ids)
        stack.append(sid)
        start = self.clock()
        try:
            return fn(*args, **kwargs)
        finally:
            end = self.clock()
            stack.pop()
            self.spans.append((sid, name, start, end, parent))

    def span(self, name, fn, after=None):
        def traced(*args, **kwargs):
            result = self.call(name, fn, args, kwargs)
            if after is not None:
                after(args, kwargs, result)
            return result

        return traced

    def first_call(self, name, fn):
        """Span only the first call for each argument tuple of a cached function."""
        seen = set()

        def traced(*args):
            if args in seen:
                return fn(*args)
            seen.add(args)
            return self.call(name, fn, args, {})

        return traced

    def counted(self, key, fn):
        def traced(*args, **kwargs):
            self.add(key)
            return fn(*args, **kwargs)

        return traced

    # -- installation ---------------------------------------------------

    def install(self) -> None:
        """Wrap the traced calls in every loaded ovskale module."""
        import ovskale.experiments
        import ovskale.kinetic
        import ovskale.operators
        import ovskale.series
        import ovskale.states

        after = {
            "ovsyannikov_evolve": self._after_solve(ovskale.series.ovsyannikov_evolve),
            "integrate_kinetic": lambda a, k, r: self.add("kinetic.halvings", r.halvings),
            "stationary_scan": lambda a, k, r: self.add("kinetic.cells", a[0].resolution),
            "write_csv": self._after_write,
            "write_json": self._after_write,
        }
        for module, attr, name in SPANS:
            fn = getattr(sys.modules[module], attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._replace(fn, self.span(name, fn, after.get(attr)))
        for module, attr, name in FIRST_CALLS:
            fn = getattr(sys.modules[module], attr, None)
            if fn is None:
                self.missing.append(f"{module}.{attr}")
                continue
            self._replace(fn, self.first_call(name, fn))
        conv = getattr(ovskale.kinetic, "circular_convolution", None)
        if conv is None:
            self.missing.append("ovskale.kinetic.circular_convolution")
        else:
            self._replace(conv, self.counted("kinetic.convolutions", conv))

        vector = getattr(ovskale.states, "CorrelationVector", None)
        if isinstance(vars(vector or object).get("product_form"), classmethod):
            product = vars(vector)["product_form"].__func__
            vector.product_form = classmethod(self.span("states.initial", product))
        else:
            self.missing.append("ovskale.states.CorrelationVector.product_form")
        handle = getattr(ovskale.operators, "OperatorHandle", None)
        if callable(getattr(handle, "matrix", None)):
            handle.matrix = self._matrix(handle.matrix)
        else:
            self.missing.append("ovskale.operators.OperatorHandle.matrix")
        table = ovskale.experiments.RUNNERS
        for key, fn in list(table.items()):
            table[key] = self.span(RUNNER, fn)

    @staticmethod
    def _replace(orig, new) -> None:
        for name, module in list(sys.modules.items()):
            if name != "ovskale" and not name.startswith("ovskale."):
                continue
            for attr, value in list(vars(module).items()):
                if value is orig:
                    setattr(module, attr, new)

    def _matrix(self, build):
        """OperatorHandle.matrix: the first call on a handle assembles it."""
        tracer = self

        def matrix(handle):
            if handle in tracer._handles:
                tracer.add("operators.assembly_cache_hits")
                return build(handle)
            out = tracer.call("operators.assembly", build, (handle,), {})
            params = handle.params
            key = (getattr(handle, "kind", None), getattr(params, "epsilon", None), handle.n_max)
            with tracer._lock:
                tracer._handles[handle] = out.nnz
                tracer._kinds.add(key)
                tracer.counts["operators.distinct"] = len(tracer._kinds)
            tracer.add("operators.nnz_assembled", out.nnz)
            tracer.add(
                "operators.matrix_bytes",
                out.data.nbytes + out.indices.nbytes + out.indptr.nbytes,
            )
            return out

        return matrix

    def _after_solve(self, solve):
        signature = inspect.signature(solve)

        def after(args, kwargs, result):
            bound = signature.bind(*args, **kwargs).arguments
            dim = bound["u_s"].dimension
            grid = bound["cfg"].time_grid_points
            nnz = self._handles.get(bound["pert_op"], 0)
            levels = result.n_used
            # main grid plus the half-grid Richardson rerun, one SpMM per point and level
            points = (grid + 1) + (grid // 2 + 1)
            self.add("series.levels", levels)
            self.add("series.spmm_flop", 2.0 * nnz * points * levels)
            self.peak("series.dim", dim)
            # w, total, y and q_acc: four (grid+1) x d float64 arrays live per level
            self.peak("series.level_array_bytes", 4 * (grid + 1) * dim * 8)

        return after

    def _after_write(self, args, kwargs, result) -> None:
        self.add("experiments.bytes_written", os.path.getsize(args[0]))

    def dump(self, path: str, import_s: float, run_id: str) -> None:
        doc = {
            "import_s": import_s,
            "spans": [
                {"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "run": run_id}
                for s in self.spans
            ],
            "counts": dict(self.counts),
            "missing": self.missing,
        }
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh)


# -- analysis -------------------------------------------------------------


def _gaps(lo: float, hi: float, children: list) -> list:
    """Parts of [lo, hi] that no child interval covers."""
    out = []
    reach = lo
    for start, end in sorted(children):
        if start > reach:
            out.append((reach, min(start, hi)))
        reach = max(reach, end)
        if reach >= hi:
            return out
    out.append((reach, hi))
    return [(a, b) for a, b in out if b > a]


def self_times(spans: list[dict]) -> dict:
    """Span id -> self time: its duration minus the union of its children.

    Where the self intervals of spans on different threads overlap, the
    overlapping time is shared equally among them, so that self times add
    up to the wall time the spans cover.
    """
    children = defaultdict(list)
    for s in spans:
        children[s["parent"]].append((s["start"], s["end"]))
    events = []
    for s in spans:
        for start, end in _gaps(s["start"], s["end"], children[s["id"]]):
            events.append((start, 1, s["id"]))
            events.append((end, -1, s["id"]))
    events.sort()
    own = dict.fromkeys((s["id"] for s in spans), 0.0)
    active: Counter = Counter()
    last = None
    for when, step, sid in events:
        if active and when > last:
            share = (when - last) / sum(active.values())
            for key in active:
                own[key] += share * active[key]
        active[sid] += step
        if not active[sid]:
            del active[sid]
        last = when
    return own


def _ratio(num: float, den: float, scale: float = 1.0) -> float:
    return scale * num / den if den > 0 else 0.0


def layer_metrics(dump: dict) -> dict:
    """Per-layer metrics of one traced run, keyed by metric name.

    Raises ValueError if the tracer missed a traced call: its layer would
    read 0 and look like a gain.
    """
    if dump["missing"]:
        raise ValueError(f"traced calls not found in the program: {dump['missing']}")
    spans = dump["spans"]
    counts = Counter(dump["counts"])
    own = self_times(spans)
    by_id = {s["id"]: s for s in spans}
    self_s = Counter()
    calls = Counter()
    for s in spans:
        self_s[s["name"]] += own[s["id"]]
        calls[s["name"]] += 1

    def under_runner(s) -> bool:
        parent = by_id.get(s["parent"])
        while parent is not None:
            if parent["name"] == RUNNER:
                return True
            parent = by_id.get(parent["parent"])
        return False

    sweeps = [s for s in spans if s["name"] == "vlasov.sweep"]
    sweep_ids = {s["id"] for s in sweeps}
    pooled = sum(
        s["end"] - s["start"] for s in spans if s["name"] == "series.evolve" and s["parent"] in sweep_ids
    )
    steps = counts["kinetic.convolutions"] / CONVOLUTIONS_PER_STEP
    spmm_gflop = counts["series.spmm_flop"] / 1e9
    return {
        "setup.import_s": dump["import_s"],
        "config.build_runtime_s": self_s["config.build_runtime"],
        "lattice.enumerate_s": self_s["lattice.enumerate"],
        "states.initial_s": self_s["states.initial"],
        "operators.assembly_s": self_s["operators.assembly"],
        "operators.assemblies": calls["operators.assembly"],
        "operators.assembly_cache_hits": counts["operators.assembly_cache_hits"],
        "operators.assembly_useful_ratio": _ratio(
            counts["operators.distinct"], calls["operators.assembly"]
        ),
        "operators.nnz_assembled": counts["operators.nnz_assembled"],
        "operators.assembly_ns_per_nnz": _ratio(
            self_s["operators.assembly"], counts["operators.nnz_assembled"], 1e9
        ),
        "operators.energies_s": self_s["operators.energies"],
        "operators.matrix_mb": counts["operators.matrix_bytes"] / 1e6,
        "scale.horizon_s": self_s["scale.horizon"],
        "scale.horizon_calls": calls["scale.horizon"],
        "scale.norm_s": self_s["scale.norm"],
        "scale.norm_calls": calls["scale.norm"],
        "series.evolve_s": self_s["series.evolve"],
        "series.evolve_calls": calls["series.evolve"],
        "series.levels": counts["series.levels"],
        "series.dim": counts["series.dim"],
        "series.spmm_gflop": spmm_gflop,
        "series.gflops": _ratio(spmm_gflop, self_s["series.evolve"]),
        "series.level_array_mb": counts["series.level_array_bytes"] / 1e6,
        "series.flow_s": self_s["series.flow"],
        "series.apriori_s": self_s["series.apriori"],
        "vlasov.sweep_s": self_s["vlasov.sweep"],
        "vlasov.pool_overlap": _ratio(pooled, sum(s["end"] - s["start"] for s in sweeps)),
        "vlasov.pgap_s": self_s["vlasov.pgap"],
        "vlasov.sgap_s": self_s["vlasov.sgap"],
        "kinetic.integrate_s": self_s["kinetic.integrate"],
        "kinetic.steps": steps,
        "kinetic.halvings": counts["kinetic.halvings"],
        "kinetic.step_us": _ratio(self_s["kinetic.integrate"], steps, 1e6),
        "kinetic.scalar_ode_s": self_s["kinetic.scalar_ode"],
        "kinetic.scan_s": self_s["kinetic.scan"],
        "kinetic.scans": calls["kinetic.scan"],
        "kinetic.scan_ns_per_cell": _ratio(self_s["kinetic.scan"], counts["kinetic.cells"], 1e9),
        "kinetic.fold_s": self_s["kinetic.fold"],
        "experiments.write_s": self_s["experiments.write"],
        "experiments.bytes_written": counts["experiments.bytes_written"],
        "experiments.runner_s": self_s[RUNNER],
        "trace.solve_s": sum(s["end"] - s["start"] for s in spans if s["name"] == RUNNER),
        "trace.layer_cover_s": sum(
            own[s["id"]] for s in spans if s["name"] != RUNNER and under_runner(s)
        ),
    }
