"""Experiment drivers: each family runs, self-checks, and writes artifacts.

Every runner returns a list of named assertions plus the files it wrote;
run_experiment wraps that in a manifest with config hash, versions, wall
time, and the exit code the command line process should use.  CSV floats
are printed with 17 significant digits so reruns are byte-comparable.  The
hierarchy runs choose the route: a product of a scalar density (the default
`evolve` state, every `vlasov` sweep) is solved on the orbits of the
lattice symmetries that fix both kernels, a random state on the full space.
"""

from __future__ import annotations

import csv
import importlib
import json
import math
import os
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import TYPE_CHECKING

import numpy as np

from . import compiled
from ._version import __version__
from .config import (
    RuntimeBundle,
    SeriesConfig,
    _arguments,
    build_runtime,
    config_hash,
    validate_config,
)
from .errors import ConfigError, DimensionCapError, HorizonError, OvskaleError
from .operators import OperatorHandle, split_handles
from .scale import localization_index, optimal_terminal, time_horizon, verify_singular_bound
from .states import CorrelationVector, random_correlation
from .vlasov import (
    EpsilonSweep,
    perturbation_gap,
    semigroup_gap,
    semigroup_gap_bound,
    semigroup_gap_intermediate,
    split_ceiling,
    vlasov_limit,
)

if TYPE_CHECKING:
    from .series import EvolutionResult

# share of physical memory a run's hierarchy arrays may be planned to take
_MEMORY_SHARE = 0.5
# peak of assembly (int32 COO blocks, their concatenation, the CSR matrix)
# per nonzero of the bound below, with cold layer tables: measured 29-33 on
# 1-, 2- and 3-D tori from 13 MB up, 32-36 on ones of 0.3-1.4 MB
_BYTES_PER_NONZERO = 36
# on the orbit route: per nonzero of the row bound (the representative
# rows' candidate entries, COO blocks, the CSR matrix) and per flat entry
# (orbit map, states): measured up to 108 and 153 on 1-, 2- and 3-D tori
_BYTES_PER_ORBIT_NONZERO = 120
_BYTES_PER_ORBIT_ENTRY = 200
# peak of one stationary scan per grid cell: measured 27 for the first scan
# on a grid, which builds the grid and x e^{-x} (16 of it, kept for the run's
# later scans), 11 for each later one; per point of the fold curve (arrays,
# lists of floats, JSON and CSV rows): measured 285
_BYTES_PER_SCAN_CELL = 32
_BYTES_PER_FOLD_POINT = 320
# site-count arrays a kinetic march holds besides its stored rows: measured 4-9
_KINETIC_WORK_ARRAYS = 16
# peak of tabulating the kernel pair per site: measured 40, 56 and 80 on 1-,
# 2- and 3-D tori
_BYTES_PER_SITE = 96
# peak of the (S, S) site-pair tables of a hierarchy run (the difference
# table, built through (dim, S, S) temporaries, and the kernel gathers over
# it) per site pair: measured 25, 41 and 57 on 1-, 2- and 3-D tori
_BYTES_PER_SITE_PAIR = 64
# experiments that assemble a hierarchy operator
_HIERARCHY_RUNS = ("evolve", "vlasov", "bounds")
# modules each experiment loads before build_runtime, so that imports count
# as set-up and not as the runner's time, and no run loads a module it never
# calls: the hierarchy runs assemble a CsrMatrix (ovskale.csr loads scipy's
# compiled sparse kernels) and draw from the config's generator (numpy.random),
# and evolve and vlasov solve (ovskale.series); the kinetic runs need only
# ovskale.kinetic (scipy's compiled FFT kernels).  The order is measured:
# numpy.random first raised eps-sweep's peak resident set by 0.6 MB
_SETUP_IMPORTS = {
    "evolve": ("ovskale.series", "ovskale.csr", "numpy.random"),
    "vlasov": ("ovskale.series", "ovskale.csr", "numpy.random"),
    "bounds": ("ovskale.csr", "numpy.random"),
    "kinetic": ("ovskale.kinetic",),
    "bifurcation": ("ovskale.kinetic",),
}


@dataclass
class Assertion:
    name: str
    passed: bool
    detail: str

    def as_dict(self) -> dict:
        return {"name": self.name, "passed": self.passed, "detail": self.detail}


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def write_csv(path: Path, header: list, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(v) for v in row])


def _jsonable(obj):
    if isinstance(obj, (np.integer,)):
        return int(obj)
    if isinstance(obj, (np.floating,)):
        return float(obj)
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    if isinstance(obj, (np.bool_,)):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj)}")


def write_json(path: Path, doc: dict) -> None:
    # one top-level key per line: json's C encoder runs only without indent
    text = ",\n".join(
        f"  {json.dumps(k)}: {json.dumps(doc[k], sort_keys=True, default=_jsonable)}"
        for k in sorted(doc)
    )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("{\n" + text + "\n}\n")


# the largest estimate _check_budget made since run_experiment reset it
_largest_estimate = 0.0


def _check_budget(need: float, detail: str) -> None:
    """Raise DimensionCapError when a run plans to hold more than its memory share."""
    global _largest_estimate
    # an exact integer estimate may be past the float range
    shown = float(need) if need < 1e300 else math.inf
    _largest_estimate = max(_largest_estimate, shown)
    budget = _MEMORY_SHARE * os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    if not (need <= budget):
        raise DimensionCapError(
            f"estimated {shown / 1e9:.3g} GB ({detail}) exceeds "
            f"{budget / 1e9:.3g} GB, {_MEMORY_SHARE:.0%} of physical memory"
        )


def _check_footprint(
    sites: int,
    order: int,
    solve: tuple[SeriesConfig, float] | None = None,
    operators: int = 1,
    trajectories: int = 1,
    legs: int = 0,
    orbits: tuple[int, ...] | None = None,
) -> None:
    """Raise DimensionCapError, before anything is allocated, for too large a run.

    The estimate counts d = sum_{k <= n} C(S, k) entries per state and, for
    each perturbation held at once, an upper bound on its nonzeros.  A run
    that solves (solve = (solver, sup_energy) given) adds the stored rows of
    each trajectory held at once (its array or as many bytes of factors, a
    kept initial state and a final row), the two end rows of each flow leg
    and, once, the level loop's own arrays (`level_loop_bytes`).  The energies
    eps E^a sum eps a >= 0 over at most n (n - 1) ordered pairs, so they lie
    in [0, n (n - 1) sup_energy] with sup_energy = eps sup a.

    On the orbit route (orbits = the orbit count of each layer given) the
    states, the level loop and the operators' rows are over the orbits: a
    row of order k >= 1 has at most k birth, S - k crowding and
    sum_{j <= n - k} C(S - k, j) death and diagonal entries (the empty row
    none), and assembly enumerates exactly these candidates.  Only the orbit
    map is over d.
    """
    dim = sum(math.comb(sites, k) for k in range(order + 1))
    if orbits is None:
        rows = dim
        # each k-subset: k birth and k crowding entries, 2^k - 1 death entries
        nnz = sum(math.comb(sites, k) * (2 * k + 2**k - 1) for k in range(1, order + 1))
        need = operators * _BYTES_PER_NONZERO * nnz
        detail = f"d={dim}, nnz<={nnz}"
    else:
        rows = sum(orbits)
        nnz = sum(
            count * (k + (sites - k) * (k < order)
                     + sum(math.comb(sites - k, j) for j in range(order - k + 1)))
            for k, count in enumerate(orbits) if k and count
        )
        need = _BYTES_PER_ORBIT_ENTRY * dim
        need += operators * _BYTES_PER_ORBIT_NONZERO * nnz
        detail = f"d={dim}, orbits={rows}, nnz<={nnz}"
    if solve is not None:
        from .series import level_loop_bytes

        solver, sup_energy = solve
        grid = solver.time_grid_points
        stored = min(solver.trajectory_points, grid + 1)
        need += 8 * (trajectories * (stored + 2) + 2 * legs) * rows
        pairs = min(order, sites) * (min(order, sites) - 1)
        need += level_loop_bytes(rows, grid, pairs * sup_energy * solver.upsilon, stored)
        detail += f", grid={grid}"
    _check_budget(need, detail)


def _peak_rss_bytes() -> int | None:
    """The process's peak resident set so far: VmHWM where /proc has it (Linux carries
    ru_maxrss across fork and exec), else ru_maxrss; None with neither."""
    try:
        with open("/proc/self/status", encoding="ascii") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) * 1024
    except OSError:
        pass
    try:
        import resource
    except ImportError:
        return None
    # Linux reports ru_maxrss in KiB, macOS in bytes
    scale = 1 if platform.system() == "Darwin" else 1024
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * scale


def _product_run(exp: dict) -> bool:
    """Whether a hierarchy experiment starts from a product of a scalar density."""
    if exp["name"] == "evolve":
        return (exp.get("initial") or {"kind": "product"})["kind"] == "product"
    return exp["name"] == "vlasov"


def _preflight(doc: dict) -> None:
    """Raise DimensionCapError from the validated config alone, before build_runtime.

    Tabulating the kernels holds a few arrays over the S = sites^dim sites,
    and a hierarchy run's site-pair tables S^2 entries.  A hierarchy run
    also needs at least one perturbation over d entries or, on the orbit
    route, the orbit map over d entries (its orbit count needs the kernels,
    and the runner's check counts it).
    """
    torus = doc["model"]["torus"]
    sites = torus["sites"] ** torus["dim"]
    pairs = sites * sites if doc["experiment"]["name"] in _HIERARCHY_RUNS else 0
    need = _BYTES_PER_SITE * sites + _BYTES_PER_SITE_PAIR * pairs
    _check_budget(need, f"sites={sites}, site pairs={pairs}")
    if pairs:
        order = doc["model"]["truncation"]
        if _product_run(doc["experiment"]):
            dim = sum(math.comb(sites, k) for k in range(order + 1))
            _check_budget(_BYTES_PER_ORBIT_ENTRY * dim, f"d={dim}, orbit map")
        else:
            _check_footprint(sites, order)


def _ledger_entry(result: EvolutionResult, pert: OperatorHandle, gate: float) -> dict:
    """One solve of the manifest's ledger: size, levels, gates and compression figures.

    d is the full dimension, orbits the orbit count on the orbit route (else
    None) and nnz that of the matrix the levels multiply.  A term's majorant
    slack is 1 - term / majorant (over positive majorants).
    """
    positive = result.majorant_values > 0.0
    slack = 1.0 - result.term_norms[positive] / result.majorant_values[positive]
    return {
        "epsilon": pert.params.epsilon,
        "d": pert.dimension,
        "orbits": None if pert.orbits is None else pert.orbits.count,
        "nnz": int(pert.matrix().nnz),
        "n_used": result.n_used,
        "richardson_ratio": result.quad_disagreement / gate,
        "min_majorant_slack": float(slack.min()) if slack.size else None,
        "compression_residual": result.compression_residual,
        "interpolation_nodes": result.interpolation_nodes,
        "interpolation_bound": result.interpolation_bound,
        "exact_rank_levels": result.exact_rank_levels,
    }


def _config_checked(what: str, fn, *args, **kwargs):
    """fn(*args, **kwargs), with a ValueError it raises reported as a ConfigError about what."""
    try:
        return fn(*args, **kwargs)
    except ValueError as err:
        raise ConfigError(f"{what}: {err}") from err


def _product_state(bundle: RuntimeBundle, rho: float) -> CorrelationVector:
    """Product initial state; a density whose powers overflow is a config error."""
    return _config_checked(
        f"product state with density {rho}",
        CorrelationVector.product_form, bundle.torus, bundle.truncation, rho,
    )


def run_evolve(bundle: RuntimeBundle, out: Path):
    from .series import apriori_estimate_check, flow_compose_check, ovsyannikov_evolve

    exp = bundle.experiment
    # a product of a scalar density runs on the orbit route, a random state on the full one
    product = _product_run(exp)
    if product:
        from .orbits import orbit_counts, orbit_map, point_group
        group = point_group(bundle.kernels)
    _check_footprint(
        bundle.torus.site_count, bundle.truncation,
        (bundle.solver, bundle.params.epsilon * bundle.kernels.sup_a),
        # the flow check's direct leg is the main solve; its two composed legs store their end rows
        legs=2 if "flow_tau" in exp else 0,
        orbits=orbit_counts(bundle.torus, bundle.truncation, group) if product else None,
    )
    s = exp.get("s", 0.0)
    t_abs = s + exp["t"]
    if product:
        u0 = _product_state(bundle, (exp.get("initial") or {}).get("rho", 0.5))
    else:
        u0 = random_correlation(bundle.torus, bundle.truncation, bundle.scale.alpha_s, bundle.rng)
    diag, pert = split_handles(
        bundle.kernels, bundle.params, bundle.truncation,
        orbit_map(bundle.torus, bundle.truncation, group) if product else None,
    )
    args = (diag, pert, bundle.scale, bundle.bound, bundle.solver)
    flow = None
    if "flow_tau" in exp:
        # the flow check's direct leg is the solve at the configured solver,
        # which a t past its upsilon must fail, not shorten
        if t_abs - s > bundle.solver.upsilon:
            raise HorizonError(
                f"t - s = {t_abs - s} exceeds the configured upsilon {bundle.solver.upsilon}"
            )
        flow = flow_compose_check(u0, s, s + exp["flow_tau"], t_abs, *args)
        result = flow.direct
    else:
        result = ovsyannikov_evolve(u0, s, t_abs, *args)
    bundle.solves.append(_ledger_entry(result, pert, bundle.solver.richardson_gate))
    checks = [
        Assertion(
            "series_converged",
            result.converged,
            f"n_used={result.n_used} last_term={result.term_norms[-1]:.3e}",
        ),
        Assertion(
            "ratio_test",
            result.q * (t_abs - s) / result.horizon_prime < 1.0,
            f"q*dt/T'={result.q * (t_abs - s) / result.horizon_prime:.6f}",
        ),
    ]
    with np.errstate(divide="ignore", invalid="ignore"):
        dom = np.where(
            result.majorant_values > 0, result.term_norms / result.majorant_values, 0.0
        )
    checks.append(
        Assertion(
            "majorant_domination",
            bool(np.all(result.term_norms <= result.majorant_values * (1.0 + 1e-6))),
            f"max term/majorant ratio {float(dom.max()):.6f}",
        )
    )
    extras: dict = {}
    if exp.get("check_apriori", True):
        apriori = apriori_estimate_check(result, bundle.scale, bundle.bound)
        checks.append(
            Assertion(
                "apriori_bound",
                apriori.ok,
                f"max_ratio={apriori.max_ratio:.6f} prefactor={apriori.prefactor:.6g}",
            )
        )
        extras["apriori"] = {
            "constant": apriori.constant,
            "prefactor": apriori.prefactor,
            "max_ratio": apriori.max_ratio,
            "violations": apriori.violations,
        }
    if flow is not None:
        checks.append(
            Assertion(
                "flow_property",
                flow.relative <= 1e-6,
                f"relative={flow.relative:.3e} budget={flow.budget:.3e}",
            )
        )
        extras["flow"] = {
            "relative": flow.relative,
            "difference": flow.difference,
            "budget": flow.budget,
            "alpha_tau": flow.alpha_tau,
        }

    doc = result.to_json_dict()
    write_csv(
        out / "trajectory.csv",
        ["t", "norm_alpha_star", "norm_alpha", "majorant_sum"],
        zip(result.times, doc["norm_alpha_star"], doc["norm_alpha"], result.majorant_sum_history),
    )
    write_csv(
        out / "series_terms.csv",
        ["n", "term_norm", "majorant"],
        zip(range(result.n_used + 1), result.term_norms, result.majorant_values),
    )
    plot_rows = [("term_norm", n, result.term_norms[n]) for n in range(1, result.n_used + 1)]
    plot_rows += [("majorant", n, result.majorant_values[n]) for n in range(1, result.n_used + 1)]
    write_csv(out / "plot_series_majorant.csv", ["series", "x", "y"], plot_rows)
    doc.update(extras)
    write_json(out / "result.json", doc)
    return checks, ["trajectory.csv", "series_terms.csv", "plot_series_majorant.csv", "result.json"]


def run_vlasov(bundle: RuntimeBundle, out: Path):
    exp = bundle.experiment
    eps_list = [float(e) for e in exp["epsilons"]]
    if not eps_list:
        # nothing to sweep: emit the headers so downstream tooling still parses
        write_csv(out / "sweep.csv", ["epsilon", "sup_gap", "semigroup_gap", "Z_gap_fitted_P"], [])
        write_csv(out / "plot_eps_gap.csv", ["series", "x", "y"], [])
        write_json(out / "summary.json", {"epsilons": [], "assertions": []})
        return [], ["sweep.csv", "plot_eps_gap.csv", "summary.json"]
    if eps_list[-1] != 0.0:
        eps_list.append(0.0)
    from .orbits import orbit_counts, orbit_map, point_group
    group = point_group(bundle.kernels)
    samples = exp.get("samples", 20)
    # the sweep keeps every epsilon's operator and trajectory, on the orbit route
    _check_footprint(
        bundle.torus.site_count, bundle.truncation,
        (bundle.solver, max(eps_list) * bundle.kernels.sup_a),
        operators=len(eps_list), trajectories=len(eps_list),
        orbits=orbit_counts(bundle.torus, bundle.truncation, group),
    )
    # the gap indices depend on the config alone: reject them before the sweep
    gap_t = exp.get("gap_time", bundle.solver.upsilon)
    alpha_lo = exp.get("gap_alpha_lo", bundle.scale.alpha_s)
    alpha_hi = exp.get("gap_alpha_hi", bundle.scale.alpha_star)
    sg_bound = _config_checked(
        "semigroup gap indices", semigroup_gap_bound, gap_t, bundle.kernels, alpha_lo, alpha_hi
    )
    _config_checked("perturbation gap", split_ceiling, bundle.scale.alpha_star)
    u0 = _product_state(bundle, exp.get("rho0", 0.5))
    orbits = orbit_map(bundle.torus, bundle.truncation, group)
    sweep = EpsilonSweep(tuple(eps_list), u0, bundle.scale, bundle.solver, orbits)
    report = vlasov_limit(sweep, bundle.kernels, bundle.params, bundle.bound)
    for eps in sweep.epsilons:
        bundle.solves.append(_ledger_entry(
            report.results[eps], report.operators[eps][1], bundle.solver.richardson_gate
        ))

    sg_inter = semigroup_gap_intermediate(
        gap_t, bundle.kernels, bundle.truncation, alpha_lo, alpha_hi, orbits
    )
    sg_gaps = {}
    z_reports = {}
    z_lim = report.operators[0.0][1]
    for eps in sweep.positive:
        diag, pert = report.operators[eps]
        sg_gaps[eps] = semigroup_gap(diag, gap_t, alpha_lo, alpha_hi)
        # the semigroup gap was once sampled from samples states of d uniform
        # doubles drawn here, one PCG64 output each; skipping those outputs
        # keeps perturbation_gap's index pairs, and so every z_pole, unmoved
        bundle.rng.bit_generator.advance(samples * diag.dimension)
        z_reports[eps] = _config_checked(
            "perturbation gap", perturbation_gap, pert, z_lim, samples, bundle.scale, bundle.rng,
        )
    sg_zero = semigroup_gap(report.operators[0.0][0], gap_t, alpha_lo, alpha_hi)
    z_zero = perturbation_gap(z_lim, z_lim, 2, bundle.scale, bundle.rng)

    checks = [
        Assertion(
            "limit_gap_strict_decrease",
            report.strictly_decreasing,
            "sup gaps " + ", ".join(f"{g:.3e}" for g in report.sup_gaps),
        ),
        Assertion(
            "gaps_vanish_at_zero",
            sg_zero == 0.0 and z_zero.max_gap == 0.0,
            f"semigroup={sg_zero} z={z_zero.max_gap}",
        ),
    ]
    if len(report.ratios):
        checks.append(
            Assertion(
                "limit_gap_ratios",
                bool(np.all((report.ratios >= 0.3) & (report.ratios <= 0.7))),
                "ratios " + ", ".join(f"{r:.3f}" for r in report.ratios),
            )
        )
    slope_ok = all(sg_gaps[eps] / eps <= sg_inter * (1 + 1e-9) for eps in sweep.positive)
    checks.append(
        Assertion(
            "semigroup_gap_within_bound",
            slope_ok and sg_inter <= sg_bound * (1 + 1e-12),
            f"sup slope {max(sg_gaps[eps] / eps for eps in sweep.positive):.4f}"
            f" intermediate {sg_inter:.4f} closed {sg_bound:.4f}",
        )
    )
    checks.append(
        Assertion(
            "z_gap_two_pole",
            all(z_reports[eps].two_pole_ok for eps in sweep.positive),
            "residuals " + ", ".join(f"{z_reports[e].residual:.3f}" for e in sweep.positive),
        )
    )
    poles = [z_reports[eps].fitted_pole for eps in sweep.positive]
    checks.append(
        Assertion(
            "z_gap_pole_decreasing",
            all(b < a for a, b in zip(poles, poles[1:])),
            "poles " + ", ".join(f"{p:.3e}" for p in poles),
        )
    )

    sups = list(zip(sweep.positive, report.sup_gaps))
    rows = [(eps, sup, sg_gaps[eps], z_reports[eps].fitted_pole) for eps, sup in sups]
    rows.append((0.0, 0.0, 0.0, 0.0))
    write_csv(out / "sweep.csv", ["epsilon", "sup_gap", "semigroup_gap", "Z_gap_fitted_P"], rows)
    plot_rows = [("sup_gap", eps, sup) for eps, sup in sups]
    plot_rows += [("semigroup_gap", eps, sg_gaps[eps]) for eps in sweep.positive]
    plot_rows += [("z_pole", eps, z_reports[eps].fitted_pole) for eps in sweep.positive]
    write_csv(out / "plot_eps_gap.csv", ["series", "x", "y"], plot_rows)
    write_json(
        out / "summary.json",
        {
            "epsilons": list(sweep.positive),
            "sup_gaps": report.sup_gaps,
            # 0/0 when two sup gaps vanish: JSON has no NaN
            "ratios": [r if math.isfinite(r) else None for r in report.ratios.tolist()],
            "semigroup_gaps": [sg_gaps[e] for e in sweep.positive],
            "semigroup_bound_closed": sg_bound,
            "semigroup_bound_intermediate": sg_inter,
            "z_poles": poles,
            "z_residuals": [z_reports[e].residual for e in sweep.positive],
            "assertions": [c.as_dict() for c in checks],
        },
    )
    return checks, ["sweep.csv", "plot_eps_gap.csv", "summary.json"]


def run_kinetic(bundle: RuntimeBundle, out: Path):
    from . import kinetic

    exp = bundle.experiment
    sites = bundle.torus.site_count
    store_every = exp.get("store_every", 1)
    # ceil(t_end / dt / store_every) + 2 stored rows, held as a list of the
    # march's fields and then stacked; a float, so a huge count is inf, not an error
    stored = exp["t_end"] / exp["dt"] / store_every + 3
    _check_budget(
        8.0 * sites * (2 * stored + _KINETIC_WORK_ARRAYS),
        f"sites={sites}, stored rows about {stored:.3g}",
    )
    rho0 = exp.get("rho0", 0.5)
    field0 = _config_checked(
        "kinetic rho0", kinetic.DensityField, bundle.torus, np.asarray(rho0, dtype=float)
    )
    traj = kinetic.integrate_kinetic(
        field0,
        exp["t_end"],
        exp["dt"],
        bundle.kernels,
        bundle.params,
        store_every=store_every,
    )
    checks = [
        Assertion(
            "density_nonnegative",
            bool(traj.fields.min() >= 0.0),
            f"min over trajectory {traj.fields.min():.3e}",
        )
    ]
    if field0.constant and exp["t_end"] > 0:
        scalar = kinetic.homogeneous_scalar_ode(
            float(field0.rho[0]),
            float(traj.times[-1]),
            bundle.kernels.avg_a,
            bundle.kernels.avg_phi,
            bundle.params.death_amplitude,
            bundle.params.birth_intensity,
        )
        gap = abs(float(traj.fields[-1].mean()) - scalar)
        # relative past |scalar| = 1: a density of 1e154 agrees to 8e-13
        # relative, yet its absolute gap is 8e141
        tol = 1e-8 * max(1.0, abs(scalar))
        # a scalar march keeps a constant field constant by construction, so
        # the check compares the scalar equation with the full one
        rhs_gap = kinetic.scalar_rhs_gap(
            kinetic.DensityField(bundle.torus, traj.fields[-1]), bundle.kernels, bundle.params
        )
        checks.append(
            Assertion(
                "homogeneous_consistency",
                gap <= tol and rhs_gap <= 1e-14,
                f"|field-scalar|={gap:.3e} |full rhs-scalar rhs|/terms={rhs_gap:.3e}",
            )
        )
    header = ["t", "rho_min", "rho_max", "rho_mean"]
    full = bool(exp.get("full_field", False))
    if full:
        header += [f"rho_{i}" for i in range(bundle.torus.site_count)]
    rows = (
        [t, field.min(), field.max(), field.mean()] + (list(field) if full else [])
        for t, field in zip(traj.times, traj.fields)
    )
    write_csv(out / "trajectory.csv", header, rows)
    return checks, ["trajectory.csv"]


def run_bifurcation(bundle: RuntimeBundle, out: Path):
    from . import kinetic

    exp = bundle.experiment
    b_star = kinetic.threshold_b()
    grid = _arguments(exp, "x_hi", "resolution")
    try:
        inputs = {
            (b, c): kinetic.BifurcationInput(b, c, **grid)
            for b in exp["b_values"]
            for c in exp["c_values"]
        }
    except ValueError as err:
        raise ConfigError(f"bifurcation grid invalid: {err}") from err
    fold_points = exp.get("fold_points", 9)
    # the scans run one at a time, all at one resolution
    resolution = next(iter(inputs.values())).resolution
    _check_budget(
        _BYTES_PER_SCAN_CELL * (resolution + 1.0) + _BYTES_PER_FOLD_POINT * fold_points,
        f"resolution={resolution}, fold_points={fold_points}",
    )
    # the fold window of each b below threshold, one solve per distinct b
    windows = {b: kinetic.critical_c_range(b) for b in set(exp["b_values"]) if b < b_star}
    rows = []
    consistent = True
    detail = []
    for (b, c), inp in inputs.items():
        scan = kinetic.stationary_scan(inp)
        roots = list(scan.roots) + [""] * (3 - min(3, len(scan.roots)))
        rows.append([b, c, scan.count, *roots[:3]])
        if b != b_star:
            if b < b_star:
                c_lo, c_hi = windows[b]
                margin = 1e-9 * max(1.0, c)
                if abs(c - c_lo) <= margin or abs(c - c_hi) <= margin:
                    continue
                expected = 3 if c_lo < c < c_hi else 1
            else:
                expected = 1
            if scan.count != expected:
                consistent = False
                detail.append(f"(b={b}, c={c}) count={scan.count} expected={expected}")
    # the shared grid serves this run's scans only: held on, it would lift
    # the base of all the process does after them
    kinetic.scan_grid.cache_clear()
    checks = [
        Assertion(
            "fold_consistency",
            consistent,
            "; ".join(detail) if detail else f"{len(inputs)} grid points consistent",
        )
    ]
    write_csv(
        out / "bifurcation.csv",
        ["b", "c", "root_count", "root_1", "root_2", "root_3"],
        rows,
    )
    b_grid = np.linspace(b_star / 10.0, b_star * 0.99, fold_points)
    c_los, c_his = map(list, zip(*(kinetic.critical_c_range(float(b)) for b in b_grid)))
    widths = np.array(c_his) - np.array(c_los)
    checks.append(
        Assertion(
            "fold_width_shrinks",
            bool(np.all(np.diff(widths) < 0)),
            f"widths {widths[0]:.4f} -> {widths[-1]:.6f}",
        )
    )
    write_json(
        out / "fold_curve.json",
        {
            "threshold_b": b_star,
            "b": list(b_grid),
            "c_low": c_los,
            "c_high": c_his,
        },
    )
    plot_rows = [("c_low", b, lo) for b, lo in zip(b_grid, c_los)]
    plot_rows += [("c_high", b, hi) for b, hi in zip(b_grid, c_his)]
    write_csv(out / "plot_fold_curve.csv", ["series", "x", "y"], plot_rows)
    return checks, ["bifurcation.csv", "fold_curve.json", "plot_fold_curve.csv"]


def run_bounds(bundle: RuntimeBundle, out: Path):
    exp = bundle.experiment
    samples = exp.get("samples", 500)
    # the bound is sampled on the unscaled perturbation whatever epsilon is set
    params = replace(bundle.params, epsilon=1.0)
    op = OperatorHandle("perturbation", bundle.kernels, params, bundle.truncation)
    report = _config_checked(
        "singular bound sampling", verify_singular_bound,
        op, bundle.scale, bundle.bound, samples, bundle.rng,
    )
    checks = [
        Assertion(
            "no_bound_violations",
            report.ok,
            f"{len(report.violations)} violations, min slack {report.min_slack:.4f}",
        )
    ]
    write_json(
        out / "bounds.json",
        {
            "samples": report.samples,
            "violations": report.violations,
            "max_ratio": report.max_ratio,
            "min_slack": report.min_slack,
            "envelope_regular": report.envelope_regular,
            "fitted_singular": report.fitted_singular,
            "fitted_regular": report.fitted_regular,
            "model_singular_at_star": bundle.bound.singular(bundle.scale.alpha_star),
            "model_regular_at_star": bundle.bound.regular(bundle.scale.alpha_star),
        },
    )
    return checks, ["bounds.json"]


def run_horizon(bundle: RuntimeBundle, out: Path):
    exp = bundle.experiment
    search_hi = exp.get("search_hi", bundle.scale.alpha_star)
    opt = _config_checked(
        "horizon search", optimal_terminal,
        bundle.scale.alpha_s, bundle.bound, search_hi, bundle.scale.nu,
        **_arguments(exp, "scan_points"),
    )
    checks = [
        Assertion(
            "single_local_max",
            opt.local_max_count <= 1,
            f"{opt.local_max_count} strict local maxima on the scan",
        ),
        Assertion(
            # a horizon of 0 (a singular coefficient past the float range) has no maximum
            "interior_maximum",
            not opt.at_boundary and opt.horizon > 0.0,
            f"beta_opt={opt.beta:.6f} horizon={opt.horizon:.6f}",
        ),
    ]
    loc_doc = None
    if "elapsed" in exp and exp["elapsed"] > 0:
        alpha_loc = localization_index(
            exp["elapsed"], 0.0, bundle.scale.alpha_s, bundle.bound, search_hi, bundle.scale.nu
        )
        residual = abs(
            time_horizon(bundle.scale.alpha_s, alpha_loc, bundle.bound, bundle.scale.nu)
            - exp["elapsed"]
        )
        checks.append(
            Assertion(
                "localization_residual",
                residual <= 1e-9,
                f"alpha={alpha_loc:.12f} residual={residual:.3e}",
            )
        )
        loc_doc = {"elapsed": exp["elapsed"], "alpha": alpha_loc, "residual": residual}
    write_csv(
        out / "horizon_curve.csv",
        ["beta", "horizon"],
        zip(opt.scan_betas, opt.scan_values),
    )
    write_json(
        out / "horizon.json",
        {
            "beta_opt": opt.beta,
            "horizon_max": opt.horizon,
            "unimodal": opt.unimodal,
            "at_boundary": opt.at_boundary,
            "local_max_count": opt.local_max_count,
            "localization": loc_doc,
        },
    )
    plot_rows = [("horizon", b, v) for b, v in zip(opt.scan_betas, opt.scan_values)]
    plot_rows.append(("optimum", opt.beta, opt.horizon))
    write_csv(out / "plot_horizon.csv", ["series", "x", "y"], plot_rows)
    return checks, ["horizon_curve.csv", "horizon.json", "plot_horizon.csv"]


RUNNERS = {
    "evolve": run_evolve,
    "vlasov": run_vlasov,
    "kinetic": run_kinetic,
    "bifurcation": run_bifurcation,
    "bounds": run_bounds,
    "horizon": run_horizon,
}


def run_experiment(doc: dict, out_dir: str | None = None) -> dict:
    """Run the configured experiment and write its manifest.

    Returns the manifest; its exit_code is 0 on success, 1 when assertions
    failed, 2 when the configuration does not build or a runner rejects it
    (ConfigError) and 3 on any other package error (OvskaleError): a
    numerical failure or a size preflight refusal (DimensionCapError).  A
    config that fails the schema raises ConfigError before any manifest is
    written and is the caller's exit 2.  The manifest
    also records the largest memory estimate of the run's size checks, the
    process's peak resident set so far, the seconds spent loading modules,
    in build_runtime and in the runner (null for a stage that did not
    finish), and the solve ledger, one `_ledger_entry` per series solve.
    """
    global _largest_estimate
    validate_config(doc)
    out = Path(out_dir if out_dir is not None else (doc.get("output") or "."))
    out.mkdir(parents=True, exist_ok=True)
    name = doc["experiment"]["name"]
    started = time.perf_counter()
    error = None
    checks: list[Assertion] = []
    outputs: list[str] = []
    timings = {"imports_s": None, "build_runtime_s": None, "runner_s": None}
    solves: list = []
    _largest_estimate = 0.0
    try:
        _preflight(doc)
        begin = time.perf_counter()
        for module in _SETUP_IMPORTS.get(name, ()):
            importlib.import_module(module)
        timings["imports_s"] = time.perf_counter() - begin
        begin = time.perf_counter()
        bundle = build_runtime(doc, validated=True)
        solves = bundle.solves
        timings["build_runtime_s"] = time.perf_counter() - begin
        begin = time.perf_counter()
        checks, outputs = RUNNERS[name](bundle, out)
        timings["runner_s"] = time.perf_counter() - begin
        exit_code = 0 if all(c.passed for c in checks) else 1
    except ConfigError as err:
        error = f"{type(err).__name__}: {err}"
        exit_code = 2
    except OvskaleError as err:
        error = f"{type(err).__name__}: {err}"
        exit_code = 3
    manifest = {
        "experiment": name,
        "config_sha256": config_hash(doc),
        "seed": doc["seed"],
        "versions": {
            "ovskale": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            # null for a run that loaded none of scipy's compiled kernels
            "scipy": compiled.scipy_version(),
        },
        "wall_time_s": time.perf_counter() - started,
        "timings": timings,
        "memory_estimate_bytes": (
            int(_largest_estimate) if _largest_estimate < math.inf else None
        ),
        "peak_rss_bytes": _peak_rss_bytes(),
        "solves": solves,
        "assertions": [c.as_dict() for c in checks],
        "error": error,
        "exit_code": exit_code,
        "outputs": outputs,
    }
    write_json(out / "manifest.json", manifest)
    return manifest
