"""Experiment drivers: each family runs, self-checks, and writes artifacts.

Every runner returns a list of named assertions plus the files it wrote;
run_experiment wraps that in a manifest with config hash, versions, wall
time, and the exit code the command line process should use.  CSV floats
are printed with 17 significant digits so reruns are byte-comparable.
"""

from __future__ import annotations

import csv
import json
import platform
import time
from dataclasses import dataclass, replace
from pathlib import Path

import numpy as np
import scipy

from ._version import __version__
from .config import RuntimeBundle, build_runtime, config_hash
from .errors import (
    ConfigError,
    ConvergenceError,
    DimensionCapError,
    HorizonError,
    MajorantViolation,
    StepSizeCollapse,
)
from .kinetic import (
    BifurcationInput,
    DensityField,
    critical_c_range,
    homogeneous_scalar_ode,
    integrate_kinetic,
    stationary_scan,
    threshold_b,
)
from .operators import OperatorHandle
from .scale import localization_index, optimal_terminal, time_horizon, verify_singular_bound
from .series import apriori_estimate_check, flow_compose_check, ovsyannikov_evolve
from .states import CorrelationVector, random_correlation
from .vlasov import (
    EpsilonSweep,
    perturbation_gap,
    semigroup_gap,
    semigroup_gap_bound,
    semigroup_gap_intermediate,
    vlasov_limit,
)

NUMERICAL_ERRORS = (
    HorizonError,
    ConvergenceError,
    MajorantViolation,
    StepSizeCollapse,
    DimensionCapError,
)


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
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True, default=_jsonable)
        fh.write("\n")


def _split_operators(bundle: RuntimeBundle):
    """Diagonal and perturbation parts matching the configured epsilon."""
    args = (bundle.kernels, bundle.params, bundle.truncation)
    diag = OperatorHandle("diagonal", *args) if bundle.params.epsilon > 0 else None
    return diag, OperatorHandle("perturbation", *args)


def _product_state(bundle: RuntimeBundle, rho: float) -> CorrelationVector:
    """Product initial state; a density whose powers overflow is a config error."""
    try:
        return CorrelationVector.product_form(bundle.torus, bundle.truncation, rho)
    except ValueError as err:
        raise ConfigError(f"product state with density {rho}: {err}") from err


def _initial_state(bundle: RuntimeBundle, spec: dict | None) -> CorrelationVector:
    spec = spec or {"kind": "product", "rho": 0.5}
    if spec["kind"] == "product":
        return _product_state(bundle, spec.get("rho", 0.5))
    return random_correlation(
        bundle.torus, bundle.truncation, bundle.scale.alpha_s, bundle.rng
    )


def run_evolve(bundle: RuntimeBundle, out: Path):
    exp = bundle.experiment
    s = exp.get("s", 0.0)
    t_abs = s + exp["t"]
    u0 = _initial_state(bundle, exp.get("initial"))
    diag, pert = _split_operators(bundle)
    result = ovsyannikov_evolve(
        u0, s, t_abs, diag, pert, bundle.scale, bundle.bound, bundle.solver
    )
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
    if "flow_tau" in exp:
        tau_abs = s + exp["flow_tau"]
        flow = flow_compose_check(
            u0, s, tau_abs, t_abs, diag, pert, bundle.scale, bundle.bound, bundle.solver
        )
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

    norms_star = result.norms_at(bundle.scale.alpha_star)
    norms_mid = result.norms_at(result.alpha)
    write_csv(
        out / "trajectory.csv",
        ["t", "norm_alpha_star", "norm_alpha", "majorant_sum"],
        zip(result.times, norms_star, norms_mid, result.majorant_sum_history),
    )
    write_csv(
        out / "series_terms.csv",
        ["n", "term_norm", "majorant"],
        zip(range(result.n_used + 1), result.term_norms, result.majorant_values),
    )
    plot_rows = [("term_norm", n, result.term_norms[n]) for n in range(1, result.n_used + 1)]
    plot_rows += [("majorant", n, result.majorant_values[n]) for n in range(1, result.n_used + 1)]
    write_csv(out / "plot_series_majorant.csv", ["series", "x", "y"], plot_rows)
    doc = result.to_json_dict()
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
    u0 = _product_state(bundle, exp.get("rho0", 0.5))
    sweep = EpsilonSweep(tuple(eps_list), u0, bundle.scale, bundle.solver)
    report = vlasov_limit(sweep, bundle.kernels, bundle.params, bundle.bound)

    samples = exp.get("samples", 20)
    gap_t = exp.get("gap_time", bundle.solver.upsilon)
    alpha_lo = exp.get("gap_alpha_lo", bundle.scale.alpha_s)
    alpha_hi = exp.get("gap_alpha_hi", bundle.scale.alpha_star)
    sg_bound = semigroup_gap_bound(gap_t, bundle.kernels, alpha_lo, alpha_hi)
    sg_inter = semigroup_gap_intermediate(
        gap_t, bundle.kernels, bundle.truncation, alpha_lo, alpha_hi
    )
    sg_gaps = {}
    z_reports = {}
    z_lim = report.operators[0.0][1]
    for eps in sweep.positive:
        sg_gaps[eps] = semigroup_gap(
            eps, gap_t, samples, bundle.kernels, bundle.truncation, alpha_lo, alpha_hi, bundle.rng
        )
        z_reports[eps] = perturbation_gap(
            report.operators[eps][1], z_lim, samples, bundle.scale, bundle.rng
        )
    sg_zero = semigroup_gap(
        0.0, gap_t, 1, bundle.kernels, bundle.truncation, alpha_lo, alpha_hi, bundle.rng
    )
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

    rows = []
    for i, eps in enumerate(sweep.positive):
        rows.append((eps, report.sup_gaps[i], sg_gaps[eps], z_reports[eps].fitted_pole))
    rows.append((0.0, 0.0, 0.0, 0.0))
    write_csv(out / "sweep.csv", ["epsilon", "sup_gap", "semigroup_gap", "Z_gap_fitted_P"], rows)
    plot_rows = []
    for i, eps in enumerate(sweep.positive):
        plot_rows.append(("sup_gap", eps, report.sup_gaps[i]))
    for eps in sweep.positive:
        plot_rows.append(("semigroup_gap", eps, sg_gaps[eps]))
    for eps in sweep.positive:
        plot_rows.append(("z_pole", eps, z_reports[eps].fitted_pole))
    write_csv(out / "plot_eps_gap.csv", ["series", "x", "y"], plot_rows)
    write_json(
        out / "summary.json",
        {
            "epsilons": list(sweep.positive),
            "sup_gaps": report.sup_gaps,
            "ratios": report.ratios,
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
    exp = bundle.experiment
    rho0 = exp.get("rho0", 0.5)
    if isinstance(rho0, (int, float)):
        field0 = DensityField(bundle.torus, np.full(bundle.torus.site_count, float(rho0)))
        constant_data = True
    else:
        arr = np.asarray(rho0, dtype=float)
        field0 = DensityField(bundle.torus, arr)
        constant_data = bool(np.all(arr == arr[0]))
    traj = integrate_kinetic(
        field0,
        exp["t_end"],
        exp["dt"],
        bundle.kernels,
        bundle.params,
        store_every=exp.get("store_every", 1),
    )
    checks = [
        Assertion(
            "density_nonnegative",
            bool(traj.fields.min() >= 0.0),
            f"min over trajectory {traj.fields.min():.3e}",
        )
    ]
    if constant_data and exp["t_end"] > 0:
        scalar = homogeneous_scalar_ode(
            float(field0.rho[0]),
            float(traj.times[-1]),
            bundle.kernels.avg_a,
            bundle.kernels.avg_phi,
            bundle.params.death_amplitude,
            bundle.params.birth_intensity,
        )
        spread = float(traj.fields[-1].max() - traj.fields[-1].min())
        gap = abs(float(traj.fields[-1].mean()) - scalar)
        checks.append(
            Assertion(
                "homogeneous_consistency",
                gap <= 1e-8 and spread <= 1e-10,
                f"|field-scalar|={gap:.3e} spatial spread={spread:.3e}",
            )
        )
    header = ["t", "rho_min", "rho_max", "rho_mean"]
    full = bool(exp.get("full_field", False))
    if full:
        header += [f"rho_{i}" for i in range(bundle.torus.site_count)]
    rows = []
    for i, t in enumerate(traj.times):
        row = [t, traj.fields[i].min(), traj.fields[i].max(), traj.fields[i].mean()]
        if full:
            row += list(traj.fields[i])
        rows.append(row)
    write_csv(out / "trajectory.csv", header, rows)
    return checks, ["trajectory.csv"]


def run_bifurcation(bundle: RuntimeBundle, out: Path):
    exp = bundle.experiment
    x_hi = exp.get("x_hi", 50.0)
    resolution = exp.get("resolution", 100_000)
    b_star = threshold_b()
    try:
        inputs = {
            (b, c): BifurcationInput(b, c, x_hi=x_hi, resolution=resolution)
            for b in exp["b_values"]
            for c in exp["c_values"]
        }
    except ValueError as err:
        raise ConfigError(f"bifurcation grid invalid: {err}") from err
    rows = []
    consistent = True
    detail = []
    for (b, c), inp in inputs.items():
        scan = stationary_scan(inp)
        roots = list(scan.roots) + [""] * (3 - min(3, len(scan.roots)))
        rows.append([b, c, scan.count, *roots[:3]])
        if b != b_star:
            if b < b_star:
                c_lo, c_hi = critical_c_range(b)
                margin = 1e-9 * max(1.0, c)
                if abs(c - c_lo) <= margin or abs(c - c_hi) <= margin:
                    continue
                expected = 3 if c_lo < c < c_hi else 1
            else:
                expected = 1
            if scan.count != expected:
                consistent = False
                detail.append(f"(b={b}, c={c}) count={scan.count} expected={expected}")
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
    fold_points = exp.get("fold_points", 9)
    b_grid = np.linspace(b_star / 10.0, b_star * 0.99, fold_points)
    c_los, c_his = [], []
    for b in b_grid:
        lo, hi = critical_c_range(float(b))
        c_los.append(lo)
        c_his.append(hi)
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
    report = verify_singular_bound(op, bundle.scale, bundle.bound, samples, bundle.rng)
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
    scan_points = exp.get("scan_points", 1000)
    opt = optimal_terminal(
        bundle.scale.alpha_s, bundle.bound, search_hi, bundle.scale.nu, scan_points
    )
    checks = [
        Assertion(
            "single_local_max",
            opt.local_max_count <= 1,
            f"{opt.local_max_count} strict local maxima on the scan",
        ),
        Assertion(
            "interior_maximum",
            not opt.at_boundary,
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
    failed, 2 when a runner rejects the configuration (ConfigError) and 3 on
    numerical failure.  A config that does not build raises ConfigError
    before any manifest is written and is the caller's exit 2.
    """
    bundle = build_runtime(doc)
    out = Path(out_dir if out_dir is not None else (bundle.output or "."))
    out.mkdir(parents=True, exist_ok=True)
    name = bundle.experiment["name"]
    started = time.perf_counter()
    error = None
    checks: list[Assertion] = []
    outputs: list[str] = []
    try:
        checks, outputs = RUNNERS[name](bundle, out)
        exit_code = 0 if all(c.passed for c in checks) else 1
    except ConfigError as err:
        error = f"{type(err).__name__}: {err}"
        exit_code = 2
    except NUMERICAL_ERRORS as err:
        error = f"{type(err).__name__}: {err}"
        exit_code = 3
    manifest = {
        "experiment": name,
        "config_sha256": config_hash(doc),
        "seed": bundle.seed,
        "versions": {
            "ovskale": __version__,
            "python": platform.python_version(),
            "numpy": np.__version__,
            "scipy": scipy.__version__,
        },
        "wall_time_s": time.perf_counter() - started,
        "assertions": [c.as_dict() for c in checks],
        "error": error,
        "exit_code": exit_code,
        "outputs": outputs,
    }
    write_json(out / "manifest.json", manifest)
    return manifest
