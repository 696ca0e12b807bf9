"""Scale-indexed evolution by the Ovsyannikov series, with oracle and checks.

The solver realizes the abstract Cauchy problem u' = (A + Z)u on the scale of
weighted sup-norm spaces: A generates a contraction semigroup entry by entry,
Z loses one power of the index gap.  The solution is summed as Duhamel terms

    W_0(tau) = S_A(tau - s) u_s,
    W_n(tau) = int_s^tau S_A(tau - r) Z W_{n-1}(r) dr,

each level computed on one shared uniform grid with an exact-semigroup
trapezoid recursion

    Q_{i+1} = S_A(dt) [ Q_i + (dt/2) Y_i ] + (dt/2) Y_{i+1},   Y = Z W_{n-1},

which is O(grid) per level.  Every computed term is compared against its
majorant

    nu e^{omega t} ||u_s||_{alpha_s} ( q n / (e T') + nu N(alpha) )^n (t-s)^n / n!

and the run is re-done at half resolution for a Richardson consistency gate.
`oracle_evolve` is the independent sparse-propagator reference with two
internal routes (the action of the matrix exponential and an adaptive
Runge-Kutta integration) that must agree; `flow_compose_check` and
`apriori_estimate_check` audit the two-parameter flow property and the
closed-form a-priori bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np
from scipy.integrate import solve_ivp
from scipy.sparse.linalg import expm_multiply

from .errors import ConvergenceError, HorizonError, MajorantViolation
from .operators import OperatorHandle
from .scale import BoundModel, ScaleSpec, norm_alpha_flat, time_horizon, localization_index
from .states import CorrelationVector, flat_orders


@dataclass
class SeriesConfig:
    """Run parameters of the series solver.

    upsilon is the guaranteed sub-horizon the run is certified for (t - s
    must not exceed it); q and alpha are the majorant shape parameters,
    defaulted from the horizon geometry when omitted.  quad_tol is the
    Richardson disagreement gate and defaults to 10 * term_tol.
    """

    upsilon: float
    q: float | None = None
    alpha: float | None = None
    time_grid_points: int = 256
    n_max: int = 40
    term_tol: float = 1e-10
    quad_tol: float | None = None
    majorant_slack: float = 1e-6
    trajectory_points: int = 129

    def __post_init__(self):
        if not (self.upsilon > 0 and math.isfinite(self.upsilon)):
            raise ValueError("upsilon must be positive and finite")
        if self.q is not None and not (self.q > 1.0):
            raise ValueError("q must exceed 1")
        if self.time_grid_points < 2 or self.time_grid_points % 2:
            raise ValueError("time_grid_points must be even and >= 2")
        if self.n_max < 1:
            raise ValueError("n_max must be >= 1")
        if not (self.term_tol > 0):
            raise ValueError("term_tol must be positive")
        if self.quad_tol is not None and not (self.quad_tol > 0):
            raise ValueError("quad_tol must be positive")
        if not (self.majorant_slack >= 0):
            raise ValueError("majorant_slack must be >= 0")
        if self.trajectory_points < 2:
            raise ValueError("trajectory_points must be >= 2")

    @property
    def richardson_gate(self) -> float:
        return self.quad_tol if self.quad_tol is not None else 10.0 * self.term_tol

    def for_horizon(self, dt: float) -> "SeriesConfig":
        """Clone for a sub-run over duration dt, re-deriving q and alpha."""
        return replace(self, upsilon=dt, q=None, alpha=None)


@dataclass
class EvolutionResult:
    """Trajectory, per-term records, and horizon metadata of one solver run."""

    times: np.ndarray
    states: list
    term_norms: np.ndarray
    majorant_values: np.ndarray
    term_norm_history: np.ndarray
    majorant_sum_history: np.ndarray
    horizon: float
    horizon_prime: float
    q: float
    alpha: float
    upsilon: float
    quad_disagreement: float
    quad_error: float
    n_used: int
    converged: bool
    initial_norm: float
    scale: ScaleSpec
    regular_at_alpha: float

    @property
    def final_state(self) -> CorrelationVector:
        return self.states[-1]

    def norms_at(self, alpha: float) -> np.ndarray:
        from .scale import norm_alpha

        return np.array([norm_alpha(st, alpha) for st in self.states])

    def to_json_dict(self) -> dict:
        return {
            "times": self.times.tolist(),
            "norm_alpha": self.norms_at(self.alpha).tolist(),
            "norm_alpha_star": self.norms_at(self.scale.alpha_star).tolist(),
            "term_norms": self.term_norms.tolist(),
            "majorant_values": self.majorant_values.tolist(),
            "horizon": self.horizon,
            "horizon_prime": self.horizon_prime,
            "q": self.q,
            "alpha": self.alpha,
            "upsilon": self.upsilon,
            "quad_disagreement": self.quad_disagreement,
            "quad_error": self.quad_error,
            "n_used": self.n_used,
            "converged": self.converged,
            "initial_norm": self.initial_norm,
            "final_state": self.final_state.to_json_dict(),
        }


def default_intermediate_alpha(scale: ScaleSpec, bound: BoundModel, upsilon: float) -> float:
    """Midpoint of the widest index interval whose horizon exceeds upsilon."""
    grid = np.linspace(scale.alpha_s, scale.alpha_star, 2002)[1:-1]
    good = np.array(
        [time_horizon(scale.alpha_s, a, bound, scale.nu) > upsilon for a in grid]
    )
    if not good.any():
        raise HorizonError("no intermediate index clears the requested upsilon")
    best_len, best_lo, best_hi = 0, 0, 0
    i = 0
    while i < len(grid):
        if good[i]:
            j = i
            while j + 1 < len(grid) and good[j + 1]:
                j += 1
            if j - i + 1 > best_len:
                best_len, best_lo, best_hi = j - i + 1, i, j
            i = j + 1
        else:
            i += 1
    return float(0.5 * (grid[best_lo] + grid[best_hi]))


def _resolve_run(scale: ScaleSpec, bound: BoundModel, cfg: SeriesConfig, dt: float):
    horizon = time_horizon(scale.alpha_s, scale.alpha_star, bound, scale.nu)
    if not (dt <= cfg.upsilon):
        raise HorizonError(f"t - s = {dt} exceeds the configured upsilon {cfg.upsilon}")
    if not (cfg.upsilon < horizon):
        raise HorizonError(f"upsilon {cfg.upsilon} must stay below the horizon {horizon}")
    alpha = cfg.alpha
    if alpha is None:
        alpha = default_intermediate_alpha(scale, bound, cfg.upsilon)
    if not (scale.alpha_s < alpha < scale.alpha_star):
        raise HorizonError("intermediate alpha must lie strictly between alpha_s and alpha_star")
    horizon_prime = time_horizon(scale.alpha_s, alpha, bound, scale.nu)
    if not (cfg.upsilon < horizon_prime):
        raise HorizonError(
            f"upsilon {cfg.upsilon} must stay below the intermediate horizon {horizon_prime}"
        )
    q = cfg.q
    if q is None:
        # geometric mean of the admissible interval ends 1 and T'/upsilon
        q = math.sqrt(horizon_prime / cfg.upsilon)
    if not (q > 1.0):
        raise HorizonError("q must exceed 1")
    if not (q * cfg.upsilon < min(horizon, horizon_prime)):
        raise HorizonError("q * upsilon must stay below min(horizon, horizon_prime)")
    return horizon, horizon_prime, q, alpha


def _log_majorant(
    n: int, dt: float, t_abs: float, q: float, horizon_prime: float, nu: float,
    regular_alpha: float, omega: float, norm0: float,
) -> float:
    if norm0 == 0.0:
        return -math.inf
    base = math.log(nu) + omega * t_abs + math.log(norm0)
    if n == 0:
        return base
    coeff = (q * n / (math.e * horizon_prime) + nu * regular_alpha) * dt
    if coeff <= 0.0:
        return -math.inf
    return base + n * math.log(coeff) - math.lgamma(n + 1)


def _semigroup_profile(energies, tau, u0):
    if energies is None:
        return np.tile(u0, (len(tau), 1))
    return np.exp(-np.outer(tau, energies)) * u0[None, :]


def _run_grid(
    u0: np.ndarray,
    energies,
    zmat,
    dt: float,
    grid: int,
    orders: np.ndarray,
    alpha: float,
    store_idx: np.ndarray,
    *,
    term_tol: float,
    max_levels: int,
    fixed_levels: int | None = None,
):
    """Sum Duhamel levels on a uniform grid; returns states and term records."""
    tau = np.linspace(0.0, dt, grid + 1)
    step = dt / grid
    half = 0.5 * step
    decay = None if energies is None else np.exp(-step * energies)
    w = _semigroup_profile(energies, tau, u0)
    total = w.copy()
    final_norms = [norm_alpha_flat(w[-1], orders, alpha)]
    history = [np.array([norm_alpha_flat(w[i], orders, alpha) for i in store_idx])]
    level = 0
    while True:
        if not math.isfinite(final_norms[-1]):
            raise ConvergenceError(
                f"Duhamel level {level} has non-finite norm {final_norms[-1]}"
            )
        if fixed_levels is not None:
            if level >= fixed_levels:
                break
        elif final_norms[-1] < term_tol or level >= max_levels:
            break
        y = (zmat @ w.T).T
        q_acc = np.zeros_like(w)
        if decay is None:
            for i in range(grid):
                q_acc[i + 1] = q_acc[i] + half * (y[i] + y[i + 1])
        else:
            for i in range(grid):
                q_acc[i + 1] = decay * (q_acc[i] + half * y[i]) + half * y[i + 1]
        w = q_acc
        total += w
        level += 1
        final_norms.append(norm_alpha_flat(w[-1], orders, alpha))
        history.append(np.array([norm_alpha_flat(w[i], orders, alpha) for i in store_idx]))
    return total, np.array(final_norms), np.vstack(history), level


def ovsyannikov_evolve(
    u_s: CorrelationVector,
    s: float,
    t: float,
    diag_op: OperatorHandle | None,
    pert_op: OperatorHandle,
    scale: ScaleSpec,
    bound: BoundModel,
    cfg: SeriesConfig,
) -> EvolutionResult:
    """Evolve u_s from time s to t by the majorant-controlled Duhamel series.

    diag_op supplies the entrywise semigroup (None means the identity
    semigroup); pert_op is the index-losing perturbation.  Raises
    HorizonError when (t, upsilon, q, alpha) violate the horizon geometry,
    MajorantViolation when a computed term beats its majorant beyond the
    configured slack or is not finite, and ConvergenceError when a Duhamel
    level has a non-finite norm or the half-grid Richardson disagreement
    exceeds the gate (or is NaN).
    """
    if t < s:
        raise HorizonError("need t >= s")
    if diag_op is not None and not diag_op.is_diagonal:
        raise ValueError("diag_op must be a diagonal kind")
    for op in (diag_op, pert_op):
        if op is not None and (op.torus != u_s.torus or op.n_max != u_s.n_max):
            raise ValueError("operator truncation does not match the state")
    bound.validate_on(scale.alpha_s, scale.alpha_star)
    dt = t - s
    horizon, horizon_prime, q, alpha = _resolve_run(scale, bound, cfg, dt)
    orders = flat_orders(u_s.torus, u_s.n_max)
    u0 = u_s.flat()
    initial_norm = norm_alpha_flat(u0, orders, scale.alpha_s)
    regular_alpha = bound.regular(alpha)

    if dt == 0.0:
        maj0 = math.exp(_log_majorant(0, 0.0, t, q, horizon_prime, scale.nu, regular_alpha, scale.omega, initial_norm)) if initial_norm else 0.0
        return EvolutionResult(
            times=np.array([s]),
            states=[u_s],
            term_norms=np.array([initial_norm]),
            majorant_values=np.array([maj0]),
            term_norm_history=np.array([[norm_alpha_flat(u0, orders, alpha)]]),
            majorant_sum_history=np.array([maj0]),
            horizon=horizon,
            horizon_prime=horizon_prime,
            q=q,
            alpha=alpha,
            upsilon=cfg.upsilon,
            quad_disagreement=0.0,
            quad_error=0.0,
            n_used=0,
            converged=True,
            initial_norm=initial_norm,
            scale=scale,
            regular_at_alpha=regular_alpha,
        )

    if q * dt / horizon_prime >= 1.0:
        raise HorizonError("ratio test failed: q (t - s) / horizon_prime must be < 1")

    grid = cfg.time_grid_points
    count = min(cfg.trajectory_points, grid + 1)
    store_idx = np.unique(np.round(np.linspace(0, grid, count)).astype(int))
    energies = diag_op.semigroup_energies() if diag_op is not None else None
    zmat = pert_op.matrix()

    total, final_norms, history, n_used = _run_grid(
        u0, energies, zmat, dt, grid, orders, alpha, store_idx,
        term_tol=cfg.term_tol, max_levels=cfg.n_max,
    )
    converged = bool(final_norms[-1] < cfg.term_tol) or initial_norm == 0.0

    # majorant audit of every computed term at the final time
    majorants = np.empty(n_used + 1)
    log_slack = math.log1p(cfg.majorant_slack)
    for n in range(n_used + 1):
        log_maj = _log_majorant(
            n, dt, t, q, horizon_prime, scale.nu, regular_alpha, scale.omega, initial_norm
        )
        majorants[n] = math.exp(log_maj) if log_maj > -math.inf else 0.0
        term = final_norms[n]
        # written so that a NaN or infinite term fails the audit
        if not (term <= 0.0 or math.log(term) <= log_maj + log_slack):
            raise MajorantViolation(
                f"term {n} norm {term} exceeds majorant {majorants[n]} beyond slack"
            )

    # Richardson consistency: recompute the same number of levels at half grid
    half_store = np.array([0, grid // 2])
    total_half, _, _, _ = _run_grid(
        u0, energies, zmat, dt, grid // 2, orders, alpha, half_store,
        term_tol=cfg.term_tol, max_levels=cfg.n_max, fixed_levels=n_used,
    )
    disagreement = norm_alpha_flat(total[-1] - total_half[-1], orders, alpha)
    if not (disagreement <= cfg.richardson_gate):
        raise ConvergenceError(
            f"half-grid disagreement {disagreement} exceeds gate {cfg.richardson_gate}"
        )

    times = s + (dt / grid) * store_idx
    states = [CorrelationVector.from_flat(u_s.torus, u_s.n_max, total[i]) for i in store_idx]
    maj_sum_hist = np.zeros(len(store_idx))
    for j, idx in enumerate(store_idx):
        tau_abs = times[j]
        tau_rel = tau_abs - s
        acc = 0.0
        for n in range(n_used + 1):
            lm = _log_majorant(
                n, tau_rel, tau_abs, q, horizon_prime, scale.nu, regular_alpha,
                scale.omega, initial_norm,
            )
            acc += math.exp(lm) if lm > -math.inf else 0.0
        maj_sum_hist[j] = acc

    return EvolutionResult(
        times=times,
        states=states,
        term_norms=final_norms,
        majorant_values=majorants,
        term_norm_history=history,
        majorant_sum_history=maj_sum_hist,
        horizon=horizon,
        horizon_prime=horizon_prime,
        q=q,
        alpha=alpha,
        upsilon=cfg.upsilon,
        quad_disagreement=disagreement,
        quad_error=disagreement / 3.0,
        n_used=n_used,
        converged=converged,
        initial_norm=initial_norm,
        scale=scale,
        regular_at_alpha=regular_alpha,
    )


def oracle_evolve(
    u_s: CorrelationVector,
    dt: float,
    full_op: OperatorHandle,
    *,
    agreement_tol: float = 1e-9,
    adaptive_tol: float = 1e-12,
) -> CorrelationVector:
    """Sparse reference propagator for u' = (A + Z) u over duration dt.

    Two routes on the operator's sparse matrix, the action of the matrix
    exponential (Al-Mohy and Higham's truncated Taylor series) and an adaptive
    DOP853 integration at relative tolerance adaptive_tol, must agree to
    agreement_tol in relative sup norm; the exponential route is returned.
    """
    if dt < 0:
        raise ValueError("dt must be >= 0")
    if full_op.torus != u_s.torus or full_op.n_max != u_s.n_max:
        raise ValueError("operator truncation does not match the state")
    if dt == 0.0:
        return u_s
    mat = full_op.matrix()
    u0 = u_s.flat()
    via_expm = expm_multiply(mat * dt, u0)
    sol = solve_ivp(
        lambda _t, y: mat @ y, (0.0, dt), u0, method="DOP853",
        rtol=adaptive_tol, atol=adaptive_tol,
    )
    if not sol.success:
        raise ConvergenceError(f"adaptive oracle route failed: {sol.message}")
    via_rk = sol.y[:, -1]
    denom = max(float(np.abs(via_expm).max()), 1e-30)
    rel = float(np.abs(via_expm - via_rk).max()) / denom
    if rel > agreement_tol:
        raise ConvergenceError(f"oracle routes disagree at relative level {rel}")
    return CorrelationVector.from_flat(u_s.torus, u_s.n_max, via_expm)


@dataclass
class FlowReport:
    """Two-parameter flow property audit: direct versus composed evolution."""

    difference: float
    relative: float
    budget: float
    alpha_tau: float
    horizon_full: float
    horizon_second: float
    direct_final: CorrelationVector
    composed_final: CorrelationVector


def flow_compose_check(
    u_s: CorrelationVector,
    s: float,
    tau: float,
    t: float,
    diag_op: OperatorHandle | None,
    pert_op: OperatorHandle,
    scale: ScaleSpec,
    bound: BoundModel,
    cfg: SeriesConfig,
) -> FlowReport:
    """Compare evolving s -> t directly against s -> tau -> t composed.

    The restart index is the localization index of tau; the flow hypothesis
    t < min(tau + horizon(alpha_tau, alpha_star), s + horizon(alpha_s,
    alpha_star)) is verified before any solve.
    """
    if not (s < tau < t):
        raise HorizonError("need s < tau < t")
    horizon_full = time_horizon(scale.alpha_s, scale.alpha_star, bound, scale.nu)
    if not (t - s < horizon_full):
        raise HorizonError("flow hypothesis violated: t - s must stay below the full horizon")
    alpha_tau = localization_index(tau, s, scale.alpha_s, bound, scale.alpha_star, scale.nu)
    if alpha_tau >= scale.alpha_star - 1e-9:
        raise HorizonError("localization index reached alpha_star; no room for the second leg")
    horizon_second = time_horizon(alpha_tau, scale.alpha_star, bound, scale.nu)
    if not (t - tau < horizon_second):
        raise HorizonError("flow hypothesis violated: t - tau exceeds the restarted horizon")

    direct = ovsyannikov_evolve(u_s, s, t, diag_op, pert_op, scale, bound, cfg.for_horizon(t - s))
    leg1 = ovsyannikov_evolve(u_s, s, tau, diag_op, pert_op, scale, bound, cfg.for_horizon(tau - s))
    scale2 = ScaleSpec(alpha_s=alpha_tau, alpha_star=scale.alpha_star, nu=scale.nu, omega=scale.omega)
    leg2 = ovsyannikov_evolve(
        leg1.final_state, tau, t, diag_op, pert_op, scale2, bound, cfg.for_horizon(t - tau)
    )
    from .scale import norm_alpha

    diff = norm_alpha(
        CorrelationVector.from_flat(
            u_s.torus, u_s.n_max, direct.final_state.flat() - leg2.final_state.flat()
        ),
        scale.alpha_star,
    )
    denom = max(norm_alpha(direct.final_state, scale.alpha_star), 1e-30)
    budget = direct.quad_error + leg1.quad_error + leg2.quad_error
    return FlowReport(
        difference=diff,
        relative=diff / denom,
        budget=budget,
        alpha_tau=alpha_tau,
        horizon_full=horizon_full,
        horizon_second=horizon_second,
        direct_final=direct.final_state,
        composed_final=leg2.final_state,
    )


@dataclass
class AprioriReport:
    """Audit of the closed-form a-priori trajectory bound."""

    constant: float
    prefactor: float
    regular_sup: float
    horizon_sup: float
    max_ratio: float
    violations: list

    @property
    def ok(self) -> bool:
        return not self.violations


def apriori_estimate_check(
    result: EvolutionResult,
    scale: ScaleSpec,
    bound: BoundModel,
    grid_points: int = 512,
) -> AprioriReport:
    """Check ||u(t)||_alpha <= C e^{omega t} ||u_s||_{alpha_s} / (T' - q ups).

    C = nu e^{e nu T_sup N_sup - 1} T_sup with the suprema taken over the
    working index interval; the inequality is tested at every stored time.
    """
    grid = np.linspace(scale.alpha_s, scale.alpha_star, grid_points + 1)
    regular_sup = max(bound.regular(x) for x in grid)
    horizon_sup = max(
        time_horizon(scale.alpha_s, b, bound, scale.nu) for b in grid[1:]
    )
    constant = scale.nu * math.exp(math.e * scale.nu * horizon_sup * regular_sup - 1.0) * horizon_sup
    denom = result.horizon_prime - result.q * result.upsilon
    if denom <= 0:
        raise HorizonError("a-priori bound needs horizon_prime - q upsilon > 0")
    prefactor = constant / denom
    from .scale import norm_alpha

    violations = []
    max_ratio = 0.0
    for time, state in zip(result.times, result.states):
        lhs = norm_alpha(state, result.alpha)
        rhs = prefactor * math.exp(scale.omega * time) * result.initial_norm
        if rhs == 0.0:
            ratio = 0.0 if lhs == 0.0 else math.inf
        else:
            ratio = lhs / rhs
        max_ratio = max(max_ratio, ratio)
        if lhs > rhs * (1.0 + 1e-12):
            violations.append({"time": float(time), "lhs": lhs, "rhs": rhs})
    return AprioriReport(
        constant=constant,
        prefactor=prefactor,
        regular_sup=regular_sup,
        horizon_sup=horizon_sup,
        max_ratio=max_ratio,
        violations=violations,
    )
