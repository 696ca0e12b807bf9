"""Scale-indexed evolution by the Ovsyannikov series, with oracle and checks.

The solver realizes the abstract Cauchy problem u' = (A + Z)u on the scale of
weighted sup-norm spaces: A generates a contraction semigroup entry by entry,
Z loses one power of the index gap.  The solution is summed as Duhamel terms

    W_0(tau) = S_A(tau - s) u_s,
    W_n(tau) = int_s^tau S_A(tau - r) Z W_{n-1}(r) dr,

each level computed on one shared uniform grid in two steps: the product
Y = Z W_{n-1} over every grid point, then the exact-semigroup trapezoid
recursion

    Q_{i+1} = S_A(dt) [ Q_i + (dt/2) Y_i ] + (dt/2) Y_{i+1},

which is O(grid) per level.  A is always given by its diagonal handle; the
scaling limit eps = 0 is the handle whose energies are all zero, so that
S_A is the identity and needs no path of its own.  Every computed term is
compared against its majorant

    nu ||u_s||_{alpha_s} ( q n / (e T') + nu N(alpha) )^n (t-s)^n / n!

and the run is re-done at half resolution for a Richardson consistency gate.
The stored rows are the result's `trajectory`, one read-only (stored times
x d) array whose norms are each one stacked `norm_alpha_flat` call; only the
final row becomes a `CorrelationVector`.
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
    """Trajectory, per-term records, and horizon metadata of one solver run.

    trajectory is the read-only (len(times) x d) array of the stored flat
    states; final_state is its last row as a vector.
    """

    times: np.ndarray
    trajectory: np.ndarray
    final_state: CorrelationVector
    term_norms: np.ndarray
    majorant_values: np.ndarray
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
    # largest accepted time-compression probe estimate of a level, relative to
    # the level's sketch, over both grids (a probabilistic a-posteriori
    # estimate from a fixed Omega, see _PROBE_FACTOR); 0 when every level
    # used the full product
    compression_residual: float = 0.0

    def norms_at(self, alpha: float) -> np.ndarray:
        orders = flat_orders(self.final_state.torus, self.final_state.n_max)
        return norm_alpha_flat(self.trajectory, orders, alpha)

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
            "compression_residual": self.compression_residual,
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
    n: int, dt: float, q: float, horizon_prime: float, nu: float,
    regular_alpha: float, norm0: float,
) -> float:
    if norm0 == 0.0:
        return -math.inf
    base = math.log(nu) + math.log(norm0)
    if n == 0:
        return base
    coeff = (q * n / (math.e * horizon_prime) + nu * regular_alpha) * dt
    if coeff <= 0.0:
        return -math.inf
    return base + n * math.log(coeff) - math.lgamma(n + 1)


# bytes of one time block's state-major operand: small enough to stay in L2
_BLOCK_BYTES = 3 << 19
# time compression of a level: a Gaussian sketch of k columns spans it and p
# more probe the residual (Halko, Martinsson and Tropp, SIAM Review 53(2),
# 2011, Alg. 4.2); the rank is accepted when 10 sqrt(2/pi) times the largest
# probe residual is below _SKETCH_TOL times the largest sketch column.  For a
# Gaussian Omega drawn independently of the level this bounds the residual
# with probability at least 1 - 10^-p (here 1 - 1e-4) per level; Omega is
# fixed by _SKETCH_SEED and reused on every level of every run, so the
# figure is an a-posteriori estimate, not a deterministic bound.  Every level
# of the benchmark's evolve and vlasov configs passes at k = 8, so a level
# that does not falls back to the full product instead of retrying larger k.
_SKETCH_RANK = 8
_SKETCH_PROBES = 4
_SKETCH_TOL = 1e-13
_PROBE_FACTOR = 10.0 * math.sqrt(2.0 / math.pi)
_SKETCH_SEED = 0x0D5CA1E
# columns over the state a compressed level holds besides the level array:
# Omega (k + p), C = Q^T W (k), Z C^T (k) and the contiguous copy of C^T
# that the sparse product takes (k)
SKETCH_STATE_COLUMNS = 4 * _SKETCH_RANK + _SKETCH_PROBES
# tolerance (relative and absolute) of the oracle's adaptive DOP853 route
_ORACLE_RK_TOL = 1e-12
# intervals of the index grid over which the a-priori constant takes its suprema
_APRIORI_GRID_POINTS = 512


def _semigroup_profile(energies, tau, u0):
    """Level 0, e^{-tau E} u0 at every grid time, built in place as one array."""
    out = np.outer(tau, energies)
    np.negative(out, out=out)
    np.exp(out, out=out)
    out *= u0
    return out


def _sketch_columns(dim: int) -> np.ndarray:
    """The fixed Gaussian test matrix Omega, dim x (k + p), from a private generator."""
    rng = np.random.default_rng(_SKETCH_SEED)
    return rng.standard_normal((_SKETCH_RANK + _SKETCH_PROBES, dim)).T


def _compressed_product(w: np.ndarray, zmat, omega: np.ndarray) -> float | None:
    """Overwrite w with Z applied to its rows through a rank-k range of its columns.

    w (time-major, grid + 1 rows) is taken as Q C with Q = qr(w Omega[:, :k])
    and C = Q^T w, so that Z W = Q (Z C^T)^T needs k sparse columns.  Returns
    the probe estimate relative to the largest sketch column, or None, leaving
    w untouched, when the rank fails the probe test.
    """
    sample = w @ omega
    basis, _ = np.linalg.qr(sample[:, :_SKETCH_RANK])
    probes = sample[:, _SKETCH_RANK:]
    # overflow only makes the estimate non-finite, which fails the test
    with np.errstate(over="ignore", invalid="ignore"):
        size = np.sqrt((sample * sample).sum(axis=0)).max()
        probes -= basis @ (basis.T @ probes)
        estimate = _PROBE_FACTOR * np.sqrt((probes * probes).sum(axis=0)).max()
    # written so that a NaN estimate or an overflowed sketch fails the test
    if not estimate <= _SKETCH_TOL * size < math.inf:
        return None
    # Q^T W, not W^T Q: BLAS would pack the transposed level into a buffer
    # as large as the level array, and the process keeps it
    coeffs = basis.T @ w
    np.matmul(basis, (zmat @ coeffs.T).T, out=w)
    return float(estimate / size) if estimate > 0.0 else 0.0


def _run_grid(
    u0: np.ndarray,
    energies,
    zmat,
    dt: float,
    grid: int,
    orders: np.ndarray,
    alphas: list[float],
    store_idx: np.ndarray,
    *,
    term_tol: float,
    max_levels: int,
    fixed_levels: list[int] | None = None,
):
    """Sum Duhamel levels on a uniform grid for one or more norm indices.

    energies are the diagonal's semigroup energies (all zero at the limit).
    One time-major (grid + 1) x d array holds the current level and is
    overwritten level by level: first Y = Z W, through a time-compressed
    level (`_compressed_product`) or, when the rank-k sketch fails, in
    blocks of consecutive grid points sized to stay in cache; then the
    trapezoid recursion over rows 1..grid.  Each alpha in alphas is one leg
    with its own stopping test (or its entry of fixed_levels); the loop runs
    until every leg has stopped.  Returns, per leg, the totals of the
    store_idx rows at the leg's level count, its final-row norms and the
    count; and the probe estimate of every level (0 where a level used the
    full product).
    """
    step = dt / grid
    half = 0.5 * step
    decay = np.exp(-step * energies)
    w = _semigroup_profile(energies, np.linspace(0.0, dt, grid + 1), u0)
    width = max(1, _BLOCK_BYTES // (8 * len(u0)))
    # a grid of fewer than 4 k - 1 points gains too little from k columns
    omega = _sketch_columns(len(u0)) if 4 * _SKETCH_RANK <= grid + 2 else None
    # carry: the previous row's Y times half; work: scratch
    carry = np.empty(len(u0))
    work = np.empty(len(u0))
    total = w[store_idx]
    finals = [[norm_alpha_flat(w[-1], orders, a)] for a in alphas]
    counts = [None] * len(alphas)
    totals = [None] * len(alphas)
    residuals = []
    level = 0
    while True:
        for leg, norms in enumerate(finals):
            if counts[leg] is not None:
                continue
            if not math.isfinite(norms[-1]):
                raise ConvergenceError(
                    f"Duhamel level {level} has non-finite norm {norms[-1]}"
                )
            if fixed_levels is not None:
                if level >= fixed_levels[leg]:
                    counts[leg] = level
            elif norms[-1] < term_tol or level >= max_levels:
                counts[leg] = level
        if None not in counts:
            break
        # a leg that stops while another runs on keeps a copy of its totals
        for leg, count in enumerate(counts):
            if count == level:
                totals[leg] = total.copy()
        residual = None if omega is None else _compressed_product(w, zmat, omega)
        residuals.append(0.0 if residual is None else residual)
        if residual is None:
            for start in range(0, grid + 1, width):
                w[start:start + width] = (zmat @ w[start:start + width].T).T
        np.multiply(half, w[0], out=carry)
        w[0] = 0.0
        # Q_i = S_A(dt) [Q_{i-1} + (dt/2) Y_{i-1}] + (dt/2) Y_i over row i = Y_i
        for i in range(1, grid + 1):
            np.add(w[i - 1], carry, out=work)
            np.multiply(decay, work, out=work)
            np.multiply(half, w[i], out=carry)
            np.add(work, carry, out=w[i])
        total += w[store_idx]
        level += 1
        for leg, alpha in enumerate(alphas):
            if counts[leg] is None:
                finals[leg].append(norm_alpha_flat(w[-1], orders, alpha))
    legs = [
        (total if kept is None else kept, np.array(norms), count)
        for kept, norms, count in zip(totals, finals, counts)
    ]
    return legs, np.array(residuals)


def ovsyannikov_evolve(
    u_s: CorrelationVector,
    s: float,
    t: float,
    diag_op: OperatorHandle,
    pert_op: OperatorHandle,
    scale: ScaleSpec,
    bound: BoundModel,
    cfg: SeriesConfig,
) -> EvolutionResult:
    """Evolve u_s from time s to t by the majorant-controlled Duhamel series.

    diag_op is the diagonal handle A_eps that supplies the entrywise
    semigroup (at eps = 0 its energies vanish and the semigroup is the
    identity); pert_op is the index-losing perturbation.  Raises ValueError
    when diag_op is not a diagonal handle, HorizonError when (t, upsilon, q,
    alpha) violate the horizon geometry, MajorantViolation when a computed
    term beats its majorant beyond the configured slack or is not finite,
    and ConvergenceError when a Duhamel level has a non-finite norm or the
    half-grid Richardson disagreement exceeds the gate (or is NaN).
    """
    return _evolve_legs(u_s, s, t, diag_op, pert_op, scale, bound, [cfg])[0]


def _evolve_legs(
    u_s: CorrelationVector,
    s: float,
    t: float,
    diag_op: OperatorHandle,
    pert_op: OperatorHandle,
    scale: ScaleSpec,
    bound: BoundModel,
    cfgs: list[SeriesConfig],
) -> list[EvolutionResult]:
    """One `ovsyannikov_evolve` result per config, all summed on one level loop.

    The configs must share the grid, the stopping tolerances and the stored
    rows, as `SeriesConfig.for_horizon` clones do.  The level arrays do not
    depend on q or alpha, so the legs share the loop and its half-grid
    Richardson rerun, and each result is bit-identical to its own solve.
    """
    if t < s:
        raise HorizonError("need t >= s")
    if not (isinstance(diag_op, OperatorHandle) and diag_op.is_diagonal):
        raise ValueError(f"diag_op must be a diagonal OperatorHandle, not {diag_op!r}")
    for op in (diag_op, pert_op):
        if op.torus != u_s.torus or op.n_max != u_s.n_max:
            raise ValueError("operator truncation does not match the state")
    cfg = cfgs[0]
    bound.validate_on(scale.alpha_s, scale.alpha_star)
    dt = t - s
    runs = [_resolve_run(scale, bound, c, dt) for c in cfgs]
    orders = flat_orders(u_s.torus, u_s.n_max)
    u0 = u_s.flat()
    u0.setflags(write=False)
    initial_norm = norm_alpha_flat(u0, orders, scale.alpha_s)
    regular = [bound.regular(alpha) for _, _, _, alpha in runs]

    if dt == 0.0:
        results = []
        for c, (horizon, horizon_prime, q, alpha), reg in zip(cfgs, runs, regular):
            log_maj = _log_majorant(0, 0.0, q, horizon_prime, scale.nu, reg, initial_norm)
            maj0 = math.exp(log_maj) if initial_norm else 0.0
            results.append(EvolutionResult(
                times=np.array([s]),
                trajectory=u0[None, :],
                final_state=u_s,
                term_norms=np.array([initial_norm]),
                majorant_values=np.array([maj0]),
                majorant_sum_history=np.array([maj0]),
                horizon=horizon,
                horizon_prime=horizon_prime,
                q=q,
                alpha=alpha,
                upsilon=c.upsilon,
                quad_disagreement=0.0,
                quad_error=0.0,
                n_used=0,
                converged=True,
                initial_norm=initial_norm,
                scale=scale,
            ))
        return results

    for _, horizon_prime, q, _ in runs:
        if q * dt / horizon_prime >= 1.0:
            raise HorizonError("ratio test failed: q (t - s) / horizon_prime must be < 1")

    grid = cfg.time_grid_points
    count = min(cfg.trajectory_points, grid + 1)
    store_idx = np.unique(np.round(np.linspace(0, grid, count)).astype(int))
    energies = diag_op.semigroup_energies()
    zmat = pert_op.matrix()
    alphas = [alpha for _, _, _, alpha in runs]

    legs, residuals = _run_grid(
        u0, energies, zmat, dt, grid, orders, alphas, store_idx,
        term_tol=cfg.term_tol, max_levels=cfg.n_max,
    )
    # Richardson consistency: recompute each leg's number of levels at half grid
    half_legs, half_residuals = _run_grid(
        u0, energies, zmat, dt, grid // 2, orders, alphas, np.array([0, grid // 2]),
        term_tol=cfg.term_tol, max_levels=cfg.n_max,
        fixed_levels=[leg[2] for leg in legs],
    )
    times = s + (dt / grid) * store_idx
    results = []
    for c, (horizon, horizon_prime, q, alpha), reg, leg, half_leg in zip(
        cfgs, runs, regular, legs, half_legs
    ):
        total, final_norms, n_used = leg
        if not np.isfinite(total).all():
            raise ConvergenceError("the stored trajectory has non-finite entries")
        total.setflags(write=False)
        converged = bool(final_norms[-1] < c.term_tol) or initial_norm == 0.0

        # majorant audit of every computed term at the final time
        majorants = np.empty(n_used + 1)
        log_slack = math.log1p(c.majorant_slack)
        for n in range(n_used + 1):
            log_maj = _log_majorant(n, dt, q, horizon_prime, scale.nu, reg, initial_norm)
            majorants[n] = math.exp(log_maj) if log_maj > -math.inf else 0.0
            term = final_norms[n]
            # written so that a NaN or infinite term fails the audit
            if not (term <= 0.0 or math.log(term) <= log_maj + log_slack):
                raise MajorantViolation(
                    f"term {n} norm {term} exceeds majorant {majorants[n]} beyond slack"
                )

        disagreement = norm_alpha_flat(total[-1] - half_leg[0][-1], orders, alpha)
        if not (disagreement <= c.richardson_gate):
            raise ConvergenceError(
                f"half-grid disagreement {disagreement} exceeds gate {c.richardson_gate}"
            )

        maj_sum_hist = np.zeros(len(store_idx))
        for j, tau_abs in enumerate(times):
            acc = 0.0
            for n in range(n_used + 1):
                lm = _log_majorant(
                    n, tau_abs - s, q, horizon_prime, scale.nu, reg, initial_norm
                )
                acc += math.exp(lm) if lm > -math.inf else 0.0
            maj_sum_hist[j] = acc

        results.append(EvolutionResult(
            times=times,
            trajectory=total,
            final_state=CorrelationVector.from_flat(u_s.torus, u_s.n_max, total[-1]),
            term_norms=final_norms,
            majorant_values=majorants,
            majorant_sum_history=maj_sum_hist,
            horizon=horizon,
            horizon_prime=horizon_prime,
            q=q,
            alpha=alpha,
            upsilon=c.upsilon,
            quad_disagreement=disagreement,
            quad_error=disagreement / 3.0,
            n_used=n_used,
            converged=converged,
            initial_norm=initial_norm,
            scale=scale,
            compression_residual=float(
                max(residuals[:n_used].max(initial=0.0), half_residuals[:n_used].max(initial=0.0))
            ),
        ))
    return results


def oracle_evolve(
    u_s: CorrelationVector,
    dt: float,
    full_op: OperatorHandle,
    *,
    agreement_tol: float = 1e-9,
) -> CorrelationVector:
    """Sparse reference propagator for u' = (A + Z) u over duration dt.

    Two routes on the operator's sparse matrix, the action of the matrix
    exponential (Al-Mohy and Higham's truncated Taylor series) and an adaptive
    DOP853 integration at relative tolerance _ORACLE_RK_TOL, must agree to
    agreement_tol in relative sup norm; the exponential route is returned.
    A non-finite matrix or result raises ConvergenceError.
    """
    from scipy.integrate import solve_ivp
    from scipy.sparse.linalg import expm_multiply

    if dt < 0:
        raise ValueError("dt must be >= 0")
    if full_op.torus != u_s.torus or full_op.n_max != u_s.n_max:
        raise ValueError("operator truncation does not match the state")
    if dt == 0.0:
        return u_s
    mat = full_op.matrix()
    if not np.isfinite(mat.data).all():
        raise ConvergenceError("oracle matrix has non-finite entries")
    u0 = u_s.flat()
    via_expm = expm_multiply(mat * dt, u0)
    sol = solve_ivp(
        lambda _t, y: mat @ y, (0.0, dt), u0, method="DOP853",
        rtol=_ORACLE_RK_TOL, atol=_ORACLE_RK_TOL,
    )
    if not sol.success:
        raise ConvergenceError(f"adaptive oracle route failed: {sol.message}")
    via_rk = sol.y[:, -1]
    denom = max(float(np.abs(via_expm).max()), 1e-30)
    rel = float(np.abs(via_expm - via_rk).max()) / denom
    # written so that a non-finite result fails the gate
    if not (rel <= agreement_tol):
        raise ConvergenceError(f"oracle routes disagree at relative level {rel}")
    return CorrelationVector.from_flat(u_s.torus, u_s.n_max, via_expm)


@dataclass
class FlowReport:
    """Two-parameter flow property audit: direct versus composed evolution."""

    difference: float
    relative: float
    budget: float
    alpha_tau: float
    direct_final: CorrelationVector
    composed_final: CorrelationVector
    main: EvolutionResult | None = None


def flow_compose_check(
    u_s: CorrelationVector,
    s: float,
    tau: float,
    t: float,
    diag_op: OperatorHandle,
    pert_op: OperatorHandle,
    scale: ScaleSpec,
    bound: BoundModel,
    cfg: SeriesConfig,
    *,
    solve_main: bool = False,
) -> FlowReport:
    """Compare evolving s -> t directly against s -> tau -> t composed.

    The restart index is the localization index of tau; the flow hypothesis
    t < min(tau + horizon(alpha_tau, alpha_star), s + horizon(alpha_s,
    alpha_star)) is verified before any solve.  With solve_main the report
    also carries `main`, the s -> t solve at cfg itself, summed on the direct
    leg's level loop and equal to `ovsyannikov_evolve` with cfg bit for bit.
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

    direct_cfg = cfg.for_horizon(t - s)
    legs = [cfg, direct_cfg] if solve_main else [direct_cfg]
    *main, direct = _evolve_legs(u_s, s, t, diag_op, pert_op, scale, bound, legs)
    leg1 = ovsyannikov_evolve(u_s, s, tau, diag_op, pert_op, scale, bound, cfg.for_horizon(tau - s))
    leg2 = ovsyannikov_evolve(
        leg1.final_state, tau, t, diag_op, pert_op, replace(scale, alpha_s=alpha_tau), bound,
        cfg.for_horizon(t - tau),
    )
    orders = flat_orders(u_s.torus, u_s.n_max)
    final = direct.trajectory[-1]
    diff = norm_alpha_flat(final - leg2.trajectory[-1], orders, scale.alpha_star)
    denom = max(norm_alpha_flat(final, orders, scale.alpha_star), 1e-30)
    budget = direct.quad_error + leg1.quad_error + leg2.quad_error
    return FlowReport(
        difference=diff,
        relative=diff / denom,
        budget=budget,
        alpha_tau=alpha_tau,
        direct_final=direct.final_state,
        composed_final=leg2.final_state,
        main=main[0] if main else None,
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
) -> AprioriReport:
    """Check ||u(t)||_alpha <= C ||u_s||_{alpha_s} / (T' - q ups).

    C = nu e^{e nu T_sup N_sup - 1} T_sup with the suprema taken over the
    working index interval; the inequality is tested at every stored time.
    """
    grid = np.linspace(scale.alpha_s, scale.alpha_star, _APRIORI_GRID_POINTS + 1)
    regular_sup = max(bound.regular(x) for x in grid)
    horizon_sup = max(
        time_horizon(scale.alpha_s, b, bound, scale.nu) for b in grid[1:]
    )
    constant = scale.nu * math.exp(math.e * scale.nu * horizon_sup * regular_sup - 1.0) * horizon_sup
    denom = result.horizon_prime - result.q * result.upsilon
    if denom <= 0:
        raise HorizonError("a-priori bound needs horizon_prime - q upsilon > 0")
    prefactor = constant / denom
    rhs = prefactor * result.initial_norm
    lhs = result.norms_at(result.alpha)
    ratios = lhs / rhs if rhs != 0.0 else np.where(lhs == 0.0, 0.0, math.inf)
    # written so that a NaN side is a violation
    failed = ~(lhs <= rhs * (1.0 + 1e-12))
    violations = [
        {"time": time, "lhs": value, "rhs": rhs}
        for time, value in zip(result.times[failed].tolist(), lhs[failed].tolist())
    ]
    return AprioriReport(
        constant=constant,
        prefactor=prefactor,
        regular_sup=regular_sup,
        horizon_sup=horizon_sup,
        max_ratio=float(np.max(ratios, initial=0.0)),
        violations=violations,
    )
