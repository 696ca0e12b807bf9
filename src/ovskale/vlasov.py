"""Scaled operator family, measured convergence to the limit, and chaos.

The scaling replaces the competition kernel by eps a, the attraction kernel
by eps phi, and the birth intensity by lambda / eps, then renormalizes layer
by layer.  After renormalization the diagonal shrinks to -eps E^a and only
the death term of the perturbation still depends on eps; the crowding and
birth terms are shared by the whole family.  At eps = 0 the diagonal
vanishes, so its semigroup is the identity, and the death term carries the
bare kernel -phi with no damping.

Nothing here models the abstract convergence coefficients analytically;
every comparison is a measured operator or trajectory gap.  Product-form
states ride through the eps = 0 flow: starting the hierarchy from the
layerwise products of a density field keeps it in product form up to
truncation error, with the field evolving under the kinetic equation.

The products of a scalar density are constant on the orbits of the lattice
symmetries that fix both kernels, so a sweep given an orbit map and
`chaos_check` on a constant field solve on the orbit representatives.  The
semigroup gap is exact: the diagonal part multiplies each entry by its
energy, so the gap is a weighted max of the diagonal handle's own energies,
over the representatives on the orbit route.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import TYPE_CHECKING

import numpy as np

from .errors import ConfigError
from .lattice import KernelPair
from .operators import ModelParams, OperatorHandle, interaction_energies, split_handles
from .scale import BoundModel, ScaleSpec
from .series import EvolutionResult, SeriesConfig, ovsyannikov_evolve
from .states import CorrelationVector, flat_orders

if TYPE_CHECKING:
    from .kinetic import DensityField
    from .orbits import OrbitMap

# least ln(alpha_hi / alpha_lo) of a pair sampled by perturbation_gap
_LN_SPLIT_FLOOR = 0.8
# time step of the kinetic field that chaos_check compares with the hierarchy
_CHAOS_KINETIC_DT = 1e-3
# start time of every run of a sweep
_SWEEP_START = 0.0


@dataclass(frozen=True)
class EpsilonSweep:
    """A descending scaling sweep ending at the limit point 0.

    With orbits every solve runs on the orbit route; the initial state must
    then be constant on orbits (a product of a scalar density is).
    """

    epsilons: tuple
    initial: CorrelationVector
    scale: ScaleSpec
    config: SeriesConfig
    orbits: OrbitMap | None = None

    def __post_init__(self):
        eps = tuple(float(e) for e in self.epsilons)
        object.__setattr__(self, "epsilons", eps)
        if len(eps) < 2:
            raise ConfigError("sweep needs at least one positive value and the limit 0")
        if any(e < 0 for e in eps):
            raise ConfigError("sweep values must be >= 0")
        if list(eps) != sorted(eps, reverse=True):
            raise ConfigError("sweep values must be sorted descending")
        if eps.count(0.0) != 1 or eps[-1] != 0.0:
            raise ConfigError("the limit point 0 must appear exactly once, at the end")

    @property
    def positive(self) -> tuple:
        return self.epsilons[:-1]


def semigroup_gap(diag: OperatorHandle, t: float, alpha_lo: float, alpha_hi: float) -> float:
    """Norm of e^{-t eps E^a} - 1 from the alpha_lo space into the alpha_hi space.

    diag is a diagonal handle at eps.  The diagonal part multiplies each
    entry eta by -E(eta) (E = eps E^a, the handle's semigroup energies), so
    the semigroup minus the identity multiplies it by e^{-t E(eta)} - 1 and
    its induced norm is exactly max_eta |e^{-t E(eta)} - 1| (alpha_lo /
    alpha_hi)^{|eta|}, attained by the geometric profile alpha_lo^{|eta|}.
    E and |eta| are constant on orbits, so on the orbit route the max runs
    over the representatives.  expm1 keeps the factor's relative accuracy
    where t E is small (e^{-tE} - 1 would lose 1e-16 / (t E) of it).  The
    limit semigroup is the identity, so eps = 0 or t = 0 give exactly 0.
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    _check_index_pair(alpha_lo, alpha_hi)
    factor = np.abs(np.expm1(-t * diag.semigroup_energies()))
    orders = flat_orders(diag.torus, diag.n_max, diag.orbits)
    return float(np.max(factor * (alpha_lo / alpha_hi) ** orders, initial=0.0))


def semigroup_gap_intermediate(
    t: float, kernels: KernelPair, n_max: int, alpha_lo: float, alpha_hi: float,
    orbits: OrbitMap | None = None,
) -> float:
    """Per-epsilon slope bound t * sup over entries of E^a(eta) (lo/hi)^|eta|,
    over the representatives of orbits when given."""
    energies = interaction_energies(kernels, n_max, orbits)
    orders = flat_orders(kernels.torus, n_max, orbits)
    return t * float(np.max(energies * (alpha_lo / alpha_hi) ** orders))


def _check_index_pair(alpha_lo: float, alpha_hi: float) -> None:
    """Raise ValueError unless 1 < alpha_lo < alpha_hi, as the semigroup gaps need."""
    if not (1.0 < alpha_lo < alpha_hi):
        raise ValueError("need 1 < alpha_lo < alpha_hi")


def split_ceiling(alpha_star: float) -> float:
    """Largest alpha_lo of a pair that perturbation_gap samples under alpha_star.

    Raises ValueError when alpha_star <= 1.02 e^{_LN_SPLIT_FLOOR} leaves no
    room for a pair with ln(alpha_hi / alpha_lo) >= _LN_SPLIT_FLOOR.
    """
    lo_max = alpha_star / math.exp(_LN_SPLIT_FLOOR)
    if lo_max <= 1.02:
        raise ValueError(
            f"alpha_star {alpha_star} leaves no room for index splits with "
            f"ln(alpha_hi/alpha_lo) >= {_LN_SPLIT_FLOOR}"
        )
    return lo_max


def semigroup_gap_bound(t: float, kernels: KernelPair, alpha_lo: float, alpha_hi: float) -> float:
    """Closed-form slope bound 4 sup(a) / (e ln(hi/lo))^2 times t."""
    _check_index_pair(alpha_lo, alpha_hi)
    gap = math.log(alpha_hi / alpha_lo)
    return t * 4.0 * kernels.sup_a / (math.e * gap) ** 2


@dataclass
class ZGapReport:
    """Sampled perturbation gap against the two-pole profile in the index split."""

    epsilon: float
    deltas: np.ndarray
    gaps: np.ndarray
    fitted_pole: float
    residual: float
    max_gap: float

    @property
    def two_pole_ok(self) -> bool:
        return self.residual < 0.10


def perturbation_gap(
    z_eps: OperatorHandle,
    z_lim: OperatorHandle,
    samples: int,
    scale: ScaleSpec,
    rng,
) -> ZGapReport:
    """Measure the operator gap |Z_eps - Z_0| over sampled index pairs.

    z_eps and z_lim are perturbation handles on one truncation, z_lim at the
    limit eps = 0; the sweep that ran them passes them on, so neither matrix
    is built twice.

    Each sample draws a pair alpha_lo < alpha_hi and computes the exact
    induced norm of the difference between the weighted sup-norm balls,
    max over rows of alpha_hi^{-|row|} sum_cols |D| alpha_lo^{|col|}; the
    extremal state is the sign-matched geometric profile, so no state
    sampling is involved.  On the orbit route the rows are the
    representatives' and the columns the orbits, D_red[r, o] = sum_{c in o}
    D[r, c]: a row's sum is the same over its orbit, and the sum over an
    orbit's columns cannot cancel.  Birth and crowding do not depend on eps,
    and in the death entries 0 < e^{-eps E^phi} <= 1 and -phi <= w <= 0, so
    the entry of D at a row of order k and a column of order k + j is 0 for
    j = -1 and has the sign (-1)^j otherwise; every column of an orbit has
    one order, so |D_red[r, o]| = sum_{c in o} |D[r, c]|.  A one-parameter
    least squares fit against w(delta) = 1/delta + 1/delta^2 captures the
    expected two-pole shape; the reported residual is the relative rms
    misfit.

    Truncation caps the layer index, so the pole weights sup_r r^j x^r
    saturate unless ln(alpha_hi/alpha_lo) is large enough for their interior
    maximum to fit under the cap.  Pairs are therefore sampled with
    ln(alpha_hi/alpha_lo) >= _LN_SPLIT_FLOOR, the regime where the truncated
    operator can actually express the two-pole profile; `split_ceiling`
    checks that the window leaves room for such pairs.
    """
    if z_lim.params.epsilon != 0.0:
        raise ValueError("z_lim must be the perturbation at the limit epsilon = 0")
    if z_eps.orbits is not z_lim.orbits:
        raise ValueError("z_eps and z_lim must share one orbit map or both be full")
    if samples < 1:
        raise ValueError("samples must be >= 1")
    lo_max = split_ceiling(scale.alpha_star)
    ratio_min = math.exp(_LN_SPLIT_FLOOR)
    diff_abs = z_eps.matrix().abs_difference(z_lim.matrix())
    orders = flat_orders(z_eps.torus, z_eps.n_max, z_eps.orbits).astype(float)
    deltas = np.empty(samples)
    gaps = np.empty(samples)
    for i in range(samples):
        alpha_lo = float(rng.uniform(1.02, lo_max))
        alpha_hi = float(rng.uniform(alpha_lo * ratio_min, scale.alpha_star))
        col_scale = np.power(alpha_lo, orders)
        row_scale = np.power(alpha_hi, -orders)
        gaps[i] = float(np.max(row_scale * (diff_abs @ col_scale)))
        deltas[i] = alpha_hi - alpha_lo
    weights = 1.0 / deltas + 1.0 / deltas**2
    wsq = float(np.dot(weights, weights))
    pole = float(np.dot(gaps, weights) / wsq) if wsq > 0 else 0.0
    gsq = float(np.dot(gaps, gaps))
    residual = float(np.sqrt(np.sum((gaps - pole * weights) ** 2) / gsq)) if gsq > 0 else 0.0
    return ZGapReport(
        z_eps.params.epsilon, deltas, gaps, pole, residual, float(gaps.max(initial=0.0))
    )


@dataclass
class VlasovReport:
    """Sweep outcome: per-epsilon trajectory gaps against the limit run.

    operators maps each epsilon to the (diagonal, perturbation) handles its
    run used; the limit's diagonal handle has zero energies.
    """

    epsilons: np.ndarray
    sup_gaps: np.ndarray
    ratios: np.ndarray
    strictly_decreasing: bool
    times: np.ndarray
    limit_result: EvolutionResult
    results: dict
    operators: dict


def vlasov_limit(
    sweep: EpsilonSweep,
    kernels: KernelPair,
    params: ModelParams,
    bound: BoundModel,
) -> VlasovReport:
    """Run the full sweep and measure sup-in-time gaps to the limit flow.

    Every run shares the initial state, scale, and solver configuration, so
    stored time grids align and the gap sup is taken pointwise over them.
    The intermediate index does not depend on epsilon: the first run
    resolves it and the others take it from there.  Solver failures carry
    the offending epsilon in the message.
    """
    u0 = sweep.initial
    n_max = u0.n_max
    config = sweep.config
    t_end = _SWEEP_START + config.upsilon
    operators = {}
    results = {}
    for eps in sweep.epsilons:
        diag, pert = operators[eps] = split_handles(
            kernels, replace(params, epsilon=eps), n_max, sweep.orbits
        )
        try:
            results[eps] = ovsyannikov_evolve(
                u0, _SWEEP_START, t_end, diag, pert, sweep.scale, bound, config
            )
        except Exception as err:
            raise type(err)(f"epsilon={eps}: {err}") from err
        config = replace(config, alpha=results[eps].alpha)
    limit = results[0.0]
    sup_gaps = np.array([
        results[eps].rows.gap_norms(limit.rows, sweep.scale.alpha_star).max()
        for eps in sweep.positive
    ])
    with np.errstate(divide="ignore", invalid="ignore"):
        ratios = sup_gaps[1:] / sup_gaps[:-1]
    strict = bool(np.all(np.diff(sup_gaps) < 0.0))
    return VlasovReport(
        np.array(sweep.positive), sup_gaps, ratios, strict, limit.times, limit, results, operators
    )


@dataclass
class ChaosReport:
    """Distance of the evolved hierarchy from the product of the evolved field."""

    n_max: int
    refined_n_max: int
    layer_gaps: np.ndarray
    refined_layer_gaps: np.ndarray
    rho_final: np.ndarray
    hierarchy_result: EvolutionResult

    @property
    def gap(self) -> float:
        return float(self.layer_gaps[1:].max(initial=0.0))


def _product_layer_gaps(k: CorrelationVector, rho: np.ndarray, n_probe: int) -> np.ndarray:
    """Max absolute entry gap per layer against the product of the field."""
    product = CorrelationVector.product_form(k.torus, n_probe, rho)
    return np.array([
        np.abs(k_layer - p_layer).max(initial=0.0)
        for k_layer, p_layer in zip(k.layers, product.layers)
    ])


def chaos_check(
    rho0: DensityField,
    t: float,
    n_probe: int,
    kernels: KernelPair,
    params: ModelParams,
    scale: ScaleSpec,
    bound: BoundModel,
    cfg: SeriesConfig,
    n_max: int,
    *,
    refined_n_max: int | None = None,
) -> ChaosReport:
    """Evolve products through the limit hierarchy and compare to the field.

    The hierarchy starts from the layerwise products of rho0 and runs under
    the limit perturbation alone; the field runs under the kinetic equation.
    Both evolutions repeat at a refined truncation order to expose how much
    of the gap is truncation.  At t = 0 the gap vanishes by construction.  A
    constant field's hierarchy runs on the orbit route.
    """
    if not (0 <= n_probe <= n_max):
        raise ValueError("need 0 <= n_probe <= n_max")
    if refined_n_max is None:
        refined_n_max = min(2 * n_max, rho0.torus.site_count)
    if refined_n_max < n_max:
        raise ValueError("refined_n_max must be >= n_max")
    if t == 0.0:
        rho_t = rho0.rho.copy()
    else:
        from .kinetic import integrate_kinetic

        rho_t = integrate_kinetic(rho0, t, _CHAOS_KINETIC_DT, kernels, params).final

    def run(order: int):
        from .orbits import orbit_map, point_group

        u0 = CorrelationVector.product_form(rho0.torus, order, rho0.rho)
        # a constant field's products are constant on orbits
        orbits = orbit_map(rho0.torus, order, point_group(kernels)) if rho0.constant else None
        diag, pert = split_handles(kernels, replace(params, epsilon=0.0), order, orbits)
        return ovsyannikov_evolve(u0, 0.0, t, diag, pert, scale, bound, cfg)

    coarse = run(n_max)
    refined = run(refined_n_max)
    gaps = _product_layer_gaps(coarse.final_state, rho_t, n_probe)
    refined_gaps = _product_layer_gaps(refined.final_state, rho_t, n_probe)
    return ChaosReport(n_max, refined_n_max, gaps, refined_gaps, rho_t, coarse)
