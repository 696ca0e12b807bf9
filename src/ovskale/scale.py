"""Scale of weighted sup-norm spaces and the associated horizon calculus.

States live in an increasing family of Banach spaces indexed by alpha > 1,
with norm  ||k||_alpha = max_eta |k(eta)| alpha^{-|eta|}.  The perturbation
part of the generator loses one power of the gap between indices:

    ||Z u||_{alpha''} <= ( singular(alpha*) / (alpha'' - alpha')
                           + regular(alpha*) ) ||u||_{alpha'},

and the guaranteed evolution horizon between indices alpha < beta is

    time_horizon(alpha, beta) = (beta - alpha) / (e nu singular(beta)).

`BoundModel` packages the two coefficient functions; `model_bound` builds the
closed-form singular coefficient of the birth-and-death model,

    singular(beta) = ( avg_a beta^2 + beta m e^{avg_phi beta} + beta lambda ) / e,

with a configurable constant regular part (the regular coefficient is an
input of the method, not pinned by the model).
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import HorizonError
from .lattice import KernelPair
from .operators import ModelParams, OperatorHandle
from .states import CorrelationVector, flat_orders, random_correlation

# points of [lo, hi] at which BoundModel.validate_on checks the coefficients
_VALIDATE_SAMPLES = 64
# least distance of a sampled index pair from 1 and from each other
_MIN_INDEX_GAP = 1e-3
# points of (alpha_s, alpha_hi] that localization_index scans for its bracket
_LOCALIZATION_SCAN_POINTS = 4096
# least beta - alpha_s, relative to alpha_s, of optimal_terminal's scan in log(beta - alpha_s)
_LOG_SCAN_FLOOR = 1e-12
# halvings after which _bisect stops (optimal_terminal's brackets need at most about 91)
_MAX_HALVINGS = 200
# the largest exponent whose math.exp is a float
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


@dataclass(frozen=True)
class ScaleSpec:
    """The working interval of scale indices and the semigroup constant nu."""

    alpha_s: float
    alpha_star: float
    nu: float = 1.0

    def __post_init__(self):
        if not (1.0 < self.alpha_s < self.alpha_star):
            raise ValueError("need 1 < alpha_s < alpha_star")
        if not (self.nu >= 1.0):
            raise ValueError("nu must be >= 1")


@dataclass(frozen=True, eq=False)
class BoundModel:
    """Coefficients of the singular norm bound for the perturbation part.

    singular: coefficient of the 1/(alpha'' - alpha') pole, increasing in its
    argument.  regular: the bounded remainder coefficient, positive and
    nondecreasing on the working interval.
    """

    singular: Callable[[float], float]
    regular: Callable[[float], float]

    def validate_on(self, lo: float, hi: float) -> None:
        grid = np.linspace(lo, hi, _VALIDATE_SAMPLES)
        sing = np.array([self.singular(x) for x in grid])
        reg = np.array([self.regular(x) for x in grid])
        if not (np.all(sing > 0) and np.all(reg > 0)):
            raise ValueError("bound coefficients must be positive on the interval")
        if np.any(np.diff(sing) < -1e-12 * np.abs(sing[:-1])) or np.any(
            np.diff(reg) < -1e-12 * np.abs(reg[:-1])
        ):
            raise ValueError("bound coefficients must be nondecreasing on the interval")


# Frozen regular-part constant: envelope-fitted once on the reference
# 8-site, order-3 instance, then pinned for every stock configuration.
DEFAULT_REGULAR_CONSTANT = 0.05


def model_bound(
    kernels: KernelPair, params: ModelParams, regular_constant: float = DEFAULT_REGULAR_CONSTANT
):
    """Closed-form bound coefficients of the birth-and-death model."""
    if not (regular_constant > 0):
        raise ValueError("regular_constant must be positive")
    avg_a = kernels.avg_a
    avg_phi = kernels.avg_phi
    m_rate = params.death_amplitude
    lam = params.birth_intensity

    def singular(beta: float) -> float:
        beta = float(beta)  # a numpy scalar would warn where a product overflows
        # +inf past the float range: the horizon there is 0
        growth = math.exp(avg_phi * beta) if avg_phi * beta <= _LOG_FLOAT_MAX else math.inf
        return (avg_a * beta * beta + beta * m_rate * growth + beta * lam) / math.e

    def regular(beta: float) -> float:
        return regular_constant

    return BoundModel(singular, regular)


def norm_alpha(k: CorrelationVector, alpha: float) -> float:
    """Weighted sup norm max_eta |k(eta)| alpha^{-|eta|}; needs alpha > 1."""
    return norm_alpha_flat(k.flat(), flat_orders(k.torus, k.n_max), alpha)


def norm_alpha_flat(vec: np.ndarray, orders: np.ndarray, alpha: float):
    """Weighted sup norm over the last axis of flat states.

    A single flat vector gives a float; a stack of them (rows) gives one norm
    per row.  The weight alpha^{-|eta|} is constant on each run of equal
    orders and rounding is monotone, so the max of |x| over a run times the
    run's weight is the max of the weighted entries, bit for bit.
    """
    if not (alpha > 1.0):
        raise ValueError("norm index alpha must exceed 1")
    if vec.shape[-1] == 0:
        return 0.0 if vec.ndim == 1 else np.zeros(vec.shape[:-1])
    starts = layer_starts(orders)
    norms = weighted_sup(layer_sups(vec, starts), orders[starts], alpha)
    return float(norms) if vec.ndim == 1 else norms


def layer_starts(orders: np.ndarray) -> np.ndarray:
    """Index of the first entry of each run of equal orders."""
    return np.concatenate(([0], np.flatnonzero(orders[1:] != orders[:-1]) + 1))


def layer_sups(vec: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """max |x| over each run of the last axis, run i starting at starts[i].

    Taken as |max(max x, -min x)|: no |x| temporary, and a NaN carries.  The
    value is at least 0, so the runs of a split state combine by np.maximum
    into the same bits.
    """
    return np.abs(np.maximum(
        np.maximum.reduceat(vec, starts, axis=-1), -np.minimum.reduceat(vec, starts, axis=-1)
    ))


def weighted_sup(sups: np.ndarray, run_orders: np.ndarray, alpha: float):
    """max over runs of sup alpha^{-order}: the scale norm from `layer_sups`."""
    if not (alpha > 1.0):
        raise ValueError("norm index alpha must exceed 1")
    return (sups * alpha ** (-run_orders.astype(float))).max(axis=-1)


def time_horizon(alpha: float, beta: float, bound: BoundModel, nu: float = 1.0) -> float:
    """Guaranteed evolution horizon from index alpha up to index beta."""
    if not (1.0 < alpha < beta):
        raise ValueError("need 1 < alpha < beta")
    if not (nu >= 1.0):
        raise ValueError("nu must be >= 1")
    sing = bound.singular(beta)
    if not (sing > 0):
        raise ValueError("singular coefficient must be positive")
    return (beta - alpha) / (math.e * nu * sing)


def _bisect(below: Callable[[float], bool], lo: float, hi: float, width: float = 0.0):
    """Halve [lo, hi] onto the midpoint, lo where below(mid), else hi, until the
    width is reached, the ends are adjacent floats or _MAX_HALVINGS have run."""
    for _ in range(_MAX_HALVINGS):
        mid = 0.5 * (lo + hi)
        if hi - lo <= width or not lo < mid < hi:
            break
        lo, hi = (mid, hi) if below(mid) else (lo, mid)
    return lo, hi


@dataclass
class HorizonOptimum:
    """Result of maximizing the horizon over the terminal index."""

    beta: float
    horizon: float
    unimodal: bool
    at_boundary: bool
    local_max_count: int
    scan_betas: np.ndarray = field(repr=False)
    scan_values: np.ndarray = field(repr=False)


def _horizon_slope(alpha: float, beta: float, bound: BoundModel) -> float:
    """singular(beta) - (beta - alpha) singular'(beta), of the sign of d/dbeta time_horizon;
    singular' from central differences at h = 1e-4 beta and h / 2, extrapolated (O(h^4))."""
    h = 1e-4 * beta
    wide = (bound.singular(beta + h) - bound.singular(beta - h)) / (2.0 * h)
    narrow = (bound.singular(beta + 0.5 * h) - bound.singular(beta - 0.5 * h)) / h
    return bound.singular(beta) - (beta - alpha) * (4.0 * narrow - wide) / 3.0


def optimal_terminal(
    alpha_s: float,
    bound: BoundModel,
    search_hi: float,
    nu: float = 1.0,
    scan_points: int = 1000,
) -> HorizonOptimum:
    """Maximize beta -> time_horizon(alpha_s, beta) over (alpha_s, search_hi].

    A scan brackets the maximum and bisection of the sign of the slope
    (`_horizon_slope`) pins beta within it; reports whether the scan saw a
    single strict local maximum and whether the optimum sits on the search
    boundary.  The scan is uniform in beta; when its best point is its first,
    it has not bracketed the maximum (a search_hi far past the peak puts it
    before the first point), and the scan is redone uniformly in
    log(beta - alpha_s), from _LOG_SCAN_FLOOR alpha_s at most.
    """
    if not (search_hi > alpha_s):
        raise ValueError("search_hi must exceed alpha_s")
    if scan_points < 3:
        raise ValueError("scan_points must be >= 3")
    betas = np.linspace(alpha_s, search_hi, scan_points + 1)[1:]
    values = np.array([time_horizon(alpha_s, b, bound, nu) for b in betas])
    if np.argmax(values) == 0:
        floor = min(_LOG_SCAN_FLOOR * alpha_s, float(betas[0]) - alpha_s)
        betas = alpha_s + np.geomspace(floor, search_hi - alpha_s, scan_points)
        values = np.array([time_horizon(alpha_s, b, bound, nu) for b in betas])
    inner = values[1:-1]
    peaks = np.flatnonzero((inner > values[:-2]) & (inner > values[2:]))
    best = int(np.argmax(values))
    at_boundary = best == len(betas) - 1
    beta, horizon = float(betas[-1]), float(values[-1])
    if not at_boundary:
        lo = float(betas[best - 1]) if best > 0 else alpha_s
        # the maximum is flat (a relative shift of 1e-8 in beta moves the
        # horizon by a rounding error), so beta is pinned where the slope
        # changes sign, by bisection of the scan's bracket down to adjacent floats
        beta, _ = _bisect(
            lambda mid: _horizon_slope(alpha_s, mid, bound) > 0.0, lo, float(betas[best + 1])
        )
        horizon = time_horizon(alpha_s, beta, bound, nu)
    return HorizonOptimum(
        beta=beta,
        horizon=horizon,
        # a scan that peaks on its boundary may have seen no interior peak
        unimodal=len(peaks) <= 1 if at_boundary else len(peaks) == 1,
        at_boundary=at_boundary,
        local_max_count=len(peaks),
        scan_betas=betas,
        scan_values=values,
    )


def localization_index(
    t: float,
    s: float,
    alpha_s: float,
    bound: BoundModel,
    alpha_hi: float,
    nu: float = 1.0,
) -> float:
    """Smallest index alpha with time_horizon(alpha_s, alpha) >= t - s.

    Monotone scan over (alpha_s, alpha_hi] to bracket the first crossing, then
    bisection on the horizon residual down to an index width of 1e-12.  The
    scan is uniform in alpha; when it finds no crossing (an alpha_hi far past
    the crossing leaves no point near alpha_s), it is redone uniformly in
    log(alpha - alpha_s), from _LOG_SCAN_FLOOR alpha_s at most, as in
    `optimal_terminal`.
    """
    dt = t - s
    if dt < 0:
        raise ValueError("need t >= s")
    if dt == 0.0:
        return alpha_s
    grid = np.linspace(alpha_s, alpha_hi, _LOCALIZATION_SCAN_POINTS + 1)[1:]
    values = np.array([time_horizon(alpha_s, b, bound, nu) for b in grid])
    hit = np.nonzero(values >= dt)[0]
    if hit.size == 0:
        floor = min(_LOG_SCAN_FLOOR * alpha_s, float(grid[0]) - alpha_s)
        grid = alpha_s + np.geomspace(floor, alpha_hi - alpha_s, _LOCALIZATION_SCAN_POINTS)
        values = np.array([time_horizon(alpha_s, b, bound, nu) for b in grid])
        hit = np.nonzero(values >= dt)[0]
    if hit.size == 0:
        raise HorizonError(
            f"no index in (alpha_s, {alpha_hi}] reaches horizon {dt}; max is {values.max()}"
        )
    first = int(hit[0])
    lo = alpha_s if first == 0 else float(grid[first - 1])
    # a NaN horizon counts as short of dt
    _, hi = _bisect(
        lambda mid: not time_horizon(alpha_s, mid, bound, nu) >= dt, lo, float(grid[first]), 1e-12
    )
    return hi


@dataclass
class SingularBoundReport:
    """Outcome of sampling the singular norm bound on random states."""

    samples: int
    violations: list
    max_ratio: float
    min_slack: float
    envelope_regular: float
    fitted_singular: float
    fitted_regular: float

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_singular_bound(
    op: OperatorHandle,
    scale: ScaleSpec,
    bound: BoundModel,
    samples: int,
    rng,
) -> SingularBoundReport:
    """Sample ||op u||_{alpha''} / ||u||_{alpha'} against the singular bound.

    Index pairs are drawn with alpha' < alpha'' <= alpha_star; states have
    layer entries scaled like alpha'^{|eta|}.  Reports violations of
    ratio <= singular(alpha_star)/(alpha''-alpha') + regular(alpha_star),
    the worst slack, the smallest constant regular part that would cover all
    samples given the model singular part, and a least-squares fit of
    (singular, regular) to the sampled ratios.
    """
    if samples < 2:
        raise ValueError("need at least 2 samples")
    a_star = scale.alpha_star
    if not (a_star - _MIN_INDEX_GAP >= 1.0 + _MIN_INDEX_GAP):
        raise ValueError(f"alpha_star {a_star} leaves no room for index pairs")
    sing_star = bound.singular(a_star)
    reg_star = bound.regular(a_star)
    torus = op.torus
    ratios = np.empty(samples)
    gaps = np.empty(samples)
    violations = []
    for i in range(samples):
        a_prime = rng.uniform(1.0 + _MIN_INDEX_GAP, a_star - _MIN_INDEX_GAP)
        a_second = rng.uniform(a_prime + _MIN_INDEX_GAP, a_star)
        u = random_correlation(torus, op.n_max, a_prime, rng)
        nu_in = norm_alpha(u, a_prime)
        out = op.apply(u)
        ratio = norm_alpha(out, a_second) / nu_in
        gap = a_second - a_prime
        allowed = sing_star / gap + reg_star
        ratios[i] = ratio
        gaps[i] = gap
        # written so that a NaN ratio or bound is a violation
        if not (ratio <= allowed * (1.0 + 1e-12)):
            violations.append(
                {"alpha_prime": a_prime, "alpha_second": a_second, "ratio": ratio, "allowed": allowed}
            )
    design = np.column_stack([1.0 / gaps, np.ones_like(gaps)])
    coef, *_ = np.linalg.lstsq(design, ratios, rcond=None)
    return SingularBoundReport(
        samples=samples,
        violations=violations,
        max_ratio=float(ratios.max()),
        # numpy reductions, so that a NaN sample shows in the report
        min_slack=float(np.min(sing_star / gaps + reg_star - ratios)),
        envelope_regular=float(np.max(ratios - sing_star / gaps)),
        fitted_singular=float(coef[0]),
        fitted_regular=float(coef[1]),
    )
