"""Scale-indexed evolution by the Ovsyannikov series, with oracle and checks.

The solver realizes the abstract Cauchy problem u' = (A + Z)u on the scale of
weighted sup-norm spaces: A generates a contraction semigroup entry by entry,
Z loses one power of the index gap.  The solution is summed as Duhamel terms

    W_0(tau) = S_A(tau - s) u_s,
    W_n(tau) = int_s^tau S_A(tau - r) Z W_{n-1}(r) dr,

each on one shared uniform grid by the exact-semigroup trapezoid recursion

    Q_{i+1} = S_A(dt) [ Q_i + (dt/2) Y_i ] + (dt/2) Y_{i+1},   Y = Z W_{n-1}.

A is given by its diagonal handle (at the scaling limit eps = 0 its energies
vanish).  S_A reaches entry x only through its energy E_x, so a level is held
factored, W = sum_m L_m R_m^T: L_m is the recursion of a few time columns run
at Chebyshev node energies e_m, R_m the Lagrange weights l_m(E) times the
state columns, and each level is compressed to at most _COMPRESSION_RANK
(failing that _MAX_RANK) columns under a deterministic bound before Z
multiplies it.  An energy spread too wide for _MAX_NODES nodes takes the
full-product route instead.  Every
computed term is compared against its majorant

    nu ||u_s||_{alpha_s} ( q n / (e T') + nu N(alpha) )^n (t-s)^n / n!

and the run is re-done at half resolution for a Richardson consistency gate.
The stored rows are held as the terms that sum to them (`StoredRows`): the
result keeps each row's per-layer max |x|, which every scale norm of the
rows reads, and `EvolutionResult.stored_rows` materialises them.  Handles on
the orbit route (see `operators.OperatorHandle`) run the same loop on a
state's entries at the orbit representatives; only the final state is
expanded to every entry.  `oracle_evolve` is the independent sparse-propagator
reference (the action of the matrix exponential and an adaptive Runge-Kutta
integration, which must agree); `flow_compose_check` and
`apriori_estimate_check` audit the two-parameter flow property and the
closed-form a-priori bound.  Each solve, the flow check's legs included, is
one `ovsyannikov_evolve` call with its own level loop.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from . import compiled
from .errors import ConvergenceError, DimensionCapError, HorizonError, MajorantViolation
from .lattice import unique_inverse
from .operators import OperatorHandle
from .scale import (
    _LOG_FLOAT_MAX,
    BoundModel,
    ScaleSpec,
    layer_starts,
    layer_sups,
    localization_index,
    norm_alpha_flat,
    time_horizon,
    weighted_sup,
)
from .states import CorrelationVector, flat_orders

if TYPE_CHECKING:
    from .orbits import OrbitMap


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
    """Stored rows, per-term records, and horizon metadata of one solver run.

    rows holds the stored states, one row per time: the flat states on the
    full route, their entries at the orbit representatives on the orbit
    route (orbits given); final_state is the last row as a full vector.
    """

    times: np.ndarray
    rows: StoredRows
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
    # over both grids: the largest bound on what a level's time basis misses,
    # relative to its largest final entry (0: nothing missed); the nodes (0 on
    # the full-product route) and their interpolation bound; the levels that
    # no rank up to _COMPRESSION_RANK fitted
    compression_residual: float = 0.0
    interpolation_nodes: int = 0
    interpolation_bound: float = 0.0
    exact_rank_levels: int = 0
    orbits: OrbitMap | None = None

    @property
    def orders(self) -> np.ndarray:
        """Layer order of each column of the stored rows."""
        return self.rows.orders

    def norms_at(self, alpha: float) -> np.ndarray:
        """The scale norm of every stored row, read from their per-layer max |x|."""
        return self.rows.norms(alpha)

    def stored_rows(self) -> np.ndarray:
        """The stored rows as a new (times, columns) array."""
        return self.rows.array()

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
            "interpolation_nodes": self.interpolation_nodes,
            "interpolation_bound": self.interpolation_bound,
            "exact_rank_levels": self.exact_rank_levels,
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
    # the edges alternate: each run of good indices starts at one and stops
    # before the next; argmax takes the first of the widest runs
    edges = np.flatnonzero(np.diff(good, prepend=False, append=False))
    starts, stops = edges[0::2], edges[1::2]
    best = int(np.argmax(stops - starts))
    return float(0.5 * (grid[starts[best]] + grid[stops[best] - 1]))


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


# bytes of one block of states that a level pass forms at once: small enough
# to stay in L2
_BLOCK_BYTES = 3 << 19
# a factored level W = L R^T keeps as its time basis Q the fewest leading
# left singular vectors of L for which
# max_i ||row i of (I - Q Q^T) L|| max_x ||row x of R||, a deterministic bound
# on every entry that Q misses, is within _COMPRESSION_TOL of the largest
# entry of the final row: at most _COMPRESSION_RANK of them or, on a level
# that no such rank fits, at most _MAX_RANK (every one, its exact rank, if
# fewer), the most the size check counts
_COMPRESSION_RANK = 8
_MAX_RANK = 2 * _COMPRESSION_RANK
_COMPRESSION_TOL = 1e-14
# node energies: as few Chebyshev nodes as bring the a-priori bound
# 2 (spread dt / 4)^M / M! on the relative error of interpolating e^{-tau E},
# tau <= dt, within _INTERP_TOL; past _MAX_NODES the full-product route
_INTERP_TOL = 1e-15
_MAX_NODES = 16
# tolerance (relative and absolute) of the oracle's adaptive DOP853 route,
# and its step budget
_ORACLE_RK_TOL = 1e-12
_ORACLE_RK_MAX_STEPS = 100_000
# relative sup-norm gap within which the oracle's two routes must agree
_ORACLE_AGREEMENT_TOL = 1e-9
# intervals of the index grid over which the a-priori constant takes its suprema
_APRIORI_GRID_POINTS = 512


def _node_count(spread: float):
    """Fewest nodes for energies spread over spread / dt and their bound; None past _MAX_NODES."""
    bound = 2.0
    for count in range(1, _MAX_NODES + 1):
        bound *= spread / (4.0 * count)
        if bound <= _INTERP_TOL:
            return count, bound
    return None


def level_loop_bytes(dim: int, grid: int, spread: float, stored: int) -> int:
    """Bytes a solve's level loop holds besides its stored rows' array and Z.

    spread bounds (max E - min E) dt.  The factored route holds a column over
    the state per node and, at the largest rank a level may keep
    (_MAX_RANK), P, F, Z F, and the node recursions with their SVD; and the
    factors of the stored rows, a column over the state and the stored rows
    each (`StoredRows`): at most as much as the stored rows' array, and the
    level that tips them into a fold.
    The full route holds one (grid + 1) x d array and three columns.
    """
    fit = _node_count(spread)
    if fit is None:
        return 8 * (grid + 4) * dim + 2 * _BLOCK_BYTES
    factor = dim + stored
    held = stored * dim + _MAX_RANK * factor
    columns = fit[0] + 4 * _MAX_RANK + 4
    return 8 * (columns * dim + held + 4 * fit[0] * _MAX_RANK * (grid + 1)) + 2 * _BLOCK_BYTES


def _energy_nodes(energies: np.ndarray, dt: float):
    """Chebyshev node energies, their Lagrange weights at every energy, (nodes, d), and bound."""
    lo, hi = float(energies.min()), float(energies.max())
    fit = _node_count((hi - lo) * dt)
    if fit is None:
        return None
    count, bound = fit
    angles = (2.0 * np.arange(count) + 1.0) * (math.pi / (2 * count))
    nodes = 0.5 * (lo + hi) + 0.5 * (hi - lo) * np.cos(angles)
    weights = np.ones((count, len(energies)))
    for m, j in itertools.permutations(range(count), 2):
        weights[m] *= (energies - nodes[j]) / (nodes[m] - nodes[j])
    return nodes, weights, bound


def _trapezoid(y: np.ndarray, energies, step: float) -> np.ndarray:
    """The exact-semigroup trapezoid recursion along the first axis of y, in place.

    Q_i = e^{-step E} [Q_{i-1} + (step/2) y_{i-1}] + (step/2) y_i from Q_0 = 0,
    with E broadcast against a row, is the prefix sum over j <= i of
    e^{-(i-j) step E} (step/2) (e^{-step E} y_{j-1} + y_j), taken by doubling
    its reach log2(rows) times.
    """
    y[1:] += np.exp(-step * energies) * y[:-1]
    y[0] = 0.0
    y *= 0.5 * step
    shift = 1
    while shift < len(y):
        y[shift:] += np.exp(-shift * step * energies) * y[:-shift]
        shift *= 2
    return y


def _right_product(weights: np.ndarray, right: np.ndarray, coeffs: np.ndarray) -> np.ndarray:
    """coeffs^T R^T for R^T[(m, r), x] = weights[m, x] right[r, x].

    A block of R^T at a time, each an eighth of _BLOCK_BYTES: small enough
    that forming it and multiplying it stay in cache.
    """
    width = max(1, _BLOCK_BYTES // (64 * len(coeffs)))
    out = np.empty((coeffs.shape[1], right.shape[1]))
    for lo in range(0, right.shape[1], width):
        block = weights[:, None, lo:lo + width] * right[None, :, lo:lo + width]
        out[:, lo:lo + width] = coeffs.T @ block.reshape(len(coeffs), -1)
    return out


def _compress(left: np.ndarray, weights: np.ndarray, right: np.ndarray, weight_norms):
    """Time basis Q of the level W = L R^T, R^T[(m, r), x] = weights[m, x] right[r, x].

    Returns Q, F^T = Q^T W, the missed part's bound relative to the largest
    final entry (0 at exact rank) and whether no rank up to
    _COMPRESSION_RANK fitted.  Raises DimensionCapError for a level that
    needs more than _MAX_RANK columns.
    """
    basis, values, coords = np.linalg.svd(left, full_matrices=False)
    # a zero row of L (row 0 past level 0) stays exactly zero
    basis[~left.any(axis=1)] = 0.0
    top = values[0] if values[0] > 0.0 else 1.0
    with np.errstate(over="ignore", invalid="ignore"):
        right_norm = (weight_norms * np.sqrt(np.einsum("rx,rx->x", right, right))).max()
        # largest row norm of the part of L past rank r, r = 1 .. all (0)
        tails = np.cumsum(((basis * (values / top)) ** 2)[:, ::-1], axis=1)[:, ::-1]
        tails = np.append(top * np.sqrt(tails.max(axis=0)[1:]) * right_norm, 0.0)
    for cap in (_COMPRESSION_RANK, _MAX_RANK):
        cols = min(cap, len(values))
        factor = _right_product(weights, right, coords[:cols].T * values[:cols])
        with np.errstate(over="ignore", invalid="ignore"):
            size = np.abs(basis[-1, :cols] @ factor).max()
        if not size < math.inf:
            raise ConvergenceError(f"a Duhamel level has non-finite final entries ({size})")
        # written so that a NaN bound fails the test
        passed = np.flatnonzero(tails[:cols] <= _COMPRESSION_TOL * size)
        if len(passed):
            rank = passed[0] + 1
            residual = float(tails[rank - 1] / size) if tails[rank - 1] > 0.0 else 0.0
            # a view of fewer rows would keep the dropped ones alive with the stored rows
            kept = factor if rank == len(factor) else factor[:rank].copy()
            return basis[:, :rank], kept, residual, cap > _COMPRESSION_RANK
    raise DimensionCapError(
        f"a Duhamel level needs more than {_MAX_RANK} time columns, the most the size check counts"
    )


class StoredRows:
    """The stored rows of one solve, held as the terms that sum to them.

    Row i is the base row plus, level by level in level order, row i of each
    factored level's left @ right.  The base is the folded array where there
    is one, else the level-0 rows e^{-tau_i E} u0, recomputed when read.  A
    read forms a block of states at a time, the base then each level's
    product over the block; a fold writes the same blocks into the array,
    so that every read gives the same bits.

    A level loop adds each level's factors, and they fold into the array
    once they would take more room than it.  `sups`, each row's max |x|
    over each run of equal orders, and `final`, the last row, come from one
    pass over the state.
    """

    def __init__(self, tau: np.ndarray, energies, u0: np.ndarray, orders: np.ndarray):
        self.tau, self.energies, self.u0, self.orders = tau, energies, u0, orders
        self.dim = len(u0)
        self.folded: np.ndarray | None = None
        self.factors: list[tuple[np.ndarray, np.ndarray]] = []

    def _width(self) -> int:
        return max(1, _BLOCK_BYTES // (8 * len(self.tau)))

    def _blocks(self, width: int):
        """(lo, rows[:, lo:lo + width]) over the state, left to right.

        The blocks share one buffer: each is valid until the next is made.
        """
        buffer = np.empty(len(self.tau) * min(width, self.dim))
        for lo in range(0, self.dim, width):
            hi = min(lo + width, self.dim)
            block = buffer[:len(self.tau) * (hi - lo)].reshape(len(self.tau), hi - lo)
            if self.folded is None:
                np.multiply(-self.tau[:, None], self.energies[None, lo:hi], out=block)
                np.exp(block, out=block)
                block *= self.u0[lo:hi]
            else:
                block[...] = self.folded[:, lo:hi]
            for left, right in self.factors:
                block += left @ right[:, lo:hi]
            yield lo, block

    def _fill(self, out: np.ndarray) -> np.ndarray:
        # a block is read before its columns of out are written, so out may be the base
        for lo, block in self._blocks(self._width()):
            out[:, lo:lo + block.shape[1]] = block
        return out

    def array(self) -> np.ndarray:
        """The stored rows as a new array."""
        return self._fill(np.empty((len(self.tau), self.dim)))

    def fold(self) -> None:
        """Sum the factors into the folded array, made from the level-0 rows if there is none."""
        if self.folded is None or self.factors:
            out = self.folded if self.folded is not None else np.empty((len(self.tau), self.dim))
            self.folded = self._fill(out)
            self.factors = []
            self.u0 = self.energies = None

    def add(self, left: np.ndarray, right: np.ndarray) -> None:
        """Hold one level's stored rows left @ right; fold once the factors outgrow the array."""
        self.factors.append((left, right))
        # a factor column holds an entry per state and per stored row
        held = sum(len(rt) for _, rt in self.factors)
        if held * (self.dim + len(self.tau)) > len(self.tau) * self.dim:
            self.fold()

    def _layer_sups(self, blocks) -> np.ndarray:
        """Per-layer max |x| of each row from (lo, block) pairs that cover the state in order."""
        starts = layer_starts(self.orders)
        sups = np.zeros((len(self.tau), len(starts)))
        for lo, block in blocks:
            first = np.searchsorted(starts, lo, side="right") - 1
            last = np.searchsorted(starts, lo + block.shape[1])
            part = sups[:, first:last]
            np.maximum(part, layer_sups(block, np.maximum(starts[first:last] - lo, 0)), out=part)
        return sups

    @cached_property
    def _scan(self) -> tuple[np.ndarray, np.ndarray]:
        if self.folded is not None and not self.factors:
            sups, final = self._layer_sups([(0, self.folded)]), self.folded[-1]
        else:
            final = np.empty(self.dim)

            def blocks():
                for lo, block in self._blocks(self._width()):
                    final[lo:lo + block.shape[1]] = block[-1]
                    yield lo, block

            sups = self._layer_sups(blocks())
        # the final state's layers are views of it
        final.setflags(write=False)
        return sups, final

    @property
    def sups(self) -> np.ndarray:
        """Each row's max |x| over each run of equal orders, (rows, runs)."""
        return self._scan[0]

    @property
    def final(self) -> np.ndarray:
        """The last row, read-only."""
        return self._scan[1]

    def norms(self, alpha: float) -> np.ndarray:
        """The scale norm of every row."""
        return weighted_sup(self.sups, self.orders[layer_starts(self.orders)], alpha)

    def gap_norms(self, other: "StoredRows", alpha: float) -> np.ndarray:
        """The scale norm of every row of self - other, one block of states at a time."""
        width = self._width()
        sups = self._layer_sups(
            (lo, block - theirs)
            for (lo, block), (_, theirs) in zip(self._blocks(width), other._blocks(width))
        )
        return weighted_sup(sups, self.orders[layer_starts(self.orders)], alpha)


def _factored_levels(
    u0, energies, zmat, dt, grid, store_idx, stored, nodes, weights, residuals, exact
):
    """Duhamel levels as W = sum_m L_m R_m^T; yields each level's final row.

    L_m is the recursion of the previous level's time basis at node energy
    e_m and R_m = l_m(E) P, P = Z F; level 0 (the base of stored) feeds
    level 1 as L_m = e^{-tau e_m}, R_m = l_m(E) u0.  Later levels' stored
    rows are added to stored as factors; each compressed level appends its
    residual bound and whether no rank up to _COMPRESSION_RANK fitted.
    Arrays over the state are state-minor.
    """
    step = dt / grid
    tau = np.linspace(0.0, dt, grid + 1)
    yield np.exp(-dt * energies) * u0
    weight_norms = np.sqrt(np.einsum("mx,mx->x", weights, weights))
    left = np.exp(-np.outer(tau, nodes))
    right = u0[None, :]
    for level in itertools.count():
        basis, factor, residual, kept = _compress(left, weights, right, weight_norms)
        residuals.append(residual)
        exact.append(kept)
        if level:
            stored.add(basis[store_idx], factor)
            yield basis[-1] @ factor
        right = np.ascontiguousarray((zmat @ factor.T).T)
        # P's rows scaled to unit size and Q's columns by as much, so that
        # the singular vectors of L weigh each direction by its share of W
        scale = np.abs(right).max(axis=1)
        if not np.isfinite(scale).all():
            raise ConvergenceError(f"Duhamel level {level + 1} has non-finite entries")
        scale[scale == 0.0] = 1.0
        right /= scale[:, None]
        rows = np.repeat((basis * scale)[:, None, :], len(nodes), axis=1)
        left = _trapezoid(rows, nodes[:, None], step).reshape(grid + 1, -1)


def _full_levels(u0, energies, zmat, dt, grid, store_idx, total):
    """Duhamel levels as one (grid + 1) x d array; yields each level's final row.

    The array is overwritten level by level: Y = Z W on blocks of grid
    points sized for cache, then the trapezoid recursion row by row; each
    level's stored rows are added to total.
    """
    half = 0.5 * dt / grid
    decay = np.exp(-(dt / grid) * energies)
    w = np.outer(-np.linspace(0.0, dt, grid + 1), energies)
    np.exp(w, out=w)
    w *= u0
    width = max(1, _BLOCK_BYTES // (8 * len(u0)))
    # carry: the previous row's Y times half; work: scratch
    carry = np.empty(len(u0))
    work = np.empty(len(u0))
    yield w[-1]
    while True:
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
        # row by row: a gather of the stored rows would be a further array
        for row, i in zip(total, store_idx):
            row += w[i]
        yield w[-1]


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
    """Sum Duhamel levels on a uniform grid, stopping on their alpha-norms.

    energies are the diagonal's semigroup energies (all zero at the limit).
    The levels are factored (`_factored_levels`, whose stored rows are held
    as factors until they outgrow the array) when at most _MAX_NODES nodes
    cover the energies, else full (`_full_levels`, which sums into the
    folded array).  The loop stops at level fixed_levels when given, else at
    the first final-row norm below term_tol or at max_levels.  Returns the
    store_idx rows (`StoredRows`), the final-row norms and the level count;
    and the node count (0 on the full route), their interpolation bound and,
    per compressed level, its residual bound and whether it kept more than
    _COMPRESSION_RANK columns.
    """
    rows = StoredRows(np.linspace(0.0, dt, grid + 1)[store_idx], energies, u0, orders)
    residuals, exact = [], []
    fit = _energy_nodes(energies, dt)
    if fit is None:
        nodes, bound = (), 0.0
        rows.fold()
        levels = _full_levels(u0, energies, zmat, dt, grid, store_idx, rows.folded)
    else:
        nodes, weights, bound = fit
        levels = _factored_levels(
            u0, energies, zmat, dt, grid, store_idx, rows, nodes, weights, residuals, exact,
        )
    finals = []
    for level, final in enumerate(levels):
        norm = norm_alpha_flat(final, orders, alpha)
        finals.append(norm)
        if not math.isfinite(norm):
            raise ConvergenceError(f"Duhamel level {level} has non-finite norm {norm}")
        if fixed_levels is not None:
            if level >= fixed_levels:
                break
        elif norm < term_tol or level >= max_levels:
            break
    return (rows, np.array(finals), level), (len(nodes), bound, residuals, exact)


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
    identity); pert_op is the index-losing perturbation.  Handles on the
    orbit route (one shared orbit map) solve on the representatives; u_s
    must then be constant on orbits, else SymmetryError.  Raises ValueError
    when diag_op is not a diagonal handle, HorizonError when (t, upsilon, q,
    alpha) violate the horizon geometry, MajorantViolation when a computed
    term beats its majorant beyond the configured slack or is not finite,
    and ConvergenceError when a Duhamel level has a non-finite norm or the
    half-grid Richardson disagreement exceeds the gate (or is NaN).
    """
    if t < s:
        raise HorizonError("need t >= s")
    if not (isinstance(diag_op, OperatorHandle) and diag_op.is_diagonal):
        raise ValueError(f"diag_op must be a diagonal OperatorHandle, not {diag_op!r}")
    for op in (diag_op, pert_op):
        if op.torus != u_s.torus or op.n_max != u_s.n_max:
            raise ValueError("operator truncation does not match the state")
    orbits = pert_op.orbits
    if diag_op.orbits is not orbits:
        raise ValueError("diag_op and pert_op must share one orbit map or both be full")
    bound.validate_on(scale.alpha_s, scale.alpha_star)
    dt = t - s
    horizon, horizon_prime, q, alpha = _resolve_run(scale, bound, cfg, dt)
    orders = flat_orders(u_s.torus, u_s.n_max, orbits)
    u0 = u_s.flat()
    if orbits is not None:
        u0 = orbits.restrict(u0)
    u0.setflags(write=False)
    initial_norm = norm_alpha_flat(u0, orders, scale.alpha_s)
    regular = bound.regular(alpha)

    if dt == 0.0:
        # e^{-0 E} u0 is u0 exactly: the level-0 row at s is the solve
        grid, store_idx = 1, np.zeros(1, dtype=int)
        rows = StoredRows(np.zeros(1), np.zeros(len(u0)), u0, orders)
        final_norms, n_used, disagreement = np.array([initial_norm]), 0, 0.0
        nodes, interp_bound, residuals, exact = 0, 0.0, [], []
    else:
        if q * dt / horizon_prime >= 1.0:
            raise HorizonError("ratio test failed: q (t - s) / horizon_prime must be < 1")
        grid = cfg.time_grid_points
        count = min(cfg.trajectory_points, grid + 1)
        store_idx = unique_inverse(np.round(np.linspace(0, grid, count)).astype(int))[0]
        energies = diag_op.semigroup_energies()
        zmat = pert_op.matrix()
        (rows, final_norms, n_used), (nodes, interp_bound, residuals, exact) = _run_grid(
            u0, energies, zmat, dt, grid, orders, alpha, store_idx,
            term_tol=cfg.term_tol, max_levels=cfg.n_max,
        )
        # Richardson consistency: recompute the same number of levels at half grid
        (half_rows, _, _), (_, _, half_residuals, half_exact) = _run_grid(
            u0, energies, zmat, dt, grid // 2, orders, alpha, np.array([0, grid // 2]),
            term_tol=cfg.term_tol, max_levels=cfg.n_max, fixed_levels=n_used,
        )
        residuals += half_residuals
        exact += half_exact
        # a non-finite entry makes its layer's max |x| non-finite
        if not np.isfinite(rows.sups).all():
            raise ConvergenceError("the stored trajectory has non-finite entries")
        disagreement = norm_alpha_flat(rows.final - half_rows.final, orders, alpha)
    converged = dt == 0.0 or bool(final_norms[-1] < cfg.term_tol) or initial_norm == 0.0

    # majorant audit of every computed term at the final time
    majorants = np.empty(n_used + 1)
    log_slack = math.log1p(cfg.majorant_slack)
    for n in range(n_used + 1):
        log_maj = _log_majorant(n, dt, q, horizon_prime, scale.nu, regular, initial_norm)
        if not log_maj <= _LOG_FLOAT_MAX:
            raise HorizonError(f"the majorant of term {n}, e^{log_maj:.6g}, overflows a float")
        majorants[n] = math.exp(log_maj) if log_maj > -math.inf else 0.0
        term = final_norms[n]
        # written so that a NaN or infinite term fails the audit
        if not (term <= 0.0 or math.log(term) <= log_maj + log_slack):
            raise MajorantViolation(
                f"term {n} norm {term} exceeds majorant {majorants[n]} beyond slack"
            )
    if not (disagreement <= cfg.richardson_gate):
        raise ConvergenceError(
            f"half-grid disagreement {disagreement} exceeds gate {cfg.richardson_gate}"
        )

    times = s + (dt / grid) * store_idx
    # term n's majorant at elapsed time tau is majorants[n] (tau / dt)^n: the
    # sum over the terms at every stored time, by Horner's rule
    ratio = store_idx / grid
    maj_sum_hist = np.zeros(len(times))
    for value in majorants[::-1]:
        maj_sum_hist = maj_sum_hist * ratio + value

    return EvolutionResult(
        times=times,
        rows=rows,
        final_state=CorrelationVector.from_flat(
            u_s.torus, u_s.n_max, rows.final if orbits is None else orbits.expand(rows.final)
        ),
        term_norms=final_norms,
        majorant_values=majorants,
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
        compression_residual=max(residuals, default=0.0),
        interpolation_nodes=nodes,
        interpolation_bound=interp_bound,
        exact_rank_levels=sum(exact),
        orbits=orbits,
    )


def oracle_evolve(u_s: CorrelationVector, dt: float, full_op: OperatorHandle) -> CorrelationVector:
    """Sparse reference propagator for u' = (A + Z) u over duration dt.

    Two routes on the operator's sparse matrix, the action of the matrix
    exponential (Al-Mohy and Higham's truncated Taylor series) and an adaptive
    DOP853 integration (`compiled.dop853`) at tolerance _ORACLE_RK_TOL, must
    agree to _ORACLE_AGREEMENT_TOL in relative sup norm; the exponential route is
    returned.  A non-finite matrix or result, or a failed DOP853 route,
    raises ConvergenceError.
    """
    from scipy.sparse import csr_array
    from scipy.sparse.linalg import expm_multiply

    if dt < 0:
        raise ValueError("dt must be >= 0")
    if full_op.torus != u_s.torus or full_op.n_max != u_s.n_max:
        raise ValueError("operator truncation does not match the state")
    if dt == 0.0:
        return u_s
    csr = full_op.matrix()
    if not np.isfinite(csr.data).all():
        raise ConvergenceError("oracle matrix has non-finite entries")
    mat = csr_array((csr.data, csr.indices, csr.indptr), shape=csr.shape)
    u0 = u_s.flat()
    via_expm = expm_multiply(mat * dt, u0)
    via_rk = compiled.dop853(
        lambda _t, y: mat @ y, u0, dt, _ORACLE_RK_TOL, _ORACLE_RK_TOL, _ORACLE_RK_MAX_STEPS,
        "adaptive oracle route",
    )
    denom = max(float(np.abs(via_expm).max()), 1e-30)
    rel = float(np.abs(via_expm - via_rk).max()) / denom
    # written so that a non-finite result fails the gate
    if not (rel <= _ORACLE_AGREEMENT_TOL):
        raise ConvergenceError(f"oracle routes disagree at relative level {rel}")
    return CorrelationVector.from_flat(u_s.torus, u_s.n_max, via_expm)


@dataclass
class FlowReport:
    """Two-parameter flow property audit: direct versus composed evolution."""

    difference: float
    relative: float
    budget: float
    alpha_tau: float
    direct: EvolutionResult
    composed_final: CorrelationVector


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
) -> FlowReport:
    """Compare evolving s -> t directly against s -> tau -> t composed.

    The restart index is the localization index of tau; the flow hypothesis
    t < min(tau + horizon(alpha_tau, alpha_star), s + horizon(alpha_s,
    alpha_star)) is verified before any solve.  The direct leg, the report's
    `direct`, is the s -> t solve at cfg itself when t - s <= cfg.upsilon,
    else at cfg.for_horizon(t - s); the composed legs run at
    cfg.for_horizon of their durations and store only their end rows.
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

    direct_cfg = cfg if t - s <= cfg.upsilon else cfg.for_horizon(t - s)
    direct = ovsyannikov_evolve(u_s, s, t, diag_op, pert_op, scale, bound, direct_cfg)
    legs = replace(cfg, trajectory_points=2)
    leg1 = ovsyannikov_evolve(
        u_s, s, tau, diag_op, pert_op, scale, bound, legs.for_horizon(tau - s)
    )
    leg2 = ovsyannikov_evolve(
        leg1.final_state, tau, t, diag_op, pert_op, replace(scale, alpha_s=alpha_tau), bound,
        legs.for_horizon(t - tau),
    )
    final = direct.rows.final
    diff = norm_alpha_flat(final - leg2.rows.final, direct.orders, scale.alpha_star)
    denom = max(norm_alpha_flat(final, direct.orders, scale.alpha_star), 1e-30)
    budget = direct.quad_error + leg1.quad_error + leg2.quad_error
    return FlowReport(
        difference=diff,
        relative=diff / denom,
        budget=budget,
        alpha_tau=alpha_tau,
        direct=direct,
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
    exponent = math.e * scale.nu * horizon_sup * regular_sup - 1.0
    if not exponent <= _LOG_FLOAT_MAX:
        raise HorizonError(f"the a-priori constant, of e^{exponent:.6g}, overflows a float")
    constant = scale.nu * math.exp(exponent) * horizon_sup
    denom = result.horizon_prime - result.q * result.upsilon
    if denom <= 0:
        raise HorizonError("a-priori bound needs horizon_prime - q upsilon > 0")
    prefactor = constant / denom
    if not math.isfinite(prefactor):
        raise HorizonError(f"the a-priori prefactor {constant} / {denom} overflows a float")
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
