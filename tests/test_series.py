"""Majorant-controlled series solver against independent propagators."""

import importlib
import json
import math
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ovskale import (
    BoundModel,
    ConvergenceError,
    CorrelationVector,
    DimensionCapError,
    HorizonError,
    ModelParams,
    OperatorHandle,
    SeriesConfig,
    Torus,
    apriori_estimate_check,
    flow_compose_check,
    kernel_pair_from_spec,
    norm_alpha,
    oracle_evolve,
    orbit_map,
    ovsyannikov_evolve,
    point_group,
    ScaleSpec,
    time_horizon,
)
from ovskale import experiments, load_config, series
from ovskale.config import build_runtime
from ovskale.experiments import run_evolve
from ovskale.lattice import entry_orders, layer_array
from ovskale.scale import layer_starts, layer_sups, norm_alpha_flat
from ovskale.series import default_intermediate_alpha
from ovskale.states import flat_orders, random_correlation

from conftest import GAUSS_A, GAUSS_PHI, Instance, make_instance


def _ops(inst: Instance):
    args = (inst.kernels, inst.params, inst.n_max)
    return tuple(OperatorHandle(kind, *args) for kind in ("diagonal", "perturbation", "full"))


def _cfg(inst: Instance, frac: float = 0.5, **overrides) -> SeriesConfig:
    base = dict(
        upsilon=frac * inst.horizon,
        time_grid_points=128,
        n_max=30,
        term_tol=1e-12,
        quad_tol=1e-8,
        trajectory_points=9,
    )
    base.update(overrides)
    return SeriesConfig(**base)


@pytest.fixture(scope="module")
def small() -> Instance:
    return make_instance(sites=4, n_max=2)


@pytest.mark.parametrize("route", ["full", "orbit"])
def test_zero_duration_returns_initial(small, route):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    orbits = None
    if route == "orbit":
        orbits = orbit_map(small.torus, small.n_max, point_group(small.kernels))
    args = (small.kernels, small.params, small.n_max, orbits)
    diag, pert = OperatorHandle("diagonal", *args), OperatorHandle("perturbation", *args)
    res = ovsyannikov_evolve(u0, 0.3, 0.3, diag, pert, small.scale, small.bound, _cfg(small))
    assert res.n_used == 0
    assert res.converged
    assert np.array_equal(res.final_state.flat(), u0.flat())
    assert np.array_equal(res.times, [0.3])
    assert np.array_equal(res.term_norms, [res.initial_norm])
    assert res.quad_disagreement == 0.0
    # term 0's majorant is nu times the initial norm, at every stored time
    assert res.majorant_values[0] >= res.initial_norm
    assert np.array_equal(res.majorant_sum_history, res.majorant_values)


def test_an_orbit_route_solve_holds_no_flat_orders(small):
    # its orders come from the representatives' per-layer counts, so the
    # cached d-sized table of every flat entry's order is never built
    orbits = orbit_map(small.torus, small.n_max, point_group(small.kernels))
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    args = (small.kernels, small.params, small.n_max, orbits)
    diag, pert = OperatorHandle("diagonal", *args), OperatorHandle("perturbation", *args)
    entry_orders.cache_clear()
    t = 0.5 * small.horizon
    res = ovsyannikov_evolve(u0, 0.0, t, diag, pert, small.scale, small.bound, _cfg(small))
    assert entry_orders.cache_info().currsize == 0
    assert res.n_used >= 2
    reduced = flat_orders(small.torus, small.n_max, orbits)
    assert entry_orders.cache_info().currsize == 0
    expected = flat_orders(small.torus, small.n_max)[orbits.reps]
    assert reduced.dtype == expected.dtype
    assert np.array_equal(reduced, expected)
    assert np.array_equal(res.orders, expected)


def test_series_matches_dense_oracle(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, full = _ops(small)
    t = 0.5 * small.horizon
    res = ovsyannikov_evolve(u0, 0.0, t, diag, pert, small.scale, small.bound, _cfg(small))
    ref = oracle_evolve(u0, t, full)
    diff = CorrelationVector.from_flat(
        small.torus, small.n_max, res.final_state.flat() - ref.flat()
    )
    rel = norm_alpha(diff, 2.5) / norm_alpha(ref, 2.5)
    assert rel <= 1e-9
    assert res.converged
    assert res.n_used >= 2


def test_limit_route_matches_oracle(small):
    # the scaling limit runs through its diagonal handle, whose zero energies
    # make the semigroup the identity
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    limit = replace(small.params, epsilon=0.0)
    a0 = OperatorHandle("diagonal", small.kernels, limit, small.n_max)
    z0 = OperatorHandle("perturbation", small.kernels, limit, small.n_max)
    assert not a0.semigroup_energies().any()
    t = 0.4 * small.horizon
    res = ovsyannikov_evolve(u0, 0.0, t, a0, z0, small.scale, small.bound, _cfg(small))
    ref = oracle_evolve(u0, t, z0)
    diff = res.final_state.flat() - ref.flat()
    rel = np.abs(diff).max() / np.abs(ref.flat()).max()
    assert rel <= 1e-9


def test_majorant_dominates_terms(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    res = ovsyannikov_evolve(
        u0, 0.0, 0.5 * small.horizon, diag, pert, small.scale, small.bound, _cfg(small)
    )
    assert np.all(res.term_norms <= res.majorant_values * (1.0 + 1e-6))
    assert res.term_norms[res.n_used] <= res.majorant_values[res.n_used]
    # majorant terms decay geometrically past the first few orders
    assert res.majorant_values[res.n_used] < res.majorant_values[0]


def test_trajectory_endpoints(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    s, t = 0.1, 0.1 + 0.5 * small.horizon
    res = ovsyannikov_evolve(u0, s, t, diag, pert, small.scale, small.bound, _cfg(small))
    assert res.times[0] == pytest.approx(s)
    assert res.times[-1] == pytest.approx(t)
    rows = res.stored_rows()
    assert rows.shape == (9, u0.dimension)
    assert np.all(np.diff(res.times) > 0)
    # only the last stored row becomes a vector, and it is read-only
    assert _bits(res.final_state.flat()) == _bits(rows[-1])
    assert not any(layer.flags.writeable for layer in res.final_state.layers)
    assert _bits(rows[0]) == _bits(u0.flat())


@pytest.mark.parametrize("kind", [None, "perturbation", "full"])
def test_diag_op_must_be_a_diagonal_handle(small, kind):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    _, pert, _ = _ops(small)
    diag = None if kind is None else OperatorHandle(kind, small.kernels, small.params, small.n_max)
    with pytest.raises(ValueError, match="diagonal"):
        ovsyannikov_evolve(
            u0, 0.0, 0.5 * small.horizon, diag, pert, small.scale, small.bound, _cfg(small)
        )


def test_horizon_guards(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    cfg = _cfg(small)
    with pytest.raises(HorizonError):
        ovsyannikov_evolve(
            u0, 0.0, 0.9 * small.horizon, diag, pert, small.scale, small.bound, cfg
        )
    with pytest.raises(HorizonError):
        ovsyannikov_evolve(
            u0, 0.0, 0.1 * small.horizon, diag, pert, small.scale, small.bound,
            _cfg(small, frac=1.5),
        )
    with pytest.raises(HorizonError):
        ovsyannikov_evolve(
            u0, 0.0, 0.1 * small.horizon, diag, pert, small.scale, small.bound,
            _cfg(small, alpha=2.6),
        )
    with pytest.raises(HorizonError):
        # q this large breaks q * upsilon < min(T, T')
        ovsyannikov_evolve(
            u0, 0.0, 0.5 * small.horizon, diag, pert, small.scale, small.bound,
            _cfg(small, q=3.0),
        )


def test_quadrature_gate_raises(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    with pytest.raises(ConvergenceError):
        ovsyannikov_evolve(
            u0, 0.0, 0.5 * small.horizon, diag, pert, small.scale, small.bound,
            _cfg(small, time_grid_points=4, quad_tol=1e-30),
        )


def test_nan_in_perturbation_is_a_typed_failure(small):
    # a NaN must fail the level loop, not slip past the gates as "x > gate"
    # would let it; ConvergenceError is a numerical failure, exit 3
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    pert.matrix().data[0] = math.nan
    with pytest.raises(ConvergenceError, match="non-finite"):
        ovsyannikov_evolve(
            u0, 0.0, 0.5 * small.horizon, diag, pert, small.scale, small.bound, _cfg(small)
        )


def test_non_finite_stored_row_is_a_typed_failure(small):
    # the level loop and the gates test the final row only; an infinite
    # earlier stored row must still end in a typed failure, exit 3
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    run_grid = series._run_grid

    def spoiled(*args, **kwargs):
        (rows, norms, levels), report = run_grid(*args, **kwargs)
        if len(rows.tau) > 2:  # the main grid, not the two-row Richardson rerun
            rows.fold()
            rows.folded[len(rows.tau) // 2, -1] = math.inf
        return (rows, norms, levels), report

    with mock.patch.object(series, "_run_grid", spoiled):
        with pytest.raises(ConvergenceError, match="non-finite"):
            ovsyannikov_evolve(
                u0, 0.0, 0.5 * small.horizon, diag, pert, small.scale, small.bound, _cfg(small)
            )


def test_state_near_the_float_range_is_a_typed_failure(small):
    # the compression bound of such a level overflows; its test must fail,
    # not accept an infinite bound, and the run ends in the Richardson gate
    diag, pert, _ = _ops(small)
    flat = CorrelationVector.product_form(small.torus, small.n_max, 0.5).flat() * 1e300
    u0 = CorrelationVector.from_flat(small.torus, small.n_max, flat)
    with pytest.raises(ConvergenceError, match="half-grid"):
        ovsyannikov_evolve(
            u0, 0.0, 0.3 * small.horizon, diag, pert, small.scale, small.bound,
            _cfg(small, time_grid_points=64),
        )


def _reference_run_grid(
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
    """The level loop with one (grid + 1) x d level array and no compression.

    The level array is overwritten level by level: Y = Z W in blocks of
    consecutive grid points, then the trapezoid recursion row by row.
    Returns the totals of the store_idx rows, the final-row norms and the
    level count.
    """
    step = dt / grid
    half = 0.5 * step
    decay = np.exp(-step * energies)
    w = np.exp(-np.outer(np.linspace(0.0, dt, grid + 1), energies)) * u0
    width = max(1, (3 << 19) // (8 * len(u0)))
    carry = np.empty(len(u0))
    work = np.empty(len(u0))
    total = w[store_idx]
    final_norms = [norm_alpha_flat(w[-1], orders, alpha)]
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
        for start in range(0, grid + 1, width):
            w[start:start + width] = (zmat @ w[start:start + width].T).T
        np.multiply(half, w[0], out=carry)
        w[0] = 0.0
        for i in range(1, grid + 1):
            np.add(w[i - 1], carry, out=work)
            np.multiply(decay, work, out=work)
            np.multiply(half, w[i], out=carry)
            np.add(work, carry, out=w[i])
        total += w[store_idx]
        level += 1
        final_norms.append(norm_alpha_flat(w[-1], orders, alpha))
    return total, np.array(final_norms), level


def _bits(arr) -> bytes:
    return np.ascontiguousarray(arr, dtype=float).tobytes()


def _level_case(dim, sites, n_max, eps, seed):
    tor = Torus(dim, sites, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    n_max = min(n_max, tor.site_count)
    params = ModelParams(1.0, 1.0, eps)
    zmat = OperatorHandle("perturbation", ker, params, n_max).matrix()
    energies = OperatorHandle("diagonal", ker, params, n_max).semigroup_energies()
    u0 = random_correlation(tor, n_max, 1.5, np.random.default_rng(seed)).flat()
    return u0, energies, zmat, flat_orders(tor, n_max)


_level_cases = dict(
    dim=st.integers(1, 2),
    sites=st.integers(2, 4),
    n_max=st.integers(1, 3),
    eps=st.one_of(st.just(0.0), st.floats(0.05, 1.0)),
    grid=st.integers(1, 128).map(lambda h: 2 * h),
    dt=st.floats(1e-3, 0.05),
    seed=st.integers(0, 2**16),
)


@settings(max_examples=80, deadline=None)
@given(**_level_cases, alpha=st.floats(1.2, 2.5), full=st.booleans(), data=st.data())
def test_level_loop_matches_reference(dim, sites, n_max, eps, grid, dt, seed, alpha, full, data):
    # the factored loop against the full-array loop, with the level count
    # pinned to the reference's so that a final-row norm sitting at term_tol
    # cannot flip it; eps = 0 feeds the limit handle's zero energies; blocks
    # of states of every width; ranks of 1 and 2 make levels keep more
    # columns, up to their exact rank; with no nodes allowed, the full route
    # must equal the reference bit for bit
    u0, energies, zmat, orders = _level_case(dim, sites, n_max, eps, seed)
    store_idx = np.array(sorted(data.draw(st.sets(st.integers(0, grid), min_size=1))))
    fixed = data.draw(st.one_of(st.none(), st.integers(0, 4)))
    block_bytes = 8 * data.draw(st.integers(1, 4096))
    rank = data.draw(st.sampled_from([1, 2, series._COMPRESSION_RANK]))
    tail = (zmat, dt, grid, orders)
    ref_total, ref_final, ref_levels = _reference_run_grid(
        u0, energies, *tail, alpha, store_idx, term_tol=1e-12, max_levels=8, fixed_levels=fixed,
    )
    with mock.patch.object(series, "_BLOCK_BYTES", block_bytes), \
            mock.patch.object(series, "_COMPRESSION_RANK", rank), \
            mock.patch.object(series, "_MAX_NODES", 0 if full else series._MAX_NODES):
        (rows, final, levels), (nodes, bound, residuals, exact) = series._run_grid(
            u0, energies, *tail, alpha, store_idx,
            term_tol=1e-12, max_levels=8, fixed_levels=ref_levels,
        )
        total = rows.array()
    assert levels == ref_levels
    if full:
        assert (nodes, bound, residuals, exact) == (0, 0.0, [], [])
        assert _bits(total) == _bits(ref_total)
        assert _bits(final) == _bits(ref_final)
        return
    assert 1 <= nodes <= series._MAX_NODES
    assert (nodes == 1) == (np.ptp(energies) == 0.0)
    assert bound <= series._INTERP_TOL
    # level 0 is summed exactly and compressed only to feed level 1
    assert len(residuals) == len(exact) == (levels + 1 if levels else 0)
    assert all(0.0 <= r <= series._COMPRESSION_TOL for r in residuals)
    err = norm_alpha_flat(total - ref_total, orders, alpha)
    assert np.all(err <= 1e-13 * norm_alpha_flat(ref_total, orders, alpha))
    # each term norm within 1e-13 of itself plus 1e-15 of the level-0 term:
    # the loops' rounding grows at the same rate as the levels decay past it
    assert final.shape == ref_final.shape
    assert np.all(np.abs(final - ref_final) <= 1e-13 * ref_final + 1e-15 * ref_final[0])


@settings(max_examples=40, deadline=None)
@given(**_level_cases, tol=st.sampled_from([1e-4, 1e-7, 1e-10]))
def test_compression_bound_covers_the_missed_part(dim, sites, n_max, eps, grid, dt, seed, tol):
    # every level, materialised as W = L R^T, differs from its compressed Q F^T
    # by no more than the deterministic bound times the final row's size; the
    # test tolerance is loose enough that truncation, not rounding, decides
    u0, energies, zmat, orders = _level_case(dim, sites, n_max, eps, seed)
    compress = series._compress
    seen = []

    def checked(left, weights, right, weight_norms):
        basis, factor, residual, exact = compress(left, weights, right, weight_norms)
        right_t = (weights[:, None, :] * right[None, :, :]).reshape(len(left.T), -1)
        level = left @ right_t
        missed = np.abs(level - basis @ factor).max()
        # backward error of the SVD and of the products, on the scale of L R^T
        rounding = 8 * sum(left.shape) * np.finfo(float).eps * (
            np.linalg.norm(left, 2) * np.sqrt((right_t * right_t).sum(axis=0)).max()
        )
        assert missed <= residual * np.abs(level[-1]).max() * (1.0 + 1e-9) + rounding
        assert residual <= tol
        seen.append((residual, exact))
        return basis, factor, residual, exact

    with mock.patch.object(series, "_COMPRESSION_TOL", tol), \
            mock.patch.object(series, "_compress", checked):
        (_, _, levels), (_, _, residuals, exact) = series._run_grid(
            u0, energies, zmat, dt, grid, orders, 2.0, np.array([0, grid]),
            term_tol=1e-12, max_levels=6,
        )
    assert seen == list(zip(residuals, exact))
    assert len(seen) == (levels + 1 if levels else 0)


def _spread_energy_case():
    # decay rates over four decades: interpolating e^{-tau E} over them would
    # take far more than _MAX_NODES nodes
    tor = Torus(1, 6, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    zmat = OperatorHandle("perturbation", ker, ModelParams(1.0, 1.0), 3).matrix()
    dim = zmat.shape[0]
    energies = np.geomspace(1.0, 1e4, dim)[np.random.default_rng(3).permutation(dim)]
    u0 = random_correlation(tor, 3, 1.5, np.random.default_rng(1)).flat()
    return u0, energies, zmat, 0.05, 30, flat_orders(tor, 3)


def test_high_rank_levels_fall_back_to_the_full_product():
    # the wide energy spread takes the full-product route, the reference loop
    args = _spread_energy_case()
    store_idx = np.arange(0, 31, 3)
    assert series._energy_nodes(args[1], args[3]) is None
    ref_total, ref_final, ref_levels = _reference_run_grid(
        *args, 2.0, store_idx, term_tol=1e-12, max_levels=6
    )
    with mock.patch.object(series, "_compress", side_effect=AssertionError("compressed")):
        (rows, final, levels), report = series._run_grid(
            *args, 2.0, store_idx, term_tol=1e-12, max_levels=6
        )
    total = rows.array()
    assert levels == ref_levels == 6
    assert report == (0, 0.0, [], [])
    assert _bits(total) == _bits(ref_total)
    assert _bits(final) == _bits(ref_final)


def _folded_stored_rows(u0, energies, zmat, dt, grid, store_idx, levels):
    """The stored rows of levels 0 .. levels summed into one array, and their factor columns.

    The factored loop with one stored-row array: the level-0 rows
    are its start, and each level's rows left @ right are added into it as
    the level is made, over blocks of _BLOCK_BYTES // (8 * stored) states.
    """
    step = dt / grid
    tau = np.linspace(0.0, dt, grid + 1)
    total = np.outer(-tau[store_idx], energies)
    np.exp(total, out=total)
    total *= u0
    width = max(1, series._BLOCK_BYTES // (8 * len(store_idx)))
    nodes, weights, _ = series._energy_nodes(energies, dt)
    weight_norms = np.sqrt(np.einsum("mx,mx->x", weights, weights))
    left, right = np.exp(-np.outer(tau, nodes)), u0[None, :]
    columns = 0
    for level in range(levels + 1):
        basis, factor, _, _ = series._compress(left, weights, right, weight_norms)
        if level:
            rows = basis[store_idx]
            for lo in range(0, total.shape[1], width):
                total[:, lo:lo + width] += rows @ factor[:, lo:lo + width]
            columns += len(factor)
        right = np.ascontiguousarray((zmat @ factor.T).T)
        scale = np.abs(right).max(axis=1)
        scale[scale == 0.0] = 1.0
        right /= scale[:, None]
        stacked = np.repeat((basis * scale)[:, None, :], len(nodes), axis=1)
        left = series._trapezoid(stacked, nodes[:, None], step).reshape(grid + 1, -1)
    return total, columns


def _route_case(route: str, eps: float, seed: int):
    """u0, energies, Z and orders of the 1-D S=8, n=3 instance on the full or the orbit route."""
    tor = Torus(1, 8, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    orbits = orbit_map(tor, 3, point_group(ker)) if route == "orbit" else None
    args = (ker, ModelParams(1.0, 1.0, eps), 3, orbits)
    orders = flat_orders(tor, 3)
    rng = np.random.default_rng(seed)
    if orbits is None:
        u0 = random_correlation(tor, 3, 1.5, rng).flat()
    else:
        u0 = orbits.restrict(CorrelationVector.product_form(tor, 3, rng.uniform(0.3, 0.7)).flat())
        orders = orders[orbits.reps]
    zmat = OperatorHandle("perturbation", *args).matrix()
    return u0, OperatorHandle("diagonal", *args).semigroup_energies(), zmat, orders


_STORED_GRID = 256


@settings(max_examples=40, deadline=None)
@given(
    route=st.sampled_from(["full", "orbit"]),
    eps=st.sampled_from([0.0, 1.0]),
    stored=st.sampled_from([2, 9, 129]),
    levels=st.integers(0, 24),
    block_bytes=st.integers(1, 1 << 16).map(lambda n: 8 * n),
    seed=st.integers(0, 2**16),
)
@example(route="full", eps=1.0, stored=129, levels=3, block_bytes=8 << 10, seed=1)
@example(route="full", eps=1.0, stored=129, levels=24, block_bytes=8 << 10, seed=1)
@example(route="orbit", eps=1.0, stored=129, levels=1, block_bytes=8 << 10, seed=1)
@example(route="orbit", eps=1.0, stored=129, levels=6, block_bytes=8 << 10, seed=1)
def test_stored_rows_are_the_folded_rows_bit_for_bit(
    route, eps, stored, levels, block_bytes, seed
):
    # the factors the loop holds, read block by block, are the stored rows
    # that adding each level into one array gives; they fold into an array
    # once they would take more room than it; blocks of every width
    u0, energies, zmat, orders = _route_case(route, eps, seed)
    store_idx = np.unique(np.round(np.linspace(0, _STORED_GRID, stored)).astype(int))
    assert len(store_idx) == stored
    with mock.patch.object(series, "_BLOCK_BYTES", block_bytes):
        want, columns = _folded_stored_rows(
            u0, energies, zmat, 0.02, _STORED_GRID, store_idx, levels
        )
        (rows, _, n), _ = series._run_grid(
            u0, energies, zmat, 0.02, _STORED_GRID, orders, 2.0, store_idx,
            term_tol=1e-12, max_levels=levels, fixed_levels=levels,
        )
        assert n == levels
        assert (rows.folded is not None) == (columns * (len(u0) + stored) > stored * len(u0))
        assert _bits(rows.array()) == _bits(want)
        assert _bits(rows.final) == _bits(want[-1])
        starts = layer_starts(orders)
        assert _bits(rows.sups) == _bits(layer_sups(want, starts))


@pytest.mark.parametrize("eps", [0.0, 1.0])
@pytest.mark.parametrize("stored", [2, 9, 129])
@pytest.mark.parametrize("route", ["full", "orbit"])
def test_stored_rows_hold_at_most_the_array_and_one_level(route, stored, eps):
    # after every level a loop adds, the factors held take no more room than
    # the stored rows' array and that level: a factor column holds an entry
    # per state and per stored row
    u0, energies, zmat, orders = _route_case(route, eps, 5)
    store_idx = np.unique(np.round(np.linspace(0, _STORED_GRID, stored)).astype(int))
    room = stored * len(u0)
    add = series.StoredRows.add
    held = []

    def checked(self, left, right):
        add(self, left, right)
        columns = sum(len(rt) for _, rt in self.factors)
        assert columns * (len(u0) + stored) <= room + len(right) * (len(u0) + stored)
        held.append(columns)

    with mock.patch.object(series.StoredRows, "add", checked):
        (_, _, n), _ = series._run_grid(
            u0, energies, zmat, 0.02, _STORED_GRID, orders, 2.0, store_idx,
            term_tol=1e-12, max_levels=24, fixed_levels=24,
        )
    assert n == len(held) == 24


def test_norms_and_sup_gaps_read_the_materialised_rows():
    # a result's norms and the sweep's sup gaps come from per-layer maxima
    # taken block by block; they are norm_alpha_flat over the materialised
    # rows, bit for bit, a NaN included
    tor = Torus(1, 8, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    inst = make_instance(sites=8, n_max=3)
    u0 = random_correlation(tor, 3, 1.5, np.random.default_rng(2))
    cfg = _cfg(inst, 0.3, time_grid_points=256, trajectory_points=129, quad_tol=1e-6)
    calls = []
    run_grid = series._run_grid

    def recorded(*args, **kwargs):
        calls.append((args, kwargs))
        return run_grid(*args, **kwargs)

    results = []
    for eps in (0.5, 0.0):
        args = (ker, ModelParams(1.0, 1.0, eps), 3)
        diag, pert = OperatorHandle("diagonal", *args), OperatorHandle("perturbation", *args)
        with mock.patch.object(series, "_run_grid", recorded):
            res = ovsyannikov_evolve(u0, 0.0, cfg.upsilon, diag, pert, inst.scale, inst.bound, cfg)
        # the main grid's rows again, not yet read, held as factors
        main_args, main_kwargs = calls[-2]
        (rows, _, _), _ = run_grid(*main_args, **main_kwargs)
        assert rows.folded is None and rows.factors
        results.append((res, rows))
    (res, rows), (limit, limit_rows) = results
    assert _bits(res.stored_rows()) == _bits(rows.array())
    orders = res.orders
    for alpha in (res.alpha, inst.scale.alpha_star):
        want = norm_alpha_flat(res.stored_rows(), orders, alpha)
        assert _bits(res.norms_at(alpha)) == _bits(want)
    gap = norm_alpha_flat(res.stored_rows() - limit.stored_rows(), orders, 2.5)
    assert _bits(res.rows.gap_norms(limit.rows, 2.5)) == _bits(gap)
    rows.factors[0][1][0, 17] = math.nan
    spoiled = replace(res, rows=rows)
    for alpha in (res.alpha, 2.5):
        norms = spoiled.norms_at(alpha)
        assert np.isnan(norms).any()
        np.testing.assert_array_equal(norms, norm_alpha_flat(rows.array(), orders, alpha))
    got = rows.gap_norms(limit_rows, 2.5)
    want = norm_alpha_flat(rows.array() - limit_rows.array(), orders, 2.5)
    assert np.isnan(got).any()
    np.testing.assert_array_equal(got, want)


def _assert_same_result(got, want):
    assert got.n_used == want.n_used
    for name in (
        "times", "term_norms", "majorant_values", "majorant_sum_history",
    ):
        assert _bits(getattr(got, name)) == _bits(getattr(want, name)), name
    for name in (
        "horizon", "horizon_prime", "q", "alpha", "upsilon", "quad_disagreement",
        "converged", "initial_norm", "compression_residual", "interpolation_nodes",
        "interpolation_bound", "exact_rank_levels",
    ):
        assert getattr(got, name) == getattr(want, name), name
    assert _bits(got.stored_rows()) == _bits(want.stored_rows())
    assert _bits(got.final_state.flat()) == _bits(want.final_state.flat())


@pytest.mark.parametrize("upsilon_frac", [0.2, 0.3, 0.15])
def test_flow_check_direct_leg_is_the_solve_at_its_config(upsilon_frac):
    # the direct leg is the s -> t solve at cfg when t - s fits its upsilon
    # (at its end, and inside it), else at cfg.for_horizon(t - s): the
    # configured alpha 2.4 needs 5 levels, for_horizon's default alpha 6
    inst = make_instance(sites=6, n_max=3)
    diag, pert, _ = _ops(inst)
    u0 = random_correlation(inst.torus, 3, 1.5, np.random.default_rng(5))
    T = inst.horizon
    t = 0.2 * T
    cfg = _cfg(inst, upsilon_frac, time_grid_points=64, alpha=2.4, quad_tol=1e-6)
    args = (diag, pert, inst.scale, inst.bound)
    rep = flow_compose_check(u0, 0.0, 0.1 * T, t, *args, cfg)
    want = ovsyannikov_evolve(u0, 0.0, t, *args, cfg if t <= cfg.upsilon else cfg.for_horizon(t))
    assert want.n_used == (5 if t <= cfg.upsilon else 6)
    _assert_same_result(rep.direct, want)


def _reference_flow(u0, s, tau, t, diag, pert, scale, bound, cfg):
    """Difference, relative, budget and composed final state with every leg at cfg's stored rows."""
    alpha_tau = series.localization_index(tau, s, scale.alpha_s, bound, scale.alpha_star, scale.nu)
    direct = ovsyannikov_evolve(u0, s, t, diag, pert, scale, bound, cfg)
    leg1 = ovsyannikov_evolve(u0, s, tau, diag, pert, scale, bound, cfg.for_horizon(tau - s))
    leg2 = ovsyannikov_evolve(
        leg1.final_state, tau, t, diag, pert, replace(scale, alpha_s=alpha_tau), bound,
        cfg.for_horizon(t - tau),
    )
    final = direct.stored_rows()[-1]
    diff = norm_alpha_flat(final - leg2.stored_rows()[-1], direct.orders, scale.alpha_star)
    denom = max(norm_alpha_flat(final, direct.orders, scale.alpha_star), 1e-30)
    budget = direct.quad_error + leg1.quad_error + leg2.quad_error
    return diff, diff / denom, budget, leg2.final_state


@pytest.mark.parametrize("route", ["full", "orbit"])
def test_flow_legs_store_only_their_end_rows(route):
    # the composed legs keep two stored rows each; only their last row is
    # read, so the report is bit for bit the one of legs at cfg's 33 rows
    inst = make_instance(sites=8, n_max=3)
    orbits = None
    if route == "orbit":
        orbits = orbit_map(inst.torus, 3, point_group(inst.kernels))
        u0 = CorrelationVector.product_form(inst.torus, 3, 0.5)
    else:
        u0 = random_correlation(inst.torus, 3, 1.5, np.random.default_rng(3))
    args = (inst.kernels, inst.params, 3, orbits)
    diag, pert = OperatorHandle("diagonal", *args), OperatorHandle("perturbation", *args)
    T = inst.horizon
    cfg = _cfg(inst, 0.3, time_grid_points=64, trajectory_points=33, quad_tol=1e-6)
    flow = (0.0, 0.1 * T, 0.25 * T, diag, pert, inst.scale, inst.bound)
    stored = []
    solve = series.ovsyannikov_evolve

    def counted(*a):
        stored.append(a[-1].trajectory_points)
        return solve(*a)

    with mock.patch.object(series, "ovsyannikov_evolve", counted):
        rep = flow_compose_check(u0, *flow, cfg)
    assert stored == [33, 2, 2]
    diff, rel, budget, composed = _reference_flow(u0, *flow, cfg)
    assert _bits(np.array([rep.difference, rep.relative, rep.budget])) == _bits(
        np.array([diff, rel, budget])
    )
    assert _bits(rep.composed_final.flat()) == _bits(composed.flat())
    assert rep.direct.stored_rows().shape[0] == 33


def _reference_majorant_sums(res: series.EvolutionResult, s: float, regular: float) -> np.ndarray:
    """The majorant sum at every stored time, one `_log_majorant` per time and term."""
    out = np.zeros(len(res.times))
    for j, tau in enumerate(res.times):
        for n in range(res.n_used + 1):
            lm = series._log_majorant(
                n, tau - s, res.q, res.horizon_prime, res.scale.nu, regular, res.initial_norm
            )
            out[j] += math.exp(lm) if lm > -math.inf else 0.0
    return out


@settings(max_examples=15, deadline=None)
@given(
    sites=st.integers(4, 6),
    n_max=st.integers(2, 3),
    state=st.sampled_from(["product", "random", "zero"]),
    s=st.floats(0.0, 1.0),
    t_frac=st.floats(0.05, 0.45),
    term_tol=st.sampled_from([1e-6, 1e-10, 1e-12]),
    seed=st.integers(0, 2**16),
)
def test_majorant_sums_match_the_scalar_formula(sites, n_max, state, s, t_frac, term_tol, seed):
    inst = make_instance(sites=sites, n_max=n_max)
    diag, pert, _ = _ops(inst)
    if state == "product":
        u0 = CorrelationVector.product_form(inst.torus, n_max, 0.5)
    elif state == "random":
        u0 = random_correlation(inst.torus, n_max, 1.5, np.random.default_rng(seed))
    else:
        u0 = CorrelationVector.from_flat(inst.torus, n_max, np.zeros(diag.dimension))
    t = s + t_frac * inst.horizon
    cfg = _cfg(inst, time_grid_points=64, term_tol=term_tol, quad_tol=1e-3)
    res = ovsyannikov_evolve(u0, s, t, diag, pert, inst.scale, inst.bound, cfg)
    want = _reference_majorant_sums(res, s, inst.bound.regular(res.alpha))
    assert res.majorant_sum_history.shape == want.shape
    assert np.all(np.abs(res.majorant_sum_history - want) <= 1e-13 * want)


def _evolve_outputs(tmp_path: Path, name: str, **experiment) -> dict:
    """Bytes of each file run_evolve writes for the stock evolve config updated by experiment."""
    doc = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "evolve.json"))
    doc["experiment"].update(experiment)
    doc["experiment"] = {k: v for k, v in doc["experiment"].items() if v is not None}
    out = tmp_path / name
    out.mkdir()
    _, files = run_evolve(build_runtime(doc), out)
    return {f: (out / f).read_bytes() for f in files}


@pytest.mark.parametrize("kind", ["product", "random"])
def test_flow_checked_evolve_writes_the_unchecked_result(tmp_path, kind):
    # the flow check's direct leg is the main solve: every output but the
    # flow block is what the same run without flow_tau writes
    initial = {"kind": kind}
    checked = _evolve_outputs(tmp_path, "checked", initial=initial)
    unchecked = _evolve_outputs(tmp_path, "unchecked", initial=initial, flow_tau=None)
    doc = json.loads(checked.pop("result.json"))
    assert doc.pop("flow")["relative"] <= 1e-6
    assert doc == json.loads(unchecked.pop("result.json"))
    assert checked == unchecked


@pytest.mark.parametrize("flow_tau", [0.007, None])
def test_t_past_upsilon_fails_with_or_without_flow_check(tmp_path, flow_tau):
    # the flow check must not shorten the configured solve to fit t
    with pytest.raises(HorizonError, match="configured upsilon"):
        _evolve_outputs(tmp_path, "out", t=0.0117, flow_tau=flow_tau)


def test_solve_draws_nothing_from_shared_random_state(tmp_path):
    # the solve draws no random numbers: the global state and the config's
    # generator (from which perturbation_gap samples later) stay untouched
    doc = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "evolve.json"))
    outputs = []
    for global_seed in (1, 2):
        bundle = build_runtime(doc)
        before = bundle.rng.bit_generator.state
        np.random.seed(global_seed)
        state = np.random.get_state()
        out = tmp_path / str(global_seed)
        out.mkdir()
        run_evolve(bundle, out)
        assert bundle.rng.bit_generator.state == before
        assert all(np.array_equal(a, b) for a, b in zip(np.random.get_state(), state))
        outputs.append((out / "result.json").read_bytes())
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0])["compression_residual"] > 0.0


_PEAK_GRID = 1024


def _solve_peak(trajectory_points: int, **overrides):
    """Traced peak of one S=14, n=4 solve, its config, one level array, the CSR bytes and the result."""
    inst = make_instance(sites=14, n_max=4)
    diag, pert, _ = _ops(inst)
    zmat = pert.matrix()
    diag.semigroup_energies()
    u0 = CorrelationVector.product_form(inst.torus, inst.n_max, 0.5)
    cfg = _cfg(
        inst, frac=0.2, time_grid_points=_PEAK_GRID, trajectory_points=trajectory_points,
        quad_tol=1e-6, **overrides,
    )
    tracemalloc.start()
    try:
        res = ovsyannikov_evolve(
            u0, 0.0, 0.2 * inst.horizon, diag, pert, inst.scale, inst.bound, cfg
        )
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert res.converged
    level_bytes = (_PEAK_GRID + 1) * u0.dimension * 8
    csr_bytes = zmat.data.nbytes + zmat.indices.nbytes + zmat.indptr.nbytes
    return peak, cfg, level_bytes, csr_bytes, res


def _solver_share(cfg: SeriesConfig) -> float:
    """The preflight's S=14, n=4 estimate with the solve at cfg less the one without."""
    needs = []
    sup_energy = make_instance(sites=14, n_max=4).kernels.sup_a
    with mock.patch.object(experiments, "_check_budget", lambda need, _: needs.append(need)):
        experiments._check_footprint(14, 4, (cfg, sup_energy))
        experiments._check_footprint(14, 4)
    return needs[0] - needs[1]


def test_level_loop_holds_one_level_array():
    # a full-array loop holds at least one (grid + 1) x d level array; the
    # factored loop holds none, only columns over the state and (grid + 1) x k
    # node recursions, and must stay below half of one
    peak, _, level_bytes, csr_bytes, _ = _solve_peak(9)
    assert peak < 0.5 * level_bytes + csr_bytes


def test_stored_rows_stay_within_the_size_check():
    # with every grid point stored the loop holds the totals (one level
    # array), the factors waiting to be summed into them and their blocks
    peak, cfg, level_bytes, csr_bytes, _ = _solve_peak(_PEAK_GRID + 1)
    assert peak < 1.5 * level_bytes + csr_bytes
    # the preflight's solver share covers the measured peak besides the matrix
    assert peak - csr_bytes <= _solver_share(cfg)


def test_a_series_long_enough_to_fold_stays_within_the_size_check():
    # so many levels that their factors would take more room than the 129
    # stored rows: they fold into one array while the factors are still held
    peak, cfg, _, csr_bytes, res = _solve_peak(129, term_tol=1e-60, n_max=40)
    assert res.n_used >= 20
    assert res.rows.folded is not None
    assert peak - csr_bytes <= _solver_share(cfg)


def test_full_route_solve_holds_no_stored_row_array():
    # a random state's 129 stored rows are held as the levels' factors: the
    # solve's traced peak is not a stored-row array above the one with two
    # stored rows (blocks of states a small share of the state, as they are
    # on the states this is for)
    inst = make_instance(sites=14, n_max=4)
    diag, pert, _ = _ops(inst)
    pert.matrix()
    diag.semigroup_energies()
    u0 = random_correlation(inst.torus, 4, 1.5, np.random.default_rng(4))
    peaks = {}
    with mock.patch.object(series, "_BLOCK_BYTES", 3 << 15):
        for stored in (2, 129):
            cfg = _cfg(inst, 0.2, time_grid_points=256, trajectory_points=stored, quad_tol=1e-6)
            tracemalloc.start()
            try:
                res = ovsyannikov_evolve(
                    u0, 0.0, cfg.upsilon, diag, pert, inst.scale, inst.bound, cfg
                )
                peaks[stored] = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
    assert res.rows.folded is None
    assert peaks[129] - peaks[2] < 0.5 * 129 * u0.dimension * 8


def test_levels_past_the_compression_rank_stay_within_the_size_check():
    # with one column allowed at first every level past rank 1 keeps more,
    # up to _MAX_RANK, which the preflight counts
    with mock.patch.object(series, "_COMPRESSION_RANK", 1):
        peak, cfg, _, csr_bytes, res = _solve_peak(9)
    assert res.exact_rank_levels > 0
    assert peak - csr_bytes <= _solver_share(cfg)


def test_a_level_past_the_largest_rank_is_a_size_refusal():
    # a level that no rank up to _MAX_RANK fits raises DimensionCapError
    # (exit 3) instead of holding more columns than the preflight counted
    u0, energies, zmat, orders = _level_case(1, 4, 3, 1.0, 7)
    with mock.patch.object(series, "_COMPRESSION_RANK", 1), \
            mock.patch.object(series, "_MAX_RANK", 1):
        with pytest.raises(DimensionCapError, match="time columns"):
            series._run_grid(
                u0, energies, zmat, 0.05, 64, orders, 2.0, np.array([0, 64]),
                term_tol=1e-12, max_levels=6,
            )


def test_flow_checked_evolve_stays_within_the_size_check(tmp_path):
    # with flow_tau the run holds the direct leg's stored rows, which are the
    # main solve's, then the two composed legs'; the preflight's estimate
    # covers the whole run's peak
    doc = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "evolve.json"))
    doc["model"]["torus"]["sites"] = 14
    doc["model"]["truncation"] = 4
    doc["solver"].update(grid_points=256, trajectory_points=257)
    bundle = build_runtime(doc)
    needs = []
    with mock.patch.object(experiments, "_check_budget", lambda need, _: needs.append(need)):
        tracemalloc.start()
        try:
            checks, _ = run_evolve(bundle, tmp_path)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
    assert all(c.passed for c in checks)
    assert peak <= max(needs)


def test_full_route_assembly_stays_within_the_size_check(tmp_path):
    # a random-state evolve with flow_tau: assembling its perturbation peaks
    # within _BYTES_PER_NONZERO per nonzero of the size check's bound, and
    # the run (one stored-row array, two 2-row legs) within the runner's
    # estimate; a change that holds more than the check counts fails here
    doc = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "evolve.json"))
    doc["model"]["torus"]["sites"] = 12
    doc["model"]["truncation"] = 4
    doc["experiment"]["initial"] = {"kind": "random"}
    assert "flow_tau" in doc["experiment"]
    bundle = build_runtime(doc)
    build = OperatorHandle.matrix
    peaks, assembly = [], []

    def traced(handle):
        if handle._matrix is not None:
            return build(handle)
        # the run's peak so far, then the assembly's own
        current, peak = tracemalloc.get_traced_memory()
        peaks.append(peak)
        tracemalloc.reset_peak()
        out = build(handle)
        assembly.append(tracemalloc.get_traced_memory()[1] - current)
        return out

    # cold layer tables, and the modules loaded as run_experiment's set-up does
    for module in experiments._SETUP_IMPORTS["evolve"]:
        importlib.import_module(module)

    needs = []
    layer_array.cache_clear()
    with mock.patch.object(experiments, "_check_budget", lambda need, _: needs.append(need)), \
            mock.patch.object(OperatorHandle, "matrix", traced):
        tracemalloc.start()
        try:
            checks, _ = run_evolve(bundle, tmp_path)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
        experiments._check_footprint(12, 4)
    assert all(c.passed for c in checks)
    [nonzero_bytes] = needs[1:]
    assert len(assembly) == 1
    assert assembly[0] <= nonzero_bytes
    assert max(peaks) <= needs[0]


def test_oracle_nan_matrix_is_a_typed_failure(small):
    # expm_multiply would die on the NaN with an untyped ValueError
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    full = OperatorHandle("full", small.kernels, small.params, small.n_max)
    full.matrix().data[0] = math.nan
    with pytest.raises(ConvergenceError, match="non-finite"):
        oracle_evolve(u0, 0.1 * small.horizon, full)


def test_oracle_identity_at_zero(small, rng):
    _, _, full = _ops(small)
    u0 = random_correlation(small.torus, small.n_max, 1.8, rng)
    out = oracle_evolve(u0, 0.0, full)
    assert np.array_equal(out.flat(), u0.flat())


def test_oracle_diagonal_closed_form(small, rng):
    diag, _, _ = _ops(small)
    u0 = random_correlation(small.torus, small.n_max, 1.8, rng)
    t = 0.37
    out = oracle_evolve(u0, t, diag)
    expected = np.exp(-t * diag.semigroup_energies()) * u0.flat()
    assert np.allclose(out.flat(), expected, rtol=1e-10, atol=1e-14)


def test_oracle_validation(small, rng):
    _, _, full = _ops(small)
    u0 = random_correlation(small.torus, small.n_max, 1.8, rng)
    with pytest.raises(ValueError):
        oracle_evolve(u0, -0.1, full)
    other = make_instance(sites=5, n_max=2)
    mismatched = OperatorHandle("full", other.kernels, other.params, other.n_max)
    with pytest.raises(ValueError):
        oracle_evolve(u0, 0.1, mismatched)


def test_oracle_routes_agree_on_2d_torus(monkeypatch):
    # 2-D 4x4 torus at order 4 (d = 2,517): both sparse routes in well under
    # 0.1 s, agreeing to 1e-12
    monkeypatch.setattr(series, "_ORACLE_AGREEMENT_TOL", 1e-12)
    tor = Torus(2, 4, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    full = OperatorHandle("full", ker, ModelParams(1.0, 1.0), 4)
    full.matrix()
    u0 = CorrelationVector.product_form(tor, 4, 0.5)
    start = time.perf_counter()
    ref = oracle_evolve(u0, 0.0092, full)
    assert time.perf_counter() - start < 0.1
    assert full.dimension == 2517
    assert np.abs(ref.flat() - u0.flat()).max() > 0.0


def test_flow_composition_small(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    T = small.horizon
    rep = flow_compose_check(
        u0, 0.0, 0.3 * T, 0.6 * T, diag, pert, small.scale, small.bound, _cfg(small)
    )
    assert rep.relative <= 1e-8
    assert rep.budget >= 0.0
    assert small.scale.alpha_s < rep.alpha_tau < small.scale.alpha_star


def test_flow_validation(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    T = small.horizon
    cfg = _cfg(small)
    with pytest.raises(HorizonError):
        flow_compose_check(u0, 0.0, 0.0, 0.6 * T, diag, pert, small.scale, small.bound, cfg)
    with pytest.raises(HorizonError):
        flow_compose_check(u0, 0.0, 0.6 * T, 0.3 * T, diag, pert, small.scale, small.bound, cfg)
    with pytest.raises(HorizonError):
        flow_compose_check(u0, 0.0, 0.5 * T, 1.5 * T, diag, pert, small.scale, small.bound, cfg)


def test_apriori_bound_holds(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    res = ovsyannikov_evolve(
        u0, 0.0, 0.5 * small.horizon, diag, pert, small.scale, small.bound, _cfg(small)
    )
    rep = apriori_estimate_check(res, small.scale, small.bound)
    assert rep.ok
    assert not rep.violations
    assert rep.max_ratio <= 1.0
    # closed-form constant: nu e^{e nu T_sup N_sup - 1} T_sup
    expected = (
        small.scale.nu
        * math.exp(math.e * small.scale.nu * rep.horizon_sup * rep.regular_sup - 1.0)
        * rep.horizon_sup
    )
    assert rep.constant == pytest.approx(expected, rel=1e-14)
    assert rep.prefactor == pytest.approx(
        rep.constant / (res.horizon_prime - res.q * res.upsilon), rel=1e-14
    )


def test_apriori_nan_is_a_violation(small):
    # a NaN right-hand side passed "lhs > rhs" and max() hid the NaN ratio
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    res = ovsyannikov_evolve(
        u0, 0.0, 0.5 * small.horizon, diag, pert, small.scale, small.bound, _cfg(small)
    )
    rep = apriori_estimate_check(replace(res, initial_norm=math.nan), small.scale, small.bound)
    assert not rep.ok
    assert len(rep.violations) == len(res.times)
    assert math.isnan(rep.max_ratio)


def test_default_intermediate_alpha(small):
    ups = 0.5 * small.horizon
    alpha = default_intermediate_alpha(small.scale, small.bound, ups)
    assert small.scale.alpha_s < alpha < small.scale.alpha_star
    assert time_horizon(small.scale.alpha_s, alpha, small.bound) > ups
    with pytest.raises(HorizonError):
        default_intermediate_alpha(small.scale, small.bound, 10.0 * small.horizon)


def _widest_run_midpoint(grid: np.ndarray, good: np.ndarray) -> float:
    """Reference: the midpoint of the first widest run of good grid points, by index walk."""
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


@settings(max_examples=60, deadline=None)
@given(first=st.booleans(), runs=st.lists(st.integers(1, 700), min_size=1, max_size=12))
def test_default_intermediate_alpha_takes_the_first_widest_run(first, runs):
    # a horizon of 2 on the good points of the index grid and 1/2 elsewhere,
    # laid out as alternating runs, against upsilon = 1
    scale = ScaleSpec(1.5, 2.5)
    grid = np.linspace(1.5, 2.5, 2002)[1:-1]
    good = np.resize(np.repeat([first, not first] * len(runs), runs + runs), len(grid))
    level = dict(zip(grid.tolist(), np.where(good, 2.0, 0.5).tolist()))
    bound = BoundModel(lambda b: (b - 1.5) / (math.e * level[float(b)]), lambda b: 0.05)
    if not good.any():
        with pytest.raises(HorizonError):
            default_intermediate_alpha(scale, bound, 1.0)
        return
    assert default_intermediate_alpha(scale, bound, 1.0) == _widest_run_midpoint(grid, good)


def test_series_config_validation():
    with pytest.raises(ValueError):
        SeriesConfig(upsilon=0.0)
    with pytest.raises(ValueError):
        SeriesConfig(upsilon=0.01, time_grid_points=5)
    with pytest.raises(ValueError):
        SeriesConfig(upsilon=0.01, q=1.0)
    with pytest.raises(ValueError):
        SeriesConfig(upsilon=0.01, trajectory_points=1)
    with pytest.raises(ValueError):
        SeriesConfig(upsilon=0.01, term_tol=0.0)
    cfg = SeriesConfig(upsilon=0.01, term_tol=1e-9)
    assert cfg.richardson_gate == pytest.approx(1e-8)
    assert SeriesConfig(upsilon=0.01, quad_tol=1e-5).richardson_gate == 1e-5
    clone = SeriesConfig(upsilon=0.01, q=1.3, alpha=2.0).for_horizon(0.004)
    assert clone.upsilon == 0.004
    assert clone.q is None and clone.alpha is None


def test_result_serialization(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    res = ovsyannikov_evolve(
        u0, 0.0, 0.4 * small.horizon, diag, pert, small.scale, small.bound, _cfg(small)
    )
    doc = res.to_json_dict()
    text = json.dumps(doc)
    assert json.loads(text)["n_used"] == res.n_used
    assert len(doc["times"]) == len(doc["norm_alpha"]) == len(res.stored_rows())
    norms = res.norms_at(small.scale.alpha_star)
    assert norms.shape == res.times.shape
    assert np.all(norms >= 0)
