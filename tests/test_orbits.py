"""Lattice-symmetry orbits: counts, canonical members, and the orbit route against the full one."""

import itertools
import math

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ovskale import (
    CorrelationVector,
    EpsilonSweep,
    KernelPair,
    ModelParams,
    OperatorHandle,
    ScaleSpec,
    SeriesConfig,
    SymmetryError,
    Torus,
    kernel_pair_from_spec,
    model_bound,
    orbit_counts,
    orbit_map,
    ovsyannikov_evolve,
    perturbation_gap,
    point_group,
    time_horizon,
    vlasov_limit,
)
from ovskale.lattice import entry_orders, layer_array, layer_offsets, subset_rank
from ovskale.scale import norm_alpha_flat
from ovskale.states import flat_orders, random_correlation

from conftest import GAUSS_A, GAUSS_PHI

# relative agreement of the orbit route with the full route
_ROUTE_TOL = 1e-13


def _gauss(dim: int, sites: int) -> KernelPair:
    return kernel_pair_from_spec(Torus(dim, sites, 0.5), GAUSS_A, GAUSS_PHI)


def _translations(dim: int) -> tuple:
    """The point group of the translations alone."""
    return (np.eye(dim, dtype=np.int64),)


def _layer_counts(orbits) -> tuple:
    return tuple(
        np.bincount(entry_orders(orbits.torus.site_count, orbits.n_max)[orbits.reps],
                    minlength=orbits.n_max + 1).tolist()
    )


@pytest.mark.parametrize(
    "dim, sites, n_max, elements, by_translation, by_group",
    [(1, 18, 5, 2, 705, 394), (2, 4, 4, 8, 168, 50)],
)
def test_orbit_counts_are_pinned(dim, sites, n_max, elements, by_translation, by_group):
    kernels = _gauss(dim, sites)
    group = point_group(kernels)
    # isotropic Gaussians: the whole point group (order 2 in 1-D, 8 in 2-D)
    assert len(group) == elements
    assert np.array_equal(group[0], np.eye(dim))
    for g, count in ((_translations(dim), by_translation), (group, by_group)):
        orbits = orbit_map(kernels.torus, n_max, g)
        assert orbits.count == count
        # Burnside's count, layer by layer, without enumerating subsets
        assert orbit_counts(kernels.torus, n_max, g) == _layer_counts(orbits)


def _all_elements(dim: int) -> list:
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            g = np.zeros((dim, dim), dtype=np.int64)
            g[range(dim), perm] = signs
            out.append(g)
    return out


def _table_kernels(torus: Torus, seed: int, central_only: bool) -> KernelPair:
    """Random tables constant on the classes of difference sites under a point group.

    Each value is read at the least member of its class, so the invariance is
    exact: under -1 alone (centrally symmetric) or under every axis
    permutation and sign flip.
    """
    dim = torus.dim
    group = [np.eye(dim, dtype=np.int64), -np.eye(dim, dtype=np.int64)]
    if not central_only:
        group = _all_elements(dim)
    least = np.min([torus.transform(g) for g in group], axis=0)
    rng = np.random.default_rng(seed)
    tables = [rng.uniform(0.0, scale, torus.site_count)[least] for scale in (1.0, 0.8)]
    return KernelPair(torus, *tables)


def _reference_orbits(torus: Torus, n_max: int, group) -> np.ndarray:
    """Orbit labels by the least rank over every element x -> g x + v of the group."""
    sites = torus.site_count
    coords = torus.coord_array()
    maps = [
        torus.sites_of(g @ coords + coords[:, v:v + 1]) for g in group for v in range(sites)
    ]
    offs = layer_offsets(sites, n_max)
    labels = np.zeros(offs[-1], dtype=np.int64)
    for n in range(1, n_max + 1):
        layer = layer_array(sites, n)
        ranks = [subset_rank(sites, np.sort(f[layer], axis=1)) for f in maps]
        labels[offs[n]:offs[n + 1]] = offs[n] + np.min(ranks, axis=0)
    return labels


@st.composite
def _model(draw, max_dim: int = 2):
    """A small torus (at most 400 entries per state) with Gaussian or table kernels."""
    dim = draw(st.integers(1, max_dim))
    sites = draw(st.integers(3, 8) if dim == 1 else st.integers(2, 4))
    torus = Torus(dim, sites, draw(st.sampled_from([0.4, 0.5, 0.7])))
    count = torus.site_count
    n_max = max(
        n for n in range(1, 5) if sum(math.comb(count, k) for k in range(n + 1)) <= 400
    )
    n_max = draw(st.integers(1, n_max))
    kind = draw(st.sampled_from(["gaussian", "table", "central"]))
    if kind == "gaussian":
        kernels = kernel_pair_from_spec(torus, GAUSS_A, GAUSS_PHI)
    else:
        kernels = _table_kernels(torus, draw(st.integers(0, 2**16)), kind == "central")
    return kernels, n_max, kind


@settings(max_examples=30, deadline=None)
@given(model=_model(max_dim=3), translation_only=st.booleans())
def test_canonical_members_and_burnside_match_the_whole_group(model, translation_only):
    kernels, n_max, kind = model
    torus = kernels.torus
    group = _translations(torus.dim) if translation_only else point_group(kernels)
    if kind == "central" and torus.dim > 1 and torus.sites_per_axis > 2:
        # a table symmetric under -1 only: the axis flips are refused
        assert len(point_group(kernels)) < len(_all_elements(torus.dim))
    orbits = orbit_map(torus, n_max, group)
    # the n |group| translated candidates find the least member of the whole orbit
    assert np.array_equal(orbits.reps[orbits.orbit_of], _reference_orbits(torus, n_max, group))
    assert orbit_counts(torus, n_max, group) == _layer_counts(orbits)


def _evolve_pair(kernels, params, n_max, orbits, u0, scale, bound, cfg, t):
    """The same solve on the full route and on the orbit route."""
    results = []
    for route in (None, orbits):
        diag, pert = (
            OperatorHandle(kind, kernels, params, n_max, route)
            for kind in ("diagonal", "perturbation")
        )
        results.append(ovsyannikov_evolve(u0, 0.0, t, diag, pert, scale, bound, cfg))
    return results


def _rel(a: np.ndarray, b: np.ndarray, orders: np.ndarray, alpha: float) -> float:
    return float(np.max(norm_alpha_flat(a - b, orders, alpha))) / max(
        float(np.max(norm_alpha_flat(b, orders, alpha))), 1e-300
    )


@settings(max_examples=20, deadline=None)
@given(model=_model(), rho=st.floats(0.2, 1.2), epsilon=st.sampled_from([0.0, 0.3, 1.0]))
# the eps-sweep lattice: 2-D 4 x 4, n = 3 of its 4
@example(model=(_gauss(2, 4), 3, "gaussian"), rho=0.5, epsilon=1.0)
def test_orbit_route_matches_the_full_route(model, rho, epsilon):
    kernels, n_max, _ = model
    torus = kernels.torus
    params = ModelParams(1.0, 1.0, epsilon)
    scale = ScaleSpec(1.5, 2.5)
    bound = model_bound(kernels, params)
    # q and alpha pinned, so that any kernels leave room for upsilon
    horizon = min(time_horizon(1.5, b, bound) for b in (2.0, 2.5))
    shape = dict(q=1.5, alpha=2.0, time_grid_points=32, term_tol=1e-15, quad_tol=1e-4)
    cfg = SeriesConfig(upsilon=0.3 * horizon, trajectory_points=9, **shape)
    orbits = orbit_map(torus, n_max, point_group(kernels))
    u0 = CorrelationVector.product_form(torus, n_max, rho)
    full, orb = _evolve_pair(kernels, params, n_max, orbits, u0, scale, bound, cfg, cfg.upsilon)
    orders = flat_orders(torus, n_max)
    assert orb.stored_rows().shape == (len(full.times), orbits.count)
    assert _rel(orbits.expand(orb.stored_rows()), full.stored_rows(), orders, 2.5) <= _ROUTE_TOL
    assert _rel(orb.final_state.flat(), full.final_state.flat(), orders, 2.5) <= _ROUTE_TOL
    assert np.allclose(orb.norms_at(2.5), full.norms_at(2.5), rtol=_ROUTE_TOL, atol=0.0)

    sweep_cfg = SeriesConfig(upsilon=0.2 * horizon, trajectory_points=5, **shape)
    reports = []
    for route in (None, orbits):
        sweep = EpsilonSweep((0.4, 0.2, 0.0), u0, scale, sweep_cfg, route)
        rep = vlasov_limit(sweep, kernels, params, bound)
        z_lim = rep.operators[0.0][1]
        poles = [
            perturbation_gap(rep.operators[eps][1], z_lim, 4, scale, np.random.default_rng(5))
            for eps in sweep.positive
        ]
        reports.append((rep, poles))
    (full_rep, full_poles), (orb_rep, orb_poles) = reports
    # a sup gap is a difference of two trajectories that each agree to
    # rounding, so it agrees relative to their size (a gap of 1e-5 of the
    # trajectory can differ by 1e-12 of itself)
    size = float(full_rep.limit_result.norms_at(2.5).max())
    assert np.allclose(orb_rep.sup_gaps, full_rep.sup_gaps, rtol=0.0, atol=_ROUTE_TOL * size)
    for a, b in zip(orb_poles, full_poles):
        assert np.allclose(a.gaps, b.gaps, rtol=_ROUTE_TOL, atol=0.0)
        assert a.fitted_pole == pytest.approx(b.fitted_pole, rel=_ROUTE_TOL, abs=0.0)


@settings(max_examples=20, deadline=None)
@given(model=_model(), kind=st.sampled_from(["full", "diagonal", "perturbation"]))
def test_orbit_handles_apply_as_the_full_ones(model, kind):
    kernels, n_max, _ = model
    params = ModelParams(0.7, 1.3, 0.5)
    orbits = orbit_map(kernels.torus, n_max, point_group(kernels))
    u = CorrelationVector.product_form(kernels.torus, n_max, 0.6)
    full = OperatorHandle(kind, kernels, params, n_max).apply(u).flat()
    reduced = OperatorHandle(kind, kernels, params, n_max, orbits).apply(u).flat()
    scale = max(float(np.abs(full).max()), 1e-300)
    assert float(np.abs(reduced - full).max()) <= _ROUTE_TOL * scale


@settings(max_examples=40, deadline=None)
@given(model=_model(max_dim=3), epsilon=st.floats(1e-2, 50.0), seed=st.integers(0, 2**16))
def test_orbit_perturbation_gap_is_the_full_one(model, epsilon, seed):
    # every entry of D = Z_eps - Z_0 between two given orders has one sign,
    # so summing D over an orbit's columns leaves the induced norm as it is
    kernels, n_max, _ = model
    orbits = orbit_map(kernels.torus, n_max, point_group(kernels))
    scale = ScaleSpec(1.5, 6.0)
    reports = []
    for route in (None, orbits):
        z_eps, z_lim = (
            OperatorHandle("perturbation", kernels, ModelParams(0.7, 1.3, eps), n_max, route)
            for eps in (epsilon, 0.0)
        )
        rng = np.random.default_rng(seed)
        reports.append(perturbation_gap(z_eps, z_lim, 6, scale, rng))
    full, orb = reports
    assert np.array_equal(orb.deltas, full.deltas)
    assert np.allclose(orb.gaps, full.gaps, rtol=_ROUTE_TOL, atol=0.0)
    assert orb.fitted_pole == pytest.approx(full.fitted_pole, rel=_ROUTE_TOL, abs=0.0)


def _orbit_column_sums(handle, orbits):
    """Reference: the full route's matrix at the representative rows, its
    columns summed over each orbit, and the same sums of its terms' magnitudes."""
    blocks = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    blocks.extend(handle._blocks())
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    held = np.zeros(handle.dimension, dtype=bool)
    held[orbits.reps] = True
    rows, cols, vals = rows[held[rows]], cols[held[rows]], vals[held[rows]]
    shape = (orbits.count,) * 2
    ids = (orbits.orbit_of[rows], orbits.orbit_of[cols])
    return [sp.coo_matrix((v, ids), shape=shape).tocsr() for v in (vals, np.abs(vals))]


@settings(max_examples=60, deadline=None)
@given(
    model=_model(max_dim=3),
    epsilon=st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.just(1.0)),
    kind=st.sampled_from(["full", "diagonal", "perturbation"]),
)
def test_representative_rows_assemble_the_orbit_column_sums(model, epsilon, kind):
    # the orbit route enumerates the representative rows alone; its matrix
    # is the full matrix's orbit-column sums at those rows, entry for entry
    # up to the order in which an orbit's columns are summed
    kernels, n_max, _ = model
    params = ModelParams(0.7, 1.3, epsilon)
    orbits = orbit_map(kernels.torus, n_max, point_group(kernels))
    reduced = OperatorHandle(kind, kernels, params, n_max, orbits).matrix()
    ref, magnitude = _orbit_column_sums(OperatorHandle(kind, kernels, params, n_max), orbits)
    assert np.array_equal(reduced.indptr, ref.indptr)
    assert np.array_equal(reduced.indices, ref.indices)
    assert np.all(np.abs(reduced.data - ref.data) <= 1e-15 * magnitude.data)
    if kind == "diagonal":
        energies = OperatorHandle(kind, kernels, params, n_max).semigroup_energies()
        on_orbits = OperatorHandle(kind, kernels, params, n_max, orbits).semigroup_energies()
        assert on_orbits.tobytes() == energies[orbits.reps].tobytes()


def test_a_random_state_on_the_orbit_route_is_refused(rng):
    kernels = _gauss(1, 6)
    params = ModelParams(1.0, 1.0)
    orbits = orbit_map(kernels.torus, 3, point_group(kernels))
    diag, pert = (
        OperatorHandle(kind, kernels, params, 3, orbits) for kind in ("diagonal", "perturbation")
    )
    u0 = random_correlation(kernels.torus, 3, 1.5, rng)
    scale = ScaleSpec(1.5, 2.5)
    bound = model_bound(kernels, params)
    cfg = SeriesConfig(upsilon=0.3 * time_horizon(1.5, 2.5, bound))
    with pytest.raises(SymmetryError, match="not constant on the orbits"):
        ovsyannikov_evolve(u0, 0.0, cfg.upsilon, diag, pert, scale, bound, cfg)
    with pytest.raises(SymmetryError):
        pert.apply(u0)
    # the two handles of a solve share one route
    full_pert = OperatorHandle("perturbation", kernels, params, 3)
    u1 = CorrelationVector.product_form(kernels.torus, 3, 0.5)
    with pytest.raises(ValueError, match="orbit map"):
        ovsyannikov_evolve(u1, 0.0, cfg.upsilon, diag, full_pert, scale, bound, cfg)


def test_a_group_that_moves_a_kernel_is_refused():
    # centrally symmetric tables on a 3 x 3 torus: an axis flip moves them
    kernels = _table_kernels(Torus(2, 3, 0.5), 3, central_only=True)
    assert len(point_group(kernels)) < 8
    flips = orbit_map(kernels.torus, 2, _all_elements(2))
    with pytest.raises(ValueError, match="orbit map does not fit"):
        OperatorHandle("perturbation", kernels, ModelParams(1.0, 1.0), 2, flips)
