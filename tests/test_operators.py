"""Generator assembly, the diagonal/perturbation split, and duality."""

import itertools
import math
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from ovskale import (
    ModelParams,
    OperatorHandle,
    Torus,
    interaction_energies,
    kernel_pair_from_spec,
    orbit_map,
    point_group,
)
from ovskale.lattice import (
    SupportedFunction,
    diff_table,
    layer_offsets,
    subset_position,
    subsets_of_order,
    total_dimension,
)
from ovskale import operators
from ovskale.operators import _mobius_table
from ovskale.states import CorrelationVector, flat_orders, random_correlation

from conftest import (
    GAUSS_A,
    GAUSS_PHI,
    apply_observable_generator,
    lp_pairing,
    pair_energy,
    to_dense,
)


def _semigroup_profile(energies, tau, u0):
    """e^{-tau E} u0 at every time of tau, one row each: the diagonal semigroup."""
    return np.exp(-np.outer(tau, energies)) * u0


def dense(kind, kernels, params, n_max) -> np.ndarray:
    return to_dense(OperatorHandle(kind, kernels, params, n_max).matrix())


# reference enumerator: one Python triplet per term, in the paper's notation
def generator_entries(kind, kernels, params, n_max):
    """Yield (row, col, value) triplets of one part of L_eps, eps = params.epsilon.

    "diagonal" is the -eps E^a multiplication A_eps, "perturbation" the
    crowding, death and birth families Z_eps, "full" their sum.  Rows and
    columns are flat indices over the layered state.
    """
    eps = float(params.epsilon)
    diagonal_scale = 0.0 if kind == "perturbation" else eps
    coupled = kind != "diagonal"  # crowding, death and birth
    mob = _mobius_table(kernels, eps) if coupled else None
    torus = kernels.torus
    s = torus.site_count
    h = torus.cell_volume
    diff = diff_table(torus)
    a_vals = kernels.a_values
    phi_vals = kernels.phi_values
    offs = layer_offsets(s, n_max)
    m_rate = params.death_amplitude
    lam = params.birth_intensity
    all_sites = range(s)

    for n in range(n_max + 1):
        layer = subsets_of_order(s, n)
        base = offs[n]
        pos_up = subset_position(s, n + 1) if n + 1 <= n_max else None
        pos_down = subset_position(s, n - 1) if n >= 1 else None
        for idx, eta in enumerate(layer):
            row = base + idx
            eta_set = set(eta)
            if diagonal_scale != 0.0 and n >= 2:
                yield row, row, -diagonal_scale * pair_energy(eta, kernels)
            if coupled and pos_up is not None:
                for x in all_sites:
                    if x in eta_set:
                        continue
                    coef = 0.0
                    drow = diff[x]
                    for y in eta:
                        coef += a_vals[drow[y]]
                    if coef != 0.0:
                        col = offs[n + 1] + pos_up[tuple(sorted(eta + (x,)))]
                        yield row, col, -h * coef
            if coupled and n >= 1:
                # attraction damping of each removal site against the rest of eta
                prefac = []
                for x in eta:
                    drow = diff[x]
                    e_phi = sum(phi_vals[drow[y]] for y in eta if y != x)
                    prefac.append((x, m_rate * math.exp(-eps * e_phi)))
                complement = [x for x in all_sites if x not in eta_set]
                for j in range(0, min(n_max - n, len(complement)) + 1):
                    weight = h**j
                    pos_tgt = subset_position(s, n + j)
                    off_tgt = offs[n + j]
                    for xi in itertools.combinations(complement, j):
                        val = 0.0
                        for x, pre in prefac:
                            drow = diff[x]
                            prod = pre
                            for y in xi:
                                prod *= mob[drow[y]]
                            val += prod
                        if val != 0.0:
                            col = off_tgt + pos_tgt[tuple(sorted(eta + xi))]
                            yield row, col, -weight * val
            if coupled and pos_down is not None:
                off_dn = offs[n - 1]
                for x in eta:
                    col = off_dn + pos_down[tuple(y for y in eta if y != x)]
                    yield row, col, lam


def reference_matrices(kind, kernels, params, n_max):
    """CSR matrices of the enumerated triplets and of their absolute values."""
    rows, cols, vals = [], [], []
    for r, c, v in generator_entries(kind, kernels, params, n_max):
        rows.append(r)
        cols.append(c)
        vals.append(v)
    d = total_dimension(kernels.torus.site_count, n_max)
    vals = np.asarray(vals, dtype=float)
    index = (np.asarray(rows), np.asarray(cols))
    return tuple(
        sp.coo_matrix((v, index), shape=(d, d)).tocsr() for v in (vals, np.abs(vals))
    )


@settings(max_examples=30, deadline=None)
@given(
    # a cube of 3^3 sites keeps the Python reference within a second or two
    shape=st.one_of(
        st.tuples(st.integers(1, 2), st.integers(2, 4)),
        st.tuples(st.just(3), st.integers(2, 3)),
    ),
    n_max=st.integers(0, 4),
    spacing=st.floats(0.25, 1.0),
    epsilon=st.one_of(st.just(0.0), st.floats(0.0, 1.0)),
    kind=st.sampled_from(("full", "diagonal", "perturbation")),
    radius=st.one_of(st.none(), st.floats(0.0, 1.5)),
)
def test_assembly_matches_reference(shape, n_max, spacing, epsilon, kind, radius):
    dim, sites = shape
    tor = Torus(dim, sites, spacing)
    # a tophat competition kernel leaves zero crowding sums, which are skipped
    a_spec = GAUSS_A if radius is None else {
        "kind": "tophat", "params": {"amplitude": 1.0, "radius": radius}
    }
    ker = kernel_pair_from_spec(tor, a_spec, GAUSS_PHI)
    par = ModelParams(death_amplitude=1.3, birth_intensity=0.7, epsilon=epsilon)
    n_max = min(n_max, tor.site_count)
    fast = OperatorHandle(kind, ker, par, n_max).matrix()
    ref, magnitude = reference_matrices(kind, ker, par, n_max)
    assert np.array_equal(fast.indptr, ref.indptr)
    assert np.array_equal(fast.indices, ref.indices)
    if epsilon == 0.0:
        assert np.array_equal(fast.data, ref.data)
    # np.exp and math.exp may differ in the last place of a damping factor,
    # and a crowding and a death term of opposite signs can share an entry,
    # so the tolerance is relative to the magnitude of the entry's terms
    assert np.all(np.abs(fast.data - ref.data) <= 1e-14 * magnitude.data)
    s = tor.site_count
    expected = [pair_energy(eta, ker) for n in range(n_max + 1) for eta in subsets_of_order(s, n)]
    assert np.array_equal(interaction_energies(ker, n_max), expected)


def _int64_staged(handle):
    """Reference: the handle's matrix from its own blocks as int64 COO.

    The blocks are concatenated in one pass, all three coordinates together,
    and on the orbit route their rows and columns are mapped to orbit ids
    after the concatenation.
    """
    blocks = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
    blocks.extend(handle._blocks())
    rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
    n = handle.dimension
    if handle.orbits is not None:
        ids, n = handle.orbits.orbit_of, handle.orbits.count
        rows, cols = ids[rows], ids[cols]
    return sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()


def _same_bits(a, b) -> bool:
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("dim, sites, n_max", [(1, 9, 4), (2, 4, 3)])
@pytest.mark.parametrize("epsilon", [0.0, 0.3, 1.0])
@pytest.mark.parametrize("route, block_entries", [
    pytest.param("full", None, id="full"),
    pytest.param("orbit", None, id="orbit"),
    pytest.param("full", 5, id="full-blocks5"),
    pytest.param("orbit", 5, id="orbit-blocks5"),
])
def test_int32_staged_assembly_is_the_int64_staged_one(
    dim, sites, n_max, epsilon, route, block_entries, monkeypatch,
):
    # staging int32 blocks one coordinate at a time leaves the CSR arrays
    # bit for bit as the int64 staging of the same blocks made them; and
    # blocks of a row or two each, as against one block a layer, change no
    # bit: a block holds whole rows, in their order
    ker = kernel_pair_from_spec(Torus(dim, sites, 0.5), GAUSS_A, GAUSS_PHI)
    par = ModelParams(death_amplitude=1.3, birth_intensity=0.7, epsilon=epsilon)
    orbits = orbit_map(ker.torus, n_max, point_group(ker)) if route == "orbit" else None
    for kind in ("full", "diagonal", "perturbation"):
        ref = _int64_staged(OperatorHandle(kind, ker, par, n_max, orbits))
        with monkeypatch.context() as patch:
            if block_entries is not None:
                patch.setattr(operators, "_BLOCK_ENTRIES", block_entries)
            mat = OperatorHandle(kind, ker, par, n_max, orbits).matrix()
        assert mat.shape == ref.shape
        assert mat.indices.dtype == np.int32
        for name in ("indptr", "indices", "data"):
            assert _same_bits(getattr(mat, name), getattr(ref, name)), (kind, name)


def test_single_site_hand_matrix():
    tor = Torus(1, 1, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    par = ModelParams(death_amplitude=1.3, birth_intensity=0.7)
    L = dense("full", ker, par, 1)
    expected = np.array([[0.0, 0.0], [0.7, -1.3]])
    assert np.allclose(L, expected, rtol=0, atol=1e-15)


def test_two_site_hand_matrix():
    # flat order: (), (0,), (1,), (0, 1)
    h = 0.5
    tor = Torus(1, 2, h)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    m, lam = 1.3, 0.7
    par = ModelParams(death_amplitude=m, birth_intensity=lam)
    a = ker.a_values[1]
    phi = ker.phi_values[1]
    w = math.expm1(-phi)
    expected = np.array(
        [
            [0.0, 0.0, 0.0, 0.0],
            [lam, -m, 0.0, -h * (a + m * w)],
            [lam, 0.0, -m, -h * (a + m * w)],
            [0.0, lam, lam, -2.0 * a - 2.0 * m * math.exp(-phi)],
        ]
    )
    L = dense("full", ker, par, 2)
    assert np.allclose(L, expected, rtol=1e-15, atol=1e-18)


def test_empty_configuration_row_is_zero(stock4):
    L = OperatorHandle("full", stock4.kernels, stock4.params, stock4.n_max).matrix()
    assert L.indptr[1] - L.indptr[0] == 0


def test_diagonal_plus_perturbation_is_hierarchy(stock4):
    args = (stock4.kernels, stock4.params, stock4.n_max)
    A = dense("diagonal", *args)
    Z = dense("perturbation", *args)
    L = dense("full", *args)
    assert np.allclose(A + Z, L, rtol=1e-15, atol=1e-18)
    # A is diagonal, Z carries every off-diagonal entry
    assert np.allclose(A, np.diag(np.diag(A)), atol=0)
    assert np.allclose(np.diag(A), -interaction_energies(stock4.kernels, stock4.n_max))


@settings(max_examples=20, deadline=None)
@given(
    dim=st.integers(1, 2),
    sites=st.integers(2, 4),
    n_max=st.integers(0, 3),
    spacing=st.floats(0.25, 1.0),
    epsilon=st.floats(0.0, 1.0),
)
def test_split_is_entrywise_exact(dim, sites, n_max, spacing, epsilon):
    tor = Torus(dim, sites, spacing)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    par = ModelParams(death_amplitude=1.3, birth_intensity=0.7, epsilon=epsilon)
    n_max = min(n_max, tor.site_count)
    split = dense("diagonal", ker, par, n_max) + dense("perturbation", ker, par, n_max)
    assert np.array_equal(dense("full", ker, par, n_max), split)
    energies = OperatorHandle("diagonal", ker, par, n_max).semigroup_energies()
    assert np.array_equal(energies, epsilon * interaction_energies(ker, n_max))


def test_rescaled_family_matches_split(stock4):
    par = ModelParams(death_amplitude=1.0, birth_intensity=1.0, epsilon=0.4)
    R = dense("full", stock4.kernels, par, stock4.n_max)
    Ad = dense("diagonal", stock4.kernels, par, stock4.n_max)
    Zd = dense("perturbation", stock4.kernels, par, stock4.n_max)
    assert np.allclose(Ad + Zd, R, rtol=1e-15, atol=1e-18)
    # the scaled diagonal is epsilon times the unscaled one
    A1 = dense("diagonal", stock4.kernels, stock4.params, stock4.n_max)
    assert np.allclose(Ad, 0.4 * A1, rtol=1e-15, atol=1e-18)


def test_rescaled_at_unit_epsilon_is_hierarchy():
    # epsilon = 1 is the default, and its death term carries the unscaled
    # Moebius weight e^{-phi} - 1 with full attraction damping
    h, m = 0.5, 1.3
    tor = Torus(1, 3, h)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    default = ModelParams(death_amplitude=m, birth_intensity=0.7)
    unit = replace(default, epsilon=1.0)
    for kind in ("full", "diagonal", "perturbation"):
        assert np.array_equal(dense(kind, ker, default, 3), dense(kind, ker, unit, 3))
    Z = dense("perturbation", ker, unit, 3)
    a, phi = ker.a_values[1], ker.phi_values[1]
    # row (0,), column (0, 1): crowding plus one Moebius factor
    assert Z[1, 4] == pytest.approx(-h * (a + m * math.expm1(-phi)), rel=1e-15)
    # row (0, 1), column (0, 1, 2): two removal sites, each damped by its partner
    w = np.expm1(-ker.phi_values)
    expected = -h * (ker.a_values[2] + ker.a_values[1] + m * math.exp(-phi) * (w[2] + w[1]))
    assert Z[4, 7] == pytest.approx(expected, rel=1e-14)


def test_limit_perturbation_entry_taylor_bound():
    h = 0.5
    tor = Torus(1, 2, h)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    phi = ker.phi_values[1]
    m = 1.3
    z0 = dense("perturbation", ker, ModelParams(m, 0.7, epsilon=0.0), 2)
    assert z0[1, 3] == pytest.approx(-h * (ker.a_values[1] - m * phi), rel=1e-14)
    for eps in (1e-1, 1e-3):
        ze = dense("perturbation", ker, ModelParams(m, 0.7, epsilon=eps), 2)
        diff = abs(ze[1, 3] - z0[1, 3])
        assert 0.0 < diff <= h * m * eps * phi * phi / 2.0 * (1 + 1e-12)


def test_observable_duality_small(stock4, rng):
    L = OperatorHandle("full", stock4.kernels, stock4.params, stock4.n_max)
    s = stock4.torus.site_count
    for _ in range(20):
        vals = {(): rng.uniform(-1, 1)}
        for n in range(1, stock4.n_max + 1):
            for eta in itertools.combinations(range(s), n):
                vals[eta] = rng.uniform(-1, 1)
        G = SupportedFunction(stock4.torus, vals, stock4.n_max)
        k = random_correlation(stock4.torus, stock4.n_max, 1.8, rng)
        lhs = lp_pairing(G, L.apply(k))
        rhs = lp_pairing(
            apply_observable_generator(G, stock4.kernels, stock4.params, stock4.n_max), k
        )
        assert lhs == pytest.approx(rhs, rel=1e-11, abs=1e-13)


def test_lp_pairing_hand_value():
    tor = Torus(1, 2, 0.5)
    F = SupportedFunction(tor, {(): 2.0, (0,): 3.0, (1,): 5.0}, 1)
    k = CorrelationVector.product_form(tor, 1, 0.4)
    assert lp_pairing(F, k) == pytest.approx(2.0 + 0.5 * (3.0 + 5.0) * 0.4, rel=1e-15)


def test_semigroup_identity_and_composition(stock4, rng):
    # the semigroup profile e^{-tau E} u on the diagonal handle
    k = random_correlation(stock4.torus, stock4.n_max, 1.8, rng).flat()
    energies = OperatorHandle(
        "diagonal", stock4.kernels, stock4.params, stock4.n_max
    ).semigroup_energies()
    same, two, five = _semigroup_profile(energies, np.array([0.0, 0.2, 0.5]), k)
    assert np.array_equal(same, k)
    composed = _semigroup_profile(energies, np.array([0.3]), two)[0]
    assert np.allclose(composed, five, rtol=1e-14, atol=1e-16)


def test_semigroup_profile_matches_energies(stock4, rng):
    k = random_correlation(stock4.torus, stock4.n_max, 1.8, rng).flat()
    energies = interaction_energies(stock4.kernels, stock4.n_max)
    t, eps = 0.7, 0.3
    par = ModelParams(death_amplitude=1.0, birth_intensity=1.0, epsilon=eps)
    diag = OperatorHandle("diagonal", stock4.kernels, par, stock4.n_max)
    out = _semigroup_profile(diag.semigroup_energies(), np.array([t]), k)[0]
    assert np.allclose(out, np.exp(-t * eps * energies) * k, rtol=1e-14)
    # the profile is the flow of the diagonal part's matrix
    rate = diag.matrix() @ k
    assert np.allclose(rate, -diag.semigroup_energies() * k, rtol=1e-14, atol=1e-16)


def test_semigroup_energies_diagonal_kinds_only(stock4):
    args = (stock4.kernels, stock4.params, stock4.n_max)
    diag = OperatorHandle("diagonal", *args)
    assert np.array_equal(
        diag.semigroup_energies(), interaction_energies(stock4.kernels, stock4.n_max)
    )
    for kind in ("full", "perturbation"):
        with pytest.raises(ValueError):
            OperatorHandle(kind, *args).semigroup_energies()


def test_interaction_energies_hand(stock4):
    energies = interaction_energies(stock4.kernels, stock4.n_max)
    orders = flat_orders(stock4.torus, stock4.n_max)
    assert np.all(energies[orders < 2] == 0.0)
    s = stock4.torus.site_count
    idx = 1 + s  # first order-2 entry
    for j, eta in enumerate(subsets_of_order(s, 2)):
        assert energies[idx + j] == pytest.approx(pair_energy(eta, stock4.kernels), rel=1e-14)


def test_apply_matches_matrix(stock4, rng):
    op = OperatorHandle("full", stock4.kernels, stock4.params, stock4.n_max)
    k = random_correlation(stock4.torus, stock4.n_max, 1.8, rng)
    assert np.allclose(op.apply(k).flat(), op.matrix() @ k.flat(), rtol=1e-15)
    other = random_correlation(stock4.torus, stock4.n_max - 1, 1.8, rng)
    with pytest.raises(ValueError):
        op.apply(other)


def test_operator_kind_guard(stock4):
    for kind in ("bogus", "hierarchy", "rescaled"):
        with pytest.raises(ValueError):
            OperatorHandle(kind, stock4.kernels, stock4.params, stock4.n_max)
    with pytest.raises(ValueError):
        OperatorHandle("full", stock4.kernels, stock4.params, -1)


def test_model_params_validation():
    with pytest.raises(ValueError):
        ModelParams(death_amplitude=0.0, birth_intensity=1.0)
    with pytest.raises(ValueError):
        ModelParams(death_amplitude=1.0, birth_intensity=0.0)
    with pytest.raises(ValueError):
        ModelParams(death_amplitude=1.0, birth_intensity=1.0, epsilon=-0.1)
    with pytest.raises(ValueError):
        ModelParams(death_amplitude=math.nan, birth_intensity=1.0)
