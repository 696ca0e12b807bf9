"""Geometry, kernels, and configuration-space transforms."""

import itertools
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovskale import Torus, kernel_pair_from_spec
from ovskale.lattice import (
    KernelPair,
    MAX_SUBSET_ORDER,
    SupportedFunction,
    diff_table,
    entry_orders,
    k_inverse,
    k_transform,
    kernel_values,
    layer_array,
    layer_offsets,
    layer_sizes,
    lp_exponential,
    lp_integral,
    subset_position,
    subset_rank,
    subsets_of_order,
    total_dimension,
    unique_inverse,
)
from conftest import (
    GAUSS_A,
    GAUSS_PHI,
    diff_site,
    min_image_distance,
    neg_site,
    pair_energy,
    point_energy,
    site_coords,
    site_index,
)


def load_kernel_pair(doc: dict) -> KernelPair:
    """A KernelPair from its JSON document {"dim", "sites", "spacing", "a", "phi"}."""
    torus = Torus(int(doc["dim"]), int(doc["sites"]), float(doc["spacing"]))
    return kernel_pair_from_spec(torus, doc["a"], doc["phi"])


def test_torus_indexing_roundtrip():
    tor = Torus(2, 3, 0.5)
    assert tor.site_count == 9
    assert tor.cell_volume == pytest.approx(0.25)
    coords = tor.coord_array()
    assert np.array_equal(tor.sites_of(coords), np.arange(tor.site_count))
    for s in range(tor.site_count):
        assert site_index(tor, site_coords(tor, s)) == s
        assert tuple(coords[:, s]) == site_coords(tor, s)


def test_torus_min_image_distance():
    tor = Torus(1, 6, 0.5)
    fast = tor.min_image_distances()
    for k in range(6):
        expected = min(k, 6 - k) * 0.5
        assert min_image_distance(tor, k) == pytest.approx(expected)
        assert fast[k] == pytest.approx(expected)


def test_diff_and_neg_sites():
    tor = Torus(1, 5, 1.0)
    table = diff_table(tor)
    for i in range(5):
        assert neg_site(tor, neg_site(tor, i)) == i
        for j in range(5):
            assert diff_site(tor, i, j) == (i - j) % 5
            assert table[i, j] == diff_site(tor, i, j)


@pytest.mark.parametrize("dim, sites", [(1, 18), (2, 4), (2, 5), (3, 4)])
def test_diff_table_matches_the_scalar_loop(dim, sites):
    tor = Torus(dim, sites, 0.5)
    count = tor.site_count
    ref = [[diff_site(tor, i, j) for j in range(count)] for i in range(count)]
    table = diff_table(tor)
    assert table.dtype == np.int64 and not table.flags.writeable
    assert np.array_equal(table, ref)


def test_torus_validation():
    with pytest.raises(ValueError):
        Torus(0, 4, 0.5)
    with pytest.raises(ValueError):
        Torus(1, 0, 0.5)
    with pytest.raises(ValueError):
        Torus(1, 4, -1.0)


def test_subset_enumeration_counts():
    s, n_max = 6, 3
    for n in range(n_max + 1):
        assert len(subsets_of_order(s, n)) == math.comb(s, n)
    assert layer_sizes(s, n_max) == tuple(math.comb(s, n) for n in range(n_max + 1))
    offs = layer_offsets(s, n_max)
    assert offs[0] == 0
    assert total_dimension(s, n_max) == sum(math.comb(s, n) for n in range(n_max + 1))
    orders = entry_orders(s, n_max)
    counts = np.bincount(orders, minlength=n_max + 1)
    assert tuple(counts) == layer_sizes(s, n_max)
    pos = subset_position(s, 2)
    for i, eta in enumerate(subsets_of_order(s, 2)):
        assert pos[eta] == i
    for n in range(s + 2):
        layer = layer_array(s, n)
        assert layer.shape == (math.comb(s, n), n)
        assert not layer.flags.writeable
        assert [tuple(row) for row in layer.tolist()] == list(subsets_of_order(s, n))
        assert np.array_equal(subset_rank(s, layer), np.arange(len(layer)))
    # ranks of an arbitrary selection of rows, out of order
    layer = layer_array(s, 3)
    pick = np.array([19, 0, 7, 7, 12])
    assert np.array_equal(subset_rank(s, layer[pick]), pick)


@settings(max_examples=50, deadline=None)
@given(values=st.lists(st.integers(-2**62, 2**62) | st.integers(0, 5), max_size=60))
def test_unique_inverse_is_np_unique(values):
    values = np.array(values, dtype=np.int64)
    distinct, inverse = unique_inverse(values)
    ref_distinct, ref_inverse = np.unique(values, return_inverse=True)
    for ours, ref in ((distinct, ref_distinct), (inverse, ref_inverse)):
        assert ours.dtype == ref.dtype
        assert np.array_equal(ours, ref)


def test_gaussian_kernel_hand_values():
    tor = Torus(1, 6, 0.5)
    vals = kernel_values(tor, GAUSS_A)
    for k in range(6):
        r = min_image_distance(tor, k)
        assert vals[k] == pytest.approx(1.0 * math.exp(-r * r / (2 * 0.7**2)), rel=1e-15)


@pytest.mark.parametrize("dim,sites,spacing", [(1, 7, 0.5), (2, 9, 0.11), (3, 5, 0.37)])
def test_kernel_tables_match_per_site_profiles(dim, sites, spacing):
    # the array tabulation against the profile sampled site by site
    tor = Torus(dim, sites, spacing)
    gauss = kernel_values(tor, GAUSS_A)
    hat = kernel_values(tor, {"kind": "tophat", "params": {"amplitude": 2.0, "radius": 0.6}})
    for k in range(tor.site_count):
        r = min_image_distance(tor, k)
        assert gauss[k] == pytest.approx(math.exp(-r * r / (2 * 0.7**2)), rel=2e-15)
        if abs(r - 0.6) > 1e-12:
            assert hat[k] == (2.0 if r <= 0.6 else 0.0)


def test_degenerate_kernel_width_is_a_value_error():
    # sigma^2 underflows to 0: a non-finite table, not a division error
    spec = {"kind": "gaussian", "params": {"amplitude": 1.0, "sigma": 1e-200}}
    with pytest.raises(ValueError, match="finite"):
        kernel_values(Torus(1, 4, 0.5), spec)


def test_tophat_kernel():
    tor = Torus(1, 6, 0.5)
    spec = {"kind": "tophat", "params": {"amplitude": 2.0, "radius": 0.6}}
    vals = kernel_values(tor, spec)
    for k in range(6):
        expected = 2.0 if min_image_distance(tor, k) <= 0.6 else 0.0
        assert vals[k] == expected


def test_table_kernel_and_origin_override():
    tor = Torus(1, 4, 0.5)
    spec = {"kind": "table", "params": {"values": [0.3, 0.2, 0.1, 0.2]}}
    assert np.array_equal(kernel_values(tor, spec), [0.3, 0.2, 0.1, 0.2])
    spec = {"kind": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.7, "origin": 0.0}}
    vals = kernel_values(tor, spec)
    assert vals[0] == 0.0
    assert vals[1] > 0.0


def test_kernel_validation():
    tor = Torus(1, 4, 0.5)
    with pytest.raises(ValueError):
        kernel_values(tor, {"kind": "table", "params": {"values": [0.1, -0.2, 0.1, 0.2]}})
    with pytest.raises(ValueError):
        kernel_values(tor, {"kind": "table", "params": {"values": [0.1, 0.2]}})
    with pytest.raises(ValueError):
        kernel_values(tor, {"kind": "nope", "params": {}})
    # reflection symmetry is a pair-level invariant
    with pytest.raises(ValueError):
        kernel_pair_from_spec(
            tor, {"kind": "table", "params": {"values": [0.1, 0.5, 0.1, 0.2]}}, GAUSS_PHI
        )


def test_kernel_pair_averages():
    tor = Torus(1, 6, 0.5)
    pair = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    assert pair.avg_a == pytest.approx(0.5 * pair.a_values.sum(), rel=1e-15)
    assert pair.sup_a == pytest.approx(pair.a_values.max())
    assert pair.avg_phi == pytest.approx(0.5 * pair.phi_values.sum(), rel=1e-15)


def test_kernel_pair_json_roundtrip():
    doc = {
        "dim": 1,
        "sites": 6,
        "spacing": 0.5,
        "a": GAUSS_A,
        "phi": {"kind": "table", "params": {"values": [0.4, 0.2, 0.1, 0.05, 0.1, 0.2]}},
    }
    pair = load_kernel_pair(doc)
    direct = kernel_pair_from_spec(Torus(1, 6, 0.5), doc["a"], doc["phi"])
    assert np.array_equal(pair.a_values, direct.a_values)
    assert np.array_equal(pair.phi_values, direct.phi_values)
    from_text = load_kernel_pair(json.loads(json.dumps(doc)))
    assert np.array_equal(from_text.a_values, pair.a_values)
    assert from_text.torus == pair.torus


def test_supported_function_window_and_order():
    tor = Torus(1, 6, 0.5)
    G = SupportedFunction(tor, {(): 2.0, (1,): 3.0, (1, 4): 5.0}, 2, window=(1, 4))
    assert G(()) == 2.0
    assert G((1,)) == 3.0
    assert G((4, 1)) == 5.0  # canonicalized lookup
    assert G((2,)) == 0.0
    assert G.support_sites() == (1, 4)
    with pytest.raises(ValueError):
        SupportedFunction(tor, {(1, 2, 3): 1.0}, 2)
    with pytest.raises(ValueError):
        SupportedFunction(tor, {(2,): 1.0}, 2, window=(1, 4))
    with pytest.raises(ValueError):
        SupportedFunction(tor, {(9,): 1.0}, 2)


def test_lp_integral_product_identity():
    # integral of a product function factorizes over sites: prod (1 + h f(x))
    tor = Torus(1, 6, 0.5)
    rng = np.random.default_rng(3)
    f = rng.uniform(0.1, 1.0, 6)
    vals = {}
    for n in range(7):
        for eta in itertools.combinations(range(6), n):
            vals[eta] = float(np.prod(f[list(eta)]))
    G = SupportedFunction(tor, vals, 6)
    expected = float(np.prod(1.0 + 0.5 * f))
    assert lp_integral(G, 6) == pytest.approx(expected, rel=1e-14)
    # truncation drops the high layers
    top2 = vals[()] + 0.5 * f.sum() + 0.25 * sum(
        f[i] * f[j] for i, j in itertools.combinations(range(6), 2)
    )
    assert lp_integral(G, 2) == pytest.approx(top2, rel=1e-14)


def test_lp_exponential():
    f = np.array([2.0, 3.0, 5.0, 7.0])
    assert lp_exponential(f, ()) == 1.0
    assert lp_exponential(f, (1, 3)) == pytest.approx(21.0)
    assert lp_exponential(lambda x: float(x + 1), (0, 2)) == pytest.approx(3.0)


def test_k_transform_hand_value():
    tor = Torus(1, 4, 0.5)
    G = SupportedFunction(tor, {(): 1.0, (0,): 2.0, (2,): 3.0, (0, 2): 4.0}, 2)
    assert k_transform(G, (0, 2)) == pytest.approx(1.0 + 2.0 + 3.0 + 4.0)
    assert k_transform(G, (1,)) == pytest.approx(1.0)


def test_mobius_roundtrip_random(rng):
    tor = Torus(1, 5, 0.5)
    vals = {}
    for n in range(4):
        for eta in itertools.combinations(range(5), n):
            vals[eta] = rng.normal()
    G = SupportedFunction(tor, vals, 3)
    F = lambda eta: k_transform(G, eta)
    for n in range(4):
        for eta in itertools.combinations(range(5), n):
            assert k_inverse(F, eta) == pytest.approx(G(eta), rel=1e-12, abs=1e-12)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.floats(-5, 5), min_size=8, max_size=8))
def test_mobius_inverse_then_transform(values):
    tor = Torus(1, 3, 0.5)
    keys = [()] + [(i,) for i in range(3)] + list(itertools.combinations(range(3), 2)) + [(0, 1, 2)]
    F = SupportedFunction(tor, dict(zip(keys, values)), 3)
    G = lambda eta: k_inverse(F, eta)
    for eta in keys:
        assert k_transform(G, eta) == pytest.approx(F(eta), rel=1e-9, abs=1e-9)


def test_transform_order_guard():
    tor = Torus(1, 26, 0.5)
    eta = tuple(range(26))
    assert len(eta) > MAX_SUBSET_ORDER
    with pytest.raises(ValueError):
        k_transform(lambda e: 1.0, eta)
    with pytest.raises(ValueError):
        k_inverse(lambda e: 1.0, eta)


def test_pair_energy_oracle():
    tor = Torus(1, 6, 0.5)
    pair = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    eta = (0, 2, 5)
    expected = 0.0
    for x in eta:
        for y in eta:
            if x != y:
                d = min(abs(x - y), 6 - abs(x - y)) * 0.5
                expected += math.exp(-d * d / (2 * 0.7**2))
    assert pair_energy(eta, pair) == pytest.approx(expected, rel=1e-14)
    assert pair_energy((3,), pair) == 0.0
    assert pair_energy((), pair) == 0.0


def test_point_energy_oracle():
    tor = Torus(1, 6, 0.5)
    pair = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    xi = (1, 4)
    expected = 0.0
    for y in xi:
        d = min(abs(3 - y), 6 - abs(3 - y)) * 0.5
        expected += 0.8 * math.exp(-d * d / (2 * 0.5**2))
    assert point_energy(3, xi, pair) == pytest.approx(expected, rel=1e-14)
    assert point_energy(3, (), pair) == 0.0
