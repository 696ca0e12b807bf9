"""Truncated correlation vectors and their serialization."""

import json

import numpy as np
import pytest

from ovskale import CorrelationVector, Torus
from ovskale.lattice import entry_orders, lp_exponential, subsets_of_order, total_dimension
from ovskale.states import flat_orders, random_correlation


def test_zeros_shape():
    tor = Torus(1, 5, 0.5)
    k = CorrelationVector.zeros(tor, 3)
    assert k.dimension == total_dimension(5, 3)
    assert len(k.layers) == 4
    assert all(np.all(layer == 0.0) for layer in k.layers)
    assert k.value((0, 2)) == 0.0


def test_product_form_scalar():
    tor = Torus(1, 5, 0.5)
    k = CorrelationVector.product_form(tor, 3, 0.7)
    assert k.value(()) == 1.0
    assert k.value((2,)) == pytest.approx(0.7)
    assert k.value((0, 3)) == pytest.approx(0.49)
    assert k.value((0, 2, 4)) == pytest.approx(0.343)


def test_product_form_site_profile():
    tor = Torus(1, 4, 0.5)
    rho = np.array([0.1, 0.2, 0.3, 0.4])
    k = CorrelationVector.product_form(tor, 2, rho)
    assert k.value((1, 3)) == pytest.approx(0.08)
    for eta in subsets_of_order(4, 2):
        assert k.value(eta) == pytest.approx(rho[eta[0]] * rho[eta[1]], rel=1e-15)
    # the layer products multiply in the order of the scalar reference
    k = CorrelationVector.product_form(tor, 4, rho)
    for n in range(5):
        for eta in subsets_of_order(4, n):
            assert k.value(eta) == lp_exponential(rho, eta)


def test_value_above_truncation_is_zero():
    tor = Torus(1, 5, 0.5)
    k = CorrelationVector.product_form(tor, 2, 0.5)
    assert k.value((0, 1, 2)) == 0.0


def test_flat_roundtrip(rng):
    tor = Torus(1, 5, 0.5)
    vec = rng.normal(size=total_dimension(5, 3))
    k = CorrelationVector.from_flat(tor, 3, vec)
    assert np.array_equal(k.flat(), vec)
    with pytest.raises(ValueError):
        CorrelationVector.from_flat(tor, 3, vec[:-1])


def test_flat_orders_match_entry_orders():
    tor = Torus(1, 6, 0.5)
    assert np.array_equal(flat_orders(tor, 3), entry_orders(6, 3))


def test_json_roundtrip(rng):
    tor = Torus(1, 4, 0.5)
    k = random_correlation(tor, 2, 1.7, rng)
    back = CorrelationVector.from_json(tor, k.to_json())
    assert np.array_equal(back.flat(), k.flat())
    doc = k.to_json_dict()
    assert json.dumps(doc)  # plain JSON types only
    bad = dict(doc)
    bad["extra"] = 1
    with pytest.raises(ValueError):
        CorrelationVector.from_json_dict(tor, bad)
    missing = {"N_max": doc["N_max"]}
    with pytest.raises(ValueError):
        CorrelationVector.from_json_dict(tor, missing)


def test_layer_validation():
    tor = Torus(1, 4, 0.5)
    good = CorrelationVector.zeros(tor, 2).layers
    with pytest.raises(ValueError):
        CorrelationVector(tor, 2, good[:-1])
    wrong = (good[0], np.zeros(3), good[2])
    with pytest.raises(ValueError):
        CorrelationVector(tor, 2, wrong)
    bad = (np.array([np.nan]), good[1], good[2])
    with pytest.raises(ValueError):
        CorrelationVector(tor, 2, bad)


def test_random_correlation_layer_bounds(rng):
    tor = Torus(1, 6, 0.5)
    alpha = 1.9
    k = random_correlation(tor, 3, alpha, rng)
    for n, layer in enumerate(k.layers):
        assert np.all(np.abs(layer) <= alpha**n + 1e-12)
    # deterministic under a fixed seed
    k2 = random_correlation(tor, 3, alpha, np.random.default_rng(42))
    k3 = random_correlation(tor, 3, alpha, np.random.default_rng(42))
    assert np.array_equal(k2.flat(), k3.flat())
