"""Majorant-controlled series solver against independent propagators."""

import json
import math
import time
from dataclasses import replace

import numpy as np
import pytest

from ovskale import (
    ConvergenceError,
    CorrelationVector,
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
    ovsyannikov_evolve,
    time_horizon,
)
from ovskale.series import default_intermediate_alpha
from ovskale.states import random_correlation

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


def test_zero_duration_returns_initial(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    diag, pert, _ = _ops(small)
    res = ovsyannikov_evolve(u0, 0.3, 0.3, diag, pert, small.scale, small.bound, _cfg(small))
    assert res.n_used == 0
    assert res.converged
    assert np.array_equal(res.final_state.flat(), u0.flat())
    assert np.array_equal(res.times, [0.3])


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
    # diag None runs the identity-semigroup route used by the scaling limit
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    z0 = OperatorHandle(
        "perturbation", small.kernels, replace(small.params, epsilon=0.0), small.n_max
    )
    t = 0.4 * small.horizon
    res = ovsyannikov_evolve(u0, 0.0, t, None, z0, small.scale, small.bound, _cfg(small))
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
    assert len(res.times) == len(res.states) == 9
    assert np.all(np.diff(res.times) > 0)


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


def test_oracle_routes_agree_on_2d_torus():
    # 2-D 4x4 torus at order 4 (d = 2,517): both sparse routes in well under 0.1 s
    tor = Torus(2, 4, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    full = OperatorHandle("full", ker, ModelParams(1.0, 1.0), 4)
    full.matrix()
    u0 = CorrelationVector.product_form(tor, 4, 0.5)
    start = time.perf_counter()
    ref = oracle_evolve(u0, 0.0092, full, agreement_tol=1e-12)
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


def test_default_intermediate_alpha(small):
    ups = 0.5 * small.horizon
    alpha = default_intermediate_alpha(small.scale, small.bound, ups)
    assert small.scale.alpha_s < alpha < small.scale.alpha_star
    assert time_horizon(small.scale.alpha_s, alpha, small.bound) > ups
    with pytest.raises(HorizonError):
        default_intermediate_alpha(small.scale, small.bound, 10.0 * small.horizon)


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
    assert len(doc["times"]) == len(doc["norm_alpha"]) == len(res.states)
    norms = res.norms_at(small.scale.alpha_star)
    assert norms.shape == res.times.shape
    assert np.all(norms >= 0)
