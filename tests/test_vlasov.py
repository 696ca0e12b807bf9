"""Scaling-limit diagnostics: semigroup gaps, operator gaps, chaos."""

import math
import tracemalloc
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ovskale import (
    ConfigError,
    ConvergenceError,
    CorrelationVector,
    DensityField,
    EpsilonSweep,
    ModelParams,
    OperatorHandle,
    SeriesConfig,
    Torus,
    chaos_check,
    kernel_pair_from_spec,
    interaction_energies,
    ovsyannikov_evolve,
    perturbation_gap,
    semigroup_gap,
    semigroup_gap_bound,
    semigroup_gap_intermediate,
    vlasov_limit,
)
from ovskale import experiments, series
from ovskale.config import build_runtime, load_config
from ovskale.lattice import layer_offsets
from ovskale.orbits import orbit_map, point_group
from ovskale.scale import norm_alpha_flat
from ovskale.states import flat_orders

from conftest import GAUSS_A, GAUSS_PHI, Instance, make_instance


@pytest.fixture(scope="module")
def small() -> Instance:
    return make_instance(sites=4, n_max=2)


def _cfg(inst: Instance, **overrides) -> SeriesConfig:
    base = dict(
        upsilon=0.4 * inst.horizon,
        time_grid_points=128,
        n_max=30,
        term_tol=1e-12,
        quad_tol=1e-8,
        trajectory_points=9,
    )
    base.update(overrides)
    return SeriesConfig(**base)


def test_epsilon_sweep_validation(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    cfg = _cfg(small)
    sweep = EpsilonSweep((0.2, 0.1, 0.0), u0, small.scale, cfg)
    assert sweep.positive == (0.2, 0.1)
    with pytest.raises(ConfigError):
        EpsilonSweep((0.1, 0.2, 0.0), u0, small.scale, cfg)
    with pytest.raises(ConfigError):
        EpsilonSweep((0.2, 0.1), u0, small.scale, cfg)
    with pytest.raises(ConfigError):
        EpsilonSweep((0.2, 0.0, 0.0), u0, small.scale, cfg)
    with pytest.raises(ConfigError):
        EpsilonSweep((0.0,), u0, small.scale, cfg)
    with pytest.raises(ConfigError):
        EpsilonSweep((0.2, -0.1, 0.0), u0, small.scale, cfg)


def _diagonal(kernels, n_max: int, eps: float, orbits=None) -> OperatorHandle:
    params = ModelParams(death_amplitude=1.0, birth_intensity=1.0, epsilon=eps)
    return OperatorHandle("diagonal", kernels, params, n_max, orbits)


def sampled_semigroup_ratios(
    energies: np.ndarray, t: float, samples: int, torus, n_max: int,
    alpha_lo: float, alpha_hi: float, rng,
) -> np.ndarray:
    """Reference: |(e^{-t E} - 1) u|_{alpha_hi} / |u|_{alpha_lo} over flat states u.

    E holds the energies of every flat entry.  u runs over the geometric
    profile alpha_lo^{|eta|} (the first ratio), then samples random states
    in the alpha_lo ball from one draw, layer n of each uniform in
    [-alpha_lo^n, alpha_lo^n].
    """
    factor = np.expm1(-t * energies)
    orders = flat_orders(torus, n_max)
    offs = layer_offsets(torus.site_count, n_max)
    drawn = rng.uniform(-1.0, 1.0, (samples, offs[-1]))
    for n in range(1, n_max + 1):
        drawn[:, offs[n]:offs[n + 1]] *= alpha_lo**n
    states = np.vstack([np.power(alpha_lo, orders.astype(float)), drawn])
    denoms = norm_alpha_flat(states, orders, alpha_lo)
    return norm_alpha_flat(states * factor, orders, alpha_hi) / denoms


@settings(max_examples=40, deadline=None)
@given(
    # 3^3 sites at order 3 keep the sampled reference within a second
    shape=st.one_of(
        st.tuples(st.just(1), st.integers(2, 9)),
        st.tuples(st.just(2), st.integers(2, 4)),
        st.tuples(st.just(3), st.integers(2, 3)),
    ),
    n_max=st.integers(1, 4),
    epsilon=st.floats(0.0, 1.0, exclude_min=True),
    t=st.floats(0.0, 0.5),
    alpha_lo=st.floats(1.01, 3.0),
    log_split=st.floats(0.01, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_semigroup_gap_is_the_sup_of_the_sampled_gaps(
    shape, n_max, epsilon, t, alpha_lo, log_split, seed
):
    dim, sites = shape
    ker = kernel_pair_from_spec(Torus(dim, sites, 0.5), GAUSS_A, GAUSS_PHI)
    n_max = min(n_max, ker.torus.site_count, 3 if dim == 3 else 4)
    alpha_hi = alpha_lo * math.exp(log_split)
    exact = semigroup_gap(_diagonal(ker, n_max, epsilon), t, alpha_lo, alpha_hi)
    ratios = sampled_semigroup_ratios(
        epsilon * interaction_energies(ker, n_max), t, 8, ker.torus, n_max,
        alpha_lo, alpha_hi, np.random.default_rng(seed),
    )
    # where t eps E^a underflows, the gaps are subnormal: doubles there are
    # smallest_subnormal apart, so two rounding orders agree only to a few
    # of those steps, not to a relative 1e-15
    steps = 4.0 * np.finfo(float).smallest_subnormal
    # no state exceeds the exact norm, and the geometric profile attains it
    assert np.all(ratios <= exact * (1.0 + 1e-14) + steps)
    assert ratios[0] == pytest.approx(exact, rel=1e-15, abs=steps)
    orbits = orbit_map(ker.torus, n_max, point_group(ker))
    on_orbits = semigroup_gap(_diagonal(ker, n_max, epsilon, orbits), t, alpha_lo, alpha_hi)
    assert on_orbits == pytest.approx(exact, rel=1e-15, abs=steps)


def test_semigroup_gap_vanishes_at_limit(small):
    assert semigroup_gap(_diagonal(small.kernels, small.n_max, 0.0), 0.02, 1.5, 2.2) == 0.0
    diag = _diagonal(small.kernels, small.n_max, 0.4)
    assert semigroup_gap(diag, 0.0, 1.5, 2.2) == 0.0
    assert semigroup_gap(diag, 0.02, 1.5, 2.2) > 0.0
    with pytest.raises(ValueError):
        semigroup_gap(diag, -0.02, 1.5, 2.2)
    with pytest.raises(ValueError):
        semigroup_gap(diag, 0.02, 2.2, 1.5)
    with pytest.raises(ValueError):
        semigroup_gap(_perturbation(small, 0.4), 0.02, 1.5, 2.2)


def test_semigroup_gap_chain_of_bounds():
    # constant competition table makes E^a exactly n (n - 1)
    tor = Torus(1, 8, 0.5)
    ker = kernel_pair_from_spec(
        tor, {"kind": "table", "params": {"values": [1.0] * 8}}, GAUSS_PHI
    )
    orbits = orbit_map(tor, 4, point_group(ker))
    a_lo, a_hi = 1.5, 1.5 * math.exp(0.5)
    t = 0.02
    mid = semigroup_gap_intermediate(t, ker, 4, a_lo, a_hi)
    assert semigroup_gap_intermediate(t, ker, 4, a_lo, a_hi, orbits) == mid
    closed = semigroup_gap_bound(t, ker, a_lo, a_hi)
    assert closed == pytest.approx(t * 4.0 * ker.sup_a / (math.e * 0.5) ** 2, rel=1e-14)
    assert mid <= closed * (1.0 + 1e-12)
    for eps in (0.4, 0.1):
        gap = semigroup_gap(_diagonal(ker, 4, eps, orbits), t, a_lo, a_hi)
        assert gap == pytest.approx(
            max(-math.expm1(-t * eps * n * (n - 1)) * (a_lo / a_hi) ** n for n in range(5)),
            rel=1e-14,
        )
        assert gap / eps <= mid * (1.0 + 1e-12)


def test_semigroup_gap_bound_validation(small):
    with pytest.raises(ValueError):
        semigroup_gap_bound(0.02, small.kernels, 2.2, 1.5)


def _perturbation(inst: Instance, eps: float) -> OperatorHandle:
    params = replace(inst.params, epsilon=eps)
    return OperatorHandle("perturbation", inst.kernels, params, inst.n_max)


def test_perturbation_gap_two_pole_fit(stock6):
    z_lim = _perturbation(stock6, 0.0)
    reports = {}
    for eps in (0.4, 0.05):
        reports[eps] = perturbation_gap(
            _perturbation(stock6, eps), z_lim, 40, stock6.scale, np.random.default_rng(0)
        )
    for eps, rep in reports.items():
        assert rep.epsilon == eps
        assert rep.two_pole_ok
        assert rep.residual < 0.10
        assert rep.fitted_pole > 0
        assert rep.max_gap > 0
        assert np.all(rep.deltas > 0)
        assert len(rep.gaps) == 40
    # the pole weight shrinks with the scaling parameter
    assert reports[0.05].fitted_pole < reports[0.4].fitted_pole


def test_perturbation_gap_needs_split_room(small, rng):
    narrow = make_instance(sites=4, n_max=2, alpha_star=2.0)
    z_eps, z_lim = _perturbation(narrow, 0.2), _perturbation(narrow, 0.0)
    with pytest.raises(ValueError):
        perturbation_gap(z_eps, z_lim, 10, narrow.scale, rng)
    # the second handle must be the limit
    with pytest.raises(ValueError):
        perturbation_gap(z_eps, z_eps, 10, small.scale, rng)
    assert perturbation_gap(z_lim, z_lim, 3, small.scale, rng).max_gap == 0.0


def test_vlasov_limit_tiny_sweep(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    sweep = EpsilonSweep((0.2, 0.1, 0.0), u0, small.scale, _cfg(small))
    rep = vlasov_limit(sweep, small.kernels, small.params, small.bound)
    assert np.array_equal(rep.epsilons, [0.2, 0.1])
    assert np.all(rep.sup_gaps > 0)
    assert rep.strictly_decreasing
    assert len(rep.ratios) == 1
    assert rep.ratios[0] == pytest.approx(rep.sup_gaps[1] / rep.sup_gaps[0])
    # halving epsilon roughly halves the gap
    assert 0.3 <= rep.ratios[0] <= 0.7
    assert 0.0 in rep.results
    assert rep.limit_result.converged
    assert np.array_equal(rep.times, rep.limit_result.times)
    # the handles each run used, one built matrix per perturbation
    assert sorted(rep.operators) == [0.0, 0.1, 0.2]
    for eps, (diag, pert) in rep.operators.items():
        assert pert.kind == "perturbation" and pert.params.epsilon == eps
        assert pert._matrix is not None
        assert diag.kind == "diagonal" and diag.params.epsilon == eps
    # the limit runs through a diagonal handle whose energies are zero
    assert not rep.operators[0.0][0].semigroup_energies().any()


def test_sweep_resolves_the_intermediate_index_once(small, monkeypatch):
    # the index depends on the scale, bound and upsilon alone: the first
    # solve resolves it and every result equals its own solve bit for bit
    calls = []
    resolve = series.default_intermediate_alpha
    monkeypatch.setattr(
        series, "default_intermediate_alpha", lambda *args: calls.append(args) or resolve(*args)
    )
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    cfg = _cfg(small)
    rep = vlasov_limit(
        EpsilonSweep((0.2, 0.1, 0.0), u0, small.scale, cfg), small.kernels, small.params,
        small.bound,
    )
    assert len(calls) == 1
    for eps, (diag, pert) in rep.operators.items():
        alone = ovsyannikov_evolve(u0, 0.0, cfg.upsilon, diag, pert, small.scale, small.bound, cfg)
        assert alone.stored_rows().tobytes() == rep.results[eps].stored_rows().tobytes()


def test_vlasov_limit_wraps_run_errors(small):
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    bad_cfg = _cfg(small, time_grid_points=4, quad_tol=1e-30)
    sweep = EpsilonSweep((0.2, 0.1, 0.0), u0, small.scale, bad_cfg)
    with pytest.raises(ConvergenceError, match="epsilon="):
        vlasov_limit(sweep, small.kernels, small.params, small.bound)


def test_chaos_zero_time_is_exact(small):
    rho0 = DensityField(small.torus, 0.5)
    rep = chaos_check(
        rho0, 0.0, 2, small.kernels, small.params, small.scale, small.bound,
        _cfg(small), small.n_max,
    )
    assert rep.layer_gaps.shape == (3,)
    assert np.allclose(rep.layer_gaps, 0.0, atol=1e-14)
    assert np.allclose(rep.refined_layer_gaps, 0.0, atol=1e-14)
    assert np.array_equal(rep.rho_final, rho0.rho)


def test_chaos_short_evolution(small):
    rho0 = DensityField(small.torus, 0.5)
    rep = chaos_check(
        rho0, 0.2 * small.horizon, 2, small.kernels, small.params, small.scale,
        small.bound, _cfg(small), small.n_max,
    )
    assert rep.layer_gaps[0] == 0.0  # empty-configuration value is pinned to 1
    assert rep.gap < 1e-2
    assert rep.refined_n_max == 4  # min(2 n_max, site_count)
    assert rep.hierarchy_result.converged
    assert np.all(rep.rho_final > 0)
    # a constant field's hierarchy runs on the orbits: the empty set, a site
    # and the pairs at distance 1 and 2
    assert rep.hierarchy_result.orbits.count == 4


def test_chaos_validation(small):
    rho0 = DensityField(small.torus, 0.5)
    cfg = _cfg(small)
    with pytest.raises(ValueError):
        chaos_check(
            rho0, 0.01, 5, small.kernels, small.params, small.scale, small.bound,
            cfg, small.n_max,
        )
    with pytest.raises(ValueError):
        chaos_check(
            rho0, 0.01, -1, small.kernels, small.params, small.scale, small.bound,
            cfg, small.n_max,
        )
    with pytest.raises(ValueError):
        chaos_check(
            rho0, 0.01, 2, small.kernels, small.params, small.scale, small.bound,
            cfg, small.n_max, refined_n_max=1,
        )


def test_limit_params_epsilon_is_irrelevant(small):
    # the epsilon stored in params must not leak into the limit run
    u0 = CorrelationVector.product_form(small.torus, small.n_max, 0.5)
    cfg = _cfg(small)
    gaps = []
    for eps in (1.0, 0.7):
        par = ModelParams(death_amplitude=1.0, birth_intensity=1.0, epsilon=eps)
        sweep = EpsilonSweep((0.2, 0.0), u0, small.scale, cfg)
        rep = vlasov_limit(sweep, small.kernels, par, small.bound)
        gaps.append(rep.sup_gaps[0])
    assert gaps[0] == pytest.approx(gaps[1], rel=1e-13)


def test_vlasov_run_stays_within_the_size_check(tmp_path):
    # samples sets the perturbation gap's index pairs alone: the semigroup
    # gap is exact on the diagonal handles' own energies, so a hundredfold
    # samples holds no more states, and the runner's estimate bounds both
    doc = load_config(str(Path(__file__).resolve().parents[1] / "configs" / "vlasov.json"))
    doc["model"]["torus"]["sites"] = 24
    doc["model"]["truncation"] = 4
    peaks = []
    for samples in (2, 100):
        doc["experiment"].update(epsilons=[0.2, 0.1, 0.0], samples=samples)
        bundle = build_runtime(doc)
        needs = []
        with mock.patch.object(experiments, "_check_budget", lambda need, _: needs.append(need)):
            tracemalloc.start()
            try:
                checks, _ = experiments.run_vlasov(bundle, tmp_path)
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
        assert checks
        assert peak <= max(needs)
        peaks.append(peak)
    assert peaks[1] - peaks[0] < 1e6
