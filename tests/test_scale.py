"""Weighted sup norms, horizons, localization, and the singular bound."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import optimize

from ovskale import (
    BoundModel,
    HorizonError,
    OperatorHandle,
    ScaleSpec,
    Torus,
    localization_index,
    model_bound,
    norm_alpha,
    optimal_terminal,
    time_horizon,
    verify_singular_bound,
)
from ovskale.scale import DEFAULT_REGULAR_CONSTANT, norm_alpha_flat
from ovskale.states import CorrelationVector, flat_orders, random_correlation

from conftest import make_instance


def test_norm_alpha_hand_value():
    tor = Torus(1, 4, 0.5)
    k = CorrelationVector.zeros(tor, 2)
    vec = k.flat()
    vec[1] = 3.0  # order-1 entry
    vec[5] = 9.0  # order-2 entry
    k = CorrelationVector.from_flat(tor, 2, vec)
    assert norm_alpha(k, 2.0) == pytest.approx(max(3.0 / 2.0, 9.0 / 4.0), rel=1e-15)
    assert norm_alpha(CorrelationVector.product_form(tor, 2, 0.5), 2.0) == 1.0


def reference_norm_alpha(k, alpha):
    """max over layers of max |layer| times alpha^{-n}, one layer at a time."""
    best = 0.0
    for n, layer in enumerate(k.layers):
        if layer.size:
            best = max(best, float(np.abs(layer).max()) * alpha ** (-n))
    return best


def test_norm_alpha_flat_agrees(rng):
    tor = Torus(1, 5, 0.5)
    k = random_correlation(tor, 3, 1.8, rng)
    orders = flat_orders(tor, 3)
    for alpha in (1.2, 1.9, 2.5):
        want = reference_norm_alpha(k, alpha)
        assert norm_alpha_flat(k.flat(), orders, alpha) == pytest.approx(want, rel=1e-15)
        assert norm_alpha(k, alpha) == pytest.approx(want, rel=1e-15)
    assert norm_alpha_flat(np.array([]), np.array([]), 2.0) == 0.0
    # a stack of flat states gives one norm per row, equal to the single norms
    rows = np.stack([k.flat(), -2.0 * k.flat(), np.zeros_like(k.flat())])
    stacked = norm_alpha_flat(rows, orders, 1.9)
    assert stacked.shape == (3,)
    assert list(stacked) == [norm_alpha_flat(row, orders, 1.9) for row in rows]
    assert norm_alpha_flat(np.zeros((2, 0)), np.array([]), 2.0).shape == (2,)


def reference_norm_alpha_flat(vec, orders, alpha):
    """max |x| alpha^{-|eta|} formed entry by entry over the last axis."""
    weighted = np.abs(vec)
    weighted *= alpha ** (-orders.astype(float))
    return weighted.max(axis=-1)


@settings(max_examples=100, deadline=None)
@given(
    sizes=st.lists(st.integers(0, 6), min_size=1, max_size=8),
    rows=st.one_of(st.none(), st.integers(1, 4)),
    alpha=st.floats(1.0, 8.0, exclude_min=True),
    data=st.data(),
)
def test_norm_alpha_flat_matches_entrywise_formula(sizes, rows, alpha, data):
    # layer n holds sizes[n] entries; a size of 0 leaves that layer empty
    orders = np.repeat(np.arange(len(sizes), dtype=np.int64), sizes)
    if len(orders) == 0:
        return
    shape = (len(orders),) if rows is None else (rows, len(orders))
    entries = st.one_of(
        st.floats(allow_nan=False, width=64),
        st.sampled_from((0.0, -0.0, 5e-324, -1.5, np.inf, -np.inf)),
    )
    size = math.prod(shape)
    vec = np.array(data.draw(st.lists(entries, min_size=size, max_size=size))).reshape(shape)
    if data.draw(st.booleans()):
        vec.flat[data.draw(st.integers(0, vec.size - 1))] = np.nan
    got = np.asarray(norm_alpha_flat(vec, orders, alpha))
    want = reference_norm_alpha_flat(vec, orders, alpha)
    assert got.shape == want.shape
    # the same bits, NaN included; abs and a positive weight never give -0.0
    assert np.array_equal(got, want, equal_nan=True)
    assert not np.any(np.signbit(got))


def test_norm_requires_index_above_one(rng):
    tor = Torus(1, 4, 0.5)
    k = random_correlation(tor, 2, 1.5, rng)
    with pytest.raises(ValueError):
        norm_alpha(k, 1.0)
    with pytest.raises(ValueError):
        norm_alpha_flat(k.flat(), flat_orders(tor, 2), 0.9)


def test_time_horizon_matches_model_coefficients(stock6):
    ker, par = stock6.kernels, stock6.params
    for alpha, beta in ((1.5, 2.5), (1.2, 1.9), (2.0, 4.0)):
        sing = (
            ker.avg_a * beta**2
            + beta * par.death_amplitude * math.exp(ker.avg_phi * beta)
            + beta * par.birth_intensity
        ) / math.e
        expected = (beta - alpha) / (math.e * 1.0 * sing)
        assert time_horizon(alpha, beta, stock6.bound) == pytest.approx(expected, rel=1e-14)


def test_frozen_stock_horizon(stock6):
    assert time_horizon(1.5, 2.5, stock6.bound) == pytest.approx(
        0.02307622982293264, rel=1e-12
    )


def test_time_horizon_validation(stock6):
    with pytest.raises(ValueError):
        time_horizon(2.5, 1.5, stock6.bound)
    with pytest.raises(ValueError):
        time_horizon(1.0, 2.0, stock6.bound)
    with pytest.raises(ValueError):
        time_horizon(1.5, 2.5, stock6.bound, nu=0.5)


def test_model_bound_validation(stock6):
    with pytest.raises(ValueError):
        model_bound(stock6.kernels, stock6.params, regular_constant=0.0)
    assert DEFAULT_REGULAR_CONSTANT > 0
    stock6.bound.validate_on(1.5, 2.5)


def test_bound_model_monotonicity_check():
    bad = BoundModel(singular=lambda b: 10.0 - b, regular=lambda b: 0.1)
    with pytest.raises(ValueError):
        bad.validate_on(1.5, 2.5)
    nonpos = BoundModel(singular=lambda b: b, regular=lambda b: 0.0)
    with pytest.raises(ValueError):
        nonpos.validate_on(1.5, 2.5)


def test_scale_spec_validation():
    with pytest.raises(ValueError):
        ScaleSpec(alpha_s=2.5, alpha_star=1.5)
    with pytest.raises(ValueError):
        ScaleSpec(alpha_s=1.0, alpha_star=2.0)
    with pytest.raises(ValueError):
        ScaleSpec(alpha_s=1.5, alpha_star=2.5, nu=0.5)


def test_optimal_terminal_interior(stock6):
    opt = optimal_terminal(1.5, stock6.bound, 6.0)
    assert not opt.at_boundary
    assert opt.unimodal
    assert opt.local_max_count == 1
    assert 1.5 < opt.beta < 6.0
    assert opt.horizon >= opt.scan_values.max()
    # the refined point beats its grid neighbors
    mid = time_horizon(1.5, opt.beta, stock6.bound)
    assert mid == pytest.approx(opt.horizon, rel=1e-14)


def reference_optimum(alpha_s, bound, search_hi, nu, scan_points):
    """The bracket of optimal_terminal's scan refined by scipy's bounded Brent search."""
    betas = np.linspace(alpha_s, search_hi, scan_points + 1)[1:]
    values = [time_horizon(alpha_s, b, bound, nu) for b in betas]
    best = int(np.argmax(values))
    lo = betas[best - 1] if best > 0 else alpha_s + 1e-12 * (search_hi - alpha_s)
    res = optimize.minimize_scalar(
        lambda b: -time_horizon(alpha_s, float(b), bound, nu),
        bounds=(float(lo), float(betas[best + 1])),
        method="bounded",
        options={"xatol": 1e-12},
    )
    return float(res.x), time_horizon(alpha_s, float(res.x), bound, nu)


def _golden_optimum(alpha_s, bound, search_hi, nu, scan_points):
    """The bracket of optimal_terminal's scan refined by golden-section search."""
    betas = np.linspace(alpha_s, search_hi, scan_points + 1)[1:]
    best = int(np.argmax([time_horizon(alpha_s, b, bound, nu) for b in betas]))
    lo = float(betas[best - 1]) if best > 0 else alpha_s + 1e-12 * (search_hi - alpha_s)
    hi = float(betas[best + 1])
    shrink = (math.sqrt(5.0) - 1.0) / 2.0
    x1, x2 = hi - shrink * (hi - lo), lo + shrink * (hi - lo)
    f1, f2 = time_horizon(alpha_s, x1, bound, nu), time_horizon(alpha_s, x2, bound, nu)
    while hi - lo > 1e-12:
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - shrink * (hi - lo)
            f1 = time_horizon(alpha_s, x1, bound, nu)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + shrink * (hi - lo)
            f2 = time_horizon(alpha_s, x2, bound, nu)
    return (x1, f1) if f1 >= f2 else (x2, f2)


def _slope_root(alpha_s, inst, bracket):
    """The root of d/dbeta of the model's horizon, from its closed form at 40 digits."""
    a, phi = inst.kernels.avg_a, inst.kernels.avg_phi
    m, lam = inst.params.death_amplitude, inst.params.birth_intensity
    with mpmath.workdps(40):
        def slope(b):
            sing = a * b * b + b * m * mpmath.exp(phi * b) + b * lam
            dsing = 2 * a * b + m * mpmath.exp(phi * b) * (1 + phi * b) + lam
            return sing - (b - alpha_s) * dsing

        return float(mpmath.findroot(slope, bracket, solver="anderson"))


def test_optimal_terminal_matches_reference(stock6):
    gen = np.random.default_rng(7)
    cases = [(1.5, stock6, 2.5, 1.0, 1000), (1.5, stock6, 6.0, 1.0, 1000)]
    for _ in range(6):
        a_amp, phi_amp, m, lam = gen.uniform(0.05, 3.0, 4)
        inst = make_instance(
            a_spec={"kind": "gaussian", "params": {"amplitude": a_amp, "sigma": 0.7}},
            phi_spec={"kind": "gaussian", "params": {"amplitude": phi_amp, "sigma": 0.5}},
            m=m,
            lam=lam,
        )
        alpha_s = gen.uniform(1.05, 2.0)
        cases.append((alpha_s, inst, alpha_s + 6.0, gen.uniform(1.0, 3.0), 500))
    for alpha_s, inst, search_hi, nu, points in cases:
        opt = optimal_terminal(alpha_s, inst.bound, search_hi, nu, points)
        assert not opt.at_boundary
        searches = [
            reference_optimum(alpha_s, inst.bound, search_hi, nu, points),
            _golden_optimum(alpha_s, inst.bound, search_hi, nu, points),
        ]
        for beta, horizon in searches:
            assert abs(opt.horizon - horizon) <= 1e-12 * horizon
            # the maximum is flat: a shift of 1e-8 in beta moves the horizon
            # by about a rounding error, so neither search places beta closer
            assert abs(opt.beta - beta) <= 1e-7 * beta
        # the written beta is the root of the slope, which neither search
        # moves: the golden-section and Brent brackets both give this value
        root = _slope_root(alpha_s, inst, (searches[0][0] * 0.999, searches[0][0] * 1.001))
        assert abs(opt.beta - root) <= 1e-11 * root


@settings(max_examples=60, deadline=None)
@given(levels=st.lists(st.integers(1, 3), min_size=10, max_size=60))
def test_optimal_terminal_counts_strict_local_maxima(levels):
    # a horizon that takes the drawn levels on the scan, plateaus included;
    # the count is checked against an index walk of the scan values
    n = len(levels)

    def singular(b):
        i = min(max(round((b - 1.5) / 2.0 * n) - 1, 0), n - 1)
        return (b - 1.5) / (math.e * levels[i])

    opt = optimal_terminal(1.5, BoundModel(singular, lambda b: 0.05), 3.5, scan_points=n)
    v = opt.scan_values
    peaks = [i for i in range(1, n - 1) if v[i] > v[i - 1] and v[i] > v[i + 1]]
    assert opt.local_max_count == len(peaks)
    assert opt.unimodal == (len(peaks) <= 1 if opt.at_boundary else len(peaks) == 1)


def test_optimal_terminal_boundary_flag(stock6):
    opt = optimal_terminal(1.5, stock6.bound, 2.0)
    assert opt.at_boundary
    assert opt.beta == pytest.approx(2.0)


def test_optimal_terminal_validation(stock6):
    with pytest.raises(ValueError):
        optimal_terminal(1.5, stock6.bound, 1.5)
    with pytest.raises(ValueError):
        optimal_terminal(1.5, stock6.bound, 6.0, scan_points=2)


def test_localization_monotone_and_tight(stock6):
    T = stock6.horizon
    locs = [localization_index(f * T, 0.0, 1.5, stock6.bound, 2.5) for f in (0.2, 0.4, 0.6)]
    assert locs == sorted(locs)
    assert all(1.5 < a < 2.5 for a in locs)
    for f, a in zip((0.2, 0.4, 0.6), locs):
        resid = time_horizon(1.5, a, stock6.bound) - f * T
        assert 0.0 <= resid <= 1e-9
    assert localization_index(0.0, 0.0, 1.5, stock6.bound, 2.5) == 1.5
    with pytest.raises(ValueError):
        localization_index(0.1, 0.2, 1.5, stock6.bound, 2.5)


def test_localization_unreachable_raises(stock6):
    with pytest.raises(HorizonError):
        localization_index(10.0 * stock6.horizon, 0.0, 1.5, stock6.bound, 2.5)
    with pytest.raises(HorizonError):
        localization_index(10.0 * stock6.horizon, 0.0, 1.5, stock6.bound, 1e300)


@pytest.mark.parametrize("alpha_hi", [1e5, 1e300])
def test_localization_rescans_a_far_window_in_log_scale(stock6, alpha_hi):
    # the uniform scan's first point lies past alpha_star, where every horizon is 0
    t = 0.6 * stock6.horizon
    near = localization_index(t, 0.0, 1.5, stock6.bound, 2.5)
    far = localization_index(t, 0.0, 1.5, stock6.bound, alpha_hi)
    assert far == pytest.approx(near, rel=1e-9)
    assert 0.0 <= time_horizon(1.5, far, stock6.bound) - t <= 1e-9


def test_singular_bound_sampling(rng):
    inst = make_instance(sites=4, n_max=2)
    op = OperatorHandle("perturbation", inst.kernels, inst.params, inst.n_max)
    report = verify_singular_bound(op, inst.scale, inst.bound, 60, rng)
    assert report.ok
    assert not report.violations
    assert report.samples == 60
    assert report.min_slack > 0
    assert report.max_ratio > 0
    # the model pole already covers every sample on this instance
    assert report.envelope_regular < DEFAULT_REGULAR_CONSTANT


def test_singular_bound_nan_is_a_violation(stock4, rng):
    # a NaN bound passed "ratio > allowed"; min() and max() hid it in the report
    op = OperatorHandle("perturbation", stock4.kernels, stock4.params, stock4.n_max)
    nan_bound = BoundModel(stock4.bound.singular, lambda beta: math.nan)
    report = verify_singular_bound(op, stock4.scale, nan_bound, 5, rng)
    assert not report.ok
    assert len(report.violations) == 5
    assert math.isnan(report.min_slack)


def test_singular_bound_needs_samples(stock4, rng):
    op = OperatorHandle("perturbation", stock4.kernels, stock4.params, stock4.n_max)
    with pytest.raises(ValueError):
        verify_singular_bound(op, stock4.scale, stock4.bound, 1, rng)
