"""Kinetic field integrator and the stationary fold analysis."""

import math
import tracemalloc
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import solve_ivp

from ovskale import (
    BifurcationInput,
    ConvergenceError,
    DensityField,
    KernelPair,
    ModelParams,
    StepSizeCollapse,
    Torus,
    circular_convolution,
    critical_c_range,
    homogeneous_scalar_ode,
    integrate_kinetic,
    kernel_pair_from_spec,
    stationary_scan,
    tangency_point,
    threshold_b,
)
from ovskale import compiled, experiments, kinetic
from ovskale.kinetic import ScanResult, _bisect, stationary_curve

from conftest import GAUSS_A, GAUSS_PHI, diff_site, homogeneous_ode, neg_site


def kinetic_rhs(rho, torus: Torus, kernels: KernelPair, params: ModelParams) -> np.ndarray:
    """Right-hand side of the kinetic equation at the density rho."""
    spectra = kinetic._kernel_spectra(torus, kernels.a_values, kernels.phi_values)
    return kinetic._rhs(np.asarray(rho, dtype=float), torus, spectra, params)


def densities(scan: ScanResult, avg_phi: float) -> np.ndarray:
    """The stationary densities rho = x / avg_phi of the scan's roots."""
    if not (avg_phi > 0):
        raise ValueError("avg_phi must be positive")
    return scan.roots / avg_phi


def bifurcation_input_from_model(kernels: KernelPair, params: ModelParams) -> BifurcationInput:
    """Dimensionless (b, c) of a concrete model instance."""
    avg_phi = kernels.avg_phi
    b = kernels.avg_a / (params.death_amplitude * avg_phi)
    c = params.birth_intensity * avg_phi / params.death_amplitude
    return BifurcationInput(b=b, c=c)


def _kernels(sites=8, spacing=0.5, a=GAUSS_A, phi=GAUSS_PHI, dim=1):
    return kernel_pair_from_spec(Torus(dim, sites, spacing), a, phi)


PAR = ModelParams(death_amplitude=1.0, birth_intensity=1.0)


def direct_convolution(torus, kernel, rho):
    """Quadratic-cost reference sum h^d sum_y kernel(x - y) rho(y)."""
    out = np.zeros(torus.site_count)
    for x in range(torus.site_count):
        for y in range(torus.site_count):
            out[x] += kernel[diff_site(torus, x, y)] * rho[y]
    return torus.cell_volume * out


def fft_convolution(torus, kernel, rho):
    """The complex-FFT route: h^d Re ifftn(fftn(kernel) fftn(rho))."""
    shape = (torus.sites_per_axis,) * torus.dim
    out = np.fft.ifftn(np.fft.fftn(kernel.reshape(shape)) * np.fft.fftn(rho.reshape(shape)))
    return torus.cell_volume * np.real(out).reshape(-1)


def reference_rhs(rho, kernels, params, convolve):
    """Right-hand side with each convolution taken by the given route."""
    comp = convolve(kernels.torus, kernels.a_values, rho)
    attr = convolve(kernels.torus, kernels.phi_values, rho)
    return -rho * comp - params.death_amplitude * rho * np.exp(-attr) + params.birth_intensity


def reference_scalar_ode(r0, t_end, avg_a, avg_phi, m, lam):
    """The scalar reduction by `solve_ivp`'s DOP853 at rtol 1e-13, atol 1e-16.

    The same method and tolerances as the package's own solve, but scipy's
    Python implementation of it, in t rather than t / t_end and with its own
    step-size control: it checks how the package calls the compiled DOP853.
    The pins to 40-digit solves below check both.  At rtol 1e-12, atol 1e-14
    this reference was 1.0e-10 off a 40-digit solve at one draw.
    """

    def rate(_t, r):
        return lam - avg_a * r * r - m * r * np.exp(-avg_phi * r)

    sol = solve_ivp(rate, (0.0, t_end), [float(r0)], method="DOP853", rtol=1e-13, atol=1e-16)
    assert sol.success, sol.message
    return float(sol.y[0, -1])


def reference_scan(inp):
    """The scan as a loop over every grid cell, the reference for stationary_scan."""
    grid = np.linspace(0.0, inp.x_hi, inp.resolution + 1)
    vals = stationary_curve(grid, inp.b) - inp.c
    fn = lambda x: float(x * math.exp(-x) + inp.b * x * x - inp.c)
    roots = []
    for i in range(len(grid) - 1):
        lo, hi = vals[i], vals[i + 1]
        if lo == 0.0:
            if not roots or abs(roots[-1] - grid[i]) > 1e-9:
                roots.append(float(grid[i]))
        elif lo * hi < 0.0:
            roots.append(_bisect(fn, float(grid[i]), float(grid[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    cell = inp.x_hi / inp.resolution
    scale0 = max(inp.c, 1.0)
    tangency = False
    for i in range(1, len(grid) - 1):
        if vals[i - 1] > vals[i] < vals[i + 1] and abs(vals[i]) < 1e-9 * scale0 and vals[i] > 0.0:
            tangency = True
        if vals[i - 1] < vals[i] > vals[i + 1] and abs(vals[i]) < 1e-9 * scale0 and vals[i] < 0.0:
            tangency = True
    edge = any(r <= cell or r >= inp.x_hi - cell for r in roots)
    if edge:
        warnings.warn("stationary root within one grid cell of the window edge", stacklevel=2)
    return ScanResult(np.array(sorted(roots)), len(roots), edge, tangency)


def test_density_field_scalar_broadcast():
    tor = Torus(1, 6, 0.5)
    f = DensityField(tor, 0.5)
    assert f.rho.shape == (6,)
    assert np.all(f.rho == 0.5)
    with pytest.raises(ValueError):
        DensityField(tor, -0.1)
    with pytest.raises(ValueError):
        DensityField(tor, np.full(5, 0.5))
    with pytest.raises(ValueError):
        DensityField(tor, np.array([0.5, np.nan, 0.5, 0.5, 0.5, 0.5]))


def test_convolution_fft_matches_direct(rng):
    ker = _kernels()
    rho = rng.uniform(0.0, 2.0, 8)
    fast = circular_convolution(ker.torus, ker.a_values, rho)
    slow = direct_convolution(ker.torus, ker.a_values, rho)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-13)


def test_convolution_fft_matches_direct_dim2(rng):
    ker = _kernels(sites=4, dim=2)
    rho = rng.uniform(0.0, 2.0, 16)
    fast = circular_convolution(ker.torus, ker.phi_values, rho)
    slow = direct_convolution(ker.torus, ker.phi_values, rho)
    assert np.allclose(fast, slow, rtol=1e-12, atol=1e-13)


def numpy_kernel_spectra(torus: Torus, *kernels: np.ndarray) -> np.ndarray:
    """The kernel spectra by numpy.fft, the route the march took before."""
    shape = (torus.sites_per_axis,) * torus.dim
    stack = np.stack([np.asarray(k, dtype=float).reshape(shape) for k in kernels])
    return torus.cell_volume * np.fft.rfftn(stack, axes=range(1, torus.dim + 1))


def numpy_convolve(torus: Torus, spectra: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The convolutions by numpy.fft, given the full shape for odd site counts."""
    shape = (torus.sites_per_axis,) * torus.dim
    product = spectra * np.fft.rfftn(np.asarray(rho, dtype=float).reshape(shape))
    out = np.fft.irfftn(product, s=shape, axes=range(1, torus.dim + 1))
    return out.reshape(len(spectra), -1)


@settings(max_examples=80, deadline=None)
@given(dim=st.integers(1, 3), sites=st.integers(1, 12), seed=st.integers(0, 2**32 - 1))
# a non-power-of-two 2-D torus and a 3-D one: an inverse over several axes
# at once, divided once by the product of their lengths, differs from
# numpy's here by up to 6.3e-16 relative
@example(dim=2, sites=6, seed=1)
@example(dim=3, sites=3, seed=2)
def test_transforms_are_numpys_bit_for_bit(dim, sites, seed):
    tor = Torus(dim, sites, 0.5)
    gen = np.random.default_rng(seed)
    kernels = gen.uniform(0.0, 2.0, (2, tor.site_count))
    rho = gen.uniform(0.0, 3.0, tor.site_count)
    spectra = kinetic._kernel_spectra(tor, *kernels)
    reference = numpy_kernel_spectra(tor, *kernels)
    assert np.array_equal(spectra, reference)
    assert np.array_equal(kinetic._convolve(tor, spectra, rho), numpy_convolve(tor, reference, rho))


def test_march_is_numpys_bit_for_bit(monkeypatch):
    tor = Torus(2, 6, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    gen = np.random.default_rng(3)
    aperiodic = gen.uniform(0.2, 1.5, tor.site_count)
    # 2-periodic along both axes, which marches on the full torus all the same
    periodic = np.tile(gen.uniform(0.2, 1.5, (2, 2)), (3, 3)).reshape(-1)
    fields = [DensityField(tor, rho) for rho in (aperiodic, periodic)]
    trajs = [integrate_kinetic(field, 0.05, 1e-3, ker, PAR) for field in fields]
    monkeypatch.setattr(kinetic, "_kernel_spectra", numpy_kernel_spectra)
    monkeypatch.setattr(kinetic, "_convolve", numpy_convolve)
    for field, traj in zip(fields, trajs):
        reference = integrate_kinetic(field, 0.05, 1e-3, ker, PAR)
        assert np.ptp(traj.final) > 0.1
        assert np.array_equal(traj.times, reference.times)
        assert np.array_equal(traj.fields, reference.fields)
        assert traj.halvings == reference.halvings


def full_march(field, t_end, dt, kernels, params, **kwargs):
    """The march on the full torus: integrate_kinetic with no field taken as constant."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(DensityField, "constant", property(lambda self: False))
        return integrate_kinetic(field, t_end, dt, kernels, params, **kwargs)


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    sites=st.sampled_from((1, 2, 3, 4, 6, 8)),
    spacing=st.floats(0.3, 1.0),
    rho0=st.floats(0.2, 1.5),
    dt=st.sampled_from((1e-3, 0.05, 0.4)),
    store_every=st.integers(1, 7),
    death=st.floats(0.1, 2.0),
    birth=st.floats(0.1, 2.0),
)
def test_constant_march_is_the_full_march(
    dim, sites, spacing, rho0, dt, store_every, death, birth
):
    tor = Torus(dim, sites, spacing)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    par = ModelParams(death_amplitude=death, birth_intensity=birth)
    t_end = 30 * dt
    field = DensityField(tor, rho0)
    traj = integrate_kinetic(field, t_end, dt, ker, par, store_every=store_every)
    reference = full_march(field, t_end, dt, ker, par, store_every=store_every)
    assert np.array_equal(traj.times, reference.times)
    assert traj.halvings == reference.halvings
    assert traj.fields.shape == reference.fields.shape
    assert np.all(np.abs(traj.fields - reference.fields) <= 1e-13 * reference.fields)
    assert kinetic.scalar_rhs_gap(DensityField(tor, traj.final), ker, par) <= 1e-14


def one_site_reduction(kernels):
    """The one-site torus of the same spacing, with each kernel summed onto its site."""
    torus = kernels.torus
    one_site = Torus(torus.dim, 1, torus.spacing)
    return KernelPair(one_site, [kernels.a_values.sum()], [kernels.phi_values.sum()])


@settings(max_examples=40, deadline=None)
@given(
    dim=st.integers(1, 3),
    sites=st.integers(1, 6),
    rho0=st.one_of(st.just(0.0), st.floats(0.0, 3.0)),
    death=st.floats(0.1, 2.0),
    birth=st.floats(0.1, 2.0),
    store_every=st.integers(1, 7),
    t_end=st.one_of(st.just(0.0), st.floats(0.0, 2.5)),
    # 1.2 takes the stability halvings of test_integrator_rejects_then_recovers
    dt=st.sampled_from((1e-3, 0.05, 0.4, 1.2)),
)
@example(dim=1, sites=6, rho0=0.2, death=1.0, birth=0.6, store_every=1, t_end=2.5, dt=1.2)
def test_one_site_march_is_the_one_element_fft_march(
    dim, sites, rho0, death, birth, store_every, t_end, dt
):
    tor = Torus(dim, sites, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    par = ModelParams(death_amplitude=death, birth_intensity=birth)
    field = DensityField(tor, rho0)
    traj = integrate_kinetic(field, t_end, dt, ker, par, store_every=store_every)
    # the reference marches one-element arrays through the transforms
    one_site = one_site_reduction(ker)
    reference = full_march(
        DensityField(one_site.torus, rho0), t_end, dt, one_site, par, store_every=store_every
    )
    rows = np.repeat(reference.fields, tor.site_count, axis=1)
    assert traj.times.tobytes() == reference.times.tobytes()
    assert traj.fields.dtype == rows.dtype
    assert traj.fields.shape == rows.shape
    assert traj.fields.tobytes() == rows.tobytes()
    assert traj.halvings == reference.halvings
    assert kinetic.scalar_rhs_gap(DensityField(tor, traj.final), ker, par) <= 1e-14
    # the scalar spectra are the one-element ones' real parts, and the
    # right-hand sides agree too, whose last bits a short step can round away
    spectra = (ker.avg_a, ker.avg_phi)
    reference_spectra = kinetic._kernel_spectra(
        one_site.torus, one_site.a_values, one_site.phi_values
    )
    assert reference_spectra.real.reshape(-1).tolist() == list(spectra)
    for value in traj.fields[:, 0]:
        scalar = kinetic._rhs(value, tor, spectra, par)
        array = kinetic._rhs(np.array([value]), one_site.torus, reference_spectra, par)
        assert scalar.tobytes() == array.tobytes()


def test_a_field_of_mixed_zero_signs_is_not_constant():
    # 0.0 == -0.0, but a scalar march would store +0.0 at every site
    tor = Torus(1, 6, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    rho = np.array([0.0, -0.0, 0.0, 0.0, -0.0, 0.0])
    field = DensityField(tor, rho)
    assert np.all(field.rho == 0.0)
    assert not field.constant
    assert DensityField(tor, 0.0).constant and DensityField(tor, -0.0).constant
    traj = integrate_kinetic(field, 0.05, 1e-3, ker, PAR)
    assert traj.fields[0].tobytes() == rho.tobytes()
    assert np.array_equal(traj.fields, full_march(field, 0.05, 1e-3, ker, PAR).fields)


def test_a_constant_march_passes_python_floats_to_the_rhs(monkeypatch):
    # a constant field's state is a Python float, so numpy is called only for
    # the exponential; any other field's state is an array
    tor = Torus(2, 64, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    aperiodic = np.random.default_rng(5).uniform(0.2, 1.5, tor.site_count)
    cases = [(DensityField(tor, 0.5), 2.0, float), (DensityField(tor, aperiodic), 0.05, np.ndarray)]
    plain = [integrate_kinetic(field, t_end, 1e-3, ker, PAR) for field, t_end, _ in cases]
    rhs, seen = kinetic._rhs, []
    monkeypatch.setattr(kinetic, "_rhs", lambda rho, *args: seen.append(type(rho)) or rhs(rho, *args))
    for (field, t_end, kind), reference in zip(cases, plain):
        seen.clear()
        traj = integrate_kinetic(field, t_end, 1e-3, ker, PAR)
        assert len(seen) >= 4 * round(t_end / 1e-3) and set(seen) == {kind}
        assert traj.times.tobytes() == reference.times.tobytes()
        assert traj.fields.tobytes() == reference.fields.tobytes()
        assert traj.halvings == reference.halvings


def test_a_constant_march_takes_only_the_spectra_transforms(monkeypatch):
    # a count, not a time: a constant march takes its spectra from the
    # kernel averages, so it makes no transform however many steps it takes
    tor = Torus(2, 64, 0.5)
    ker = kernel_pair_from_spec(tor, GAUSS_A, GAUSS_PHI)
    field = DensityField(tor, 0.5)
    calls = []

    def counted(name):
        call = getattr(kinetic._pocketfft, name)
        return lambda *args: calls.append(name) or call(*args)

    monkeypatch.setattr(
        kinetic, "_pocketfft", SimpleNamespace(**{n: counted(n) for n in ("r2c", "c2c", "c2r")})
    )
    counts = []
    for steps in (1, 2000):
        calls.clear()
        traj = integrate_kinetic(field, steps * 1e-3, 1e-3, ker, PAR)
        assert len(traj.times) > steps
        counts.append(len(calls))
    assert counts == [0, 0]


def _even(torus, values):
    """Symmetrise values under the periodic reflection j -> -j, exactly."""
    neg = np.array([neg_site(torus, i) for i in range(torus.site_count)])
    return 0.5 * (values + values[neg])


@settings(max_examples=60, deadline=None)
@given(
    dim=st.integers(1, 2),
    sites=st.integers(1, 7),
    spacing=st.floats(0.1, 2.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_spectral_rhs_matches_references(dim, sites, spacing, seed):
    # odd and even site counts per axis; irfftn needs the full shape for odd ones
    tor = Torus(dim, sites, spacing)
    gen = np.random.default_rng(seed)
    s = tor.site_count
    ker = KernelPair(tor, _even(tor, gen.uniform(0, 2, s)), _even(tor, gen.uniform(0, 2, s)))
    par = ModelParams(death_amplitude=gen.uniform(0.1, 2), birth_intensity=gen.uniform(0.1, 2))
    rho = gen.uniform(0.0, 3.0, s)
    rho[gen.random(s) < 0.2] = 0.0

    # any real kernel, even or not
    kernel = gen.uniform(0.0, 2.0, s)
    fast = circular_convolution(tor, kernel, rho)
    scale = direct_convolution(tor, kernel, rho).max()
    for ref in (fft_convolution, direct_convolution):
        assert np.all(np.abs(fast - ref(tor, kernel, rho)) <= 1e-13 * scale)

    out = kinetic_rhs(rho, tor, ker, par)
    comp = direct_convolution(tor, ker.a_values, rho)
    attr = direct_convolution(tor, ker.phi_values, rho)
    # relative to the size of the three terms, which can cancel
    size = rho * comp + par.death_amplitude * rho * np.exp(-attr) + par.birth_intensity
    for route in (fft_convolution, direct_convolution):
        ref = reference_rhs(rho, ker, par, route)
        assert np.all(np.abs(out - ref) <= 1e-13 * size)


def test_rhs_at_zero_density_is_birth_rate():
    ker = _kernels()
    out = kinetic_rhs(np.zeros(8), ker.torus, ker, PAR)
    assert np.allclose(out, PAR.birth_intensity, rtol=0, atol=0)


def test_rhs_constant_density_hand_formula():
    ker = _kernels()
    rho = 0.7
    out = kinetic_rhs(np.full(8, rho), ker.torus, ker, PAR)
    expected = (
        PAR.birth_intensity
        - ker.avg_a * rho * rho
        - PAR.death_amplitude * rho * math.exp(-ker.avg_phi * rho)
    )
    assert np.allclose(out, expected, rtol=1e-14)


def test_rhs_linear_in_birth_rate(rng):
    ker = _kernels()
    rho = rng.uniform(0.1, 1.0, 8)
    lo = kinetic_rhs(rho, ker.torus, ker, ModelParams(death_amplitude=1.0, birth_intensity=0.4))
    hi = kinetic_rhs(rho, ker.torus, ker, ModelParams(death_amplitude=1.0, birth_intensity=1.9))
    assert np.allclose(hi - lo, 1.5, rtol=1e-13)


def test_integrator_matches_linear_closed_form():
    # zero kernels reduce the equation to rho' = lambda - m rho
    tor = Torus(1, 6, 0.5)
    ker = kernel_pair_from_spec(
        tor,
        {"kind": "table", "params": {"values": [0.0] * 6}},
        {"kind": "table", "params": {"values": [0.0] * 6}},
    )
    m, lam, t = 1.3, 0.6, 0.5
    par = ModelParams(death_amplitude=m, birth_intensity=lam)
    traj = integrate_kinetic(DensityField(tor, 0.2), t, 1e-3, ker, par)
    expected = lam / m + (0.2 - lam / m) * math.exp(-m * t)
    assert np.allclose(traj.final, expected, rtol=1e-12)
    assert traj.halvings == 0
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(t)


def test_integrator_homogeneous_consistency():
    ker = _kernels()
    traj = integrate_kinetic(DensityField(ker.torus, 0.5), 0.5, 1e-3, ker, PAR)
    spread = traj.final.max() - traj.final.min()
    assert spread <= 1e-12
    ref = homogeneous_ode(0.5, 0.5, ker, PAR)
    assert abs(traj.final[0] - ref) <= 1e-10 * max(1.0, abs(ref))


def test_integrator_rejects_then_recovers():
    # zero kernels pin the stability rate to m exactly
    tor = Torus(1, 6, 0.5)
    ker = kernel_pair_from_spec(
        tor,
        {"kind": "table", "params": {"values": [0.0] * 6}},
        {"kind": "table", "params": {"values": [0.0] * 6}},
    )
    m, lam = 1.0, 0.6
    par = ModelParams(death_amplitude=m, birth_intensity=lam)
    traj = integrate_kinetic(DensityField(tor, 0.2), 2.5, 1.2, ker, par)
    assert traj.halvings >= 1
    expected = lam / m + (0.2 - lam / m) * math.exp(-m * 2.5)
    assert abs(traj.final[0] - expected) <= 1e-2


# a constant field marches a scalar state, an aperiodic one an array state
START = pytest.mark.parametrize(
    "rho0", [0.5, np.random.default_rng(5).uniform(0.2, 1.5, 8)], ids=["constant", "aperiodic"]
)


@START
def test_integrator_step_collapse(monkeypatch, rho0):
    monkeypatch.setattr(kinetic, "_MAX_HALVINGS", 3)
    ker = _kernels()
    with pytest.raises(StepSizeCollapse, match="stability bound forced too many"):
        integrate_kinetic(DensityField(ker.torus, rho0), 1e6, 1e6, ker, PAR)


@START
def test_integrator_negativity_collapse(monkeypatch, rho0):
    # every trial step goes negative while the stability bound still holds
    monkeypatch.setattr(kinetic, "_MAX_HALVINGS", 3)
    monkeypatch.setattr(kinetic, "_rhs", lambda rho, *args: np.full_like(rho, -1e9))
    ker = _kernels()
    message = "negativity rejection forced too many step halvings"
    with pytest.raises(StepSizeCollapse, match=message):
        integrate_kinetic(DensityField(ker.torus, rho0), 1.0, 1e-3, ker, PAR)


def test_integrator_validation_and_store_every():
    ker = _kernels()
    f0 = DensityField(ker.torus, 0.5)
    with pytest.raises(ValueError):
        integrate_kinetic(f0, -1.0, 1e-3, ker, PAR)
    with pytest.raises(ValueError):
        integrate_kinetic(f0, 1.0, 0.0, ker, PAR)
    dense = integrate_kinetic(f0, 0.1, 1e-3, ker, PAR, store_every=1)
    thin = integrate_kinetic(f0, 0.1, 1e-3, ker, PAR, store_every=10)
    assert len(thin.times) < len(dense.times)
    assert thin.times[-1] == pytest.approx(0.1)
    assert np.allclose(thin.final, dense.final, rtol=1e-14)


def test_threshold_and_tangency_closed_forms():
    root5 = math.sqrt(5.0)
    assert threshold_b() == pytest.approx(
        (3.0 - root5) / 4.0 * math.exp(-(1.0 + root5) / 2.0), rel=1e-15
    )
    x0 = tangency_point()
    assert abs(x0 * x0 - x0 - 1.0) <= 1e-14


def test_stationary_curve_hand_values():
    assert stationary_curve(1.0, 0.3) == pytest.approx(math.exp(-1.0) + 0.3, rel=1e-15)
    assert stationary_curve(0.0, 0.5) == 0.0
    vals = stationary_curve(np.array([0.5, 2.0]), 0.1)
    assert vals[1] == pytest.approx(2.0 * math.exp(-2.0) + 0.4, rel=1e-15)


def test_scan_counts_inside_and_outside_fold():
    scan = stationary_scan(BifurcationInput(0.02, 0.36, 40.0, 4000))
    assert scan.count == 3
    assert np.all(np.diff(scan.roots) > 0)
    for r in scan.roots:
        assert abs(stationary_curve(r, 0.02) - 0.36) <= 1e-10
    for c in (0.1, 0.3, 1.0):
        assert stationary_scan(BifurcationInput(0.05, c, 40.0, 4000)).count == 1


def test_scan_slope_one_near_zero_birth():
    with pytest.warns(UserWarning):
        scan = stationary_scan(BifurcationInput(0.05, 1e-6, 40.0, 4000))
    assert scan.count == 1
    assert scan.edge_warning  # the root sits against the lower window edge
    assert scan.roots[0] == pytest.approx(1e-6, rel=1e-2)


def test_scan_tangency_flag():
    b = 0.02
    x_hi, res = 5.0, 1000
    grid = np.linspace(0.0, x_hi, res + 1)
    curve = stationary_curve(grid, b)
    interior = slice(res // 2, res)  # bracket the local minimum of the curve
    i = int(np.argmin(curve[interior])) + res // 2
    c = float(curve[i]) - 1e-12
    scan = stationary_scan(BifurcationInput(b, c, x_hi, res))
    assert scan.tangency_flag
    assert scan.count == 1


def test_scan_densities_conversion():
    scan = stationary_scan(BifurcationInput(0.02, 0.36, 40.0, 4000))
    assert np.allclose(densities(scan, 0.8), scan.roots / 0.8, rtol=1e-15)
    with pytest.raises(ValueError):
        densities(scan, 0.0)


def test_critical_c_range_brackets_fold():
    lo, hi = critical_c_range(0.02)
    assert 0 < lo < hi
    assert lo < 0.36 < hi
    # counts flip when crossing the window edges by a safe margin
    assert stationary_scan(BifurcationInput(0.02, lo * 0.95, 40.0, 4000)).count == 1
    assert stationary_scan(BifurcationInput(0.02, hi * 1.05, 40.0, 4000)).count == 1
    mid = 0.5 * (lo + hi)
    assert stationary_scan(BifurcationInput(0.02, mid, 40.0, 4000)).count == 3


def test_critical_c_range_validation():
    with pytest.raises(ValueError):
        critical_c_range(0.0)
    with pytest.raises(ValueError):
        critical_c_range(threshold_b())
    with pytest.raises(ValueError):
        critical_c_range(0.2)


def test_fold_width_shrinks_toward_threshold():
    bstar = threshold_b()
    widths = []
    for frac in (0.5, 0.9, 0.99):
        lo, hi = critical_c_range(frac * bstar)
        widths.append(hi - lo)
    assert widths[0] > widths[1] > widths[2] > 0
    assert widths[2] < 0.1 * widths[0]


def test_homogeneous_attraction_above_threshold():
    # single stationary point attracts every nonnegative initial value
    tor = Torus(1, 4, 0.25)
    ker = kernel_pair_from_spec(
        tor,
        {"kind": "table", "params": {"values": [0.05] * 4}},
        {"kind": "table", "params": {"values": [1.0] * 4}},
    )
    par = ModelParams(death_amplitude=1.0, birth_intensity=0.3)
    inp = bifurcation_input_from_model(ker, par)
    assert inp.b == pytest.approx(0.05, rel=1e-14)
    assert inp.c == pytest.approx(0.3, rel=1e-14)
    assert inp.b > threshold_b()
    scan = stationary_scan(inp)
    assert scan.count == 1
    star = densities(scan, ker.avg_phi)[0]
    for mult in (0.0, 0.5, 2.0, 10.0):
        final = homogeneous_ode(mult * star, 60.0, ker, par)
        assert abs(final - star) <= 1e-6


def test_homogeneous_scalar_validation():
    with pytest.raises(ValueError):
        homogeneous_scalar_ode(-0.1, 1.0, 1.0, 1.0, 1.0, 1.0)
    with pytest.raises(ValueError):
        homogeneous_scalar_ode(0.1, -1.0, 1.0, 1.0, 1.0, 1.0)
    assert homogeneous_scalar_ode(0.7, 0.0, 1.0, 1.0, 1.0, 1.0) == 0.7


@settings(max_examples=60, deadline=None)
@given(
    r0=st.floats(0.0, 12.0),
    t_end=st.floats(0.0, 60.0, exclude_min=True),
    avg_a=st.floats(0.0, 3.0),
    avg_phi=st.floats(0.0, 3.0),
    m=st.floats(0.1, 3.0),
    lam=st.floats(0.1, 3.0),
)
# a first step over the whole interval jumps the death term's bump near
# r = 1/3 with its full and half steps agreeing, and lands 1e-3 off
@example(r0=0.0, t_end=12.0, avg_a=0.0, avg_phi=3.0, m=1.0, lam=3.0)
@example(r0=0.0, t_end=1e-323, avg_a=0.0, avg_phi=0.0, m=1.0, lam=1.0)
# DOP853 stopped at once here: its error norm divided by a subnormal
@example(r0=0.0, t_end=3.2705594865503096e-155, avg_a=0.0, avg_phi=0.0, m=1.0, lam=1.0)
# a looser reference missed the tolerance here; a 40-digit solve gives
# 0.36764533100996645
@example(r0=2.21875, t_end=2.5, avg_a=0.69921875, avg_phi=1.125, m=2.7578125, lam=0.6875)
def test_homogeneous_scalar_matches_reference(r0, t_end, avg_a, avg_phi, m, lam):
    args = (r0, t_end, avg_a, avg_phi, m, lam)
    ref = reference_scalar_ode(*args)
    # relative, down to the solvers' absolute tolerance: a t_end near the
    # underflow threshold gives a density of a few subnormal units
    assert abs(homogeneous_scalar_ode(*args) - ref) <= 1e-10 * ref + 1e-14


# 40-digit solves: mpmath.odefun at mp.dps = 40 (its Taylor method), each
# rounded to the nearest double; the stiff draw's solution sits on the
# stationary root from t = 8 on, where odefun and findroot agree to 30 digits
@pytest.mark.parametrize(
    "args, exact",
    [
        ((0.0, 12.0, 0.0, 3.0, 1.0, 3.0), 35.961899050424215),
        ((0.0, 1e-323, 0.0, 0.0, 1.0, 1.0), 1e-323),
        ((2.21875, 2.5, 0.69921875, 1.125, 2.7578125, 0.6875), 0.36764533100996644),
        ((0.5, 2000.0, 30.0, 1.0, 1.0, 3.0), 0.3041711375223614),
    ],
    ids=["bump", "subnormal", "draw", "stiff"],
)
def test_homogeneous_scalar_matches_40_digit_solves(args, exact):
    assert abs(homogeneous_scalar_ode(*args) - exact) <= 1e-12 * exact


def test_homogeneous_scalar_rejects_an_overflowing_trial(monkeypatch):
    # a first step over the whole interval: its second stage sits at
    # r = 12 + a21 t_end k1, about -1342 with DOP853's a21 = 0.0526, where
    # exp(-avg_phi r) overflows; the rate reads +inf there, and DOP853
    # rejects the step and shortens it
    dopri853 = compiled._dop().dopri853
    stages = []

    def whole_interval_first(rate, t0, y0, t_end, *args):
        work = args[4]
        work[6] = t_end - t0

        def seen(t, y):
            stages.append(rate(t, y))
            return stages[-1]

        return dopri853(seen, t0, y0, t_end, *args)

    monkeypatch.setattr(compiled, "_dop", lambda: SimpleNamespace(dopri853=whole_interval_first))
    args = (12.0, 60.0, 3.0, 3.0, 3.0, 3.0)
    k1 = 3.0 - 3.0 * 12.0**2 - 3.0 * 12.0 * math.exp(-3.0 * 12.0)
    with pytest.raises(OverflowError):
        math.exp(-3.0 * (12.0 + 0.0526001519587677 * 60.0 * k1))
    ref = reference_scalar_ode(*args)
    assert abs(homogeneous_scalar_ode(*args) - ref) <= 1e-10 * ref
    assert math.inf in stages


def test_homogeneous_scalar_failures_are_convergence_errors(monkeypatch):
    with pytest.raises(ConvergenceError, match="rate is not finite"):
        homogeneous_scalar_ode(1e200, 1.0, 1.0, 1.0, 1.0, 1.0)
    monkeypatch.setattr(kinetic, "_SCALAR_MAX_STEPS", 5)
    with pytest.raises(ConvergenceError, match="more than 5 steps needed"):
        homogeneous_scalar_ode(0.5, 10.0, 1.0, 1.0, 1.0, 1.0)


def test_bifurcation_input_validation():
    with pytest.raises(ValueError):
        BifurcationInput(0.0, 0.3, 40.0, 4000)  # b x_hi^2 > c is impossible at b = 0
    with pytest.raises(ValueError):
        BifurcationInput(0.05, 0.0, 40.0, 4000)
    with pytest.raises(ValueError):
        BifurcationInput(0.05, 0.3, 2.0, 4000)  # right bracket below c
    with pytest.raises(ValueError):
        BifurcationInput(0.05, 0.3, 40.0, 50)
    with pytest.raises(ValueError):
        BifurcationInput(-0.1, 0.3, 40.0, 4000)


def _scan_both(inp):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        fast = stationary_scan(inp)
        # the loop's numpy scalar products warn where they overflow
        with np.errstate(over="ignore"):
            ref = reference_scan(inp)
    assert len(caught) == 2 * fast.edge_warning
    return fast, ref


def _assert_same_scan(fast, ref):
    assert fast.roots.dtype == ref.roots.dtype
    assert fast.roots.tobytes() == ref.roots.tobytes()
    assert fast.count == ref.count
    assert fast.edge_warning == ref.edge_warning
    assert fast.tangency_flag == ref.tangency_flag


@settings(max_examples=80, deadline=None)
@given(
    b=st.floats(1e-4, 0.1),
    x_hi=st.floats(2.0, 60.0),
    resolution=st.integers(100, 5000),
    case=st.sampled_from(("free", "grid", "fold_low", "fold_high", "tangent")),
    c=st.floats(1e-6, 2.0),
    index=st.integers(0, 5000),
    offset=st.sampled_from((-1e-12, 1e-12)),
)
def test_vectorised_scan_matches_loop(b, x_hi, resolution, case, c, index, offset):
    grid = np.linspace(0.0, x_hi, resolution + 1)
    curve = stationary_curve(grid, b)
    if case == "grid":
        # c taken at a grid value: that cell of the scan is exactly zero
        c = float(curve[index % (resolution + 1)])
    elif case in ("fold_low", "fold_high"):
        if not b < threshold_b():
            b = 0.5 * threshold_b()
            curve = stationary_curve(grid, b)
        c = critical_c_range(b)[case == "fold_high"]
    elif case == "tangent":
        # just under or over an interior local minimum of the sampled curve
        inner = curve[1:-1]
        minima = np.flatnonzero((curve[:-2] > inner) & (inner < curve[2:])) + 1
        if len(minima):
            c = float(curve[minima[index % len(minima)]]) + offset
    if not (c > 0 and b * x_hi * x_hi > c):
        return
    inp = BifurcationInput(b, c, x_hi, resolution)
    if case == "grid":
        assert np.any(stationary_curve(grid, b) - c == 0.0)
    _assert_same_scan(*_scan_both(inp))


def test_vectorised_scan_fixed_cases():
    # the tangency case of test_scan_tangency_flag, an edge root, the fold
    # edges at the stock resolution, an exactly zero interior cell and
    # overflowing products
    b, x_hi, res = 0.02, 5.0, 1000
    curve = stationary_curve(np.linspace(0.0, x_hi, res + 1), b)
    i = int(np.argmin(curve[res // 2 : res])) + res // 2
    cases = [
        BifurcationInput(b, float(curve[i]) - 1e-12, x_hi, res),
        BifurcationInput(0.05, 1e-6, 40.0, 4000),
        BifurcationInput(0.02, 0.36, 50.0, 100_000),
    ]
    lo, hi = critical_c_range(0.02)
    cases += [BifurcationInput(0.02, c, 50.0, 100_000) for c in (lo, hi)]
    cases.append(BifurcationInput(b, float(curve[700]), x_hi, res))
    # neighbouring values near 1e300, whose products overflow
    cases.append(BifurcationInput(1e300, 0.5, 1.0, 100))
    # scans that alternate between two grids, so each one evicts the other's
    # shared grid, at several b
    cases += [
        BifurcationInput(b, c, *grid)
        for b in (0.005, 0.02, 0.05)
        for c in (0.1, 0.3)
        for grid in ((40.0, 4000), (5.0, 1000))
        if b * grid[0] ** 2 > c
    ]
    flags = set()
    for inp in cases:
        fast, ref = _scan_both(inp)
        _assert_same_scan(fast, ref)
        flags.add((fast.edge_warning, fast.tangency_flag))
    assert (False, True) in flags and (True, False) in flags
    # the shared grid and x e^{-x} refuse writes
    for shared in kinetic.scan_grid(5.0, 1000):
        with pytest.raises(ValueError):
            shared[0] = 1.0


def test_scan_peak_per_cell_is_within_the_budget():
    # the first scan on a grid builds the shared grid and x e^{-x}; a later
    # one holds only its own values and masks
    res = 10**6
    kinetic.scan_grid.cache_clear()
    peaks = []
    for b, c in ((0.02, 0.36), (0.05, 0.3)):
        tracemalloc.start()
        try:
            stationary_scan(BifurcationInput(b, c, 50.0, res))
            peaks.append(tracemalloc.get_traced_memory()[1] / (res + 1))
        finally:
            tracemalloc.stop()
    kinetic.scan_grid.cache_clear()
    cold, warm = peaks
    assert cold <= experiments._BYTES_PER_SCAN_CELL
    assert warm <= experiments._BYTES_PER_SCAN_CELL
    assert warm < cold
