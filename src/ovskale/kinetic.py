"""Nonlocal kinetic equation of the scaling limit, and its fold bifurcation.

The limiting density field rho on the torus obeys

    d rho / d t = -rho (a * rho) - m rho e^{-(phi * rho)} + lambda,

with * the periodic lattice convolution (a * rho)(x) = h^d sum_y a(x-y)
rho(y).  Spatially constant data reduces to the scalar rate

    r' = lambda - avg_a r^2 - m r e^{-avg_phi r},

which `homogeneous_scalar_ode` solves by scipy's compiled DOP853
(`compiled.dop853`), the reference a constant field's march is checked
against.

Stationary constant states are the roots of x e^{-x} + b x^2 = c after the
substitution x = avg_phi rho, with the dimensionless pair

    b = avg_a / (m avg_phi),      c = lambda avg_phi / m.

The fold structure is classical: extrema of f(x) = x e^{-x} + b x^2 solve
2 b x = (x - 1) e^{-x}; the tangency sits at x0 = (1 + sqrt 5)/2 (the positive
root of x^2 - x - 1), and the fold disappears above

    threshold_b = (3 - sqrt 5)/4 * e^{-(1 + sqrt 5)/2}.

Below threshold the window (c_low, c_high) = (f(x_hi), f(x_lo)) brackets the
three-solution regime, where x_lo in (1, x0) and x_hi in (x0, inf) are the
two extremum locations.

The equation commutes with the translations of the torus, so a constant
density stays constant.  `integrate_kinetic` marches such a field as a
Python float, whose convolutions are its products with the kernel averages
and whose exponential is numpy's (`_rhs`), and repeats the stored values
over the sites; any other density marches on the full torus.

The convolutions are spectral.  They call scipy's compiled pocketfft
extension, loaded from its file by `ovskale.compiled`, one axis at a time
in numpy's order, so every transform equals `numpy.fft`'s bit for bit
without numpy's per-axis Python wrappers, and no `scipy.fft` import is paid.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass

import numpy as np

from . import compiled
from .errors import ConvergenceError, StepSizeCollapse
from .lattice import KernelPair, Torus
from .operators import ModelParams

# the C++ pocketfft that numpy.fft also wraps; its functions are called
# with positional arguments only, (a, axes, [lastsize,] forward, inorm, out):
# keyword calls left the process about 0.5 MB larger after some 10,000 calls
_pocketfft = compiled.load("fft", "_pocketfft", "pypocketfft")

# tolerances of the scalar reference solve, and its step budget
_SCALAR_RTOL = 1e-13
_SCALAR_ATOL = 1e-16
_SCALAR_MAX_STEPS = 1_000_000
# rejected steps, each halving the step, after which a march gives up
_MAX_HALVINGS = 20


@dataclass(frozen=True, eq=False)
class DensityField:
    """A nonnegative density profile over the torus sites."""

    torus: Torus
    rho: np.ndarray

    def __post_init__(self):
        arr = np.asarray(self.rho, dtype=float)
        if arr.shape == ():
            arr = np.full(self.torus.site_count, float(arr))
        arr = np.ascontiguousarray(arr)
        if arr.shape != (self.torus.site_count,):
            raise ValueError(f"rho must have shape ({self.torus.site_count},)")
        if not np.all(np.isfinite(arr)):
            raise ValueError("rho must be finite")
        if np.any(arr < 0):
            raise ValueError("rho must be nonnegative")
        arr.setflags(write=False)
        object.__setattr__(self, "rho", arr)

    @property
    def constant(self) -> bool:
        """Whether every site holds rho[0] bit for bit (0.0 and -0.0 differ)."""
        bits = self.rho.view(np.uint64)
        return bool(np.all(bits == bits[0]))


def _forward(x: np.ndarray, first: int) -> np.ndarray:
    """numpy's rfftn of x over its axes from first on, bit for bit.

    A real transform of the last axis, then complex ones over the others
    from last to first, each on one axis, as numpy makes them.
    """
    out = _pocketfft.r2c(x, (x.ndim - 1,), True, 0)
    for axis in range(x.ndim - 2, first - 1, -1):
        out = _pocketfft.c2c(out, (axis,), True, 0, out)
    return out


def _kernel_spectra(torus: Torus, *kernels: np.ndarray) -> np.ndarray:
    """Stacked real transforms of the kernels, scaled by the cell volume h^d."""
    shape = (torus.sites_per_axis,) * torus.dim
    stack = np.stack([np.asarray(k, dtype=float).reshape(shape) for k in kernels])
    return torus.cell_volume * _forward(stack, 1)


def _convolve(torus: Torus, spectra: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Periodic convolutions of rho with every kernel of spectra, one row each.

    One real transform of rho and one batched inverse over the kernels, as
    numpy's irfftn makes it: complex transforms over the leading axes from
    first to last, then a real one of the last axis, each on one axis and
    divided by its length.  (One call over several axes divides once by the
    product of the lengths, which moves the result by up to 6.3e-16
    relative on 3-D tori and non-power-of-two 2-D ones.)  The real one is
    given the site count, so odd site counts per axis round-trip.
    """
    shape = (torus.sites_per_axis,) * torus.dim
    product = spectra * _forward(np.asarray(rho, dtype=float).reshape(shape), 0)
    for axis in range(1, torus.dim):
        product = _pocketfft.c2c(product, (axis,), False, 2, product)
    out = _pocketfft.c2r(product, (torus.dim,), torus.sites_per_axis, False, 2)
    return out.reshape(len(spectra), -1)


def _rhs(rho: np.ndarray, torus: Torus, spectra: np.ndarray, params: ModelParams) -> np.ndarray:
    """The kinetic equation's right-hand side at rho.

    For a constant field the spectra are the kernel averages (avg_a,
    avg_phi), a tuple of floats, and rho is a Python float: on a one-site
    torus with the summed kernels a transform is the identity and
    Re (s + 0j)(v + 0j) = s v - 0, so the products s * rho are the
    convolutions bit for bit.  The exponential is numpy's, as on arrays:
    math.exp's last bit differs on 4.6% of draws in [-50, 5] (AVX-512).
    """
    m_rate, birth = params.death_amplitude, params.birth_intensity
    if isinstance(spectra, tuple):
        avg_a, avg_phi = spectra
        return -rho * (avg_a * rho) - m_rate * rho * float(np.exp(-(avg_phi * rho))) + birth
    comp, attr = _convolve(torus, spectra, rho)
    return -rho * comp - m_rate * rho * np.exp(-attr) + birth


def scalar_rhs_gap(field: DensityField, kernels: KernelPair, params: ModelParams) -> float:
    """Largest gap between the right-hand side at a constant field on the full
    torus and the scalar one of its march, relative at each site to the size
    of the equation's three terms there (at least lambda, so never 0)."""
    torus = field.torus
    spectra = _kernel_spectra(torus, kernels.a_values, kernels.phi_values)
    comp, attr = _convolve(torus, spectra, field.rho)
    m_rate, rho = params.death_amplitude, field.rho
    size = rho * comp + m_rate * rho * np.exp(-attr) + params.birth_intensity
    full = _rhs(rho, torus, spectra, params)
    scalar = _rhs(rho[0], torus, (kernels.avg_a, kernels.avg_phi), params)
    return float(np.max(np.abs(full - scalar) / size))


def circular_convolution(torus: Torus, kernel: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """Periodic lattice convolution h^d sum_y kernel(x - y) rho(y), by real FFT."""
    return _convolve(torus, _kernel_spectra(torus, kernel), rho)[0]


@dataclass
class KineticTrajectory:
    times: np.ndarray
    fields: np.ndarray  # (len(times), site_count)
    halvings: int

    @property
    def final(self) -> np.ndarray:
        return self.fields[-1]


def integrate_kinetic(
    field0: DensityField,
    t_end: float,
    dt: float,
    kernels: KernelPair,
    params: ModelParams,
    *,
    store_every: int = 1,
) -> KineticTrajectory:
    """Fixed-step fourth-order Runge-Kutta march of the kinetic equation.

    A constant field (`DensityField.constant`) stays constant, so it
    marches as a Python float with the kernel averages as its spectra,
    bit for bit as on the one-site torus of the summed kernels (`_rhs`):
    numpy is called only for the exponential, and the stored values are
    stacked once and repeated over the sites.  Any other field marches on
    the full torus; the kernel transforms are taken once, so each
    right-hand side costs one forward and one batched inverse real FFT.

    Steps whose stability indicator dt (avg_a max rho + m) reaches 1, and
    steps producing negative entries, are rejected and retried at half the
    step; more than _MAX_HALVINGS rejections abort the run.
    """
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if dt <= 0:
        raise ValueError("dt must be positive")
    torus = field0.torus
    scalar = field0.constant
    if scalar:
        spectra, rho = (kernels.avg_a, kernels.avg_phi), float(field0.rho[0])
    else:
        spectra, rho = _kernel_spectra(torus, kernels.a_values, kernels.phi_values), field0.rho
    avg_a = kernels.avg_a
    m_rate = params.death_amplitude
    times = [0.0]
    fields = [rho]
    t = 0.0
    step = dt
    halvings = 0
    accepted = 0
    while t < t_end * (1.0 - 1e-15):
        step = min(step, t_end - t)
        peak = rho if scalar else float(rho.max())
        rejected = "stability bound" if step * (avg_a * peak + m_rate) >= 1.0 else None
        if not rejected:
            k1 = _rhs(rho, torus, spectra, params)
            k2 = _rhs(rho + 0.5 * step * k1, torus, spectra, params)
            k3 = _rhs(rho + 0.5 * step * k2, torus, spectra, params)
            k4 = _rhs(rho + step * k3, torus, spectra, params)
            rho_new = rho + (step / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            negative = rho_new < 0.0
            if negative if scalar else negative.any():
                rejected = "negativity rejection"
        if rejected:
            step *= 0.5
            halvings += 1
            if halvings > _MAX_HALVINGS:
                raise StepSizeCollapse(f"{rejected} forced too many step halvings")
            continue
        t += step
        rho = rho_new
        accepted += 1
        if accepted % store_every == 0 or t >= t_end * (1.0 - 1e-15):
            times.append(t)
            fields.append(rho)
    rows = np.vstack(fields)
    if scalar:
        rows = np.repeat(rows, torus.site_count, axis=1)
    return KineticTrajectory(np.array(times), rows, halvings)


def homogeneous_scalar_ode(
    r0: float,
    t_end: float,
    avg_a: float,
    avg_phi: float,
    death_amplitude: float,
    birth_intensity: float,
) -> float:
    """High-accuracy adaptive solve of the spatially constant reduction.

    DOP853 (`compiled.dop853`) at _SCALAR_RTOL and _SCALAR_ATOL, in the
    time tau = t / t_end with the rate times t_end; an interval too short
    for r to move by _SCALAR_ATOL is one Euler step.  The rate
    runs on Python floats and reads +inf where it overflows or is not
    finite, so that DOP853 rejects that stage.  A rate that is not finite at
    r0, more than _SCALAR_MAX_STEPS steps or any other DOP853 failure raise
    ConvergenceError.
    """
    if r0 < 0:
        raise ValueError("r0 must be >= 0")
    if t_end < 0:
        raise ValueError("t_end must be >= 0")
    if t_end == 0.0:
        return float(r0)

    def rate(r):
        return birth_intensity - avg_a * r * r - death_amplitude * r * math.exp(-avg_phi * r)

    def scaled(_tau, y):
        try:
            value = t_end * rate(float(y[0]))
        except OverflowError:
            return math.inf
        return value if math.isfinite(value) else math.inf

    r = float(r0)
    if not math.isfinite(rate(r)):
        raise ConvergenceError(f"scalar kinetic rate is not finite at r0={r:.6g}")
    # with nonnegative averages |rate'| <= 2 avg_a r + death_amplitude, so an
    # interval on which r moves by at most _SCALAR_ATOL is one Euler step to
    # rounding; DOP853 stops at once on some of them (its error norm divides
    # by a subnormal: t_end = 3.3e-155 from r0 = 0 is "step size too small")
    if t_end * (abs(rate(r)) + 2.0 * avg_a * r + death_amplitude) <= _SCALAR_ATOL:
        return r + t_end * rate(r)
    end = compiled.dop853(
        scaled, [r], 1.0, _SCALAR_RTOL, _SCALAR_ATOL, _SCALAR_MAX_STEPS, "scalar kinetic solve"
    )
    return float(end[0])


@dataclass(frozen=True)
class BifurcationInput:
    """Dimensionless stationary problem x e^{-x} + b x^2 = c on [0, x_hi]."""

    b: float
    c: float
    x_hi: float = 50.0
    resolution: int = 100_000

    def __post_init__(self):
        if not (self.b >= 0 and math.isfinite(self.b)):
            raise ValueError("b must be >= 0 and finite")
        if not (self.c > 0 and math.isfinite(self.c)):
            raise ValueError("c must be positive and finite")
        if not (self.x_hi > 0):
            raise ValueError("x_hi must be positive")
        top = self.b * self.x_hi * self.x_hi
        if not math.isfinite(top):
            raise ValueError("x_hi too large: b * x_hi^2 overflows")
        if not (top > self.c):
            raise ValueError("x_hi too small: need b * x_hi^2 > c for a right bracket")
        if self.resolution < 100:
            raise ValueError("resolution must be >= 100")


def stationary_curve(x, b: float):
    x = np.asarray(x, dtype=float)
    return x * np.exp(-x) + b * x * x


@dataclass
class ScanResult:
    """Roots of the stationary relation found by scan plus bisection."""

    roots: np.ndarray
    count: int
    edge_warning: bool
    tangency_flag: bool


def _bisect(fn, lo: float, hi: float, tol: float = 1e-12) -> float:
    flo = fn(lo)
    for _ in range(200):
        if hi - lo <= tol:
            break
        mid = 0.5 * (lo + hi)
        fmid = fn(mid)
        if fmid == 0.0:
            return mid
        if (flo < 0) == (fmid < 0):
            lo, flo = mid, fmid
        else:
            hi = mid
    return 0.5 * (lo + hi)


@functools.lru_cache(maxsize=1)
def scan_grid(x_hi: float, resolution: int) -> tuple[np.ndarray, np.ndarray]:
    """The scan grid on [0, x_hi] and x e^{-x} over it, both read-only.

    Neither depends on (b, c), so a bifurcation run's scans, which all share
    one grid, build them once; the run frees them when its scans end.
    x e^{-x} is formed in one buffer: e^{-x} x has the bits of
    `stationary_curve`'s x e^{-x}.
    """
    grid = np.linspace(0.0, x_hi, resolution + 1)
    decay = np.negative(grid)
    np.exp(decay, out=decay)
    decay *= grid
    grid.flags.writeable = False
    decay.flags.writeable = False
    return grid, decay


def stationary_scan(inp: BifurcationInput) -> ScanResult:
    """Find all roots of x e^{-x} + b x^2 = c on [0, x_hi].

    Dense grid scan for sign changes, bisection to 1e-12 on each bracket.
    The grid and x e^{-x} over it are built once per (x_hi, resolution) and
    shared by a run's scans; each scan forms only its b- and c-dependent
    values.  Exact tangencies are reported with the lower root count and a
    flag; roots within one grid cell of the window edge raise a warning.
    """
    grid, decay = scan_grid(inp.x_hi, inp.resolution)
    # the operations of stationary_curve(grid, b) - c, in its order, in one buffer
    vals = np.multiply(inp.b, grid)
    vals *= grid
    np.add(decay, vals, out=vals)
    vals -= inp.c
    fn = lambda x: float(x * math.exp(-x) + inp.b * x * x - inp.c)
    # a bracket's ends differ in sign or start at zero; the exact test, on
    # products as the scalar test forms them (an overflow is inf, an
    # underflow 0), runs on those candidates only
    neg = vals < 0.0
    cells = np.flatnonzero((neg[:-1] != neg[1:]) | (vals[:-1] == 0.0))
    lo, hi = vals[cells], vals[cells + 1]
    with np.errstate(over="ignore", under="ignore"):
        brackets = cells[(lo == 0.0) | (lo * hi < 0.0)]
    roots = []
    for i in brackets:
        if vals[i] == 0.0:
            if not roots or abs(roots[-1] - grid[i]) > 1e-9:
                roots.append(float(grid[i]))
        else:
            roots.append(_bisect(fn, float(grid[i]), float(grid[i + 1])))
    if vals[-1] == 0.0:
        roots.append(float(grid[-1]))
    cell = inp.x_hi / inp.resolution
    # |mid| < tol as two comparisons, with no float temporary; the extremum
    # masks run on the near cells only
    tol = 1e-9 * max(inp.c, 1.0)
    inner = vals[1:-1]
    near = np.flatnonzero((inner < tol) & (inner > -tol)) + 1
    left, mid, right = vals[near - 1], vals[near], vals[near + 1]
    minimum_above = (left > mid) & (mid < right) & (mid > 0.0)
    maximum_below = (left < mid) & (mid > right) & (mid < 0.0)
    tangency = bool(np.any(minimum_above | maximum_below))
    edge = any(r <= cell or r >= inp.x_hi - cell for r in roots)
    if edge:
        warnings.warn("stationary root within one grid cell of the window edge", stacklevel=2)
    return ScanResult(np.array(sorted(roots)), len(roots), edge, tangency)


def threshold_b() -> float:
    """Fold threshold: above it the stationary relation is single-valued."""
    root5 = math.sqrt(5.0)
    return (3.0 - root5) / 4.0 * math.exp(-(1.0 + root5) / 2.0)


def tangency_point() -> float:
    """Extremum-merging location x0, the positive root of x^2 - x - 1."""
    return (1.0 + math.sqrt(5.0)) / 2.0


def critical_c_range(b: float) -> tuple[float, float]:
    """The c-window (c_low, c_high) with three stationary solutions.

    Solves 2 b x = (x - 1) e^{-x} on both sides of the tangency point; the
    local maximum of the stationary curve gives c_high, the local minimum
    gives c_low.  Rejects b outside (0, threshold_b).
    """
    if not (0.0 < b < threshold_b()):
        raise ValueError("critical_c_range needs 0 < b < threshold_b()")
    x0 = tangency_point()

    def extremum_eq(x: float) -> float:
        return (x - 1.0) * math.exp(-x) - 2.0 * b * x

    x_lo = _bisect(extremum_eq, 1.0, x0, tol=1e-14)
    hi = x0 + 1.0
    while extremum_eq(hi) > 0.0:
        hi *= 2.0
        if hi > 1e6:
            raise RuntimeError("failed to bracket the outer extremum")
    x_hi = _bisect(extremum_eq, x0, hi, tol=1e-14)
    c_high = float(stationary_curve(x_lo, b))
    c_low = float(stationary_curve(x_hi, b))
    return c_low, c_high

