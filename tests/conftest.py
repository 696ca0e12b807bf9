"""Shared model instances and slow references for the test suite."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import pytest

from ovskale import (
    BoundModel,
    CorrelationVector,
    KernelPair,
    ModelParams,
    ScaleSpec,
    SupportedFunction,
    Torus,
    homogeneous_scalar_ode,
    kernel_pair_from_spec,
    model_bound,
    time_horizon,
)
from ovskale.lattice import _as_sites, diff_table, subsets_of_order

GAUSS_A = {"kind": "gaussian", "params": {"amplitude": 1.0, "sigma": 0.7}}
GAUSS_PHI = {"kind": "gaussian", "params": {"amplitude": 0.8, "sigma": 0.5}}


@dataclass(frozen=True)
class Instance:
    """One assembled model: geometry, kernels, rates, scale, bound."""

    torus: Torus
    kernels: KernelPair
    params: ModelParams
    scale: ScaleSpec
    bound: BoundModel
    n_max: int

    @property
    def horizon(self) -> float:
        return time_horizon(self.scale.alpha_s, self.scale.alpha_star, self.bound, self.scale.nu)


def make_instance(
    sites: int = 6,
    n_max: int = 3,
    spacing: float = 0.5,
    a_spec: dict | None = None,
    phi_spec: dict | None = None,
    m: float = 1.0,
    lam: float = 1.0,
    epsilon: float = 1.0,
    alpha_s: float = 1.5,
    alpha_star: float = 2.5,
) -> Instance:
    torus = Torus(1, sites, spacing)
    kernels = kernel_pair_from_spec(torus, a_spec or GAUSS_A, phi_spec or GAUSS_PHI)
    params = ModelParams(death_amplitude=m, birth_intensity=lam, epsilon=epsilon)
    scale = ScaleSpec(alpha_s=alpha_s, alpha_star=alpha_star)
    bound = model_bound(kernels, params)
    return Instance(torus, kernels, params, scale, bound, n_max)


def to_dense(matrix) -> np.ndarray:
    """The dense array of a CSR matrix, read entry by entry from its three arrays."""
    rows = np.repeat(np.arange(matrix.shape[0]), np.diff(matrix.indptr))
    out = np.zeros(matrix.shape)
    np.add.at(out, (rows, matrix.indices), matrix.data)
    return out


def pair_energy(eta, kernels: KernelPair) -> float:
    """Total competition energy: sum over ordered pairs (x, y) in eta of a(x - y)."""
    sites = _as_sites(eta)
    a = kernels.a_values
    diff = diff_table(kernels.torus)
    total = 0.0
    for x in sites:
        row = diff[x]
        for y in sites:
            if y != x:
                total += a[row[y]]
    return total


def point_energy(x: int, xi, kernels: KernelPair) -> float:
    """Attraction energy of site x against the configuration xi: sum phi(x - y)."""
    sites = _as_sites(xi)
    phi = kernels.phi_values
    row = diff_table(kernels.torus)[int(x)]
    return float(sum(phi[row[y]] for y in sites))


def site_coords(torus: Torus, site: int) -> tuple[int, ...]:
    """Multi-index of a site (row-major), one divmod per axis."""
    out = []
    for _ in range(torus.dim):
        site, r = divmod(site, torus.sites_per_axis)
        out.append(r)
    return tuple(reversed(out))


def site_index(torus: Torus, coords) -> int:
    """Site of a multi-index, each component taken mod M."""
    idx = 0
    for c in coords:
        idx = idx * torus.sites_per_axis + (int(c) % torus.sites_per_axis)
    return idx


def diff_site(torus: Torus, i: int, j: int) -> int:
    """Site of the periodic difference (coords(i) - coords(j)) mod M."""
    return site_index(torus, [a - b for a, b in zip(site_coords(torus, i), site_coords(torus, j))])


def neg_site(torus: Torus, i: int) -> int:
    return site_index(torus, [-c for c in site_coords(torus, i)])


def min_image_distance(torus: Torus, site: int) -> float:
    """Length of a difference site's displacement under the minimal image."""
    m = torus.sites_per_axis
    comps = [(c - m if c > m / 2 else c) * torus.spacing for c in site_coords(torus, site)]
    return float(np.linalg.norm(np.array(comps, dtype=float)))


def apply_observable_generator(
    G: SupportedFunction, kernels: KernelPair, params: ModelParams, n_max: int
) -> SupportedFunction:
    """Generator on the observable side of the Lebesgue-Poisson pairing.

    For every configuration eta with |eta| <= n_max:

      out(eta) = -E^a(eta) G(eta)
                 - sum_{x in eta} (sum_{y in eta - x} a(x - y)) G(eta - x)
                 - m sum_{xi subset eta} G(xi) sum_{x in xi}
                       e^{-E^phi(x, xi - x)} prod_{y in eta - xi} (e^{-phi(x-y)} - 1)
                 + lambda h^d sum_{x not in eta} G(eta + x),

    reading G as zero above its own order or outside its window.  This is the
    exact adjoint of the unscaled (eps = 1) full generator on the truncated
    space; params.epsilon is not read.
    """
    torus = kernels.torus
    s = torus.site_count
    h = torus.cell_volume
    diff = diff_table(torus)
    a_vals = kernels.a_values
    phi_vals = kernels.phi_values
    mob = np.expm1(-phi_vals)
    m_rate = params.death_amplitude
    lam = params.birth_intensity
    out = {}
    for n in range(n_max + 1):
        for eta in subsets_of_order(s, n):
            eta_set = set(eta)
            val = 0.0
            if n >= 2:
                g_here = G.value(eta)
                if g_here != 0.0:
                    val -= pair_energy(eta, kernels) * g_here
            for x in eta:
                rest = tuple(y for y in eta if y != x)
                g_rest = G.value(rest)
                if g_rest != 0.0:
                    drow = diff[x]
                    val -= sum(a_vals[drow[y]] for y in rest) * g_rest
            for r in range(n + 1):
                for xi in itertools.combinations(eta, r):
                    g_xi = G.value(xi)
                    if g_xi == 0.0:
                        continue
                    outside = [y for y in eta if y not in xi]
                    acc = 0.0
                    for x in xi:
                        drow = diff[x]
                        term = math.exp(-point_energy(x, tuple(y for y in xi if y != x), kernels))
                        for y in outside:
                            term *= mob[drow[y]]
                        acc += term
                    val -= m_rate * g_xi * acc
            birth_sum = 0.0
            for x in range(s):
                if x not in eta_set:
                    birth_sum += G.value(tuple(sorted(eta + (x,))))
            val += lam * h * birth_sum
            out[eta] = val
    return SupportedFunction(torus, out, n_max, None)


def lp_pairing(F, k: CorrelationVector) -> float:
    """Lebesgue-Poisson pairing of an observable with a correlation vector.

    Layers pair with weight h^{d n} under the canonical-subset convention, up
    to the state's truncation order.
    """
    h = k.torus.cell_volume
    if isinstance(F, SupportedFunction):
        total = 0.0
        for eta, val in F.values.items():
            if val != 0.0 and len(eta) <= k.n_max:
                total += h ** len(eta) * val * k.value(eta)
        return total
    total = 0.0
    for n in range(k.n_max + 1):
        for eta in subsets_of_order(k.torus.site_count, n):
            total += h**n * float(F(eta)) * k.value(eta)
    return total


def homogeneous_ode(r0: float, t_end: float, kernels: KernelPair, params: ModelParams) -> float:
    """The spatially constant kinetic solution at t_end, from the model's averages."""
    return homogeneous_scalar_ode(
        r0, t_end, kernels.avg_a, kernels.avg_phi, params.death_amplitude, params.birth_intensity
    )


@pytest.fixture(scope="session")
def stock6() -> Instance:
    return make_instance()


@pytest.fixture(scope="session")
def stock4() -> Instance:
    # small enough for dense oracles and exhaustive enumeration
    return make_instance(sites=4, n_max=2)


@pytest.fixture()
def rng() -> np.random.Generator:
    return np.random.default_rng(20260816)
