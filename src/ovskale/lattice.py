"""Periodic lattice geometry, interaction kernels, and combinatorial calculus.

The state space of the whole package is built from finite simple configurations
(subsets of sites) on a d-dimensional periodic lattice.  This module owns:

  * `Torus`: the lattice geometry, site indexing, periodic differences and
    the minimal-image metric used to sample kernels from continuum profiles.
  * `KernelPair`: the competition kernel a >= 0 and the attraction potential
    phi >= 0, tabulated over difference vectors, with mean/sup statistics.
  * Subset enumeration: layers of n-point configurations in canonical
    (lexicographic) order, shared by states and operators, as tuples or as
    one integer array per layer, with the vectorised rank `subset_rank`.
  * The Lebesgue-Poisson calculus on the truncated configuration space:
    `lp_integral`, the product exponent `lp_exponential`, the combinatorial
    transform `k_transform` and its Moebius inverse `k_inverse`, and the
    interaction energies `pair_energy` / `point_energy`.

Design notes
------------
The Lebesgue-Poisson integral uses the canonical-subset convention: the layer
of order n contributes h^{d n} times the plain sum over n-subsets in canonical
order.  The 1/n! of the ordered-tuple convention cancels against the n!
orderings of a subset, so no factorial appears here; every other module pairs
layers with the same weights, which keeps summation by parts exact.

Configurations are plain tuples of strictly increasing site indices.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

MAX_SUBSET_ORDER = 25  # 2^25 subset sums are the tractability limit


def _as_sites(eta) -> tuple[int, ...]:
    """Normalize a configuration-like argument to a sorted tuple of sites."""
    sites = tuple(int(x) for x in eta)
    if any(sites[i] >= sites[i + 1] for i in range(len(sites) - 1)):
        ordered = tuple(sorted(sites))
        if len(set(ordered)) != len(ordered):
            raise ValueError("configuration has repeated sites")
        return ordered
    if len(set(sites)) != len(sites):
        raise ValueError("configuration has repeated sites")
    return sites


@dataclass(frozen=True)
class Torus:
    """A d-dimensional periodic lattice with M sites per axis and spacing h."""

    dim: int
    sites_per_axis: int
    spacing: float

    def __post_init__(self):
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.sites_per_axis < 1:
            raise ValueError("sites_per_axis must be >= 1")
        if not (self.spacing > 0.0 and math.isfinite(self.spacing)):
            raise ValueError("spacing must be positive and finite")

    @property
    def site_count(self) -> int:
        return self.sites_per_axis**self.dim

    @property
    def cell_volume(self) -> float:
        return self.spacing**self.dim

    @property
    def period(self) -> float:
        return self.sites_per_axis * self.spacing

    def coords(self, site: int) -> tuple[int, ...]:
        """Multi-index of a site (row-major)."""
        m = self.sites_per_axis
        out = []
        for _ in range(self.dim):
            site, r = divmod(site, m)
            out.append(r)
        return tuple(reversed(out))

    def site(self, coords: Sequence[int]) -> int:
        m = self.sites_per_axis
        idx = 0
        for c in coords:
            idx = idx * m + (int(c) % m)
        return idx

    def diff_site(self, i: int, j: int) -> int:
        """Site index of the periodic difference (coords(i) - coords(j)) mod M."""
        ci, cj = self.coords(i), self.coords(j)
        return self.site(tuple(a - b for a, b in zip(ci, cj)))

    def neg_site(self, i: int) -> int:
        return self.site(tuple(-c for c in self.coords(i)))

    def min_image_displacement(self, site: int) -> np.ndarray:
        """Physical displacement of a difference site under the minimal image."""
        m = self.sites_per_axis
        comps = []
        for c in self.coords(site):
            c = c % m
            if c > m / 2:
                c -= m
            comps.append(c * self.spacing)
        return np.array(comps, dtype=float)

    def min_image_distance(self, site: int) -> float:
        return float(np.linalg.norm(self.min_image_displacement(site)))


@lru_cache(maxsize=None)
def diff_table(torus: Torus) -> np.ndarray:
    """Dense (S, S) table of difference-site indices, diff[i, j] = i - j mod M."""
    s = torus.site_count
    out = np.empty((s, s), dtype=np.int64)
    for i in range(s):
        for j in range(s):
            out[i, j] = torus.diff_site(i, j)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def subsets_of_order(site_count: int, order: int) -> tuple[tuple[int, ...], ...]:
    """All order-n subsets of range(site_count) in canonical (lex) order."""
    if order < 0 or order > site_count:
        return ()
    return tuple(itertools.combinations(range(site_count), order))


@lru_cache(maxsize=None)
def subset_position(site_count: int, order: int) -> dict:
    """Canonical index of each order-n subset within its layer."""
    return {c: i for i, c in enumerate(subsets_of_order(site_count, order))}


@lru_cache(maxsize=None)
def layer_array(site_count: int, order: int) -> np.ndarray:
    """Read-only (C(S, n), n) array of the order-n subsets, rows in canonical order."""
    count = math.comb(site_count, order)
    sites = itertools.chain.from_iterable(itertools.combinations(range(site_count), order))
    out = np.fromiter(sites, dtype=np.int64, count=count * order).reshape(count, order)
    out.setflags(write=False)
    return out


@lru_cache(maxsize=None)
def _binomials(site_count: int, order: int) -> np.ndarray:
    """binom[v, r] = C(v, r) for 0 <= v < site_count and 0 <= r <= order."""
    out = np.array(
        [[math.comb(v, r) for r in range(order + 1)] for v in range(site_count)],
        dtype=np.int64,
    )
    out.setflags(write=False)
    return out


def subset_rank(site_count: int, subsets: np.ndarray) -> np.ndarray:
    """Canonical index within its layer of each row of an (N, n) subset array.

    Rows hold strictly increasing sites.  In the combinatorial number system
    the lexicographic rank of c_0 < ... < c_{n-1} is
    C(S, n) - 1 - sum_i C(S - 1 - c_i, n - i).
    """
    order = subsets.shape[1]
    binom = _binomials(site_count, order)
    rank = np.full(len(subsets), math.comb(site_count, order) - 1, dtype=np.int64)
    for i in range(order):
        rank -= binom[site_count - 1 - subsets[:, i], order - i]
    return rank


def layer_sizes(site_count: int, n_max: int) -> tuple[int, ...]:
    return tuple(math.comb(site_count, n) for n in range(n_max + 1))


@lru_cache(maxsize=None)
def layer_offsets(site_count: int, n_max: int) -> tuple[int, ...]:
    """Flat-vector offset of each layer when layers 0..n_max are concatenated."""
    sizes = layer_sizes(site_count, n_max)
    offs = [0]
    for s in sizes:
        offs.append(offs[-1] + s)
    return tuple(offs)


def total_dimension(site_count: int, n_max: int) -> int:
    return layer_offsets(site_count, n_max)[-1]


@lru_cache(maxsize=None)
def entry_orders(site_count: int, n_max: int) -> np.ndarray:
    """Layer order |eta| of each flat-vector entry."""
    orders = np.concatenate(
        [np.full(math.comb(site_count, n), n, dtype=np.int64) for n in range(n_max + 1)]
    )
    orders.setflags(write=False)
    return orders


def _profile_gaussian(r: float, params: dict) -> float:
    sigma = float(params["sigma"])
    if sigma <= 0:
        raise ValueError("gaussian kernel needs sigma > 0")
    return float(params["amplitude"]) * math.exp(-(r * r) / (2.0 * sigma * sigma))


def _profile_tophat(r: float, params: dict) -> float:
    radius = float(params["radius"])
    if radius < 0:
        raise ValueError("tophat kernel needs radius >= 0")
    return float(params["amplitude"]) if r <= radius else 0.0


_PROFILES: dict[str, Callable[[float, dict], float]] = {
    "gaussian": _profile_gaussian,
    "tophat": _profile_tophat,
}


def kernel_values(torus: Torus, spec: dict) -> np.ndarray:
    """Tabulate one kernel over difference sites from its JSON spec.

    spec = {"kind": "gaussian" | "tophat" | "table", "params": {...}}.
    Analytic kinds sample the profile at the minimal-image distance; the
    optional params key "origin" overrides the zero-difference value (used to
    switch off self-interaction).  "table" takes explicit per-site values.
    """
    kind = spec.get("kind")
    params = dict(spec.get("params", {}))
    s = torus.site_count
    if kind == "table":
        vals = np.asarray(params["values"], dtype=float)
        if vals.shape != (s,):
            raise ValueError(f"kernel table must have length {s}")
    elif kind in _PROFILES:
        profile = _PROFILES[kind]
        origin = params.pop("origin", None)
        vals = np.array(
            [profile(torus.min_image_distance(i), params) for i in range(s)], dtype=float
        )
        if origin is not None:
            vals[0] = float(origin)
    else:
        raise ValueError(f"unknown kernel kind: {kind!r}")
    if not np.all(np.isfinite(vals)):
        raise ValueError("kernel values must be finite")
    if np.any(vals < 0):
        raise ValueError("kernel values must be nonnegative")
    vals.setflags(write=False)
    return vals


@dataclass(frozen=True, eq=False)
class KernelPair:
    """Competition kernel and attraction potential tabulated over differences.

    a_values[j] is the competition rate at difference site j; phi_values[j]
    the attraction potential.  Both must be nonnegative, finite, and even
    under the periodic reflection j -> -j.
    """

    torus: Torus
    a_values: np.ndarray
    phi_values: np.ndarray

    def __post_init__(self):
        s = self.torus.site_count
        for name in ("a_values", "phi_values"):
            vals = np.ascontiguousarray(getattr(self, name), dtype=float)
            if vals.shape != (s,):
                raise ValueError(f"{name} must have shape ({s},)")
            if not np.all(np.isfinite(vals)):
                raise ValueError(f"{name} must be finite")
            if np.any(vals < 0):
                raise ValueError(f"{name} must be nonnegative")
            vals.setflags(write=False)
            object.__setattr__(self, name, vals)
        neg = np.array([self.torus.neg_site(i) for i in range(s)])
        if not np.array_equal(self.a_values[neg], self.a_values):
            raise ValueError("a_values must be symmetric under reflection")
        if not np.array_equal(self.phi_values[neg], self.phi_values):
            raise ValueError("phi_values must be symmetric under reflection")

    @property
    def avg_a(self) -> float:
        """Lattice integral of the competition kernel, h^d * sum a."""
        return self.torus.cell_volume * float(self.a_values.sum())

    @property
    def sup_a(self) -> float:
        return float(self.a_values.max())

    @property
    def avg_phi(self) -> float:
        return self.torus.cell_volume * float(self.phi_values.sum())

    @property
    def sup_phi(self) -> float:
        return float(self.phi_values.max())


def kernel_pair_from_spec(torus: Torus, a_spec: dict, phi_spec: dict) -> KernelPair:
    return KernelPair(torus, kernel_values(torus, a_spec), kernel_values(torus, phi_spec))


def load_kernel_pair(doc: dict) -> KernelPair:
    """Build a KernelPair from its JSON document.

    Format: {"dim": d, "sites": M, "spacing": h, "a": {...}, "phi": {...}}.
    """
    required = {"dim", "sites", "spacing", "a", "phi"}
    missing = required - doc.keys()
    if missing:
        raise ValueError(f"kernel document missing keys: {sorted(missing)}")
    torus = Torus(int(doc["dim"]), int(doc["sites"]), float(doc["spacing"]))
    return kernel_pair_from_spec(torus, doc["a"], doc["phi"])


@dataclass(eq=False)
class SupportedFunction:
    """A function on configurations with bounded order and bounded support.

    `values` maps canonical site tuples to reals; anything outside the window
    or above max_order is identically zero.  window=None means the whole
    lattice.
    """

    torus: Torus
    values: dict
    max_order: int
    window: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.max_order < 0:
            raise ValueError("max_order must be >= 0")
        win = None if self.window is None else tuple(sorted(set(int(x) for x in self.window)))
        self.window = win
        wset = None if win is None else set(win)
        s = self.torus.site_count
        clean = {}
        for key, val in self.values.items():
            sites = _as_sites(key)
            if sites and (sites[0] < 0 or sites[-1] >= s):
                raise ValueError("configuration site out of range")
            if len(sites) > self.max_order:
                raise ValueError("entry above max_order")
            if wset is not None and not set(sites) <= wset:
                raise ValueError("entry outside support window")
            clean[sites] = float(val)
        self.values = clean

    def value(self, eta) -> float:
        sites = _as_sites(eta)
        return self.values.get(sites, 0.0)

    __call__ = value

    def support_sites(self) -> tuple[int, ...]:
        if self.window is not None:
            return self.window
        return tuple(range(self.torus.site_count))


def lp_integral(G: SupportedFunction, n_max: int) -> float:
    """Lebesgue-Poisson integral of G over configurations of order <= n_max.

    Canonical-subset convention: layer n contributes h^{d n} times the plain
    sum of G over n-subsets (no 1/n!).
    """
    if n_max < 0:
        raise ValueError("n_max must be >= 0")
    sites = G.support_sites()
    h = G.torus.cell_volume
    top = min(n_max, G.max_order, len(sites))
    total = G.value(())
    for n in range(1, top + 1):
        layer = 0.0
        for eta in itertools.combinations(sites, n):
            layer += G.values.get(eta, 0.0)
        total += (h**n) * layer
    return total


def lp_exponential(f, eta) -> float:
    """Product of a site function over a configuration; empty product is 1."""
    sites = _as_sites(eta)
    out = 1.0
    if callable(f):
        for x in sites:
            out *= f(x)
    else:
        arr = np.asarray(f, dtype=float)
        for x in sites:
            out *= arr[x]
    return out


def _lookup(G, eta: tuple[int, ...]) -> float:
    if isinstance(G, SupportedFunction):
        return G.value(eta)
    return float(G(eta))


def k_transform(G, eta) -> float:
    """Sum of G over all sub-configurations of eta (combinatorial transform)."""
    sites = _as_sites(eta)
    if len(sites) > MAX_SUBSET_ORDER:
        raise ValueError(f"configuration order above {MAX_SUBSET_ORDER}")
    total = 0.0
    for n in range(len(sites) + 1):
        for xi in itertools.combinations(sites, n):
            total += _lookup(G, xi)
    return total


def k_inverse(F, eta) -> float:
    """Moebius inverse of k_transform: alternating subset sum of F."""
    sites = _as_sites(eta)
    if len(sites) > MAX_SUBSET_ORDER:
        raise ValueError(f"configuration order above {MAX_SUBSET_ORDER}")
    m = len(sites)
    total = 0.0
    for n in range(m + 1):
        sign = -1.0 if (m - n) % 2 else 1.0
        for xi in itertools.combinations(sites, n):
            total += sign * _lookup(F, xi)
    return total


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
