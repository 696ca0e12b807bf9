"""Generators of the truncated birth-and-death correlation hierarchy.

The evolution of truncated correlation vectors is driven by a generator with
four term families:

  diagonal   -E^a(eta) k(eta), the pair-competition multiplication;
  crowding   -sum_{y in eta} h^d sum_{x not in eta} a(x - y) k(eta + x);
  death      -m sum_{x in eta} e^{-s E^phi(x, eta - x)}
                 sum_{xi in complement} h^{d|xi|} k(eta + xi)
                 prod_{y in xi} w(x - y),
  birth      +lambda sum_{x in eta} k(eta - x),

where the Moebius weight w and the attraction damping s depend on the scaling
parameter epsilon of `ModelParams`: w = (e^{-eps phi} - 1)/eps and s = eps for
eps > 0, so eps = 1 (the default) is the unscaled hierarchy with
w = e^{-phi} - 1, and the scaling limit eps = 0 has w = -phi, s = 0.  The
diagonal carries the same factor, -eps E^a.  Output above the truncation order
n_max is dropped and reads from above n_max are zero (closed truncation).

`OperatorHandle` freezes one part of the generator L_eps = A_eps + Z_eps
("full", "diagonal" A_eps, or "perturbation" Z_eps) and caches its sparse
matrix for repeated application inside the solvers.  Each term family is
built as COO index arrays over whole layers (`lattice.layer_array`): crowding
and birth pair every (n+1)-subset with its n-subsets one position short,
death splits every (n+j)-subset into the positions of eta and of xi, and
`lattice.subset_rank` turns the subsets back into flat indices.  Sums and
products run over sites in increasing order, as the formulas above read.
The observable-side generator (the pre-dual under the Lebesgue-Poisson
pairing) is `apply_observable_generator`, a per-configuration enumeration;
the duality tests pit it against the hierarchy side with no shared code path.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np
import scipy.sparse as sp

from .lattice import (
    KernelPair,
    SupportedFunction,
    diff_table,
    layer_array,
    layer_offsets,
    pair_energy,
    point_energy,
    subset_rank,
    subsets_of_order,
    total_dimension,
)
from .states import CorrelationVector

KINDS = ("full", "diagonal", "perturbation")


@dataclass(frozen=True)
class ModelParams:
    """Birth-and-death model rates.

    death_amplitude: strength m of the attraction-damped death term.
    birth_intensity: constant birth rate lambda per unit volume.
    epsilon: scaling parameter of the rescaled family (0 selects the limit).
    """

    death_amplitude: float
    birth_intensity: float
    epsilon: float = 1.0

    def __post_init__(self):
        if not (self.death_amplitude > 0 and math.isfinite(self.death_amplitude)):
            raise ValueError("death_amplitude must be positive and finite")
        if not (self.birth_intensity > 0 and math.isfinite(self.birth_intensity)):
            raise ValueError("birth_intensity must be positive and finite")
        if not (self.epsilon >= 0 and math.isfinite(self.epsilon)):
            raise ValueError("epsilon must be >= 0 and finite")


def _mobius_table(kernels: KernelPair, eps: float) -> np.ndarray:
    """Per-difference Moebius weights w of the death term at scaling eps."""
    phi = kernels.phi_values
    if eps == 0.0:
        return -phi
    return np.expm1(-eps * phi) / eps


def _crowding_and_birth(kernels: KernelPair, params: ModelParams, n_max: int):
    """COO blocks of the crowding and birth families.

    Both come from each m-subset T with one position p removed: birth maps
    row T to column T - T[p] with rate lambda, crowding maps row T - T[p] to
    column T with -h^d sum_{y in T - T[p]} a(T[p] - y), summed over y in
    increasing order.
    """
    s = kernels.torus.site_count
    h = kernels.torus.cell_volume
    a_pair = kernels.a_values[diff_table(kernels.torus)]
    offs = layer_offsets(s, n_max)
    for m in range(1, n_max + 1):
        upper = layer_array(s, m)
        top = offs[m] + np.arange(len(upper))
        for p in range(m):
            below = offs[m - 1] + subset_rank(s, np.delete(upper, p, axis=1))
            yield top, below, np.full(len(upper), params.birth_intensity)
            coef = np.zeros(len(upper))
            for q in range(m):
                if q != p:
                    coef += a_pair[upper[:, p], upper[:, q]]
            keep = coef != 0.0
            yield below[keep], top[keep], -h * coef[keep]


def _death(kernels: KernelPair, params: ModelParams, n_max: int):
    """COO blocks of the death family.

    Entry (eta, eta + xi) comes from each (n + j)-subset T split into n
    positions for eta and j for xi: -h^{d j} sum_{x in eta} m e^{-eps
    E^phi(x, eta - x)} prod_{y in xi} w(x - y), with the sum over x and the
    product over y taken in increasing site order.
    """
    eps = float(params.epsilon)
    torus = kernels.torus
    s = torus.site_count
    h = torus.cell_volume
    diff = diff_table(torus)
    phi_pair = kernels.phi_values[diff]
    mob_pair = _mobius_table(kernels, eps)[diff]
    offs = layer_offsets(s, n_max)
    # damping prefactor of each removal position of each eta, layer by layer
    prefactors = [None]
    for n in range(1, n_max + 1):
        eta = layer_array(s, n)
        e_phi = np.zeros(eta.shape)
        for i in range(n):
            for q in range(n):
                if q != i:
                    e_phi[:, i] += phi_pair[eta[:, i], eta[:, q]]
        prefactors.append(params.death_amplitude * np.exp(-eps * e_phi))
    for t in range(1, n_max + 1):
        upper = layer_array(s, t)
        top = offs[t] + np.arange(len(upper))
        for j in range(t):
            n = t - j
            weight = h**j
            for xi in itertools.combinations(range(t), j):
                rest = [q for q in range(t) if q not in xi]
                rank = subset_rank(s, upper[:, rest])
                pre = prefactors[n][rank]
                val = np.zeros(len(upper))
                for i, q in enumerate(rest):
                    prod = pre[:, i]
                    for r in xi:
                        prod = prod * mob_pair[upper[:, q], upper[:, r]]
                    val += prod
                keep = val != 0.0
                yield offs[n] + rank[keep], top[keep], -weight * val[keep]


class OperatorHandle:
    """One part of the generator L_eps = A_eps + Z_eps on truncated vectors.

    kind is "full", "diagonal" (A_eps) or "perturbation" (Z_eps); the scaling
    eps is params.epsilon, 1 for the unscaled hierarchy and 0 for the limit.
    kind, kernels, params and n_max are fixed at construction; the sparse
    matrix of the term enumeration is built lazily and cached.
    """

    def __init__(self, kind: str, kernels: KernelPair, params: ModelParams, n_max: int):
        if kind not in KINDS:
            raise ValueError(f"unknown operator kind: {kind!r}")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        self.kind = kind
        self.kernels = kernels
        self.params = params
        self.n_max = n_max
        self._matrix = None
        self._energies = None

    def __repr__(self):
        return (
            f"OperatorHandle(kind={self.kind!r}, epsilon={self.params.epsilon}, "
            f"n_max={self.n_max})"
        )

    @property
    def torus(self):
        return self.kernels.torus

    @property
    def dimension(self) -> int:
        return total_dimension(self.torus.site_count, self.n_max)

    @property
    def is_diagonal(self) -> bool:
        return self.kind == "diagonal"

    def matrix(self) -> sp.csr_matrix:
        """Sparse matrix of the operator on the flat layered state.

        Each term family contributes COO blocks and coinciding entries are
        summed; no entry collects more than two terms, so the sum does not
        depend on their order and full == diagonal + perturbation exactly.
        """
        if self._matrix is None:
            blocks = [(np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0))]
            eps = float(self.params.epsilon)
            if self.kind != "perturbation" and eps != 0.0:
                energies = interaction_energies(self.kernels, self.n_max)
                offs = layer_offsets(self.torus.site_count, self.n_max)
                # only entries of order >= 2 carry a pair energy
                idx = np.arange(offs[min(2, self.n_max + 1)], offs[-1])
                blocks.append((idx, idx, -eps * energies[idx]))
            if self.kind != "diagonal":
                blocks.extend(_crowding_and_birth(self.kernels, self.params, self.n_max))
                blocks.extend(_death(self.kernels, self.params, self.n_max))
            rows, cols, vals = (np.concatenate(part) for part in zip(*blocks))
            d = self.dimension
            self._matrix = sp.coo_matrix((vals, (rows, cols)), shape=(d, d)).tocsr()
        return self._matrix

    def semigroup_energies(self) -> np.ndarray:
        """Flat diagonal energies eps E^a: the diagonal part multiplies by -E."""
        if not self.is_diagonal:
            raise ValueError("semigroup energies only defined for the diagonal kind")
        if self._energies is None:
            self._energies = self.params.epsilon * interaction_energies(self.kernels, self.n_max)
        return self._energies

    def apply(self, k: CorrelationVector) -> CorrelationVector:
        if k.torus != self.torus or k.n_max != self.n_max:
            raise ValueError("state does not match operator truncation")
        return CorrelationVector.from_flat(self.torus, self.n_max, self.matrix() @ k.flat())


def interaction_energies(kernels: KernelPair, n_max: int) -> np.ndarray:
    """Flat vector of pair energies E^a(eta) per configuration entry.

    Each entry sums a(x - y) over ordered pairs of distinct sites of eta in
    the order of `pair_energy`, so the two agree exactly.
    """
    s = kernels.torus.site_count
    a_pair = kernels.a_values[diff_table(kernels.torus)]
    parts = []
    for n in range(n_max + 1):
        eta = layer_array(s, n)
        energy = np.zeros(len(eta))
        for p in range(n):
            for q in range(n):
                if q != p:
                    energy += a_pair[eta[:, p], eta[:, q]]
        parts.append(energy)
    return np.concatenate(parts)


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
