"""Generators of the truncated birth-and-death correlation hierarchy.

The evolution of truncated correlation vectors is driven by a generator with
four term families, enumerated here entry by entry:

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
("full", "diagonal" A_eps, or "perturbation" Z_eps) and caches a sparse matrix
of the same enumeration for fast repeated application inside the solvers.  The
observable-side generator (the pre-dual under the Lebesgue-Poisson pairing) is
`apply_observable_generator`; the duality tests pit it against the hierarchy
side with no shared code path.
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
    layer_offsets,
    pair_energy,
    point_energy,
    subset_position,
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


def generator_entries(kind: str, kernels: KernelPair, params: ModelParams, n_max: int):
    """Yield (row, col, value) triplets of one part of L_eps, eps = params.epsilon.

    "diagonal" is the -eps E^a multiplication A_eps, "perturbation" the
    crowding, death and birth families Z_eps, "full" their sum.  Rows and
    columns are flat indices over the layered state.
    """
    eps = float(params.epsilon)
    diagonal_scale = 0.0 if kind == "perturbation" else eps
    coupled = kind != "diagonal"  # crowding, death and birth
    mob = _mobius_table(kernels, eps) if coupled else None
    torus = kernels.torus
    s = torus.site_count
    h = torus.cell_volume
    diff = diff_table(torus)
    a_vals = kernels.a_values
    phi_vals = kernels.phi_values
    offs = layer_offsets(s, n_max)
    m_rate = params.death_amplitude
    lam = params.birth_intensity
    all_sites = range(s)

    for n in range(n_max + 1):
        layer = subsets_of_order(s, n)
        base = offs[n]
        pos_up = subset_position(s, n + 1) if n + 1 <= n_max else None
        pos_down = subset_position(s, n - 1) if n >= 1 else None
        for idx, eta in enumerate(layer):
            row = base + idx
            eta_set = set(eta)
            if diagonal_scale != 0.0 and n >= 2:
                yield row, row, -diagonal_scale * pair_energy(eta, kernels)
            if coupled and pos_up is not None:
                for x in all_sites:
                    if x in eta_set:
                        continue
                    coef = 0.0
                    drow = diff[x]
                    for y in eta:
                        coef += a_vals[drow[y]]
                    if coef != 0.0:
                        col = offs[n + 1] + pos_up[tuple(sorted(eta + (x,)))]
                        yield row, col, -h * coef
            if coupled and n >= 1:
                # attraction damping of each removal site against the rest of eta
                prefac = []
                for x in eta:
                    drow = diff[x]
                    e_phi = sum(phi_vals[drow[y]] for y in eta if y != x)
                    prefac.append((x, m_rate * math.exp(-eps * e_phi)))
                complement = [x for x in all_sites if x not in eta_set]
                for j in range(0, min(n_max - n, len(complement)) + 1):
                    weight = h**j
                    pos_tgt = subset_position(s, n + j)
                    off_tgt = offs[n + j]
                    for xi in itertools.combinations(complement, j):
                        val = 0.0
                        for x, pre in prefac:
                            drow = diff[x]
                            prod = pre
                            for y in xi:
                                prod *= mob[drow[y]]
                            val += prod
                        if val != 0.0:
                            col = off_tgt + pos_tgt[tuple(sorted(eta + xi))]
                            yield row, col, -weight * val
            if coupled and pos_down is not None:
                off_dn = offs[n - 1]
                for x in eta:
                    col = off_dn + pos_down[tuple(y for y in eta if y != x)]
                    yield row, col, lam


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
        """Sparse matrix of the operator on the flat layered state."""
        if self._matrix is None:
            rows, cols, vals = [], [], []
            for r, c, v in generator_entries(self.kind, self.kernels, self.params, self.n_max):
                rows.append(r)
                cols.append(c)
                vals.append(v)
            d = self.dimension
            self._matrix = sp.coo_matrix(
                (np.asarray(vals, dtype=float), (np.asarray(rows), np.asarray(cols))),
                shape=(d, d),
            ).tocsr()
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
    """Flat vector of pair energies E^a(eta) per configuration entry."""
    out = np.empty(total_dimension(kernels.torus.site_count, n_max))
    pos = 0
    for n in range(n_max + 1):
        for eta in subsets_of_order(kernels.torus.site_count, n):
            out[pos] = pair_energy(eta, kernels) if n >= 2 else 0.0
            pos += 1
    return out


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
