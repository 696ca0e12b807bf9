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
built as COO index arrays by one of two enumerators, each the faster for
its route:

  * the full route enumerates whole layers (`lattice.layer_array`): crowding
    and birth pair every (n+1)-subset with its n-subsets one position short,
    death splits every (n+j)-subset into the positions of eta and of xi, and
    `lattice.subset_rank` turns the subsets back into flat indices;
  * the orbit route starts from the representative rows alone
    (`OrbitMap.reps`): birth takes eta - x, crowding eta + x and death
    eta + xi for xi outside eta, each union ranked from the merge positions
    of its two parts without a sort, and every column is mapped to its orbit
    (`OrbitMap.orbit_of`), so the columns of each orbit are summed.

Sums and products run over sites in increasing order, as the formulas above
read, so both enumerators give every term the same bits.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from .lattice import (
    KernelPair,
    _binomials,
    diff_table,
    layer_array,
    layer_offsets,
    subset_rank,
    total_dimension,
)
from .states import CorrelationVector

if TYPE_CHECKING:
    from .csr import CsrMatrix
    from .orbits import OrbitMap

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


def _pair_energies(a_pair: np.ndarray, eta: np.ndarray) -> np.ndarray:
    """E^a of each row of an (N, n) subset array: a(x - y) summed over ordered
    pairs of distinct sites, x outer and y inner, both in increasing site order."""
    energy = np.zeros(len(eta))
    for p in range(eta.shape[1]):
        for q in range(eta.shape[1]):
            if q != p:
                energy += a_pair[eta[:, p], eta[:, q]]
    return energy


def _damping(phi_pair: np.ndarray, params: ModelParams, eta: np.ndarray) -> np.ndarray:
    """m e^{-eps E^phi(x, eta - x)} at each position x of each row of eta, the
    sum over eta - x in increasing site order."""
    e_phi = np.zeros(eta.shape)
    for i in range(eta.shape[1]):
        for q in range(eta.shape[1]):
            if q != i:
                e_phi[:, i] += phi_pair[eta[:, i], eta[:, q]]
    return params.death_amplitude * np.exp(-float(params.epsilon) * e_phi)


def _crowding_and_birth(kernels: KernelPair, params: ModelParams, n_max: int):
    """COO blocks of the crowding and birth families over whole layers.

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
            yield top, below, np.full(len(top), params.birth_intensity)
            coef = np.zeros(len(upper))
            for q in range(m):
                if q != p:
                    coef += a_pair[upper[:, p], upper[:, q]]
            keep = coef != 0.0
            yield below[keep], top[keep], -h * coef[keep]


def _death(kernels: KernelPair, params: ModelParams, n_max: int):
    """COO blocks of the death family over whole layers.

    Entry (eta, eta + xi) comes from each (n + j)-subset T split into n
    positions for eta and j for xi: -h^{d j} sum_{x in eta} m e^{-eps
    E^phi(x, eta - x)} prod_{y in xi} w(x - y), with the sum over x and the
    product over y taken in increasing site order.
    """
    torus = kernels.torus
    s = torus.site_count
    h = torus.cell_volume
    diff = diff_table(torus)
    phi_pair = kernels.phi_values[diff]
    mob_pair = _mobius_table(kernels, float(params.epsilon))[diff]
    offs = layer_offsets(s, n_max)
    prefactors = [None] + [
        _damping(phi_pair, params, layer_array(s, n)) for n in range(1, n_max + 1)
    ]
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


def _rep_layers(orbits: OrbitMap):
    """(n, flat rows, (R, n) subsets) of the representatives of each nonempty layer."""
    s = orbits.torus.site_count
    offs = layer_offsets(s, orbits.n_max)
    bounds = np.searchsorted(orbits.reps, offs)
    for n in range(min(orbits.n_max, s) + 1):
        rows = orbits.reps[bounds[n]:bounds[n + 1]]
        yield n, rows, layer_array(s, n)[rows - offs[n]]


def _union_rank(s: int, eta: np.ndarray, xi: np.ndarray, picks: np.ndarray) -> np.ndarray:
    """Rank in its layer of each union eta[r] + xi[r, k], without a sort.

    eta is (R, n), xi (R, K, j) and picks (K, j): xi[r, k, b] is the
    picks[k, b]-th site outside eta[r], both increasing in b.  Then
    xi_b - picks_b sites of eta lie below xi_b, so it sits at position
    b + xi_b - picks_b of the union; eta_a has eta_a - a free sites below
    it, and sits at a + #{b : picks_b < eta_a - a}.  The rank is
    `subset_rank`'s sum over those positions.
    """
    n, j = eta.shape[1], picks.shape[1]
    t = n + j
    binom = _binomials(s, t)
    rank = np.full(xi.shape[:2], math.comb(s, t) - 1, dtype=np.int64)
    for b in range(j):
        rank -= binom[s - 1 - xi[:, :, b], t - b - xi[:, :, b] + picks[:, b]]
    for a in range(n):
        passed = (picks < (eta[:, a, None, None] - a)).sum(axis=2)
        rank -= binom[s - 1 - eta[:, a, None], t - a - passed]
    return rank


def _rep_blocks(kernels: KernelPair, params: ModelParams, orbits: OrbitMap):
    """COO blocks of the birth, crowding and death families at the representative rows.

    Row eta of order n gets birth entries at each eta - eta[p], crowding
    entries at each eta + x with x outside eta, and death entries at each
    eta + xi with xi outside eta and |xi| <= n_max - n.  The values follow
    the formulas and the site order of the whole-layer families, so every
    entry has their bits.
    """
    s = kernels.torus.site_count
    h = kernels.torus.cell_volume
    n_max = orbits.n_max
    diff = diff_table(kernels.torus)
    a_pair = kernels.a_values[diff]
    phi_pair = kernels.phi_values[diff]
    mob_pair = _mobius_table(kernels, float(params.epsilon))[diff]
    offs = layer_offsets(s, n_max)
    for n, rows, eta in _rep_layers(orbits):
        if n == 0:
            continue
        for p in range(n):
            below = offs[n - 1] + subset_rank(s, np.delete(eta, p, axis=1))
            yield rows, below, np.full(len(rows), params.birth_intensity)
        # the sites outside each row, increasing
        outside = np.ones((len(eta), s), dtype=bool)
        outside[np.arange(len(eta))[:, None], eta] = False
        free = np.nonzero(outside)[1].reshape(len(eta), s - n)
        if n < n_max:
            coef = np.zeros(free.shape)
            for q in range(n):
                coef += a_pair[free, eta[:, q, None]]
            cols = offs[n + 1] + _union_rank(s, eta, free[:, :, None], np.arange(s - n)[:, None])
            keep = coef != 0.0
            yield np.broadcast_to(rows[:, None], keep.shape)[keep], cols[keep], -h * coef[keep]
        pre = _damping(phi_pair, params, eta)
        for j in range(n_max - n + 1):
            picks = layer_array(s - n, j)
            xi = free[:, picks]
            val = np.zeros(xi.shape[:2])
            for i in range(n):
                prod = pre[:, i, None]
                for b in range(j):
                    prod = prod * mob_pair[eta[:, i, None], xi[:, :, b]]
                val += prod
            cols = offs[n + j] + _union_rank(s, eta, xi, picks)
            keep = val != 0.0
            yield np.broadcast_to(rows[:, None], keep.shape)[keep], cols[keep], -h**j * val[keep]


class OperatorHandle:
    """One part of the generator L_eps = A_eps + Z_eps on truncated vectors.

    kind is "full", "diagonal" (A_eps) or "perturbation" (Z_eps); the scaling
    eps is params.epsilon, 1 for the unscaled hierarchy and 0 for the limit.
    kind, kernels, params, n_max and the route are fixed at construction; the
    sparse matrix of the term enumeration is built lazily and cached.

    With an orbit map (`orbits.orbit_map`, whose group must fix both kernel
    tables) the handle is on the orbit route: it acts on states constant on
    orbits, held by their entries at the representatives.  Its one matrix is
    Z_red[r, o] = sum_{c in o} Z[r, c] over representative rows r, built
    from those rows alone, and its energies are computed at the
    representatives alone; no flat column index of the operator is kept.
    """

    def __init__(
        self, kind: str, kernels: KernelPair, params: ModelParams, n_max: int,
        orbits: OrbitMap | None = None,
    ):
        if kind not in KINDS:
            raise ValueError(f"unknown operator kind: {kind!r}")
        if n_max < 0:
            raise ValueError("n_max must be >= 0")
        if orbits is not None and not orbits.fits(kernels, n_max):
            raise ValueError("the orbit map does not fit the kernels and truncation")
        self.kind = kind
        self.kernels = kernels
        self.params = params
        self.n_max = n_max
        self.orbits = orbits
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

    def matrix(self) -> CsrMatrix:
        """(n, n) `CsrMatrix` of the operator: n = d flat entries, or n orbits.

        Each term family contributes COO blocks and coinciding entries are
        summed.  The full route enumerates whole layers (`_crowding_and_birth`,
        `_death`); there no entry collects more than two terms, so the sum
        does not depend on their order and full == diagonal + perturbation
        exactly.  The orbit route enumerates the entries of the
        representative rows alone (`_rep_blocks`) and maps their rows and
        columns to orbit ids as they are staged, so the columns of each orbit
        are summed.
        """
        if self._matrix is None:
            # loads scipy's sparse kernels: kinetic runs import this module
            # but need none
            from .csr import CsrMatrix

            ids, n = None, self.dimension
            if self.orbits is not None:
                ids, n = self.orbits.orbit_of, self.orbits.count
            # int32 indices, scipy's own choice while n fits, staged one
            # coordinate at a time: each list is dropped once concatenated
            index = np.int32 if n <= np.iinfo(np.int32).max else np.int64
            rows, cols, vals = [np.zeros(0, index)], [np.zeros(0, index)], [np.zeros(0)]
            for r, c, v in self._blocks():
                if ids is not None:
                    r, c = ids[r], ids[c]
                rows.append(r.astype(index))
                cols.append(c.astype(index))
                vals.append(v)
            rows = np.concatenate(rows)
            cols = np.concatenate(cols)
            vals = np.concatenate(vals)
            self._matrix = CsrMatrix.from_coo(vals, rows, cols, (n, n))
        return self._matrix

    def _blocks(self):
        """COO blocks (flat rows, flat columns, values) of the term families: of
        every row on the full route, of the representatives on the orbit route."""
        eps = float(self.params.epsilon)
        diagonal = self.kind != "perturbation" and eps != 0.0
        if self.orbits is None:
            if diagonal:
                energies = interaction_energies(self.kernels, self.n_max)
                offs = layer_offsets(self.torus.site_count, self.n_max)
                # only entries of order >= 2 carry a pair energy
                idx = np.arange(offs[min(2, self.n_max + 1)], offs[-1])
                yield idx, idx, -eps * energies[idx]
            if self.kind != "diagonal":
                yield from _crowding_and_birth(self.kernels, self.params, self.n_max)
                yield from _death(self.kernels, self.params, self.n_max)
            return
        if diagonal:
            a_pair = self.kernels.a_values[diff_table(self.torus)]
            for n, rows, eta in _rep_layers(self.orbits):
                if n >= 2:
                    yield rows, rows, -eps * _pair_energies(a_pair, eta)
        if self.kind != "diagonal":
            yield from _rep_blocks(self.kernels, self.params, self.orbits)

    def semigroup_energies(self) -> np.ndarray:
        """Diagonal energies eps E^a, flat or at the representatives: the diagonal part multiplies by -E."""
        if not self.is_diagonal:
            raise ValueError("semigroup energies only defined for the diagonal kind")
        if self._energies is None:
            if self.orbits is None:
                energies = interaction_energies(self.kernels, self.n_max)
            else:
                a_pair = self.kernels.a_values[diff_table(self.torus)]
                energies = np.concatenate(
                    [_pair_energies(a_pair, eta) for _, _, eta in _rep_layers(self.orbits)]
                )
            self._energies = self.params.epsilon * energies
        return self._energies

    def apply(self, k: CorrelationVector) -> CorrelationVector:
        """The operator applied to k; on the orbit route k must be constant on orbits."""
        if k.torus != self.torus or k.n_max != self.n_max:
            raise ValueError("state does not match operator truncation")
        if self.orbits is None:
            return CorrelationVector.from_flat(self.torus, self.n_max, self.matrix() @ k.flat())
        out = self.matrix() @ self.orbits.restrict(k.flat())
        return CorrelationVector.from_flat(self.torus, self.n_max, self.orbits.expand(out))


def split_handles(
    kernels: KernelPair, params: ModelParams, n_max: int, orbits: OrbitMap | None = None,
) -> tuple[OperatorHandle, OperatorHandle]:
    """The diagonal and perturbation handles at params, on the route of orbits."""
    args = (kernels, params, n_max, orbits)
    return OperatorHandle("diagonal", *args), OperatorHandle("perturbation", *args)


def interaction_energies(kernels: KernelPair, n_max: int) -> np.ndarray:
    """Flat vector of pair energies E^a(eta) per configuration entry.

    Each entry sums a(x - y) over ordered pairs of distinct sites of eta,
    x outer and y inner, both in increasing site order.
    """
    s = kernels.torus.site_count
    a_pair = kernels.a_values[diff_table(kernels.torus)]
    return np.concatenate([_pair_energies(a_pair, layer_array(s, n)) for n in range(n_max + 1)])
