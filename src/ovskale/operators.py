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
matrix for repeated application inside the solvers.  One enumerator builds
every term family as COO index arrays, row by row (`_row_blocks`): a row eta
takes its birth columns eta - x, its crowding columns eta + x and its death
columns eta + xi for x and xi outside eta, each union ranked from the merge
positions of its two parts without a sort.  The rows come in blocks of whole
rows of one layer (`_layers`).  On the full route every row is enumerated;
on the orbit route only the representative rows (`OrbitMap.reps`), and each
column is mapped to its orbit (`OrbitMap.orbit_of`), so the columns of each
orbit are summed.  Sums and products run over sites in increasing order, as
the formulas above read.
"""

from __future__ import annotations

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


# candidate entries one block of rows may stage: a block takes as many whole
# rows as this allows, at least one, so the temporaries of enumeration stay
# a few MB however large the layer
_BLOCK_ENTRIES = 1 << 17


def _layers(torus, n_max: int, orbits: OrbitMap | None = None):
    """(n, flat rows, (R, n) subsets) of each nonempty layer, in blocks of rows.

    The rows are every row of the layer, or with an orbit map only its
    representatives (`OrbitMap.reps`), in flat order.
    """
    s = torus.site_count
    offs = layer_offsets(s, n_max)
    for n in range(min(n_max, s) + 1):
        if orbits is None:
            rows = np.arange(offs[n], offs[n + 1])
        else:
            rows = orbits.reps[np.searchsorted(orbits.reps, offs[n]):
                               np.searchsorted(orbits.reps, offs[n + 1])]
        subsets = layer_array(s, n)
        # a row's candidates: n birth, S - n crowding (below the top layer)
        # and sum_{j <= n_max - n} C(S - n, j) death entries
        entries = n + (s - n) * (n < n_max) + sum(math.comb(s - n, j) for j in range(n_max - n + 1))
        step = max(1, _BLOCK_ENTRIES // entries)
        for start in range(0, len(rows), step):
            block = rows[start:start + step]
            yield n, block, subsets[block - offs[n]]


def _union_rank(s: int, eta: np.ndarray, xi: list, picks: np.ndarray) -> np.ndarray:
    """Rank in its layer of each union eta[r] + {xi_b[r, k]}, without a sort.

    eta is (R, n), xi a list of j (R, K) arrays and picks (K, j): xi_b[r, k]
    is the picks[k, b]-th site outside eta[r], both increasing in b.  Then
    xi_b - picks_b sites of eta lie below xi_b, so it sits at position
    b + xi_b - picks_b of the union; eta_a has eta_a - a free sites below
    it, and sits at a + #{b : picks_b < eta_a - a}.  The rank is
    `subset_rank`'s sum over those positions.
    """
    n, j = eta.shape[1], picks.shape[1]
    t = n + j
    width = t + 1
    # C(v, r) at v * width + r
    binom = _binomials(s, t).ravel()
    rank = np.full((len(eta), len(picks)), math.comb(s, t) - 1, dtype=np.int64)
    for b, x in enumerate(xi):
        # (s - 1 - x) * width + t - b - x + picks_b
        index = x * -(width + 1)
        index += (s - 1) * width + t - b + picks[:, b]
        rank -= binom.take(index)
    index = np.empty_like(rank)
    for a in range(n):
        index[:] = (s - 1 - eta[:, a, None]) * width + (t - a)
        for b in range(j):
            index -= picks[:, b] < eta[:, a, None] - a
        rank -= binom.take(index)
    return rank


def _row_blocks(kernels: KernelPair, params: ModelParams, n_max: int, orbits: OrbitMap | None):
    """COO blocks of the birth, crowding and death families, row by row.

    Row eta of order n gets birth entries at each eta - eta[p], crowding
    entries at each eta + x with x outside eta, and death entries at each
    eta + xi with xi outside eta and |xi| <= n_max - n, at every row or, with
    an orbit map, at the representatives alone.  Sums and products run over
    the sites of eta and of xi in increasing order.
    """
    s = kernels.torus.site_count
    h = kernels.torus.cell_volume
    diff = diff_table(kernels.torus)
    a_pair = kernels.a_values[diff]
    phi_pair = kernels.phi_values[diff]
    mob = _mobius_table(kernels, float(params.epsilon))[diff].ravel()
    offs = layer_offsets(s, n_max)

    def block(n, rows, eta):
        # a generator of its own, so that a block's temporaries go with it
        for p in range(n):
            below = offs[n - 1] + subset_rank(s, np.delete(eta, p, axis=1))
            yield rows, below, np.full(len(rows), params.birth_intensity)
        if n < n_max:
            # the sites outside each row, increasing
            outside = np.ones((len(eta), s), dtype=bool)
            outside[np.arange(len(eta))[:, None], eta] = False
            free = np.broadcast_to(np.arange(s), outside.shape)[outside].reshape(len(eta), s - n)
            coef = np.zeros(free.shape)
            for q in range(n):
                coef += a_pair[free, eta[:, q, None]]
            cols = _union_rank(s, eta, [free], np.arange(s - n)[:, None])
            cols += offs[n + 1]
            keep = coef != 0.0
            yield np.broadcast_to(rows[:, None], keep.shape)[keep], cols[keep], -h * coef[keep]
        pre = _damping(phi_pair, params, eta)
        for j in range(min(n_max, s) - n + 1):
            picks = layer_array(s - n, j)
            # empty at j = 0, the only death family of the top layer
            xi = [free[:, pick] for pick in picks.T]
            val = np.zeros((len(eta), len(picks)))
            prod = np.empty_like(val)
            for i in range(n):
                prod[:] = pre[:, i, None]
                for x in xi:
                    prod *= mob.take(eta[:, i, None] * s + x)
                val += prod
            del prod  # freed before the ranks are formed
            cols = _union_rank(s, eta, xi, picks)
            cols += offs[n + j]
            keep = val != 0.0
            yield np.broadcast_to(rows[:, None], keep.shape)[keep], cols[keep], -h**j * val[keep]

    for n, rows, eta in _layers(kernels.torus, n_max, orbits):
        if n:
            yield from block(n, rows, eta)


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

        Each term family contributes COO blocks, enumerated row by row
        (`_row_blocks`), and coinciding entries are summed.  On the full route
        every row is enumerated and no entry collects more than two terms, so
        the sum does not depend on their order and full == diagonal +
        perturbation exactly.  The orbit route enumerates the representative
        rows alone and maps their rows and columns to orbit ids as they are
        staged, so the columns of each orbit are summed.
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
        if self.kind != "perturbation" and eps != 0.0:
            rows = np.arange(self.dimension) if self.orbits is None else self.orbits.reps
            energies = interaction_energies(self.kernels, self.n_max, self.orbits)
            # only entries of order >= 2 carry a pair energy
            offs = layer_offsets(self.torus.site_count, self.n_max)
            first = np.searchsorted(rows, offs[min(2, self.n_max + 1)])
            yield rows[first:], rows[first:], -eps * energies[first:]
        if self.kind != "diagonal":
            yield from _row_blocks(self.kernels, self.params, self.n_max, self.orbits)

    def semigroup_energies(self) -> np.ndarray:
        """Diagonal energies eps E^a, flat or at the representatives: the diagonal part multiplies by -E."""
        if not self.is_diagonal:
            raise ValueError("semigroup energies only defined for the diagonal kind")
        if self._energies is None:
            energies = interaction_energies(self.kernels, self.n_max, self.orbits)
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


def interaction_energies(
    kernels: KernelPair, n_max: int, orbits: OrbitMap | None = None,
) -> np.ndarray:
    """Pair energies E^a(eta) of every flat entry, or of the representatives of orbits.

    Each entry sums a(x - y) over ordered pairs of distinct sites of eta,
    x outer and y inner, both in increasing site order.
    """
    a_pair = kernels.a_values[diff_table(kernels.torus)]
    return np.concatenate(
        [_pair_energies(a_pair, eta) for _, _, eta in _layers(kernels.torus, n_max, orbits)]
    )
