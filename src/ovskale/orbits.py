"""Lattice-symmetry orbits of the configurations, for product states.

The generator depends on sites only through periodic differences, so it
commutes with the torus translations, and with each point-group element (an
axis permutation with sign flips) under which both kernel tables are
exactly invariant.  The products of a scalar density are constant on the
orbits of that group, and so is their evolution.  This module owns:

  * `point_group`: the elements that fix both kernels (the identity alone
    leaves the group of the translations);
  * `orbit_counts`: the orbit count of each layer by Burnside's lemma, from
    cycle lengths, without enumerating subsets (the size check uses it);
  * `orbit_map` and `OrbitMap`: every subset's canonical member, the
    representatives and the orbit id of every flat entry, with the
    restriction of an orbit-constant state to the representatives (checked
    exactly, else `SymmetryError`) and its expansion back.

The module is loaded only by the runs that take the orbit route.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

import numpy as np

from .errors import SymmetryError
from .lattice import (
    KernelPair, Torus, diff_table, layer_array, layer_offsets, subset_rank, unique_inverse,
)


def _fixes(g: np.ndarray, kernels: KernelPair) -> bool:
    """Whether both kernel tables are exactly invariant under the point-group element g."""
    image = kernels.torus.transform(g)
    return bool(
        np.array_equal(kernels.a_values[image], kernels.a_values)
        and np.array_equal(kernels.phi_values[image], kernels.phi_values)
    )


def point_group(kernels: KernelPair) -> tuple[np.ndarray, ...]:
    """Axis permutations with sign flips, as integer matrices, that fix both kernel tables.

    The tables are invariant under each element exactly, so the elements
    form a group; the identity comes first.
    """
    dim = kernels.torus.dim
    out = []
    for perm in itertools.permutations(range(dim)):
        for signs in itertools.product((1, -1), repeat=dim):
            g = np.zeros((dim, dim), dtype=np.int64)
            g[range(dim), perm] = signs
            if _fixes(g, kernels):
                out.append(g)
    return tuple(out)


def orbit_counts(torus: Torus, n_max: int, group) -> tuple[int, ...]:
    """Orbits of each layer 0..n_max under the translations times group, by Burnside.

    A layer's orbit count is the mean over the elements f(x) = g x + v of the
    n-subsets that f fixes, the unions of its cycles of total length n.  Only
    cycles of length L <= n_max count.  f^L(x) = g^L x + N_L v with
    N_L = sum_{i<L} g^i fixes |ker(I - g^L)| sites when N_L v lies in the
    image of I - g^L and none otherwise, and the sites on cycles of length
    exactly L are those fixed by f^L less those on shorter cycles dividing L.
    The translations v that fix the same powers share their cycle counts.
    """
    sites = torus.site_count
    coords = torus.coord_array()
    eye = np.eye(torus.dim, dtype=np.int64)
    fixed = [0] * (n_max + 1)
    for g in group:
        # bit L - 1 of a translation's pattern: whether f^L has fixed points
        patterns = np.zeros(sites, dtype=np.int64)
        kernel_sizes = []
        power, partial = eye, 0 * eye
        for length in range(1, n_max + 1):
            partial = partial + power
            power = power @ g
            image = np.zeros(sites, dtype=bool)
            image[torus.sites_of((eye - power) @ coords)] = True
            kernel_sizes.append(sites // int(image.sum()))
            patterns |= image[torus.sites_of(partial @ coords)].astype(np.int64) << (length - 1)
        for pattern, count in enumerate(np.bincount(patterns).tolist()):
            if not count:
                continue
            exact = {}
            poly = [1] + [0] * n_max
            for length in range(1, n_max + 1):
                fix = kernel_sizes[length - 1] if pattern >> (length - 1) & 1 else 0
                exact[length] = fix - sum(exact[k] for k in range(1, length) if length % k == 0)
                # times (1 + x^L)^(cycles of length L), cut at degree n_max
                cycles = exact[length] // length
                poly = [
                    sum(math.comb(cycles, j) * poly[k - j * length] for j in range(k // length + 1))
                    for k in range(n_max + 1)
                ]
            for k in range(n_max + 1):
                fixed[k] += count * poly[k]
    order = sites * len(group)
    return tuple(total // order for total in fixed)


@dataclass(frozen=True, eq=False)
class OrbitMap:
    """Orbits of the flat entries of order <= n_max under translations times group.

    A subset's canonical member is the least-ranked of its images g S - g x,
    g in group and x in S: the least member of an orbit holds site 0, so it
    is one of these n |group| candidates.  reps holds each orbit's canonical
    member as a flat index, increasing, so orbit ids run layer by layer;
    orbit_of holds the orbit id of every flat entry.
    """

    torus: Torus
    n_max: int
    group: tuple
    reps: np.ndarray
    orbit_of: np.ndarray
    # the kernel pairs whose tables every element has been checked to fix
    _fixed: set = field(default_factory=set, init=False, repr=False)

    @property
    def count(self) -> int:
        return len(self.reps)

    def fits(self, kernels: KernelPair, n_max: int) -> bool:
        """Whether the map is of the kernels' torus and truncation, by a group that fixes both kernels.

        The group is checked once per kernel pair, which a sweep's handles share.
        """
        if self.torus != kernels.torus or self.n_max != n_max:
            return False
        if kernels not in self._fixed:
            if not all(_fixes(g, kernels) for g in self.group):
                return False
            self._fixed.add(kernels)
        return True

    def restrict(self, flat: np.ndarray) -> np.ndarray:
        """Entries of a flat state at the representatives; SymmetryError unless constant on orbits."""
        reduced = flat[self.reps]
        if not np.array_equal(reduced[self.orbit_of], flat):
            raise SymmetryError("the state is not constant on the orbits of its route")
        return reduced

    def expand(self, reduced: np.ndarray) -> np.ndarray:
        """The flat state whose entries take their orbit's value."""
        return reduced[..., self.orbit_of]


def _least_image(torus: Torus, subsets: np.ndarray, images: list) -> np.ndarray:
    """Least rank, per row, of the images g S - g x over the site maps g and x in S."""
    diff = diff_table(torus)
    best = np.full(len(subsets), np.iinfo(np.int64).max)
    for image in images:
        moved = image[subsets]
        for i in range(subsets.shape[1]):
            # g S translated so that g S[i] sits at the origin
            candidate = np.sort(diff[moved, moved[:, i:i + 1]], axis=1)
            np.minimum(best, subset_rank(torus.site_count, candidate), out=best)
    return best


def orbit_map(torus: Torus, n_max: int, group) -> OrbitMap:
    """Canonicalise every subset of order <= n_max under translations times group.

    Each layer is canonicalised under the translations first; the point
    group then acts on one member of each translation orbit only.
    """
    sites = torus.site_count
    images = [torus.transform(g) for g in group]
    offs = layer_offsets(sites, n_max)
    canonical = np.zeros(offs[-1], dtype=np.int64)
    for n in range(1, n_max + 1):
        layer = layer_array(sites, n)
        by_translation = _least_image(torus, layer, [np.arange(sites)])
        shifted, inverse = unique_inverse(by_translation)
        best = _least_image(torus, layer[shifted], images)[inverse]
        canonical[offs[n]:offs[n + 1]] = offs[n] + best
    reps, orbit_of = unique_inverse(canonical)
    for arr in (reps, orbit_of):
        arr.setflags(write=False)
    return OrbitMap(torus, n_max, tuple(group), reps, orbit_of)
