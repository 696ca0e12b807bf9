"""Truncated correlation vectors: layered states over configuration space.

A `CorrelationVector` stores one real value per configuration of order
0..n_max, layer by layer, each layer in the canonical subset order shared
with `lattice.subsets_of_order` and `lattice.layer_array`.  Vectors are
immutable after construction; operators and solvers return fresh instances.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

from .lattice import (
    Torus,
    _as_sites,
    entry_orders,
    layer_array,
    layer_offsets,
    layer_sizes,
    subset_position,
    total_dimension,
)


@dataclass(frozen=True, eq=False)
class CorrelationVector:
    """Layered correlation values on a truncated configuration space."""

    torus: Torus
    n_max: int
    layers: tuple

    def __post_init__(self):
        if self.n_max < 0:
            raise ValueError("n_max must be >= 0")
        sizes = layer_sizes(self.torus.site_count, self.n_max)
        if len(self.layers) != self.n_max + 1:
            raise ValueError(f"expected {self.n_max + 1} layers")
        frozen = []
        for n, layer in enumerate(self.layers):
            arr = np.ascontiguousarray(layer, dtype=float)
            if arr.shape != (sizes[n],):
                raise ValueError(f"layer {n} must have shape ({sizes[n]},)")
            if not np.all(np.isfinite(arr)):
                raise ValueError(f"layer {n} has non-finite entries")
            arr.setflags(write=False)
            frozen.append(arr)
        object.__setattr__(self, "layers", tuple(frozen))

    @classmethod
    def zeros(cls, torus: Torus, n_max: int) -> "CorrelationVector":
        sizes = layer_sizes(torus.site_count, n_max)
        return cls(torus, n_max, tuple(np.zeros(s) for s in sizes))

    @classmethod
    def from_flat(cls, torus: Torus, n_max: int, vec: np.ndarray) -> "CorrelationVector":
        offs = layer_offsets(torus.site_count, n_max)
        vec = np.asarray(vec, dtype=float)
        if vec.shape != (offs[-1],):
            raise ValueError(f"flat vector must have length {offs[-1]}")
        return cls(torus, n_max, tuple(vec[offs[n] : offs[n + 1]] for n in range(n_max + 1)))

    @classmethod
    def product_form(cls, torus: Torus, n_max: int, rho) -> "CorrelationVector":
        """Product state: value at eta is the product of rho over its sites.

        Sites multiply in increasing order, as in `lattice.lp_exponential`.  A
        product that overflows is left to the finiteness check of the layers.
        """
        rho = np.asarray(rho, dtype=float)
        if rho.shape == ():
            rho = np.full(torus.site_count, float(rho))
        if rho.shape != (torus.site_count,):
            raise ValueError("rho must be scalar or one value per site")
        layers = []
        with np.errstate(over="ignore", invalid="ignore"):
            for n in range(n_max + 1):
                eta = layer_array(torus.site_count, n)
                layer = np.ones(len(eta))
                for i in range(n):
                    layer = layer * rho[eta[:, i]]
                layers.append(layer)
        return cls(torus, n_max, tuple(layers))

    @property
    def dimension(self) -> int:
        return total_dimension(self.torus.site_count, self.n_max)

    def value(self, eta) -> float:
        """Entry at a configuration; orders above n_max read as zero."""
        sites = _as_sites(eta)
        n = len(sites)
        if n > self.n_max:
            return 0.0
        return float(self.layers[n][subset_position(self.torus.site_count, n)[sites]])

    def flat(self) -> np.ndarray:
        return np.concatenate(self.layers)

    def to_json_dict(self) -> dict:
        return {"N_max": self.n_max, "layers": [layer.tolist() for layer in self.layers]}

    @classmethod
    def from_json_dict(cls, torus: Torus, doc: dict) -> "CorrelationVector":
        if set(doc.keys()) != {"N_max", "layers"}:
            raise ValueError('correlation JSON must have exactly keys "N_max" and "layers"')
        return cls(torus, int(doc["N_max"]), tuple(np.asarray(l, dtype=float) for l in doc["layers"]))

    def to_json(self) -> str:
        return json.dumps(self.to_json_dict())

    @classmethod
    def from_json(cls, torus: Torus, text: str) -> "CorrelationVector":
        return cls.from_json_dict(torus, json.loads(text))


def flat_orders(torus: Torus, n_max: int) -> np.ndarray:
    """Layer order of each flat entry (shared with the solvers)."""
    return entry_orders(torus.site_count, n_max)


def random_correlation(torus: Torus, n_max: int, alpha: float, rng) -> CorrelationVector:
    """Random state with layer n entries uniform in [-alpha^n, alpha^n]."""
    layers = []
    for n, size in enumerate(layer_sizes(torus.site_count, n_max)):
        layers.append(rng.uniform(-1.0, 1.0, size) * alpha**n)
    return CorrelationVector(torus, n_max, tuple(layers))
