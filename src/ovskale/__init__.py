"""Truncated birth-and-death correlation hierarchies on a periodic lattice:
scale-of-spaces evolution with certified majorants, the scaled family and
its measured limit, and the limiting nonlocal kinetic equation with its
fold bifurcation.

The names below load their submodule on first use, so that a run loads
only the compiled scipy extensions it calls.
"""

import importlib

# submodule -> the public names it exports
_EXPORTS = {
    "_version": ("__version__",),
    "errors": (
        "OvskaleError",
        "ConfigError",
        "HorizonError",
        "ConvergenceError",
        "MajorantViolation",
        "StepSizeCollapse",
        "DimensionCapError",
        "SymmetryError",
    ),
    "lattice": (
        "Torus",
        "KernelPair",
        "SupportedFunction",
        "kernel_pair_from_spec",
        "k_transform",
        "k_inverse",
        "lp_integral",
        "lp_exponential",
    ),
    "orbits": ("OrbitMap", "orbit_map", "orbit_counts", "point_group"),
    "states": ("CorrelationVector", "random_correlation"),
    "operators": ("ModelParams", "OperatorHandle", "interaction_energies"),
    "scale": (
        "ScaleSpec",
        "BoundModel",
        "model_bound",
        "norm_alpha",
        "time_horizon",
        "optimal_terminal",
        "localization_index",
        "verify_singular_bound",
    ),
    "series": (
        "EvolutionResult",
        "ovsyannikov_evolve",
        "oracle_evolve",
        "flow_compose_check",
        "apriori_estimate_check",
    ),
    "vlasov": (
        "EpsilonSweep",
        "VlasovReport",
        "ChaosReport",
        "ZGapReport",
        "vlasov_limit",
        "semigroup_gap",
        "semigroup_gap_bound",
        "semigroup_gap_intermediate",
        "perturbation_gap",
        "chaos_check",
    ),
    "kinetic": (
        "DensityField",
        "BifurcationInput",
        "circular_convolution",
        "integrate_kinetic",
        "homogeneous_scalar_ode",
        "stationary_scan",
        "threshold_b",
        "tangency_point",
        "critical_c_range",
    ),
    "config": (
        "CONFIG_SCHEMA",
        "SeriesConfig",
        "load_config",
        "validate_config",
        "build_runtime",
        "config_hash",
    ),
    "experiments": ("run_experiment",),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_OWNER)


def __getattr__(name: str):
    module = _OWNER.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
