"""Exception types shared across the package."""


class OvskaleError(Exception):
    """Base class for package-specific failures."""


class ConfigError(OvskaleError):
    """Invalid or unreadable experiment configuration."""


class HorizonError(OvskaleError):
    """A requested evolution lies outside the guaranteed time horizon."""


class ConvergenceError(OvskaleError):
    """Quadrature or iteration failed to reach the requested tolerance."""


class MajorantViolation(OvskaleError):
    """A computed series term exceeded its theoretical majorant."""


class StepSizeCollapse(OvskaleError):
    """A time stepper halved its step too many times without acceptance."""


class DimensionCapError(OvskaleError):
    """The estimated memory of a run exceeds its share of physical memory."""


class SymmetryError(OvskaleError):
    """A state given to the orbit route is not constant on its orbits."""
