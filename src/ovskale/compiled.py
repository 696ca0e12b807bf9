"""scipy's compiled extensions, loaded from their files without importing scipy.

The package uses three of scipy's compiled extension modules: the sparse
kernels `sparse/_sparsetools` (`ovskale.csr`), the FFT kernels
`fft/_pocketfft/pypocketfft` (`ovskale.kinetic`), and `integrate/_dop`,
Hairer, Norsett and Wanner's DOP853, behind `dop853` (the kinetic scalar
reduction and the oracle's Runge-Kutta route).  Importing them through
their packages would run scipy's `__init__` and the subpackage's own:
0.2 s for `scipy.sparse`, 0.34 s for `scipy.fft`, and 9-16 ms for the
`scipy` top level alone.  An extension loads in about a millisecond.
`load` finds scipy's folder with `importlib.util.find_spec`, which imports
nothing, and loads the file as `ovskale.<name>`, so no `scipy*` module
enters `sys.modules`.
"""

from __future__ import annotations

import functools
import importlib.machinery
import importlib.util
import os
import sys

import numpy as np

from .errors import ConvergenceError

# the installed scipy's version, read when the first extension loads
_version: str | None = None


def _scipy_folder() -> str:
    spec = importlib.util.find_spec("scipy")
    if spec is None or not spec.submodule_search_locations:
        raise ImportError("scipy is not installed")
    return spec.submodule_search_locations[0]


def _from_file(name: str, path: str):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


def load(*parts: str):
    """The extension at parts under scipy's folder, loaded as ovskale.<last part>.

    The last part is the extension's own name, which selects its init
    function; the file is the first one found with an extension suffix of
    this interpreter.
    """
    global _version
    folder = _scipy_folder()
    *subfolders, name = parts
    tried = [
        os.path.join(folder, *subfolders, name + suffix)
        for suffix in importlib.machinery.EXTENSION_SUFFIXES
    ]
    for path in tried:
        if os.path.isfile(path):
            module = _from_file(f"ovskale.{name}", path)
            if _version is None:
                # scipy's __init__ takes its __version__ from this file
                version_file = os.path.join(folder, "version.py")
                _version = _from_file("ovskale.scipy_version", version_file).version
            return module
    raise ImportError(f"scipy's compiled {name} not found; tried {', '.join(tried)}")


def scipy_version() -> str | None:
    """The installed scipy's version once an extension has loaded, else None."""
    return _version


@functools.cache
def _dop():
    return load("integrate", "_dop")


def dop853(rate, y0, t_end: float, rtol: float, atol: float, max_steps: int, what: str):
    """y(t_end) of y' = rate(t, y), y(0) = y0, by scipy's compiled DOP853.

    At scalar rtol and atol, in at most max_steps steps, with the stiffness
    test off as in `solve_ivp`.  A stage at which rate is +inf fails the
    error test, so its step is shortened; rate must not raise, since the
    extension turns an exception into a SystemError.  A failure raises
    ConvergenceError, its message starting with what.
    """
    y = np.array(y0, dtype=float)
    work, iwork = np.zeros(11 * len(y) + 21), np.zeros(21, dtype=np.int32)
    iwork[3] = -1  # no stiffness test
    # the extension keeps a reference to each function it is given, so it
    # gets a trampoline whose target is dropped; and without the optional
    # tuple of extra arguments, calls from inside a function crashed the
    # process by the ninth, so it is passed, as scipy's own `ode` passes it
    target = [rate]
    try:
        t, y, idid = _dop().dopri853(
            lambda t, y: target[0](t, y),
            0.0, y, t_end, rtol, atol, None, 0, work, iwork, max_steps, -1, (),
        )
    finally:
        target.clear()
    if idid < 0:
        reason = {-2: f"more than {max_steps} steps needed", -3: "step size too small"}
        raise ConvergenceError(
            f"{what} stopped at {t / t_end:.3g} of its interval: "
            + reason.get(idid, f"DOP853 returned {idid}")
        )
    return y
