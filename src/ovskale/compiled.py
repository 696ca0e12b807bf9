"""scipy's compiled extensions, loaded from their files without importing scipy.

A run uses two of scipy's compiled extension modules: the sparse kernels
`sparse/_sparsetools` (`ovskale.csr`) and the FFT kernels
`fft/_pocketfft/pypocketfft` (`ovskale.kinetic`).  Importing them through
their packages would run scipy's `__init__` and the subpackage's own:
0.2 s for `scipy.sparse`, 0.34 s for `scipy.fft`, and 9-16 ms for the
`scipy` top level alone.  An extension loads in about a millisecond.
`load` finds scipy's folder with `importlib.util.find_spec`, which imports
nothing, and loads the file under an ovskale name, so no `scipy*` module
enters `sys.modules`.
"""

from __future__ import annotations

import importlib.machinery
import importlib.util
import os

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
