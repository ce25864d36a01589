"""Landau-problem toolkit on flat and curved two-dimensional geometries.

Exact operator algebra (``opalg``), geometry builders (``geometry``),
model operators and the identity suite (``models``), classical dynamics
(``classical``), special functions (``specfun``), closed-form spectra
(``spectra``), independent numerical oracles (``numverify``), many-body
trial states (``manybody``), and a CLI (``cli``).

A submodule is imported on first use, so that each CLI command loads only
the modules it runs; ``curvedhall.models`` and ``from curvedhall import *``
work as with eager imports.
"""

import importlib

__all__ = ["classical", "errors", "geometry", "manybody", "models",
           "numverify", "opalg", "specfun", "spectra"]

__version__ = "0.1.0"


def __getattr__(name):
    # PEP 562: reached only for a submodule not imported yet; the import
    # binds it as an attribute of the package
    if name in __all__:
        return importlib.import_module(f"{__name__}.{name}")
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
