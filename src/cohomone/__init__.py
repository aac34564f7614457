"""cohomone: exact arithmetic for cohomogeneity-one rational-sphere diagrams.

Submodules:

* ``lie_catalog``        group types, degrees, Weyl orders, sphere actions
* ``polynomial``         exact integer polynomials
* ``rational_homotopy``  quotient homotopy, Hilbert series, Euler characteristics
* ``diagram``            group diagrams, validation, fiber cases, Mayer-Vietoris, outcomes
* ``brieskorn``          monodromy polynomial and homology of B^(2m-1)_d
* ``classification``     table reproductions, seven-family arithmetic, classifier
* ``catalog``            the shipped embedding and diagram data
* ``verify``             the ``verify-tables`` report
* ``cli``                the command-line front end
* ``errors``             the ``CohomoneError`` hierarchy

The library API is the command line and the catalog loaders; the submodules
trust their callers, as input is checked where it is read.  Nothing is
imported with the package: each exported name, and each submodule as an
attribute (``cohomone.verify``), loads on first use (PEP 562), so a caller
pays only for the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

#: every public name, under the submodule that defines it; ``__all__`` is derived from this table
_EXPORTS = {"catalog": ("default_catalog", "load_catalog")}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({"brieskorn", "catalog", "classification", "cli", "diagram", "errors", "lie_catalog",
                         "polynomial", "rational_homotopy", "verify"})

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    if name in _SOURCE:
        value = getattr(import_module(f".{_SOURCE[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value  # later lookups skip this function
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | _SOURCE.keys() | _SUBMODULES)
