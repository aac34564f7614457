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

Nothing is imported with the package: each exported name, and each
submodule as an attribute (``cohomone.verify``), loads on first use
(PEP 562), so a caller pays only for the modules it touches.
"""

from importlib import import_module

__version__ = "0.1.0"

#: every public name, under the submodule that defines it; ``__all__`` is derived from this table
_EXPORTS = {
    "brieskorn": ("BrieskornParams", "GradedAbelianGroup", "delta_at_one", "delta_poly", "homology"),
    "catalog": ("Catalog", "default_catalog", "load_catalog"),
    "classification": ("CorankTwoRow", "case6_pairs", "classify_diagram", "enumerate_corank2", "realize_torsion",
                       "seven_family_torsion", "table3_filter"),
    "diagram": ("ClassificationOutcome", "GroupDiagram", "MVFeasibility", "SevenFamilyParams", "double_disk_euler",
                "gh_classify", "mv_feasible", "primitivity", "validate"),
    "lie_catalog": ("GroupType", "NamedEmbedding", "SimpleGroupLabel", "parse_group", "sphere_quotient",
                    "spheres_acted_on", "transitive_sphere_pairs"),
    "polynomial": ("IntegerPolynomial",),
    "rational_homotopy": ("QuotientHomotopy", "euler_characteristic", "hilbert_series",
                          "odd_product_poincare", "quotient_homotopy"),
}
_SOURCE = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli", "errors", "verify"}

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
