"""cohomone: exact arithmetic for cohomogeneity-one rational-sphere diagrams.

Submodules:

* ``lie_catalog``        group types, degrees, Weyl orders, sphere actions
* ``rational_homotopy``  quotient homotopy, Hilbert series, Euler characteristics
* ``diagram``            group diagrams, validation, fiber cases, Mayer-Vietoris
* ``brieskorn``          monodromy polynomial and homology of B^(2m-1)_d
* ``classification``     table reproductions, seven-family arithmetic, classifier
* ``catalog``            the shipped embedding and diagram data
* ``cli``                the command-line front end
"""

from .brieskorn import BrieskornParams, GradedAbelianGroup, delta_at_one, delta_poly, homology
from .catalog import Catalog, default_catalog, load_catalog
from .classification import (
    ClassificationOutcome,
    CorankTwoRow,
    SevenFamilyParams,
    case6_pairs,
    classify_diagram,
    enumerate_corank2,
    realize_torsion,
    seven_family_torsion,
    table3_filter,
)
from .diagram import (
    GroupDiagram,
    MVFeasibility,
    double_disk_euler,
    equivalent,
    gh_classify,
    mv_feasible,
    primitivity,
    validate,
)
from .lie_catalog import (
    GroupType,
    NamedEmbedding,
    SimpleGroupLabel,
    canonicalize,
    degrees,
    parse_group,
    sphere_quotient,
    spheres_acted_on,
    transitive_sphere_pairs,
    weyl_order,
)
from .polynomial import IntegerPolynomial
from .rational_homotopy import (
    QuotientHomotopy,
    euler_characteristic,
    hilbert_series,
    odd_product_poincare,
    quotient_homotopy,
)

__version__ = "0.1.0"

__all__ = [
    "BrieskornParams",
    "Catalog",
    "ClassificationOutcome",
    "CorankTwoRow",
    "GradedAbelianGroup",
    "GroupDiagram",
    "GroupType",
    "IntegerPolynomial",
    "MVFeasibility",
    "NamedEmbedding",
    "QuotientHomotopy",
    "SevenFamilyParams",
    "SimpleGroupLabel",
    "canonicalize",
    "case6_pairs",
    "classify_diagram",
    "default_catalog",
    "degrees",
    "delta_at_one",
    "delta_poly",
    "double_disk_euler",
    "enumerate_corank2",
    "equivalent",
    "euler_characteristic",
    "gh_classify",
    "hilbert_series",
    "homology",
    "load_catalog",
    "mv_feasible",
    "odd_product_poincare",
    "parse_group",
    "primitivity",
    "quotient_homotopy",
    "realize_torsion",
    "seven_family_torsion",
    "sphere_quotient",
    "spheres_acted_on",
    "table3_filter",
    "transitive_sphere_pairs",
    "validate",
    "weyl_order",
]
