"""Computation engine for the coweight-0 wedge of C2-equivariant stable stems.

Runs the rho-Bockstein spectral sequence from catalog data, layers the Adams
spectral sequence and hidden rho-extensions on the result, and derives the
rho/2-divisibility tables, geometric fixed-point images and Mahowald
invariants of the powers of 2, along with chart output.
"""

from .adams import (
    adams_no_differentials,
    fixed_point_image,
    install_hidden_rho_extensions,
    mahowald_invariant_of_2k,
    rho_divisibility,
    two_divisibility,
    underlying_map,
)
from .bockstein import (
    census_report,
    check_structural_constraints,
    run_bockstein,
)
from .catalog import Catalog, GeneratorFamily, load_catalog
from .charts import chart_from_page, ko_chart, render
from .degrees import TriDegree, Window
from .monomials import Cone, MonomialClass, display, module_action
from .rules import seed_rules

__all__ = [
    "Catalog",
    "Cone",
    "GeneratorFamily",
    "MonomialClass",
    "TriDegree",
    "Window",
    "adams_no_differentials",
    "census_report",
    "chart_from_page",
    "check_structural_constraints",
    "display",
    "fixed_point_image",
    "install_hidden_rho_extensions",
    "ko_chart",
    "load_catalog",
    "mahowald_invariant_of_2k",
    "module_action",
    "render",
    "rho_divisibility",
    "run_bockstein",
    "seed_rules",
    "two_divisibility",
    "underlying_map",
]

__version__ = "0.1.0"
