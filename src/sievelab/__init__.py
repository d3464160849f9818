"""Exact verification of cyclic sieving for polygon multidissections.

Subpackages split along the pipeline: qseries (exact q-arithmetic),
polygons (edge universes and noncrossing enumeration), tableaux
(semistandard and noncrossing tableaux), symfunc (principal
specializations and sieving polynomials), actions (rotation actions,
folding, odd-power correspondence), cspverify (sieving and consistency
reports), clusterlab (symbolic monomials, ranks, characters).
"""

from .actions import fold, odd_power_correspondence, unfold
from .cspverify import (
    CspInstance, CspReport, orbit_polynomial, theorem_instance, verify,
    verify_folding_consistency,
)
from .polygons import Multidissection, edge_universe, enumerate_multidissections
from .qseries import IntLaurentPoly, eval_at_unity_root, q_binomial
from .symfunc import (
    build_X_thm11, build_X_typeA, build_X_typeC, build_X_typeD,
)
from .tableaux import (
    SNCTableau, content_equinumerosity, multidissection_to_sncr,
    sncr_to_multidissection,
)

__version__ = "1.0.0"

__all__ = [
    "CspInstance", "CspReport", "IntLaurentPoly", "Multidissection",
    "SNCTableau", "build_X_thm11", "build_X_typeA",
    "build_X_typeC", "build_X_typeD", "content_equinumerosity",
    "edge_universe", "enumerate_multidissections", "eval_at_unity_root",
    "fold", "multidissection_to_sncr", "odd_power_correspondence",
    "orbit_polynomial", "q_binomial", "sncr_to_multidissection",
    "theorem_instance", "unfold", "verify", "verify_folding_consistency",
]
