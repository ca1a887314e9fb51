"""Finite ordered groupoids, quotients, module colimits, and homology."""

from .beta import (beta_classes, beta_witness, check_quotient_welldefined,
                   is_principally_directed, quotient)
from .category import FiniteCategory, groupoid_as_category
from .errors import (CompositeNonzero, DanglingReference, InputError,
                     MathError, NotComposable, NotPrincipallyDirected,
                     OghomError, PreconditionViolation, SchemaViolation,
                     StructuralDefect)
from .gmodules import (GMap, GModule, check_adjunction,
                       check_colim_composition, check_quotient_action,
                       colim_category, colim_E, colim_E_map, expand,
                       expand_map, module_from_parts, rho, tau)
from .groupoid import (GroupoidCandidate, OrderedGroupoid, ValidationReport,
                       Violation, validate)
from .homology import (ChainComplex, check_theorem, homology,
                       homology_profile, nerve_complex)
from .lcat import LCat, build_lcat
from .zmodule import (AbHom, FgAbGroup, ZMatrix, block_diag, hom_welldefined,
                      homology_at, kernel_basis, snf)

__version__ = "0.1.0"

__all__ = [
    "AbHom", "ChainComplex", "CompositeNonzero", "DanglingReference",
    "FgAbGroup", "FiniteCategory", "GMap", "GModule", "GroupoidCandidate",
    "InputError", "LCat", "MathError", "NotComposable",
    "NotPrincipallyDirected", "OghomError", "OrderedGroupoid",
    "PreconditionViolation", "SchemaViolation", "StructuralDefect",
    "ValidationReport", "Violation", "ZMatrix", "beta_classes",
    "beta_witness", "block_diag", "build_lcat", "check_adjunction",
    "check_colim_composition", "check_quotient_action",
    "check_quotient_welldefined", "check_theorem", "colim_E", "colim_E_map",
    "colim_category", "expand", "expand_map",
    "groupoid_as_category", "hom_welldefined", "homology", "homology_at",
    "homology_profile", "is_principally_directed", "kernel_basis",
    "module_from_parts", "nerve_complex", "quotient", "rho",
    "snf", "tau", "validate",
]
