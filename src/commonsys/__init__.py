"""Monochromatic solution densities of linear systems over F_p^n.

Evaluate the solution-density functional T exactly or on the Fourier
side, search for colourings that violate commonness-type properties,
verify the underlying polynomial inequalities in exact arithmetic, and
derive certified explicit constants.
"""

__version__ = "0.1.0"

from .counting import DefectReport, alon_witness, defect, t_brute, t_fourier, t_gradient
from .harmonic import GroupFunction, Spectrum, dft, spectral_sup
from .linsys import LinearSystem, add_free_variables, factor_disjoint, parse_system, preset
from .optimize import SearchConfig, SearchResult, minimize_defect, project_box_mean, scan_alpha
from .certify import ConstantLedger, derive_all, verify_lemma_suite
from .qsqrt2 import AlgebraicNumber, an_sign
from .exactpoly import (
    Certificate,
    ExactPoly,
    SparsePoly,
    isolate_positive_root,
    sturm_sign_on_interval,
    subdivision_positive_on_box,
    verify_certificate,
)

__all__ = [
    "__version__",
    "AlgebraicNumber",
    "Certificate",
    "ConstantLedger",
    "DefectReport",
    "ExactPoly",
    "GroupFunction",
    "LinearSystem",
    "SearchConfig",
    "SearchResult",
    "SparsePoly",
    "Spectrum",
    "add_free_variables",
    "alon_witness",
    "an_sign",
    "defect",
    "derive_all",
    "dft",
    "factor_disjoint",
    "isolate_positive_root",
    "minimize_defect",
    "parse_system",
    "preset",
    "project_box_mean",
    "scan_alpha",
    "spectral_sup",
    "sturm_sign_on_interval",
    "subdivision_positive_on_box",
    "t_brute",
    "t_fourier",
    "t_gradient",
    "verify_certificate",
    "verify_lemma_suite",
]
