"""Monochromatic solution densities of linear systems over F_p^n.

Evaluate the solution-density functional T exactly or on the Fourier
side, search for colourings that violate commonness-type properties,
verify the underlying polynomial inequalities in exact arithmetic, and
derive certified explicit constants.

Importing the package loads none of its modules: each public name is
imported from its home module on first access (PEP 562), so a caller
that only needs the exact half (`qsqrt2`, `exactpoly`, `certify`) never
loads numpy.
"""

import importlib

__version__ = "0.1.0"

# home module of each public name
_HOME = {
    name: module
    for module, names in {
        "counting": "DefectReport alon_witness defect t_brute t_fourier t_gradient",
        "harmonic": "GroupFunction Spectrum dft spectral_sup",
        "linsys": "LinearSystem add_free_variables factor_disjoint parse_system preset",
        "optimize": "SearchConfig SearchResult minimize_defect project_box_mean scan_alpha",
        "certify": "ConstantLedger derive_all verify_lemma_suite",
        "qsqrt2": "AlgebraicNumber an_sign",
        "exactpoly": "Certificate ExactPoly SparsePoly isolate_positive_root "
        "sturm_sign_on_interval subdivision_positive_on_box verify_certificate",
    }.items()
    for name in names.split()
}

__all__ = ["__version__", *sorted(_HOME)]


def __getattr__(name: str):
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_HOME[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_HOME})
