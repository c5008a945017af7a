"""Norm workbench for Tsirelson-type and classical sequence spaces.

Computes norms of finitely supported vectors in l_p, c_0, Orlicz, Lorentz
and Tsirelson-type spaces, with exact rational arithmetic where the inputs
allow it, plus block-basis equivalence checks, series convergence
diagnostics and submeasure/ideal diagnostics.

The names from ``core`` are bound at import.  Every other public name, and
every submodule, is imported on first use (PEP 562), so ``import seqnorms``
does not compile the engines a caller never reaches.
"""
import importlib

from .core import (
    BudgetError,
    CertificateError,
    ConfigurationError,
    FiniteVector,
    GridSpec,
    HFunction,
    ParseError,
    QuantizationError,
    SpaceSpec,
    WeightSpec,
    eval_norm,
    parse_space,
    parse_vector,
    quantize_to_grid,
)

_LAZY_EXPORTS = {
    "tsirelson": ("LevelTrace", "certificate_lower_bound", "is_admissible", "norm", "oracle_norm"),
    "classical": ("OrliczFunction", "lorentz_norm", "lp_norm", "luxemburg_norm"),
    "blocks": ("BlockBasisSpec", "cjt_ratio_check", "expand_coefficients", "lsh_probe"),
    "series": (
        "CoefficientGenerator",
        "convergence_verdict",
        "domination_probe",
        "harmonic_tsirelson_witness",
        "partial_sum_norms",
        "tail_profile",
    ),
    "ideals": (
        "IdealSpec",
        "SetGenerator",
        "SubmeasureSpec",
        "membership_verdict",
        "phi",
        "phi_tail_profile",
        "submeasure_axiom_check",
        "turbulence_criterion",
    ),
}
_HOME = {name: module for module, names in _LAZY_EXPORTS.items() for name in names}
_SUBMODULES = (*_LAZY_EXPORTS, "cli")

__all__ = [
    "BudgetError",
    "CertificateError",
    "ConfigurationError",
    "FiniteVector",
    "GridSpec",
    "HFunction",
    "ParseError",
    "QuantizationError",
    "SpaceSpec",
    "WeightSpec",
    "eval_norm",
    "parse_space",
    "parse_vector",
    "quantize_to_grid",
    *_HOME,
]

__version__ = "0.1.0"


def __getattr__(name):
    if name in _SUBMODULES:  # importing a submodule binds it here
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted({*globals(), *__all__, *_SUBMODULES})
