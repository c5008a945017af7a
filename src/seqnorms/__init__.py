"""Norm workbench for Tsirelson-type and classical sequence spaces.

Computes norms of finitely supported vectors in l_p, c_0, Orlicz, Lorentz
and Tsirelson-type spaces, with exact rational arithmetic where the inputs
allow it, plus block-basis equivalence checks, series convergence
diagnostics and submeasure/ideal diagnostics.
"""
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
from .tsirelson import (
    LevelTrace,
    certificate_lower_bound,
    is_admissible,
    norm,
    oracle_norm,
)
from .classical import (
    OrliczFunction,
    lorentz_norm,
    lp_norm,
    luxemburg_norm,
)
from .blocks import BlockBasisSpec, cjt_ratio_check, expand_coefficients, lsh_probe
from .series import (
    CoefficientGenerator,
    convergence_verdict,
    domination_probe,
    harmonic_tsirelson_witness,
    partial_sum_norms,
    tail_profile,
)
from .ideals import (
    IdealSpec,
    SetGenerator,
    SubmeasureSpec,
    membership_verdict,
    phi,
    phi_tail_profile,
    submeasure_axiom_check,
    turbulence_criterion,
)

__version__ = "0.1.0"
