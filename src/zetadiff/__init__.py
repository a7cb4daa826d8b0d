"""High-precision finite differences of zeta values.

The package computes the forward-difference sequences of zeta at the
integers (and their Hurwitz and inverse-zeta relatives), their saddle-point
asymptotic main terms, Newton-series evaluation with tail certificates, and
independent contour-integral oracles for cross-validation.  See the module
docstrings for the mathematics each part implements.
"""

from .asymptotics import (
    AsymptoticEstimate,
    BetaFitResult,
    PhaseSelection,
    SaddleData,
    a_asym,
    an12_main,
    b_asym,
    beta_fit,
    envelope_bound,
    exact_omega,
    predicted_main_zeros,
    saddle,
    saddle_formula,
    saddle_pipeline_main,
    select_phase_convention,
    sign_change_indices,
)
from .contour import (
    QuadratureResult,
    rice_integral,
    rice_sum_residues,
    saddle_contour_integral,
)
from .differences import (
    A,
    CharacterTable,
    D_of,
    SequencePoint,
    a,
    b,
    c,
    d,
    delta,
    dirichlet_diff,
    sequence_many,
)
from .errors import (
    DomainError,
    FitError,
    InsufficientPrecisionError,
    TruncationBoundError,
)
from .mpcore import (
    RationalShift,
    digamma_rational,
    euler_gamma,
    gamma_cx,
    harmonic,
    harmonic_mpf,
    hurwitz_int,
    mobius_upto,
    zeta_cx,
    zeta_int,
)
from .precision import (
    PrecisionBudget,
    format_decimal,
    parse_decimal,
    required_working_digits,
)
from .series import TruncatedSeries, egf_coeffs, newton_eval, ogf_coeffs

__version__ = "0.1.0"

__all__ = [
    "A",
    "AsymptoticEstimate",
    "BetaFitResult",
    "CharacterTable",
    "D_of",
    "DomainError",
    "FitError",
    "InsufficientPrecisionError",
    "PhaseSelection",
    "PrecisionBudget",
    "QuadratureResult",
    "RationalShift",
    "SaddleData",
    "SequencePoint",
    "TruncatedSeries",
    "TruncationBoundError",
    "a",
    "a_asym",
    "an12_main",
    "b",
    "b_asym",
    "beta_fit",
    "c",
    "d",
    "delta",
    "digamma_rational",
    "dirichlet_diff",
    "egf_coeffs",
    "envelope_bound",
    "euler_gamma",
    "exact_omega",
    "format_decimal",
    "gamma_cx",
    "harmonic",
    "harmonic_mpf",
    "hurwitz_int",
    "mobius_upto",
    "newton_eval",
    "ogf_coeffs",
    "parse_decimal",
    "predicted_main_zeros",
    "required_working_digits",
    "rice_integral",
    "rice_sum_residues",
    "saddle",
    "saddle_contour_integral",
    "saddle_formula",
    "saddle_pipeline_main",
    "select_phase_convention",
    "sequence_many",
    "sign_change_indices",
    "zeta_cx",
    "zeta_int",
    "__version__",
]
