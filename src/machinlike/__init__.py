"""Two-term Machin-like arctangent formulas: generation, evaluation,
measurement, and independent verification, entirely in exact and
arbitrary-precision arithmetic.

The pipeline in one breath: a nested radical ladder picks an integer u1
at each depth k, an exact complex squaring chain turns (u1, k) into the
closing cotangent u2 with pi/4 = 2^(k-1) atan(1/u1) + atan(1/u2), a
rapidly convergent series turns any such formula into digits of pi, and
closed-form trigonometry plus a direct oracle, tangent doubling on two
ints, check the whole construction from the outside.
"""

from .errors import (
    ConsistencyError,
    DomainError,
    FormulaParseError,
    PrecisionError,
    UsageError,
)
from .exactmath import (
    coinciding_digits,
    digits_prefix,
    fraction_to_decimal,
    guard_digits,
    int_digit_count,
    int_log10,
    rational_log10_abs,
    round_sig,
    working_context,
)
from .radical import MAX_LADDER_K, RadicalPoint, ladder_eval, u1_of_k
from .squaring import (
    DESK_SCALE_MAX_K,
    ComplexRationalState,
    closing_parts,
    init_state,
    rounded_u2,
    shared_parts,
    square_step,
    state_at,
    u2_direct_oracle,
    u2_of,
    write_fraction_file,
)
from .formulas import (
    MachinFormula,
    MagnitudeOnly,
    MeasureReport,
    ValidationResult,
    fixtures,
    format_formula,
    lehmer_measure,
    lehmer_reduced,
    parse_formula_file,
    two_term_formula,
    validate_formula,
)
from .series import (
    ConvergenceReport,
    arctan_complex,
    arctan_fast,
    convergence_scan,
    reference_pi,
    series_error,
)
from .trigcheck import (
    TrigCheckResult,
    dec_arctan,
    dec_sin_cos,
    u2_trig,
    verify_k,
)

__version__ = "1.0.0"

__all__ = [
    "ComplexRationalState",
    "ConsistencyError",
    "ConvergenceReport",
    "DESK_SCALE_MAX_K",
    "DomainError",
    "FormulaParseError",
    "MAX_LADDER_K",
    "MachinFormula",
    "MagnitudeOnly",
    "MeasureReport",
    "PrecisionError",
    "RadicalPoint",
    "TrigCheckResult",
    "UsageError",
    "ValidationResult",
    "arctan_complex",
    "arctan_fast",
    "closing_parts",
    "coinciding_digits",
    "convergence_scan",
    "dec_arctan",
    "dec_sin_cos",
    "digits_prefix",
    "fixtures",
    "format_formula",
    "fraction_to_decimal",
    "guard_digits",
    "init_state",
    "int_digit_count",
    "int_log10",
    "ladder_eval",
    "lehmer_measure",
    "lehmer_reduced",
    "parse_formula_file",
    "rational_log10_abs",
    "reference_pi",
    "rounded_u2",
    "round_sig",
    "series_error",
    "shared_parts",
    "square_step",
    "state_at",
    "two_term_formula",
    "u1_of_k",
    "u2_direct_oracle",
    "u2_of",
    "u2_trig",
    "validate_formula",
    "verify_k",
    "working_context",
    "write_fraction_file",
]
