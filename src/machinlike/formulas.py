"""Machin-like formulas as data: pi/4 = sum of coeff * atan(1/cotangent).

Carries the classic published formulas as fixtures, scores any formula by
Lehmer's measure (the labor proxy e = sum of 1/log10 |cotangent|), builds
the generated two-term pairs, validates a formula numerically against an
independent pi, and rewrites a wide cotangent as Lehmer's levels of cheap
integer cotangents (lehmer_reduced).
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from decimal import Decimal, localcontext
from fractions import Fraction
from pathlib import Path
from typing import NamedTuple

from .errors import DomainError, FormulaParseError, PrecisionError
from .exactmath import (
    _EXACT,
    _as_decimal,
    _as_int,
    _bit_length,
    _part_abs,
    RationalParts,
    coprime_fraction,
    format_rational,
    guard_digits,
    int_digit_count,
    parsed_lines,
    rational_log10_abs,
    reciprocal,
    round_sig,
    text_to_int,
    working_context,
)
from .radical import u1_of_k
# u2_of stays bound here, where callers have always found it
from .squaring import closing_parts, u2_of
from . import series


@dataclass(frozen=True, slots=True)
class MagnitudeOnly:
    """Stand-in for a cotangent known only by sign and size.

    Lehmer's measure needs log10 |beta| and nothing else, so a term whose
    exact rational is too large to materialize can still be scored.
    """

    sign: int
    magnitude: Decimal

    def __post_init__(self):
        if self.sign not in (-1, 1):
            raise DomainError(f"sign must be -1 or 1, got {self.sign}")
        if not self.magnitude.is_finite() or self.magnitude <= 0:
            raise DomainError(f"magnitude must be a positive finite Decimal, got {self.magnitude}")


# exact as a Fraction, or as RationalParts when read from a file with no gcd
Cotangent = Fraction | RationalParts | MagnitudeOnly


def full_text(beta: Fraction | RationalParts) -> str | None:
    """beta as num/den when its parts hold at most 60 digits together, else
    None: how a cotangent is shown, generate's u2 included."""
    digits = int_digit_count(beta.numerator) + int_digit_count(beta.denominator)
    return format_rational(beta) if digits <= 60 else None


def _shown(beta: Cotangent) -> str:
    """beta in full when full_text allows, else its size."""
    if isinstance(beta, MagnitudeOnly):
        return str(beta)
    num, den = int_digit_count(beta.numerator), int_digit_count(beta.denominator)
    return full_text(beta) or f"a rational of {num}/{den} digits"


@dataclass(frozen=True)
class MachinFormula:
    """Terms are (integer coefficient, cotangent) pairs."""

    terms: tuple[tuple[int, Cotangent], ...]
    name: str | None = None

    def __post_init__(self):
        normalized = []
        for index, (coeff, beta) in enumerate(self.terms, start=1):
            try:
                coeff = operator.index(coeff)
            except TypeError:
                raise DomainError(f"term {index}: coefficient must be an integer") from None
            if coeff == 0:
                raise DomainError(f"term {index}: zero coefficient")
            # 4300, the interpreter's default int-to-text limit: every coefficient prints
            if (digits := int_digit_count(coeff)) > 4300:
                raise DomainError(f"term {index}: coefficient of {digits} digits; at most 4300")
            if isinstance(beta, MagnitudeOnly):
                inside = beta.magnitude <= 1
            else:
                if not isinstance(beta, RationalParts):
                    beta = Fraction(beta)
                inside = _part_abs(beta.numerator) <= beta.denominator
            if inside:
                raise DomainError(f"term {index}: |cotangent| must exceed 1, got {_shown(beta)}")
            normalized.append((coeff, beta))
        if not normalized:
            raise DomainError("a formula needs at least one term")
        object.__setattr__(self, "terms", tuple(normalized))

    def exact(self) -> bool:
        """True when every cotangent is an exact rational."""
        return all(not isinstance(beta, MagnitudeOnly) for _, beta in self.terms)


class MeasureReport(NamedTuple):
    """Lehmer's measure with its per-term breakdown.

    ``e`` is the 6-decimal rounding of the sum of ``contributions``;
    each contribution is 1/log10 |cotangent| for one term.
    """

    formula: str | None
    e: Decimal
    contributions: tuple[Decimal, ...]


class ValidationResult(NamedTuple):
    valid: bool
    residual: Decimal
    threshold: Decimal
    precision: int


# A term adds 1/L to e, L = log10 |beta|, so an error dL moves e by dL/L^2.  L is
# a difference of 40-digit logarithms of beta's parts: dL < 1e-35 for parts up to
# 1e9 digits at guard 0, and e moves < 1e-11 above this bound.  Below it, refuse.
_MIN_LOG10_COTANGENT = Decimal("1e-12")


def lehmer_measure(formula: MachinFormula) -> MeasureReport:
    """Score a formula: smaller e means fewer series terms per digit."""
    contributions = []
    with working_context(40):
        for index, (_, beta) in enumerate(formula.terms, start=1):
            if isinstance(beta, MagnitudeOnly):
                log = beta.magnitude.log10()
            else:
                log = rational_log10_abs(beta, 40)
            if log < _MIN_LOG10_COTANGENT:
                raise DomainError(
                    f"term {index}: log10 |cotangent| is below {_MIN_LOG10_COTANGENT}, "
                    f"too close to 1 for e to 6 decimals")
            contributions.append(1 / log)
        total = sum(contributions)
        e = total.quantize(Decimal("0.000001"))
    return MeasureReport(formula=formula.name, e=e, contributions=tuple(contributions))


def validate_formula(formula: MachinFormula, precision: int) -> ValidationResult:
    """Evaluate 4 times the formula's right side and compare against pi.

    The sum runs over lehmer_reduced(formula, precision), the equal formula
    compute-pi sums, so a wide cotangent costs what it costs there.  The
    threshold |4*sum - pi| < 10**-(precision - 5) leaves room for the
    evaluation's own rounding while catching any wrong formula, whose
    residual, 4*sum - pi, would be astronomically larger.
    """
    if precision < 20:
        raise PrecisionError(f"validation precision must be >= 20, got {precision}")
    if not formula.exact():
        raise DomainError("cannot validate a formula with magnitude-only terms")
    terms = lehmer_reduced(formula, precision).terms
    total = series.arctan_sum([(4 * coeff, beta) for coeff, beta in terms], precision)
    work = precision + guard_digits()
    with working_context(work):
        residual = total - series.reference_pi(work)
    threshold = Decimal(1).scaleb(5 - precision, _EXACT)
    return ValidationResult(
        valid=residual.copy_abs() < threshold,
        residual=round_sig(residual, 10),
        threshold=threshold,
        precision=precision,
    )


def two_term_formula(k: int, u2_value: Cotangent | None = None,
                     u1: int | None = None) -> MachinFormula:
    """The generated pair at depth k: 2**(k-1) atan(1/u1) + atan(1/u2).

    Pass ``u2_value`` (exact or magnitude-only) to reuse a known closing
    cotangent, and ``u1`` a known u1_of_k(k), instead of recomputing them.
    By default u2 is closing_parts' coprime pair as generate takes it: a
    Fraction, or RationalParts of Decimals when the chain runs in them.
    Past the desk-scale cap pass u2_value=u2_of(u1, k, allow_huge=True).
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if u1 is None:
        u1 = u1_of_k(k)
    if u2_value is None:
        u2_value = coprime_fraction(*closing_parts(u1, k))
    return MachinFormula(
        terms=((2 ** (k - 1), Fraction(u1)), (1, u2_value)),
        name=f"two-term-k{k}",
    )


# Lehmer's levels pay where the wide branch is costly and its parts are not
# too wide to reduce.  Unreduced, the branch costs about precision**2.5 (its
# terms, each a product of F bits); a level costs about the parts' width W
# (one exact divmod and two products).  Measured in-process on 2 vCPUs,
# Python 3.11, the u2 branch ran faster reduced wherever W >= 256 bits and
# W <= precision**2.5/1600, from 1,000 digits on: 1.5-1.8x at 2,000 digits
# (k = 7, 11, 12), 4.1x at k = 12 and 10,000, 1.65x at k = 20 and 20,000.
# Outside that it ran slower: at 500 digits (k = 7: 0.89x), on k = 4..5's
# narrower parts (k = 5 at 2,000 digits: 0.67x) and past the width bound
# (k = 13 at 1,000 digits: 0.73x, k = 18 at 2,000: 0.42x).  The levels
# stop once the cotangent passes 10**(precision/12).
_LEHMER_MIN_PRECISION = 1000
_LEHMER_MIN_BITS = 256
_LEHMER_WIDTH_DIVISOR = 1600
_LEHMER_STOP_DIVISOR = 12


def lehmer_reduced(formula: MachinFormula, precision: int) -> MachinFormula:
    """An equal formula in which every cotangent whose parts are wide for
    ``precision`` digits is replaced by its Lehmer levels.

    D. H. Lehmer (Amer. Math. Monthly 45, 1938): for beta = P/Q > 1 and
    n = ceil(P/Q), atan(Q/P) = atan(1/n) + atan(Q'/P') exactly, where
    P' + iQ' = (P + iQ)(n - i), so P' = nP + Q and 0 <= Q' = nQ - P < Q.
    The next cotangent P'/Q' is at least n*beta + 1 > beta^2, so the integer
    cotangents n_0, n_1, ... about double in digits from level to level,
    and the kernel's exact branch sums them with small multipliers.  Each
    level keeps the term's coefficient, with a negative beta's sign moved
    onto it.  The levels stop once the cotangent passes 10**(precision/12);
    that remainder, its parts unreduced, needs only a few rounded terms.
    A Q' of 0 ends the term exactly, with no remainder.

    A cotangent is reduced only from 1,000 digits on, and only when the
    bit length W of its denominator, the narrower part, has
    256 <= W <= precision**2.5/1600.  Integer cotangents, narrower parts
    and wider ones pass through unchanged.  Decimal parts stay Decimal,
    combined under _EXACT, and each n comes from an exact divmod.
    """
    if precision < _LEHMER_MIN_PRECISION:
        return formula
    widest = precision ** 2.5 / _LEHMER_WIDTH_DIVISOR
    # log2 of 10**(precision/12), against the parts' bit lengths
    stop = int(precision * math.log2(10) / _LEHMER_STOP_DIVISOR)
    terms = []
    for coeff, beta in formula.terms:
        width = 0 if isinstance(beta, MagnitudeOnly) else _bit_length(beta.denominator)
        if not _LEHMER_MIN_BITS <= width <= widest:
            terms.append((coeff, beta))
            continue
        if beta.numerator < 0:
            coeff = -coeff
        p, q = _part_abs(beta.numerator), beta.denominator
        with localcontext(_EXACT):
            while q and _bit_length(p) - _bit_length(q) <= stop:
                n, rest = divmod(p, q)
                if rest:
                    n += 1
                terms.append((coeff, Fraction(_as_int(n))))
                p, q = n * p + q, n * q - p
        if q:
            terms.append((coeff, RationalParts(p, q)))
    return MachinFormula(terms=tuple(terms), name=formula.name)


# built and validated once, at import: compute-pi --fixture looks one up per request
_FIXTURES = {
    formula.name: formula for formula in (
        MachinFormula(((4, Fraction(5)), (-1, Fraction(239))), name="machin-1706"),
        MachinFormula(((44, Fraction(57)), (7, Fraction(239)),
                       (-12, Fraction(682)), (24, Fraction(12943))), name="kanada-a"),
        MachinFormula(((12, Fraction(49)), (32, Fraction(57)),
                       (-5, Fraction(239)), (12, Fraction(110443))), name="kanada-b"),
        MachinFormula(((22, Fraction(26)), (-2, Fraction(2057)),
                       (-5, Fraction(3240647, 38479))), name="lehmer-3term"),
        MachinFormula(((183, Fraction(239)), (32, Fraction(1023)), (-68, Fraction(5832)),
                       (12, Fraction(110443)), (-12, Fraction(4841182)),
                       (-100, Fraction(6826318))), name="chienlih-6term"),
    )
}


def fixtures() -> dict[str, MachinFormula]:
    """Published formulas with known measures, keyed by short name, in a
    new dict on every call (the formulas themselves are immutable).

    machin-1706 is the classic 4 atan(1/5) - atan(1/239); the kanada pair
    is the self-check duo behind the 2002 trillion-digit run; lehmer-3term
    held the record measure of its era (its third cotangent is rational);
    chienlih-6term is a modern low-measure six-term identity.
    """
    return dict(_FIXTURES)


_TERM_RE = re.compile(r"([+-]?\d+)\s*\*\s*atan\(\s*([+-]?\d+)\s*/\s*(\d+)\s*\)")


def format_formula(formula: MachinFormula) -> str:
    """One ``coeff * atan(num/den)`` per line; the argument is 1/cotangent."""
    if not formula.exact():
        raise DomainError("cannot serialize a formula with magnitude-only terms")
    lines = []
    for coeff, beta in formula.terms:
        lines.append(f"{_as_decimal(coeff)} * atan({format_rational(reciprocal(beta))})")
    return "\n".join(lines) + "\n"


def _parse_term(line: str) -> tuple[int, Fraction]:
    """(coeff, cotangent) from one ``coeff * atan(num/den)`` line."""
    match = _TERM_RE.fullmatch(line)
    if match is None:
        raise FormulaParseError(f"unrecognized term: {line!r}")
    coeff, num, den = map(text_to_int, match.groups())
    if den == 0:
        raise FormulaParseError(f"zero denominator: {'/'.join(match.groups()[1:])!r}")
    if num == 0:
        raise FormulaParseError("zero arctangent argument")
    return coeff, Fraction(den, num)


def parse_formula_file(path) -> MachinFormula:
    """Parse a formula file written by format_formula.

    '#' comments and blank lines are ignored.  Bad lines are reported by
    number; cotangent domain violations surface with their term index.
    """
    terms = tuple(parsed_lines(path, _parse_term))
    if not terms:
        raise FormulaParseError("no terms found")
    return MachinFormula(terms=terms, name=Path(path).stem)
