"""Nested square-root ladder and the integer cotangent it pins down.

The ladder a(1) = sqrt(2), a(k) = sqrt(2 + a(k-1)) climbs toward 2, and
the companion ratio a(k)/sqrt(2 - a(k-1)) is the cotangent of a binary
submultiple of the half turn.  Its floor is the integer u1 that anchors a
two-term formula.  ``u1_of_k`` proves that floor from an integer bracket of
the ladder; ``ladder_eval``, the ladder in Decimal, checks it independently.
"""

from decimal import Decimal
from math import isqrt
from typing import NamedTuple

from .errors import DomainError, PrecisionError
from .exactmath import guard_digits, round_sig, working_context

# past k = 64 the coefficient 2**(k-1) stops being a sane formula ingredient
MAX_LADDER_K = 64


class RadicalPoint(NamedTuple):
    """Ladder snapshot at depth k, all fields to ``precision`` digits."""

    k: int
    value: Decimal      # a(k)
    previous: Decimal   # a(k-1)
    ratio: Decimal      # a(k)/sqrt(2 - a(k-1))
    precision: int


def ladder_eval(k: int, precision: int) -> RadicalPoint:
    """Evaluate the ladder and its ratio at depth ``k``.

    Carries k extra working digits on top of the guard because the
    subtraction 2 - a(k-1) erases about 0.6*k of them.
    """
    if not 2 <= k <= MAX_LADDER_K:
        raise DomainError(f"k must be in [2, {MAX_LADDER_K}], got {k}")
    if precision < k + 20:
        raise PrecisionError(
            f"precision {precision} is too small for k={k}; need at least {k + 20}")
    with working_context(precision + k + guard_digits()):
        value = Decimal(2).sqrt()
        for _ in range(2, k + 1):
            previous = value
            value = (2 + previous).sqrt()
        gap = 2 - previous
        if gap <= 0:
            raise PrecisionError(f"ladder lost the gap 2 - a({k - 1}); raise precision")
        ratio = value / gap.sqrt()
    return RadicalPoint(
        k=k,
        value=round_sig(value, precision),
        previous=round_sig(previous, precision),
        ratio=round_sig(ratio, precision),
        precision=precision,
    )


def _bracket(k: int) -> tuple[int, int, int]:
    """F = 4k + 64 and lo <= a(k-1)*2^F < hi, isqrt rounding lo down and hi up."""
    f = 4 * k + 64
    lo = hi = 0                       # a(0) = 0 gives a(1) = sqrt(2)
    for _ in range(k - 1):
        lo, hi = isqrt(((2 << f) + lo) << f), isqrt(((2 << f) + hi) << f) + 1
    return f, lo, hi


def u1_of_k(k: int) -> int:
    """Integer cotangent at depth k: the floor of the ladder ratio, proved.
    It is isqrt(floor((2 + a)/(2 - a))) at a = a(k-1), which grows with a,
    so it is settled once both ends of ``_bracket`` give the same value."""
    if not 2 <= k <= MAX_LADDER_K:
        raise DomainError(f"k must be in [2, {MAX_LADDER_K}], got {k}")
    f, lo, hi = _bracket(k)
    u1 = isqrt(((2 << f) + lo) // ((2 << f) - lo))
    if isqrt(((2 << f) + hi) // ((2 << f) - hi)) != u1:
        raise PrecisionError(f"{f} bits do not pin the floor of the k={k} ratio")
    return u1
