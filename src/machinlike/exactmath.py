"""Integer, rational and decimal plumbing used by every numeric module.

Precision discipline: public functions take a ``precision`` argument that
counts significant decimal digits of the result.  Internally they carry
``guard_digits()`` extra digits, so the digits handed back are actually
correct.  Anything exactly representable stays an ``int`` or ``Fraction``
for as long as possible; ``Decimal`` enters only where a value is
irrational or a quotient is finally needed.

File text: ``parsed_lines`` holds the line rule of every input file, and
only ``format_rational`` and ``parse_rational`` lift the int<->str digit limit.
"""

from __future__ import annotations

import os
import re
import sys
from contextlib import contextmanager
from decimal import Context, Decimal, MAX_EMAX, MIN_EMIN, ROUND_DOWN, localcontext
from fractions import Fraction

from .errors import DomainError, FormulaParseError

DEFAULT_GUARD_DIGITS = 10

_LOG10_2 = Decimal("0.30102999566398119521373889472449302676818988146210854131042746112852790792954564")


def guard_digits() -> int:
    """Extra working digits carried beyond every requested precision.

    The MACHINLIKE_GUARD_DIGITS environment variable overrides the
    default budget of 10.
    """
    raw = os.environ.get("MACHINLIKE_GUARD_DIGITS")
    if raw is None:
        return DEFAULT_GUARD_DIGITS
    try:
        value = int(raw)
    except ValueError:
        raise DomainError(
            f"MACHINLIKE_GUARD_DIGITS must be an integer, got {raw!r}"
        ) from None
    if value < 0:
        raise DomainError("MACHINLIKE_GUARD_DIGITS must be >= 0")
    return value


@contextmanager
def working_context(precision: int):
    """Decimal context with ``precision`` digits and exponent limits wide
    enough for series whose terms span thousands of orders of magnitude."""
    if precision < 1:
        raise DomainError(f"context precision must be >= 1, got {precision}")
    with localcontext() as ctx:
        ctx.prec = precision
        ctx.Emax = MAX_EMAX
        ctx.Emin = MIN_EMIN
        yield ctx


def round_sig(value: Decimal, precision: int) -> Decimal:
    """Round to ``precision`` significant digits, half even."""
    if precision < 1:
        raise DomainError(f"precision must be >= 1, got {precision}")
    if not value.is_finite():
        raise DomainError(f"cannot round non-finite value {value}")
    if value == 0:
        return Decimal(0)
    with working_context(precision):
        return +value


def fraction_to_decimal(value: Fraction | int, precision: int) -> Decimal:
    """``value`` as a Decimal correct to ``precision`` significant digits.

    The quotient is formed by one scaled integer division, so the cost
    stays close to linear in the operand size even when numerator and
    denominator run to millions of digits (a direct Decimal conversion
    of the parts would pay a quadratic base-conversion toll).
    """
    frac = value if isinstance(value, Fraction) else Fraction(value)
    if frac == 0:
        return Decimal(0)
    num, den = abs(frac.numerator), frac.denominator
    work = precision + guard_digits()
    # ~floor(log10(num/den)); an error of +-2 here only shifts the digit
    # budget, never the value
    mag = int((num.bit_length() - den.bit_length()) * 0.30102999566398)
    shift = work - mag + 3
    if shift >= 0:
        scaled = (num * 10**shift) // den
    else:
        scaled = num // (den * 10**-shift)
    with working_context(work):
        dec = Decimal(scaled).scaleb(-shift)
    if frac < 0:
        # copy_negate flips the sign without touching the active context;
        # a bare unary minus would round to its 28-digit default
        dec = dec.copy_negate()
    return round_sig(dec, precision)


def int_log10(n: int, precision: int = 40) -> Decimal:
    """log10 of |n| for integers too large to convert to Decimal whole.

    Only the top bits carry information beyond the power-of-two offset,
    so the cost is a shift plus a small logarithm: O(len(n)) instead of
    the quadratic base conversion Decimal(n).log10() would trigger.
    """
    if n == 0:
        raise DomainError("log10 of zero")
    n = abs(n)
    bits = n.bit_length()
    window = int((precision + 4) * 3.33) + 8
    with working_context(precision + guard_digits()):
        if bits <= window:
            return +Decimal(n).log10()
        top = n >> (bits - window)
        return +(Decimal(top).log10() + (bits - window) * _LOG10_2)


def rational_log10_abs(value: Fraction | int, precision: int = 40) -> Decimal:
    """log10 |value| for a nonzero rational with possibly huge parts."""
    frac = value if isinstance(value, Fraction) else Fraction(value)
    if frac == 0:
        raise DomainError("log10 of zero")
    with working_context(precision + guard_digits()):
        return +(int_log10(frac.numerator, precision + 5)
                 - int_log10(frac.denominator, precision + 5))


def int_digit_count(n: int) -> int:
    """Number of decimal digits of |n|, without materializing the string."""
    if n == 0:
        return 1
    n = abs(n)
    if n.bit_length() <= 128:
        return len(str(n))
    log = int_log10(n, 30)
    floor_log = int(log)
    frac = log - floor_log
    # only near a power of ten can the log estimate be off by one
    if frac < Decimal("1e-10") or frac > 1 - Decimal("1e-10"):
        if n >= 10 ** (floor_log + 1):
            floor_log += 1
        elif n < 10**floor_log:
            floor_log -= 1
    return floor_log + 1


def coinciding_digits(a: Decimal, b: Decimal) -> int:
    """Count of decimal places on which two values agree.

    Defined through the exact difference, d = -ceil(log10 |a - b|):
    3.14159 vs 3.14168 gives 4, values with different integer parts give
    0 or less.  Equal values return the resolution of the finer operand,
    since agreement beyond the stored digits is unknowable.
    """
    if not (a.is_finite() and b.is_finite()):
        raise DomainError("coinciding_digits needs finite values")
    ta, tb = a.as_tuple(), b.as_tuple()
    if a == b:
        return max(-ta.exponent, -tb.exponent, 0)
    span = max(a.adjusted(), b.adjusted()) - min(ta.exponent, tb.exponent) + 10
    with working_context(span):
        diff = abs(a - b)  # exact at this width
    adjusted = diff.adjusted()
    if diff == Decimal(1).scaleb(adjusted):
        return -adjusted
    return -(adjusted + 1)


def digits_prefix(value: Decimal, count: int) -> str:
    """First ``count`` significant digits of |value|, truncated, as a
    plain digit string.  The value is treated as exact, so short inputs
    pad with zeros."""
    if count < 1:
        raise DomainError(f"digit count must be >= 1, got {count}")
    if not value.is_finite():
        raise DomainError(f"cannot take digits of {value}")
    if value == 0:
        return "0" * count
    ctx = Context(prec=count, rounding=ROUND_DOWN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    trimmed = ctx.plus(value.copy_abs())
    digits = "".join(map(str, trimmed.as_tuple().digits))
    return digits.ljust(count, "0")


_RATIONAL_RE = re.compile(r"([+-]?\d+)(?:/(\d+))?")


@contextmanager
def _unlimited_int_text():
    """Lift the int<->str digit limit (4300 by default) for the block only:
    fraction and formula files carry integers of 10**5 digits and more."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def format_rational(value: Fraction) -> str:
    """Render as num/den with the sign on the numerator, den always shown."""
    with _unlimited_int_text():
        return f"{value.numerator}/{value.denominator}"


def parse_rational(text: str) -> Fraction:
    """Parse ``[-]num[/den]``.  The sign belongs to the numerator only;
    a signed or zero denominator is rejected."""
    match = _RATIONAL_RE.fullmatch(text.strip())
    if match is None:
        raise FormulaParseError(f"not a rational literal: {text.strip()!r}")
    with _unlimited_int_text():
        num, den = int(match.group(1)), int(match.group(2) or 1)
    if den == 0:
        raise FormulaParseError(f"zero denominator: {text.strip()!r}")
    return Fraction(num, den)


def parsed_lines(path, parse):
    """``parse(line)`` for each stripped line of an ASCII input file that
    is neither blank nor a '#' comment, in order.  A FormulaParseError
    from ``parse`` is raised again with the line's number."""
    with open(path, "r", encoding="ascii") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    yield parse(line)
                except FormulaParseError as exc:
                    raise FormulaParseError(str(exc), line=lineno) from None


def complex_mul(a, b):
    """(re, im) product; works for any field-like component type."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])


def complex_div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return ((a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d)


def complex_add(a, b):
    return (a[0] + b[0], a[1] + b[1])
