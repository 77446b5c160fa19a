"""Integer, rational and decimal plumbing used by every numeric module.

Precision discipline: public functions take a ``precision`` argument that
counts significant decimal digits of the result.  Internally they carry
``guard_digits()`` extra digits, so the digits handed back are actually
correct.  Anything exactly representable stays an ``int`` or ``Fraction``
for as long as possible; ``Decimal`` enters only where a value is
irrational or a quotient is finally needed.  The package computes in two
decimal contexts of its own: working_context's, which rounds half even at
the precision asked for, and _EXACT, which refuses to round.  Every
Decimal step that can round runs in one of them, so no result depends on
the caller's context: its rounding, precision, exponent limits and traps.

Integer parts come in two kinds: an ``int``, or an integral ``Decimal`` of
exponent 0.  A squaring chain's parts keep one kind from its first step
to its last.  A chain whose parts end within 32,768 bits keeps them ints,
which Python multiplies 2-7 times faster than libmpdec at 2,048-22,000
bits; a longer one runs in Decimal throughout, since libmpdec multiplies
the wide parts it ends on with a number-theoretic transform and prints
and parses them in one linear pass (the table is at
squaring._INT_CHAIN_BITS).  Every part is printed as
str(_as_decimal(part)) and fraction files are read with Decimal(text).
A part changes kind only through _as_int and _as_decimal.
The part readers (int_digit_count, int_log10, reciprocal, coprime_fraction
and the private _part_abs, _bit_length and _scaled_floor) take either kind
and return exactly what the int code returns.  They keep clear of four
traps: abs(), unary - and unary + round a Decimal to the ambient context
(28 digits by default); Decimal // truncates toward zero where int //
floors; int() of a huge Decimal is quadratic; and so is Decimal() of a
huge int.  No code here changes the ambient or global decimal context.

Integers to and from text: _as_decimal and text_to_int convert in
subquadratic time and under any int<->str digit limit, which the package
never changes.  ``parsed_lines`` holds the line rule of every input file
and ``_write_lines`` that of every output file; _refuse_past_budget holds
the one memory budget of the exact computations.
Rationals have three shapes here: a Fraction in lowest terms,
coprime_fraction building one from parts known to be coprime with no gcd,
and RationalParts, the parts as written, read with no gcd at all.
"""

from __future__ import annotations

import functools
import numbers
import os
import re
from contextlib import contextmanager
from dataclasses import dataclass
from decimal import (
    Context, Decimal, DivisionByZero, Inexact, InvalidOperation, MAX_EMAX, MAX_PREC,
    MIN_EMIN, Overflow, ROUND_FLOOR, ROUND_HALF_EVEN, localcontext)
from fractions import Fraction

from .errors import DomainError, FormulaParseError

DEFAULT_GUARD_DIGITS = 10

_LOG10_2 = Decimal("0.30102999566398119521373889472449302676818988146210854131042746112852790792954564")
# the same 80 digits as an exact ratio of ints, for int_digit_count
_LOG10_2_NUM, _LOG10_2_DEN = _LOG10_2.as_integer_ratio()
_TRAPS = [InvalidOperation, DivisionByZero, Overflow]
# working_context's template: the caller's context never enters a result
_ROUNDING = Context(rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=_TRAPS)
# integer arithmetic on Decimals: a result that would need rounding raises
_EXACT = Context(prec=MAX_PREC, Emax=MAX_EMAX, Emin=MIN_EMIN, traps=[*_TRAPS, Inexact])


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
    """The package's rounding context at ``precision`` digits, a copy of one
    template, never of the caller's context: half even, trapping
    InvalidOperation, DivisionByZero and Overflow, with exponent limits wide
    enough for series whose terms span thousands of orders of magnitude."""
    if precision < 1:
        raise DomainError(f"context precision must be >= 1, got {precision}")
    with localcontext(_ROUNDING) as ctx:
        ctx.prec = precision
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


def fraction_to_decimal(value: Fraction | int | RationalParts, precision: int) -> Decimal:
    """``value`` as a Decimal correct to ``precision`` significant digits.

    The quotient is formed by one scaled integer division, so the cost
    stays close to linear in the operand size even when numerator and
    denominator run to millions of digits (a direct Decimal conversion
    of the parts would pay a quadratic base-conversion toll).  Parts of
    either kind take the same digit budget; Decimal parts are divided by
    divide_int under _EXACT.
    """
    if not isinstance(value, RationalParts):
        value = Fraction(value)
    num, den = value.numerator, value.denominator
    if num == 0:
        return Decimal(0)
    work = precision + guard_digits()
    # ~floor(log10(num/den)); an error of +-2 here only shifts the digit
    # budget, never the value
    mag = int((_bit_length(num) - _bit_length(den)) * 0.30102999566398)
    shift = work - mag + 3
    size = _part_abs(num)
    if isinstance(size, int) and isinstance(den, int):
        scaled = (size * 10**shift) // den if shift >= 0 else size // (den * 10**-shift)
    else:
        with localcontext(_EXACT) as exact:
            scaled = exact.divide_int(exact.scaleb(size, shift), den)
    with working_context(work):
        dec = _as_decimal(scaled).scaleb(-shift)
    return round_sig(dec if num > 0 else dec.copy_negate(), precision)


# Conversion leaves: Decimal(int) pays a quadratic pass on 2048 bits at most,
# and int(str) sees at most 640 digits, the lowest digit limit an
# interpreter accepts; neither Decimal(int) nor str(Decimal) is limited.
_LEAF_BITS = 2048
_LEAF_DIGITS = 640


def _as_int(n: int | Decimal) -> int:
    """An int part as it is; an integral Decimal through its text, since
    int() of a huge Decimal is quadratic."""
    return n if isinstance(n, int) else text_to_int(format(n, "f"))


def _as_decimal(n: int | Decimal) -> Decimal:
    """A Decimal part as it is; an int as an exact Decimal of exponent 0, in
    subquadratic time and under any int<->str digit limit.

    A wide int is split at powers 2^w down to 2048-bit pieces and rebuilt
    under _EXACT, so libmpdec's number-theoretic multiply does the base
    conversion that Decimal(n) would do quadratically.
    """
    if isinstance(n, Decimal):
        return n
    if n.bit_length() <= _LEAF_BITS:
        return Decimal(n)
    powers = {}    # 2^w as a Decimal, kept for this call only

    def power(w):
        if w not in powers:
            half = w >> 1
            powers[w] = Decimal(1 << w) if w <= _LEAF_BITS else power(half) * power(w - half)
        return powers[w]

    def build(m, w):    # 0 <= m < 2^w
        if w <= _LEAF_BITS:
            return Decimal(m)
        half = w >> 1
        hi = m >> half
        return build(hi, w - half) * power(half) + build(m - (hi << half), half)

    with localcontext(_EXACT):
        value = build(abs(n), n.bit_length())
    return value.copy_negate() if n < 0 else value


def _part_abs(n: int | Decimal) -> int | Decimal:
    """|n|, exact: a Decimal's abs() would round to the ambient context."""
    return n.copy_abs() if isinstance(n, Decimal) else abs(n)


def _negated(n: int | Decimal) -> int | Decimal:
    return n.copy_negate() if isinstance(n, Decimal) else -n


def _scaled_floor(num: int | Decimal, den: int | Decimal, shift: int) -> int:
    """floor(num * 2**shift / den) for den > 0, as int // gives it.

    Decimal parts take one quotient rounded to 30 digits past its integer
    part.  Its five roundings move it by under 10**(2 - prec) of its size,
    so when a slack of 100 times that cannot move its floor, that floor
    is the answer.  Otherwise (a quotient within 10**-26 of an integer)
    the quotient is formed exactly, with the remainder's sign turning
    Decimal's truncation toward zero into a floor.
    """
    if isinstance(num, int) and isinstance(den, int):
        return (num << shift) // den if shift >= 0 else num // (den << -shift)
    num, den = _as_decimal(num), _as_decimal(den)
    digits = max(num.adjusted() - den.adjusted() + int(shift * 0.30103), 0) + 30
    with working_context(digits) as ctx:
        quotient = ctx.divide(ctx.multiply(ctx.plus(num), ctx.power(2, shift)), ctx.plus(den))
        slack = quotient.copy_abs().scaleb(4 - digits, ctx)
        low = ctx.subtract(quotient, slack).to_integral_value(ROUND_FLOOR)
        if low == ctx.add(quotient, slack).to_integral_value(ROUND_FLOOR):
            return _as_int(low)
    with localcontext(_EXACT) as exact:
        if shift >= 0:
            num *= exact.power(2, shift)
        else:
            den *= exact.power(2, -shift)
        whole, rest = divmod(num, den)
    return _as_int(whole) - (rest < 0)


def _leading_bits(n: int | Decimal, window: int) -> tuple[int, int]:
    """(shift, |n| >> shift) with shift = max(bits - window, 0), bits the
    bit length of |n|: the top ``window`` bits and the power of two below
    them."""
    if isinstance(n, Decimal):
        # window // 3 keeps the shift positive however wide the window
        if n.adjusted() >= _LEAF_DIGITS + window // 3:
            # 10**adjusted <= |n| < 10**(adjusted + 1), so this leaves
            # window + 1 to window + 7 bits above the shift
            shift = int(n.adjusted() * 3.321928094887362) - window - 1
            top = _scaled_floor(n.copy_abs(), 1, -shift)
            extra = top.bit_length() - window
            return shift + extra, top >> extra
        # a part this short is cheap to read as an int, for the int code below
        n = _as_int(n)
    n = abs(n)
    shift = max(n.bit_length() - window, 0)
    return shift, n >> shift


def _bit_length(n: int | Decimal) -> int:
    """The bit length of |n|, as int.bit_length gives it."""
    if isinstance(n, int):
        return n.bit_length()
    shift, top = _leading_bits(n, 64)
    return shift + top.bit_length()


def int_log10(n: int | Decimal, precision: int = 40) -> Decimal:
    """log10 of |n| for integers too large to convert to Decimal whole.

    Only the top bits carry information beyond the power-of-two offset,
    so the cost is a shift plus a small logarithm: O(len(n)) instead of
    the quadratic base conversion Decimal(n).log10() would trigger.  A
    Decimal n gives the same value, from the same top bits.
    """
    if n == 0:
        raise DomainError("log10 of zero")
    shift, top = _leading_bits(n, int((precision + 4) * 3.33) + 8)
    with working_context(precision + guard_digits()):
        if not shift:
            return +Decimal(top).log10()
        return +(Decimal(top).log10() + shift * _LOG10_2)


def rational_log10_abs(value: Fraction | int | RationalParts, precision: int = 40) -> Decimal:
    """log10 |value| for a nonzero rational with possibly huge parts, read
    from its numerator and denominator."""
    if value.numerator == 0:
        raise DomainError("log10 of zero")
    with working_context(precision + guard_digits()):
        return +(int_log10(value.numerator, precision + 5)
                 - int_log10(value.denominator, precision + 5))


def int_digit_count(n: int | Decimal) -> int:
    """Number of decimal digits of |n| (1 for 0): a Decimal's from its
    exponent, an int's from its bit length b and one comparison, so the
    int parts of a chain through k = 12 pay no _as_decimal (1.4 ms at
    k = 12) just to be counted.  With
    d = floor((b - 1) log10 2), 10**d <= 2**(b-1) <= |n| < 2**b < 10**(d + 2),
    so |n| has d + 2 digits if it reaches 10**(d + 1) and d + 1 if not.
    _LOG10_2's 80 digits keep d exact far past any part that fits in memory.
    """
    if isinstance(n, Decimal):
        return n.adjusted() + 1
    n = abs(n)
    if n < 10:
        return 1
    d = (n.bit_length() - 1) * _LOG10_2_NUM // _LOG10_2_DEN
    return d + 1 + (n >= _power_of_ten(d + 1))


# verify counts u2's two parts about seven times a request, at the same
# two widths: building 10**d took about 64 us at 23,500 bits
@functools.lru_cache(maxsize=32)
def _power_of_ten(d: int) -> int:
    return 10**d


def coinciding_digits(a: Decimal, b: Decimal) -> int:
    """Count of decimal places on which two values agree.

    Defined through the exact difference, d = -ceil(log10 |a - b|):
    3.14159 vs 3.14168 gives 4, values with different integer parts give
    0 or less.  Equal values return the resolution of the finer operand,
    since agreement beyond the stored digits is unknowable.
    """
    if not (a.is_finite() and b.is_finite()):
        raise DomainError("coinciding_digits needs finite values")
    if a == b:
        return max(-a.as_tuple().exponent, -b.as_tuple().exponent, 0)
    diff = _EXACT.subtract(a, b).copy_abs()
    adjusted = diff.adjusted()
    if diff == Decimal(1).scaleb(adjusted, _EXACT):
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
    mantissa = format(value.copy_abs(), "E").partition("E")[0]
    return mantissa.replace(".", "")[:count].ljust(count, "0")


def text_to_int(text: str) -> int:
    """int(text) for ``[+-]digits``, in subquadratic time and under any
    int<->str digit limit.

    The digits are split in halves down to 640-digit pieces, and each split
    is rebuilt as hi * 10^w + lo = (hi * 5^w << w) + lo: one multiply and
    one shift.
    """
    powers = {}    # 5^w, kept for this call only

    def build(digits):
        if len(digits) <= _LEAF_DIGITS:
            return int(digits)
        w = len(digits) >> 1
        if w not in powers:
            powers[w] = 5**w
        return (build(digits[:-w]) * powers[w] << w) + build(digits[-w:])

    signed = text[:1] in ("+", "-")
    value = build(text[1:] if signed else text)
    return -value if text[:1] == "-" else value


class _CoprimeParts:
    """Parts in lowest terms with a positive denominator.  Registered as a
    numbers.Rational, whose parts are in lowest terms by contract, so that
    Fraction(r) copies them as they are, with no gcd."""

    __slots__ = ("numerator", "denominator")

    def __init__(self, numerator: int, denominator: int):
        self.numerator, self.denominator = numerator, denominator


numbers.Rational.register(_CoprimeParts)


def coprime_fraction(num: int | Decimal, den: int | Decimal) -> Fraction | RationalParts:
    """num/den as a Fraction, built with no gcd: the caller vouches that
    gcd(num, den) == 1.  The sign may sit on either part.  Decimal parts
    stay Decimals, in RationalParts with the sign moved to the numerator:
    a Fraction would need int() of them."""
    if den == 0:
        raise DomainError("zero denominator")
    if den < 0:
        num, den = _negated(num), _negated(den)
    if isinstance(num, Decimal) or isinstance(den, Decimal):
        return RationalParts(num, den)
    return Fraction(_CoprimeParts(num, den))


@dataclass(frozen=True, slots=True)
class RationalParts:
    """An exact rational kept as the integer parts it was written with, not
    reduced, so that reading it takes no gcd.  Like an int or a Fraction it
    is read through ``numerator`` and ``denominator``; the sign sits on the
    numerator.  The parts are ints or integral Decimals of exponent 0."""

    numerator: int | Decimal
    denominator: int | Decimal

    def __post_init__(self):
        if self.denominator <= 0:
            raise DomainError(f"denominator must be positive, got {self.denominator}")


def reciprocal(value: Fraction | int | RationalParts) -> RationalParts:
    """1/value from its parts, with no gcd: the parts swap places and the
    sign stays on the numerator."""
    num, den = value.numerator, value.denominator
    if num == 0:
        raise DomainError("reciprocal of zero")
    return RationalParts(den if num > 0 else _negated(den), _part_abs(num))


def format_rational(value: Fraction | RationalParts) -> str:
    """Render as num/den with the sign on the numerator, den always shown."""
    return "/".join(str(_as_decimal(part)) for part in (value.numerator, value.denominator))


def parse_rational_parts(text: str) -> tuple:
    """(num, den) of ``[+-]num[/den]`` as written, unreduced.  The sign
    belongs to the numerator only; a signed or zero denominator is rejected.
    A digit is any Unicode decimal digit, not isdigit's "²"; ASCII text is
    checked as bytes, 7 times faster than by str.isdecimal.  The parts are
    always integral Decimals, made by Decimal(text), which is exact in any
    context, in one linear pass, to combine only under _EXACT.  A refusal
    quotes at most the line's first 40 characters, and gives its length and
    its first bad character: a bad line of a u2 file may hold a million
    digits."""
    line = text.strip()
    num, slash, den = line.partition("/")
    for part in (num[1:] if num[:1] in "+-" else num, den if slash else "1"):
        if not (part.encode("ascii").isdigit() if part.isascii() else part.isdecimal()):
            # the longest prefix a literal can begin with; re's \d is isdecimal's Nd
            end = re.match(r"[+-]?(?:\d+(?:/\d*)?)?", line).end()
            fault = f"first bad character at {end + 1}" if end < len(line) else "unfinished"
            raise FormulaParseError(f"not a rational literal: {_quoted(line)} "
                                    f"(length {len(line)}, {fault})")
    num, den = Decimal(num), Decimal(den or "1")
    if den == 0:
        raise FormulaParseError(f"zero denominator: {_quoted(line)}")
    return num, den


def _quoted(text: str) -> str:
    """repr of text's first 40 characters, "..." after it when it is longer."""
    return repr(text[:40]) + ("..." if len(text) > 40 else "")


def parsed_lines(path, parse):
    """``parse(line)`` for each stripped line of an ASCII input file that
    is neither blank nor a '#' comment, in order.  A non-ASCII byte, or a
    FormulaParseError from ``parse``, is raised with the line's number."""
    # latin-1 decodes every byte, so a bad one is found on its own line
    with open(path, "r", encoding="latin-1") as fh:
        for lineno, raw in enumerate(fh, start=1):
            if not raw.isascii():
                byte = next(c for c in raw if not c.isascii())
                raise FormulaParseError(f"non-ASCII byte 0x{ord(byte):02x}; input files "
                                        f"are ASCII", line=lineno)
            line = raw.strip()
            if line and not line.startswith("#"):
                try:
                    yield parse(line)
                except FormulaParseError as exc:
                    raise FormulaParseError(str(exc), line=lineno) from None


def _write_lines(path, lines) -> None:
    """``lines`` to ``path`` in ASCII, each ended by "\n" on every platform."""
    with open(path, "w", encoding="ascii", newline="\n") as fh:
        fh.writelines(line + "\n" for line in lines)


# The memory ceiling of every exact computation, which even allow_huge does
# not lift.
_MEMORY_BUDGET = 6 * 2**30


def _refuse_past_budget(what: str, part_bits: int, peak_bytes_per_part_byte: int) -> None:
    """Raise DomainError, before any work, when parts of about ``part_bits``
    bits at the caller's measured peak RSS per byte of them would pass
    _MEMORY_BUDGET; ``what`` opens the message."""
    peak = part_bits // 8 * peak_bytes_per_part_byte
    if peak > _MEMORY_BUDGET:
        # a width past a float's range is named as inf, not raised as OverflowError
        bits, gib = ((part_bits, peak / 2**30) if part_bits < 2**1000
                     else (float("inf"), float("inf")))
        raise DomainError(
            f"{what} of about {bits:.2e} bits, an estimated {gib:.3g} GiB "
            f"at peak, past the {_MEMORY_BUDGET // 2**30} GiB memory budget")


def complex_mul(a, b):
    """(re, im) product; works for any field-like component type."""
    return (a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0])
