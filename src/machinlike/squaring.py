"""Exact complex squaring on the unit circle and the closing cotangent u2.

z(1) = (u1 + i)/(u1 - i) has modulus 1 and rational parts.  Squaring it
k-1 times lands on z(k) = x(k) + i*y(k), still rational and still on the
unit circle, and the closing cotangent of the two-term identity is
u2 = x(k)/(1 - y(k)).  Everything here is exact but rounded_u2.

One exact chain, shared_parts, squares z's two integer numerators under
an exact Decimal context.  Their kind is fixed once, before the first
step, by _ends_in_decimal, from the width the final parts reach: a chain
that ends within _INT_CHAIN_BITS runs in ints, where Python's multiply is
2-7 times faster than libmpdec's, and a longer one runs in Decimal, where
libmpdec's number-theoretic multiply pays off over the chain and a part
prints and parses in one linear pass.  A step whose factors sit in
libmpdec's schoolbook band pads them past it (_product).
No loop squares their common denominator D, z(1)'s reduced denominator to
the 2**(k-1); _denominator gives it, of the parts' kind by the same rule,
where a value needs it.
closing_parts holds the one closing rule.  generate, verify and
formulas.two_term_formula read its parts as they are; state_at and u2_of
read them as Fractions, with no gcd on u2's coprime parts.  generate
writes its u2 file with str, which compute-pi --u2-file reads back as
Decimals.  init_state and square_step are the plain Fraction reference.

Past the desk-scale cap, measure needs u2 only to its first digits.
rounded_u2 runs the same squaring step in its own loop under a rounding
context of W digits, on z(1)'s unit-modulus parts, closes with the same
(A + B)/(A - B), and refuses, with PrecisionError, a W that the closing
subtraction leaves too few correct digits of.  u2_direct_oracle, verify's
check on the chain, shares none of its code: it doubles a tangent on two
coprime ints, which halving alone keeps in lowest terms, with no gcd.
"""

from __future__ import annotations

import operator
from decimal import MAX_PREC, Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, FormulaParseError, PrecisionError
from .exactmath import (
    _EXACT, RationalParts, _as_decimal, _as_int, _refuse_past_budget, _write_lines,
    coprime_fraction, format_rational, parse_rational_parts, parsed_lines, working_context)

# Above this depth the chain's integers pass a million digits (they
# double per step).  No gcd is taken on u2's parts, so the Decimal chain
# sets the cost, about 2 times more per step: at k = 20 generate took
# 0.60 s, compute-pi --u2-file 0.14 s and verify, which squares the parts
# once more for its unit-circle check, 1.3 s (2 vCPUs, Python 3.11).
DESK_SCALE_MAX_K = 20

# A chain whose final parts stay within this many bits runs in ints, and
# a longer one in Decimal, each from its first step.  One squaring, best
# of three medians of 25, ms, int against Decimal under _EXACT (2 vCPUs,
# Python 3.11): 0.0043/0.0121 at 2,048 bits, 0.048/0.339 at 11,000 (in
# the schoolbook band below, padded past it 0.16), 0.147/0.306 at 22,000,
# 0.305/0.557 at 32,768, 0.545/0.585 at 47,000 and 2.84/2.49 at 131,072.
# The bound sits between the ladder's closing parts at k = 12 (22.2k bits)
# and k = 13 (48.5k), so verify and compute-pi --k through k = 12 square,
# check the unit circle and read u2 on ints, and generate from k = 13 on
# squares, prints and parses Decimals; at k = 12 generate pays about 1 ms
# more to print its int parts through _as_decimal.
_INT_CHAIN_BITS = 32768

# libmpdec multiplies schoolbook while the shorter factor has at most 256
# words of 19 digits (9 on 32-bit builds, where this band is empty), and by
# Karatsuba or a number-theoretic transform past that.  One multiply of two
# n-digit factors, ms, as they are against padded to 4,865 digits, best of 7
# (2 vCPUs, Python 3.11): 0.098/0.156 at n = 2,000, 0.153/0.157 at 2,500,
# 0.192/0.162 at 2,700, 0.303/0.158 at 3,500 and 0.583/0.163 at 4,864.
_SCHOOLBOOK_DIGITS = 256 * (19 if MAX_PREC > 425_000_000 else 9)
_PADDED_DIGITS = 2700

# Deepest k verify runs the direct oracle at; its cost grows about fourfold
# per step (best of 5 on the ladder's u1: 0.18 ms at k = 12, 0.62 ms at
# k = 13, 2.3 ms at k = 14; 2 vCPUs, Python 3.11).  A deeper limit would
# change verify's oracle_matched at those k from null to true.
ORACLE_MAX_K = 12


class ComplexRationalState(NamedTuple):
    """z(n) = x + i*y after n-1 exact squarings; x*x + y*y == 1 always."""

    n: int
    x: Fraction
    y: Fraction


def init_state(u1: Fraction | int) -> ComplexRationalState:
    """State for n = 1: z(1) = (u1 + i)/(u1 - i) written out in parts."""
    u1 = Fraction(u1)
    if u1 <= 1:
        raise DomainError(f"u1 must exceed 1, got {u1}")
    d = u1 * u1 + 1
    return ComplexRationalState(n=1, x=(u1 * u1 - 1) / d, y=2 * u1 / d)


def square_step(state: ComplexRationalState) -> ComplexRationalState:
    x, y = state.x, state.y
    return ComplexRationalState(n=state.n + 1, x=(x - y) * (x + y), y=2 * x * y)


def shared_parts(u1: Fraction | int, k: int, allow_huge: bool = False,
                 *, _least: int = 1) -> tuple:
    """The exact chain: (X, Y) with z(k) = (X + iY)/D.

    The squaring step maps (X, Y) to ((X-Y)(X+Y), 2XY) and D to D*D, so
    no per-step gcd is ever taken, and the loop leaves D to _denominator.
    The pair is unreduced apart from the single common factor the initial
    state sheds (2 for odd integer u1).  k past the desk-scale cap is
    refused without allow_huge.  closing_parts passes _least=2: the chain
    stops at z(k-1), and k below 2 is refused.  Every message names k.

    The loop runs under exactmath._EXACT (prec=MAX_PREC, Inexact
    trapped).  The parts keep one kind from the first step to the last.
    When the model's size of D, below, will end past _INT_CHAIN_BITS
    (_ends_in_decimal), z(1)'s numerators become integral Decimals before
    the first step, and _product multiplies them; otherwise they stay ints.
    A caller combines Decimal parts only under _EXACT: the default context
    rounds them to 28 digits, or overflows.

    The parts at depth n have about bits(z(1)'s denominator) * 2**(n-1)
    bits.  generate's peak RSS above the interpreter's, on its Decimal
    chain, was 15-17 bytes per byte of one such part (k = 17..22, chains
    to depth 16..21: 1.9/4.4/9.6/20.5/41.8/86.4 MiB over a 16.5 MiB base;
    2 vCPUs, Python 3.11), and verify's, with its unit-circle check,
    15-17 (k = 17..20: 2.1/4.5/9.4/18.6 MiB over 16.6 MiB); the model
    takes 19.  A chain whose estimate passes exactmath's 6 GiB memory
    budget raises DomainError before it starts, with or without allow_huge.
    On the ladder's u1 that admits the pair through k = 27 (an estimated
    3.9 GiB) and refuses it from k = 28 (8.2 GiB).
    """
    if k < _least:
        raise DomainError(f"k must be >= {_least}, got {k}")
    if k > DESK_SCALE_MAX_K and not allow_huge:
        raise DomainError(
            f"k={k} exceeds the desk-scale cap of {DESK_SCALE_MAX_K}: the iteration "
            f"integers double per step, reaching millions of digits past k=20 (pass "
            f"allow_huge=True, as in u2_of(u1, k, allow_huge=True), to proceed anyway)")
    start = init_state(u1)
    # like every rational point of the unit circle, z(1) has one reduced denominator
    bits = start.x.denominator.bit_length()
    _refuse_past_budget(f"k={k} needs squaring-chain parts", bits << (k - _least), 19)
    x, y = start.x.numerator, start.y.numerator
    if _ends_in_decimal(bits, k - _least):
        x, y = _as_decimal(x), _as_decimal(y)
    mul = _product if isinstance(x, Decimal) else operator.mul
    with localcontext(_EXACT):
        for _ in range(k - _least):
            x, y = mul(x - y, x + y), mul(2 * x, y)
    return x, y


def _product(a: Decimal, b: Decimal) -> Decimal:
    """a * b under _EXACT.  When the shorter factor has _PADDED_DIGITS to
    _SCHOOLBOOK_DIGITS digits, both go to a negative exponent that pads it
    with zeros past the schoolbook band, and the product is quantized back
    to exponent 0; that drops only zeros, and _EXACT would trap any other."""
    short = min(a.adjusted(), b.adjusted()) + 1
    if not _PADDED_DIGITS <= short <= _SCHOOLBOOK_DIGITS:
        return a * b
    pad = Decimal(1).scaleb(short - _SCHOOLBOOK_DIGITS - 1)
    return (a.quantize(pad) * b.quantize(pad)).quantize(1)


def _ends_in_decimal(bits: int, steps: int) -> bool:
    """Whether a chain that squares parts of ``bits`` bits ``steps`` times
    runs in Decimal: when its final parts pass _INT_CHAIN_BITS."""
    return steps > 0 and bits << steps > _INT_CHAIN_BITS


def _denominator(u1: Fraction | int, k: int) -> int | Decimal:
    """shared_parts' D at k: z(1)'s reduced denominator to the 2**(k-1), of
    the kind of the chain's parts at k (an exact Decimal when they end in
    Decimal)."""
    den = init_state(u1).x.denominator
    if not _ends_in_decimal(den.bit_length(), k - 1):
        return den ** (1 << (k - 1))
    with localcontext(_EXACT) as exact:
        return exact.power(_as_decimal(den), 1 << (k - 1))


def state_at(u1: Fraction | int, k: int, allow_huge: bool = False) -> ComplexRationalState:
    """z(k), z(1) raised to the 2**(k-1): the chain's parts read as Fractions."""
    x, y = map(_as_int, shared_parts(u1, k, allow_huge))
    d = _as_int(_denominator(u1, k))
    return ComplexRationalState(n=k, x=Fraction(x, d), y=Fraction(y, d))


def closing_parts(u1: Fraction | int, k: int, allow_huge: bool = False) -> tuple:
    """(A + B, A - B) with z(k-1) = (A + iB)/D, one squaring short of k.

    The last squaring gives x(k) = (A - B)(A + B)/D^2 and, as A^2 + B^2 = D^2,
    1 - y(k) = (A - B)^2/D^2.  So u2 = (A + B)/(A - B): the enormous common
    factor A - B cancels by algebra, not by a gcd.  A and B are coprime with
    opposite parity, so the parts are coprime, and (A + B)^2 + (A - B)^2 = 2D^2.
    The sign of u2 may sit on either part.  The parts are shared_parts':
    ints, or integral Decimals to combine only under exactmath._EXACT.
    A - B cannot vanish: A = B with A^2 + B^2 = D^2 would make sqrt(2) = D/|A|.
    """
    a, b = shared_parts(u1, k, allow_huge, _least=2)
    with localcontext(_EXACT):
        return a + b, a - b


def u2_of(u1: Fraction | int, k: int, allow_huge: bool = False) -> Fraction:
    """The closing cotangent in lowest terms, built with no gcd: the parts
    closing_parts returns are coprime by proof."""
    return coprime_fraction(*map(_as_int, closing_parts(u1, k, allow_huge)))


def rounded_u2(u1: Fraction | int, k: int, precision: int, work: int | None = None) -> Decimal:
    """u2 within a relative 10**-precision, from z(1)'s unit-modulus parts
    x and y squared k - 2 times under a rounding context of W = ``work``
    digits (default precision + 2k + 20), closed as (A + B)/(A - B) under
    it.  The value keeps all W digits.  (From the integer numerators a
    rounded chain overflows even MAX_EMAX from k = 58 on the ladder's u1.)

    The bound.  One rounding errs by at most u = 10**(1 - W)/2 relative.
    z(1)'s parts, each rounded once, start within u of z(1), and |z| = 1.
    If z~ is within E of z, z~^2 is within E (2 + E) of z^2, and the step's
    roundings (three on the real part, two on the imaginary) add under
    3.01 u |z~|^2.  Over the m = k - 2 steps to z(k-1) = A + iB that keeps
    E under 4.1 * 2**m * u while that stays below 10**-2.  s = A + B and
    t = A - B, each rounded once, are then off by under sqrt(2) E + u |s|
    and sqrt(2) E + u |t|, and s/t, rounded once more, by under twice the
    sum of their relative errors and u.  With L = max(0, -s.adjusted(),
    -t.adjusted()), the digits the closing cancelled, that is under
    146 * 2**m * 10**(L - W) < 10**-(W - L - floor(0.30103 m) - 4) relative.
    Fewer than ``precision`` such digits raise PrecisionError: no value is
    returned whose digits cancelled away.  On the ladder's u1, L is about
    log10 |u2|, under 20 through k = 64, so the default W spares about
    1.7 k + 16 - L digits.  The parts stay as wide as the context, so
    neither the desk-scale cap nor the memory budget applies.
    """
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if work is None:
        work = precision + 2 * k + 20
    start = init_state(u1)
    with working_context(work):
        x, y = (_as_decimal(v.numerator) / _as_decimal(v.denominator) for v in start[1:])
        for _ in range(k - 2):
            x, y = (x - y) * (x + y), 2 * x * y
        s, t = x + y, x - y
        if s and t:
            lost = max(0, -s.adjusted(), -t.adjusted())
            if work - lost - (k - 2) * 30103 // 100000 - 4 >= precision:
                return s / t
    raise PrecisionError(
        f"the closing of u2 at k={k} cancelled too many of its {work} working digits "
        f"to leave {precision}")


def u2_direct_oracle(u1: Fraction | int, k: int) -> Fraction:
    """u2 straight from its definition, with none of the iteration's
    structure: 1/u2 = tan(pi/4 - phi) with phi = 2**(k-1) atan(1/u1), so
    t = tan(phi) by the double-angle step t -> 2t/(1 - t^2), k-1 times from
    1/u1, and u2 = (1 + t)/(1 - t).  No common denominator and no closing
    of parts.  Its cost sets the depth limit ORACLE_MAX_K.

    t = a/b is kept as two coprime ints, the sign on either.  A step maps
    it to 2ab/(b^2 - a^2) and the close to (b + a)/(b - a), and each pair
    is brought to lowest terms by halving both when both are even, so no
    gcd is taken.  That suffices: an odd prime dividing 2ab divides a or
    b, and then, dividing b^2 - a^2 or b + a or b - a, the other too.  So
    gcd(2ab, b^2 - a^2) and gcd(b + a, b - a) are powers of 2, and
    at most 2: if one of a and b is even, b^2 - a^2 and b +- a are odd;
    if both are odd, 2ab is 2 times an odd number, and b + a and b - a,
    which sum to 2b, cannot both be multiples of 4.

    Neither divisor can vanish: t = +-1 would need the t before it to be
    -1 +- sqrt(2), which is irrational, and t starts at 1/u1, in (0, 1).
    """
    u1 = Fraction(u1)
    if u1 <= 1:
        raise DomainError(f"u1 must exceed 1, got {u1}")
    if not 2 <= k <= ORACLE_MAX_K:
        raise DomainError(f"oracle depth k={k} outside [2, {ORACLE_MAX_K}]")
    a, b = u1.denominator, u1.numerator
    for _ in range(k - 1):
        a, b = 2 * a * b, (b - a) * (b + a)
        if not (a | b) & 1:
            a, b = a >> 1, b >> 1
    p, q = b + a, b - a
    if not (p | q) & 1:
        p, q = p >> 1, q >> 1
    return coprime_fraction(p, q)


def write_fraction_file(path, value: Fraction | RationalParts) -> None:
    """One line, ``[-]num/den`` in ASCII decimal, newline terminated."""
    _write_lines(path, [format_rational(value)])


def read_fraction_parts(path) -> tuple:
    """A fraction file's (num, den) as written, unreduced, with no gcd, as
    integral Decimals (parse_rational_parts).

    Tolerates '#' comment lines, blank lines and a bare integer, but
    exactly one value line must remain.
    """
    values = list(parsed_lines(path, parse_rational_parts))
    if len(values) != 1:
        raise FormulaParseError(f"expected exactly one fraction line, found {len(values)}")
    return values[0]
