"""Exact complex squaring on the unit circle and the closing cotangent u2.

z(1) = (u1 + i)/(u1 - i) has modulus 1 and rational parts.  Squaring it
k-1 times lands on z(k) = x(k) + i*y(k), still rational and still on the
unit circle, and the closing cotangent of the two-term identity is
u2 = x(k)/(1 - y(k)).  Everything here is exact; no rounding ever enters.

One integer loop, shared_parts, runs the chain: state_at reads it as
Fractions and closing_parts holds the one closing rule, whose coprime
parts u2_of turns into a Fraction with no gcd.  init_state and
square_step are the plain Fraction reference it is tested against.
"""

from __future__ import annotations

from fractions import Fraction
from typing import NamedTuple

from .errors import ConsistencyError, DegenerateFormulaError, DomainError, FormulaParseError
from .exactmath import (
    complex_add, complex_div, complex_mul, coprime_fraction, format_rational,
    parse_rational_parts, parsed_lines)

# Above this depth the shared-denominator integers pass a million digits
# (they double per step).  No gcd is taken on u2's parts, so the chain's
# products and the text conversion set the cost, about 2.5 times more per
# step: generate took 12 s and verify 22 s at k = 20 (2 vCPUs, Python 3.11).
DESK_SCALE_MAX_K = 20

# Deepest k verify runs the naive direct oracle at; its cost grows about
# fourfold per step (32 ms at k = 12, 0.14 s at k = 13, 2 vCPUs, Python 3.11).
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


def _check_depth(k: int, allow_huge: bool, least: int = 1) -> None:
    if k < least:
        raise DomainError(f"k must be >= {least}, got {k}")
    if k > DESK_SCALE_MAX_K and not allow_huge:
        raise DomainError(
            f"k={k} exceeds the desk-scale cap of {DESK_SCALE_MAX_K}: the iteration "
            f"integers double per step, reaching millions of digits past k=20 (pass "
            f"allow_huge=True, as in u2_of(u1, k, allow_huge=True), to proceed anyway)")


def shared_parts(u1: Fraction | int, k: int, allow_huge: bool = False) -> tuple[int, int, int]:
    """Integer fast path: (X, Y, D) with x(k) = X/D and y(k) = Y/D.

    The squaring step maps (X, Y, D) to ((X-Y)(X+Y), 2XY, D*D), so one
    denominator serves both parts and no per-step gcd is ever taken.
    The triple is unreduced apart from the single common factor the
    initial state sheds (2 for odd integer u1).
    """
    _check_depth(k, allow_huge)
    start = init_state(u1)
    # like every rational point of the unit circle, z(1) has one reduced denominator
    x, y, d = start.x.numerator, start.y.numerator, start.x.denominator
    for _ in range(k - 1):
        x, y = (x - y) * (x + y), 2 * x * y
        d *= d
    return x, y, d


def state_at(u1: Fraction | int, k: int, allow_huge: bool = False) -> ComplexRationalState:
    """z(k), z(1) raised to the 2**(k-1): the integer chain read as Fractions."""
    x, y, d = shared_parts(u1, k, allow_huge)
    return ComplexRationalState(n=k, x=Fraction(x, d), y=Fraction(y, d))


def closing_parts(u1: Fraction | int, k: int, allow_huge: bool = False) -> tuple[int, int, int]:
    """(A + B, A - B, D) with z(k-1) = (A + iB)/D, one squaring short of k.

    The last squaring gives x(k) = (A - B)(A + B)/D^2 and, as A^2 + B^2 = D^2,
    1 - y(k) = (A - B)^2/D^2.  So u2 = (A + B)/(A - B): the enormous common
    factor A - B cancels by algebra, not by a gcd.  A and B are coprime with
    opposite parity, so the parts are coprime, and (A + B)^2 + (A - B)^2 = 2D^2.
    The sign of u2 may sit on either part.
    """
    _check_depth(k, allow_huge, least=2)
    a, b, d = shared_parts(u1, k - 1, allow_huge)
    if a == b:
        raise DegenerateFormulaError("y(k) = 1 leaves the closing cotangent undefined")
    return a + b, a - b, d


def u2_of(u1: Fraction | int, k: int, allow_huge: bool = False) -> Fraction:
    """The closing cotangent in lowest terms, built with no gcd: the parts
    closing_parts returns are coprime by proof."""
    num, den, _ = closing_parts(u1, k, allow_huge)
    return coprime_fraction(num, den)


def u2_direct_oracle(u1: Fraction | int, k: int, max_k: int = ORACLE_MAX_K) -> Fraction:
    """u2 straight from its definition, with none of the iteration's
    structure: generic complex rational arithmetic squares
    z = (u1 + i)/(u1 - i) and the arctangent argument 2/(z + i) + i is
    inverted.  Deliberately naive, hence the depth limit.

    The imaginary part must cancel to exactly zero; anything else means
    the two routes do not describe the same number.
    """
    u1 = Fraction(u1)
    if u1 <= 1:
        raise DomainError(f"u1 must exceed 1, got {u1}")
    if not 2 <= k <= max_k:
        raise DomainError(f"oracle depth k={k} outside [2, {max_k}]")
    one, zero = Fraction(1), Fraction(0)
    z = complex_div((u1, one), (u1, -one))
    for _ in range(k - 1):
        z = complex_mul(z, z)
    arg = complex_add(complex_div((Fraction(2), zero), complex_add(z, (zero, one))), (zero, one))
    if arg[1] != 0:
        raise ConsistencyError(f"imaginary residue {arg[1]} in the closing arctangent argument")
    if arg[0] == 0:
        raise DegenerateFormulaError("closing arctangent argument vanished")
    return 1 / arg[0]


def write_fraction_file(path, value: Fraction) -> None:
    """One line, ``[-]num/den`` in ASCII decimal, newline terminated."""
    with open(path, "w", encoding="ascii") as fh:
        fh.write(format_rational(value) + "\n")


def read_fraction_parts(path) -> tuple[int, int]:
    """A fraction file's (num, den) as written, unreduced, with no gcd.

    Tolerates '#' comment lines, blank lines and a bare integer, but
    exactly one value line must remain.
    """
    values = list(parsed_lines(path, parse_rational_parts))
    if len(values) != 1:
        raise FormulaParseError(f"expected exactly one fraction line, found {len(values)}")
    return values[0]
