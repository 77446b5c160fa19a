"""Closed-form trigonometric cross-checks for generated pairs.

With phi = 2^(k-1) * atan(2*u1/(u1^2 - 1)), the closing cotangent is
exactly cos(phi)/(1 - sin(phi)).  Evaluating that in plain decimal
trigonometry and comparing against the exact rational from the squaring
chain catches errors in either path; the two computations share nothing
but the integer u1.  The exact (sin phi, cos phi) is state_at's (y, x),
and verify_k reads the chain through squaring.closing_parts.

The 1 - sin(phi) denominator is brutally ill-conditioned on purpose:
sin(phi) approaches 1 like 2/u2^2, so roughly 2*log10|u2| digits die in
the subtraction.  u2_trig measures the loss and retries with a wider
working precision until the requested digits survive.
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, PrecisionError
from .exactmath import (
    coinciding_digits,
    coprime_fraction,
    digits_prefix,
    fraction_to_decimal,
    guard_digits,
    int_digit_count,
    round_sig,
    working_context,
)
from . import series, squaring
from .radical import u1_of_k


def dec_arctan(x: Decimal, precision: int) -> Decimal:
    """Arctangent of a Decimal by argument halving plus Maclaurin.

    |x| > 1 goes through atan(x) = pi/2 - atan(1/x); the remaining
    argument is halved via x -> x/(1 + sqrt(1 + x^2)) until |x| <= 0.1,
    where the alternating series loses nothing to cancellation.
    """
    work = precision + guard_digits()
    with working_context(work):
        x = +x
        if x == 0:
            return Decimal(0)
        sign = 1
        if x < 0:
            sign, x = -1, -x
        flip = False
        if x > 1:
            flip, x = True, 1 / x
        halvings = 0
        while x > Decimal("0.1"):
            x = x / (1 + (1 + x * x).sqrt())
            halvings += 1
        xsq = x * x
        power = x
        total = Decimal(0)
        n = 1
        limit = Decimal(1).scaleb(-work - 5)
        while True:
            term = power / n
            total = total + term if n % 4 == 1 else total - term
            if term < limit:
                break
            power *= xsq
            n += 2
        total *= Decimal(2) ** halvings
        if flip:
            total = series.reference_pi(work) / 2 - total
        result = sign * total
    return round_sig(result, precision)


def dec_sin_cos(theta: Decimal, precision: int) -> tuple[Decimal, Decimal]:
    """(sin, cos) of a Decimal angle, range-reduced against the reference pi.

    The reduction runs at precision + 2*log10|theta| extra digits so a
    large angle (2^(k-1) arctangents get large fast) still leaves a
    full-precision remainder.
    """
    work = precision + guard_digits()
    mag = max(theta.adjusted() + 1, 0) if theta != 0 else 0
    big = work + 2 * mag + 5
    with working_context(big):
        two_pi = 2 * series.reference_pi(big)
        q = (theta / two_pi).to_integral_value(rounding="ROUND_FLOOR")
        r = theta - q * two_pi
    with working_context(work):
        r = +r
        xsq = r * r
        limit = Decimal(1).scaleb(-work - 5)
        totals = []
        # sin: r - r^3/3! + ..., then cos: 1 - r^2/2! + ...
        for term, first in ((r, 1), (Decimal(1), 0)):
            total = Decimal(0)
            n = first
            while True:
                total = total + term if n % 4 == first else total - term
                if abs(term) < limit:
                    break
                term = term * xsq / ((n + 1) * (n + 2))
                n += 2
            totals.append(total)
    sin_total, cos_total = totals
    return round_sig(sin_total, precision), round_sig(cos_total, precision)


def u2_trig(u1: int, k: int, precision: int) -> Decimal:
    """The closing cotangent by closed-form trigonometry.

    Returns cos(phi)/(1 - sin(phi)) to ``precision`` significant digits,
    phi = 2^(k-1) * atan(2*u1/(u1^2 - 1)).  If the denominator vanishes
    below 10**-precision at the widest attempted working precision the
    pair is degenerate for this precision and PrecisionError is raised.
    """
    if u1 <= 1:
        raise DomainError(f"u1 must be > 1, got {u1}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if precision < 5:
        raise DomainError(f"precision must be >= 5, got {precision}")
    arg = Fraction(2 * u1, u1 * u1 - 1)
    cushion = 2 * k + 40
    for _ in range(7):
        work = precision + k + cushion + guard_digits()
        arg_d = fraction_to_decimal(arg, work)
        with working_context(work):
            phi = Decimal(2) ** (k - 1) * dec_arctan(arg_d, work)
            sin_phi, cos_phi = dec_sin_cos(phi, work)
            denom = 1 - sin_phi
            if denom == 0:
                loss = work
            else:
                if abs(denom) < Decimal(1).scaleb(-precision):
                    raise PrecisionError(
                        f"1 - sin(phi) is below 10**-{precision}; "
                        f"the pair is degenerate at this precision")
                loss = -denom.adjusted()
                if work - loss >= precision + guard_digits():
                    result = cos_phi / denom
                    return round_sig(result, precision)
        cushion = loss + precision + 20
    raise PrecisionError(
        f"cancellation in 1 - sin(phi) kept outrunning the working "
        f"precision for u1={u1}, k={k}")


class TrigCheckResult(NamedTuple):
    """Everything verify_k measured for one k."""

    k: int
    u1: int
    u2_num_digits: int
    u2_den_digits: int
    u2_leading: str
    agreement_digits: int
    required_digits: int
    unit_circle_exact: bool
    oracle_matched: bool | None
    identity_residual: Decimal
    identity_threshold: Decimal
    precision: int
    ok: bool

    def to_json_dict(self) -> dict:
        """Every field in declaration order, Decimals as strings."""
        return {name: str(v) if isinstance(v, Decimal) else v
                for name, v in self._asdict().items()}


def verify_k(k: int, precision: int = 60, allow_huge: bool = False) -> TrigCheckResult:
    """Run every independent check on the pair generated at k.

    squaring.closing_parts runs the chain once, to (A + B, A - B, D) from
    the state (A + iB)/D at k - 1.  Checks: (A + B)^2 + (A - B)^2 == 2D^2,
    which is the unit circle A^2 + B^2 == D^2 there (equivalent to the
    check at k); the trig closed form agrees with the exact
    u2 = (A + B)/(A - B) to at least precision - k - 10 digits; up to
    ORACLE_MAX_K the direct complex-rational oracle reproduces it term for
    term; and the assembled identity 4*(2^(k-1) atan(1/u1) + atan(1/u2))
    lands on the reference pi to within 10**-(precision-5).
    """
    u1 = u1_of_k(k)  # refuses k outside 2..MAX_LADDER_K
    num, den, d = squaring.closing_parts(u1, k, allow_huge)
    unit_exact = num * num + den * den == 2 * d * d
    exact_u2 = coprime_fraction(num, den)    # coprime by proof, as in u2_of

    trig = u2_trig(u1, k, precision)
    exact_dec = fraction_to_decimal(exact_u2, precision + 10)
    agreement = coinciding_digits(trig, exact_dec)
    required = precision - k - 10

    oracle_matched = None
    if k <= squaring.ORACLE_MAX_K:
        oracle_matched = squaring.u2_direct_oracle(u1, k) == exact_u2

    # 4*(2^(k-1) atan(1/u1) + atan(1/u2)), the coefficients taken times 4
    total = series.arctan_sum(((2 ** (k + 1), u1), (4, exact_u2)), precision)
    work = precision + guard_digits()
    with working_context(work):
        residual = abs(total - series.reference_pi(work))
    threshold = Decimal(1).scaleb(-(precision - 5))

    leading = digits_prefix(exact_dec, 20)
    if exact_u2 < 0:
        leading = "-" + leading
    ok = (unit_exact and agreement >= required
          and oracle_matched is not False and residual < threshold)
    return TrigCheckResult(
        k=k,
        u1=u1,
        u2_num_digits=int_digit_count(exact_u2.numerator),
        u2_den_digits=int_digit_count(exact_u2.denominator),
        u2_leading=leading,
        agreement_digits=agreement,
        required_digits=required,
        unit_circle_exact=unit_exact,
        oracle_matched=oracle_matched,
        identity_residual=round_sig(residual, 10) if residual != 0 else Decimal(0),
        identity_threshold=threshold,
        precision=precision,
        ok=ok,
    )
