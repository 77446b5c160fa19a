"""Closed-form trigonometric cross-checks for generated pairs.

The pair's definition, pi/4 = 2^(k-1) atan(1/u1) + atan(1/u2), makes the
closing cotangent cot(pi/4 - 2^(k-1) atan(1/u1)).  Evaluating that in plain
decimal trigonometry and comparing against the exact rational from the
squaring chain catches errors in either path.  The trigonometry shares the
Maclaurin loop and reference pi with series and never touches the
squaring chain: dec_sin_cos sums a sine's Taylor series on the reduced
angle halved about sqrt(0.83 W) times, for W working digits, and
doubles back with its own loop.
verify_k reads generate's chain through squaring.closing_parts, Decimal
parts and all, squares them for the unit circle under exactmath._EXACT,
and checks the pair's identity through formulas.validate_formula, the
check generate runs.  u2_trig has no other caller: measure past the
desk-scale cap reads u2 from squaring.rounded_u2, so the closed form stays
verify's independent check.
"""

from __future__ import annotations

import math
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import NamedTuple

from .errors import DomainError, PrecisionError
from .exactmath import (
    _EXACT,
    _as_decimal,
    coinciding_digits,
    coprime_fraction,
    digits_prefix,
    fraction_to_decimal,
    guard_digits,
    int_digit_count,
    round_sig,
    working_context,
)
from . import formulas, series, squaring
from .radical import u1_of_k


def dec_arctan(x: Decimal | Fraction, precision: int) -> Decimal:
    """Arctangent of any exact rational, Decimal or Fraction, summed by
    series._maclaurin_scaled.

    x is read as its exact ratio p/q, which atan(x) = pi/2 - atan(1/x) and
    atan(x) = pi/4 - atan((1 - x)/(1 + x)) bring to at most 1/2.  There
    r = 1/(1 - x^2) <= 4/3 and at most J < 1.7 D + 1 terms survive at scale
    10**D, so the loop's stated drift, J (1 + r) + r^2 units of 10**-D, is
    under 4 D + 5 units.  The result is at least min(0.9 |x|, 0.4), and
    |x| > 10**-n with n = len(q) - len(p) + 1 (decimal digits), never below
    a Decimal's -x.adjusted(), so at D = work + 10 + max(n, 0) that drift
    is at most (4 D + 5) * 10**-10 of the last working digit.
    """
    if isinstance(x, Decimal) and not x.is_finite():
        raise DomainError(f"cannot take the arctangent of {x}")
    if x == 0:
        return Decimal(0)
    work = precision + guard_digits()
    p, q = x.as_integer_ratio()
    p = abs(p)
    places = work + 10 + max(int_digit_count(q) - int_digit_count(p) + 1, 0)
    flip, shift = p > q, False
    if flip:
        p, q = q, p
    if 2 * p > q:
        shift, p, q = True, q - p, q + p
    scaled = series._maclaurin_scaled(p, q, 10**places)
    with working_context(work):
        total = _as_decimal(scaled).scaleb(-places)
        if flip or shift:
            pi = series.reference_pi(work)
            if shift:
                total = pi / 4 - total
            if flip:
                total = pi / 2 - total
    return round_sig(total if x > 0 else total.copy_negate(), precision)


def dec_sin_cos(theta: Decimal, precision: int) -> tuple[Decimal, Decimal]:
    """(sin, cos) of a Decimal angle, range-reduced against the reference pi
    and halved s times.

    The reduction runs at precision + 2*log10|theta| extra digits so a
    large angle (2^(k-1) arctangents get large fast) still leaves a
    full-precision remainder r in [-pi, pi].  With W = precision + guard
    digits and s = max(floor(sqrt(3.322 W)) // 2, 2), sin x for
    x = r/2**s is summed by Taylor at W' = W + s + 10 digits, cos x is
    sqrt(1 - sin^2 x), as |x| <= pi/4, and s double-angle steps,
    sin 2x = 2 sin x cos x and cos 2x = 2 cos^2 x - 1, bring them back to
    r.  Each term is at least 2s - 4 bits below the last, so the sum takes
    about 1.7 W'/(s - 2) terms, for 2s products in the doublings.  Against
    s at 0.25 to 1.4 times sqrt(3.322 W), this rule's time was within
    1 % of the best from 100 to 30,000 digits; at 10,000 digits the
    halved pair took 0.28 s against 3.1 s summed unhalved (best of 3,
    2 vCPUs, Python 3.11).

    The extra digits.  Let u = 10**(1 - W').  The J terms add to under 1
    and carry under J roundings each, so sin x is off by under 2 J u, and
    cos x, whose square root has a slope under 0.71 as cos x > 0.7, by
    under 3 J u + 2 u.  If sin and cos are each off by at most E, a
    doubling leaves them off by at most 2 (|cos| + |sin|) E and
    4 |cos| E, both under 4 E, plus its own roundings, under 3 u: each
    doubling at most quadruples the error, so the s of them cost under
    0.61 s digits, which the s extra digits pay.  The error is then under
    4**s 6 J u = 10**(log10(6 J) - 0.398 s - W - 9), below 10**-(W + 5)
    while J < 1600 * 10**(0.398 s); J stays near 2 s (804 terms at
    W = 200,000, s = 407).  An error in r moves the result by no more
    than itself, and r/2**s is rounded once, at W'.
    """
    if not theta.is_finite():
        raise DomainError(f"cannot take the sine and cosine of {theta}")
    work = precision + guard_digits()
    mag = max(theta.adjusted() + 1, 0) if theta != 0 else 0
    big = work + 2 * mag + 5
    with working_context(big):
        two_pi = 2 * series.reference_pi(big)
        q = (theta / two_pi).to_integral_value(rounding="ROUND_HALF_EVEN")
        r = theta - q * two_pi
    halvings = max(math.isqrt(3322 * work // 1000) // 2, 2)
    wide = work + halvings + 10
    with working_context(wide):
        x = r / 2**halvings
        xsq = x * x
        limit = Decimal(1).scaleb(-wide)
        # x - x^3/3! + x^5/5! - ..., through the first term below the limit
        sin_x, term, n = x, x, 1
        while abs(term) >= limit:
            term = -term * xsq / ((n + 1) * (n + 2))
            sin_x += term
            n += 2
        cos_x = (1 - sin_x * sin_x).sqrt()
        for _ in range(halvings):
            sin_x, cos_x = 2 * sin_x * cos_x, 2 * cos_x * cos_x - 1
    return round_sig(sin_x, precision), round_sig(cos_x, precision)


def u2_trig(u1: int, k: int, precision: int) -> Decimal:
    """The closing cotangent cot(theta), theta = pi/4 - 2^(k-1) atan(1/u1),
    by closed-form trigonometry, to ``precision`` significant digits.

    An error e in theta moves cot(theta) by under pi e/(2d) relative, to first
    order, d being theta's distance from a multiple of pi/2.  With T = precision
    + G + 5 (G guard digits) and 10**m > 2^(k-1), angle(L) reads atan(1/u1) to
    T + L + m + 2 digits, off by 0.4 * 10**-(T + L + 1) once times 2^(k-1), and
    pi and the reduction 3 digits wider: theta mod pi and d are within
    10**-(T + L + 1).  At L = 20, the ladder's loss through k = 64, d is known
    to a tenth unless it vanishes below 10**-(T + 20); L = -d.adjusted() bounds
    pi/(2d) by 2 * 10**L, and L > 20 takes theta again.  dec_sin_cos at T + L
    digits errs by under 10**-(T + L + 5), |sin| and |cos| exceed 10**-L/2, and
    with the roundings to T + L digits u2 is within 2 * 10**-T relative.
    """
    if u1 <= 1:
        raise DomainError(f"u1 must be > 1, got {u1}")
    if k < 1:
        raise DomainError(f"k must be >= 1, got {k}")
    if precision < 5:
        raise DomainError(f"precision must be >= 5, got {precision}")
    target, m = precision + guard_digits() + 5, (k - 1) * 30103 // 100000 + 1

    def angle(loss: int) -> tuple[Decimal, Decimal]:
        places = target + loss + m + 5
        with working_context(places):
            pi = series.reference_pi(places)
            theta = pi / 4 - 2 ** (k - 1) * dec_arctan(1 / Fraction(u1), places - 3)
            theta -= (theta / pi).to_integral_value() * pi
            return theta, min(abs(theta), pi / 2 - abs(theta))

    theta, distance = angle(20)
    if distance < Decimal(1).scaleb(-target - 20):
        raise PrecisionError(f"theta is within 10**-{target + 20} of a multiple of pi/2")
    loss = -distance.adjusted()
    if loss > 20:
        theta, _ = angle(loss)
    sin_theta, cos_theta = dec_sin_cos(theta, target + loss)
    with working_context(target + loss):
        u2 = round_sig(cos_theta / sin_theta, precision)
        return u2.quantize(Decimal(1).scaleb(u2.adjusted() + 1 - precision))  # -7 as -7.000...


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
        """Every field in declaration order, Decimals as strings written by
        exactmath._EXACT, whatever the caller's capitals."""
        return {name: _EXACT.to_sci_string(v) if isinstance(v, Decimal) else v
                for name, v in self._asdict().items()}


def verify_k(k: int, precision: int = 60, allow_huge: bool = False) -> TrigCheckResult:
    """Run every independent check on the pair generated at k.

    squaring.closing_parts runs generate's chain once, to (A + B, A - B)
    from the state (A + iB)/D at k - 1: ints through k = 12, and from
    k = 13 Decimals throughout.
    Checks: (A + B)^2 + (A - B)^2 == 2D^2, under exactmath._EXACT with D
    from a closed form the chain never touches, is the unit circle
    A^2 + B^2 == D^2 there (equivalent to the check at k), tested as
    (2B)^2 == (2D - 2A)(2D + 2A); the trig closed
    form agrees with u2 = (A + B)/(A - B) to precision - 1 significant
    digits, precision - 2 - u2.adjusted() places (u2_trig proves its own); up
    to ORACLE_MAX_K the direct oracle's parts equal u2's; and
    pi = 4*(2^(k-1) atan(1/u1) + atan(1/u2)) passes
    formulas.validate_formula, the check generate runs.
    """
    u1 = u1_of_k(k)  # refuses k outside 2..MAX_LADDER_K
    num, den = squaring.closing_parts(u1, k, allow_huge)
    with localcontext(_EXACT):
        # num^2 + den^2 == 2D^2 iff (num - den)^2 == 4D^2 - (num + den)^2:
        # one squaring and one product where the sum of squares takes three
        twice_d, total = 2 * squaring._denominator(u1, k - 1), num + den
        unit_exact = (num - den) ** 2 == (twice_d - total) * (twice_d + total)
    exact_u2 = coprime_fraction(num, den)    # coprime by proof, as in u2_of

    trig = u2_trig(u1, k, precision)
    exact_dec = fraction_to_decimal(exact_u2, precision + 10)
    agreement = coinciding_digits(trig, exact_dec)
    required = precision - 2 - exact_dec.adjusted()

    oracle_matched = None
    if k <= squaring.ORACLE_MAX_K:
        # both in lowest terms with the sign on the numerator: equal parts
        oracle = squaring.u2_direct_oracle(u1, k)
        oracle_matched = (oracle.numerator == exact_u2.numerator
                          and oracle.denominator == exact_u2.denominator)

    identity = formulas.validate_formula(formulas.two_term_formula(k, exact_u2, u1), precision)

    leading = digits_prefix(exact_dec, 20)
    if exact_u2.numerator < 0:
        leading = "-" + leading
    ok = (unit_exact and agreement >= required
          and oracle_matched is not False and identity.valid)
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
        identity_residual=identity.residual.copy_abs(),
        identity_threshold=identity.threshold,
        precision=precision,
        ok=ok,
    )
