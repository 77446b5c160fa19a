"""Rapidly convergent arctangent series and the pi assembly built on them.

The workhorse expansion is

    atan(x) = 2 * sum_{m>=1} (1/(2m-1)) * a_m/(a_m^2 + b_m^2),

where a_m and b_m are the imaginary and real parts of (1 + 2i/x)^(2m-1).
At x = p/q the scaled parts A_m = a_m * p^(2m-1) and B_m = b_m * p^(2m-1)
are integers obeying

    A_1 = 2q,  B_1 = p,
    A' = A*K + C*B,  B' = B*K - C*A,   K = p^2 - 4q^2,  C = 4pq,
    A^2 + B^2 = s^(2m-1),   s = p^2 + 4q^2,

so every term is an exact integer ratio and each term contributes about
log10(s/p^2) decimal digits.  One private generator runs this recurrence
for the exact truncation behind arctan_fast_exact and series_error, which
sum their terms over one common denominator and reduce once.

arctan_fast sums the series in one fixed-point integer kernel instead:
term m is -2*y_m/(2m-1) with y_m = Im w^(2m-1), w = x/(x + 2i) =
(p^2 - 2ipq)/s.  z = w^2 = p^2 (K - iC)/s^2 and its conjugate are the
roots of t^2 - 2 Re(z) t + |z|^2, so y_m, scaled by 2^F, is carried by
one real recurrence, y' = 2 Re(z) y - |z|^2 y_prev: two products a step.
For small p and q the multipliers 2p^2 K/s^2 and p^4/s^2 stay exact
small integers over s^2; wider arguments are first rounded to F bits, and
each step cuts those multipliers to the width of the carried terms, so
its products shrink with the terms.  The loop stops once the carried pair
is (0, 0), after which every term is exactly 0.  F counts the requested
digits, the guard digits, log10(1/|x|) and the digits of the term count,
so termwise flooring never eats a delivered one.  One rule sizes every
automatic term count, (digits + guard + 6)/log10(s/p^2) + 2
(auto_term_count), and one evaluator, arctan_sum, turns a formula's
(coeff, beta) terms into sum coeff * atan(1/beta): compute-pi,
validation, verification and convergence_scan all call it.  Euler's accelerated series (summed
exactly) and a complex-arithmetic evaluation of the same sum serve as
cross-checks.
One plain Maclaurin loop in integers, _maclaurin_scaled, shares no code
with any of it and serves both independent references: the four-to-one
arctangent pair behind reference_pi and the arctangent series_error
measures against.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from itertools import count, islice
from typing import NamedTuple

from .errors import ConsistencyError, DomainError, PrecisionError
from .exactmath import (
    RationalParts,
    coinciding_digits,
    complex_div,
    complex_mul,
    fraction_to_decimal,
    guard_digits,
    int_digit_count,
    int_log10,
    rational_log10_abs,
    reciprocal,
    round_sig,
    working_context,
)


def _scaled_parts(p: int, q: int):
    """Yield (A_m, B_m) at x = p/q for m = 1, 2, ...: the module docstring's recurrence."""
    big_a, big_b = 2 * q, p
    k_fac, c_fac = p * p - 4 * q * q, 4 * p * q
    while True:
        yield big_a, big_b
        big_a, big_b = big_a * k_fac + c_fac * big_b, big_b * k_fac - c_fac * big_a


_LOG10_2, _LOG2_10 = 0.3010299956639812, 3.321928094887362


def _branch_float(x: Fraction | RationalParts, bits: int) -> tuple[int, int, int, int]:
    """(Im w, Im w^3, 2 Re w^2, |w|^4) * 2^bits, each within 5 units, from
    x rounded to X/2^bits: one division, however wide the parts of x."""
    xs = (x.numerator << bits) // x.denominator
    den = xs * xs + (1 << 2 * bits + 2)    # (x^2 + 4) * 4^bits
    wr = (xs * xs << bits) // den          # Re w = x^2/(x^2 + 4) = |w|^2
    wi = -((xs << 2 * bits + 1) // den)
    zr, zi = (wr * wr - wi * wi) >> bits, (2 * wr * wi) >> bits
    return wi, (wr * zi + wi * zr) >> bits, 2 * zr, (wr * wr) >> bits


def _arctan_scaled(x: Fraction | RationalParts, terms: int, bits: int) -> int:
    """2^bits times the fast series at x != 0, |x| <= 1, truncated after
    ``terms`` terms, to within 2*terms + 2 ln(2*terms) + 6 units (so within
    10*terms).

    Term m is -2 y_m/(2m-1) with y_m = Im w^(2m-1).  z = w^2 and its
    conjugate are the roots of t^2 - 2 Re(z) t + |z|^2, so one real
    sequence carries the series: y_(m+1) = 2 Re(z) y_m - |z|^2 y_(m-1),
    scaled by 2^bits, from y_1 and y_2.  For small p and q the multipliers
    are exact integers over s^2: 2 Re(z) = 2p^2 K/s^2 and |z|^2 = p^4/s^2
    (the module docstring's K and s).  Wider arguments take them rounded
    to ``bits`` bits (_branch_float), and each step first cuts them to
    L + 16 bits, L the bit length of the carried pair: a multiplier's
    dropped bits, times a term below 2^L, move the step by under 2^-16
    units, and the products shrink with the terms.

    Error, in units of 2^-bits.  An error e put into y_j moves y_(j+n) by
    e (z^(n+1) - zbar^(n+1))/(z - zbar), at most (n+1)|z|^n e; that term
    is divided by 2(j+n) - 1 >= 2j - 1, and |z| <= 1/5 at |x| <= 1, so the
    sum of y_m/(2m-1) moves by at most e/(2j-1) * sum (n+1)/5^n =
    (25/16) e/(2j-1).  Each step puts in under 1 + 2^-15 (the floor and
    both cuts), and y_2, formed on its own, counts as under 1.4 (3.2 when
    rounded); with H = sum_(m<=terms) 1/(2m-1) <= 1 + ln(2*terms - 1)/2,
    the floor of each y_m // (2m-1), m >= 2, and the factor 2, the exact
    branch is off by under 2 (terms - 1) + (25/8)(H + 0.14).  The rounded
    branch adds under 5/4 for x rounded to X/2^bits (the truncation's
    slope is at most sum 2|w'| |w|^(2m-2) <= 5/4) and under (25/8)(0.6 +
    0.25) for y_2 and for the multipliers' few units acting on terms that
    shrink by |z| a step.  Both stay below the bound above.  Once the
    carried pair is (0, 0), every later term is exactly 0, and the loop
    stops."""
    p, q = x.numerator, x.denominator
    if 8 * max(abs(p).bit_length(), q.bit_length()) + 12 <= bits:
        # s^2 fills at most half the scale: exact multipliers over den = s^2
        psq, qsq4 = p * p, 4 * q * q
        s = psq + qsq4
        den = s * s
        y_prev = -((2 * p * q << bits) // s)
        y = (2 * psq * p * q * (qsq4 - 3 * psq) << bits) // (s * den)
        a, b = 2 * psq * (psq - qsq4), psq * psq
    else:
        den = 0    # the rounded branch: shifts, not a division
        y_prev, y, a, b = _branch_float(x, bits)
    total = -y_prev - (y // 3 if terms > 1 else 0)
    for n in range(5, 2 * terms, 2):    # term (n + 1)/2 is -2 y/n
        if not (y or y_prev):
            break
        if den:
            y_prev, y = y, (a * y - b * y_prev) // den
        else:
            cut = max(bits - 16 - max(y.bit_length(), y_prev.bit_length()), 0)
            y_prev, y = y, ((a >> cut) * y - (b >> cut) * y_prev) >> bits - cut
        total -= y // n
    return 2 * total


def arctan_fast(x: Fraction | int | RationalParts, terms: int, precision: int) -> Decimal:
    """Truncation of the fast series after ``terms`` terms, to ``precision``
    significant digits, from the fixed-point kernel, at |x| <= 1.  atan(0)
    is 0 by the defined limit.  Only x's integer parts are read."""
    if not isinstance(x, RationalParts):
        x = Fraction(x)
    p, q = x.numerator, x.denominator
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if p == 0:
        return Decimal(0)
    if abs(p) > q:
        raise DomainError("arctan_fast expects |x| <= 1; pass the cotangent's reciprocal")
    # decimal orders between |x| and 1
    gap = q.bit_length() - abs(p).bit_length()
    orders = int((gap + 1) * _LOG10_2) + 1
    digits = precision + guard_digits() + orders + len(str(terms)) + 2
    bits = int(digits * _LOG2_10) + 1
    scaled = _arctan_scaled(x, terms, bits) * 10**digits >> bits
    with working_context(digits):
        result = Decimal(scaled).scaleb(-digits)
    return round_sig(result, precision)


def _fast_chain(x: Fraction):
    """Yield (n_m, f_m) for the fast series at x != 0: term m is
    n_m/(f_1 ... f_m), and f_1 ... f_m = 1*3*...*(2m-1) * s^(2m-1)."""
    p, q = x.numerator, x.denominator
    s = p * p + 4 * q * q
    psq, ssq = p * p, s * s
    ppow, odd, f = p, 1, s    # p^(2m-1), 1*3*...*(2m-3), f_m
    for m, (big_a, _) in enumerate(_scaled_parts(p, q), start=1):
        yield 2 * big_a * ppow * odd, f
        ppow *= psq
        odd *= 2 * m - 1
        f = (2 * m + 1) * ssq


def _euler_chain(x: Fraction):
    """Yield (n_m, f_m) for Euler's series at x != 0: term m is
    n_m/(f_1 ... f_m), and the term ratio is (2m/(2m+1)) * x^2/(1+x^2)."""
    p, q = x.numerator, x.denominator
    r = p * p + q * q
    n, f = p * q, r
    for m in count(1):
        yield n, f
        n, f = n * 2 * m * p * p, (2 * m + 1) * r


def _chained_sum(chain, terms: int) -> tuple[int, int]:
    """(N, D), unreduced: the first ``terms`` terms of chain summed over
    their common denominator D = f_1 ... f_terms, with no gcd."""
    num, den = 0, 1
    for n, f in islice(chain, terms):
        num, den = num * f + n, den * f
    return num, den


def _exact_truncation(series_chain, x: Fraction | int, terms: int) -> Fraction:
    """The first ``terms`` of series_chain(x), summed exactly with one reduction."""
    x = Fraction(x)
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if x == 0:
        return Fraction(0)
    return Fraction(*_chained_sum(series_chain(x), terms))


def arctan_fast_exact(x: Fraction | int, terms: int) -> Fraction:
    """The same truncation as arctan_fast, kept as an exact rational."""
    return _exact_truncation(_fast_chain, x, terms)


def arctan_euler_exact(x: Fraction | int, terms: int) -> Fraction:
    """Exact rational value of the Euler truncation."""
    return _exact_truncation(_euler_chain, x, terms)


def arctan_complex(x: Fraction | int, terms: int, precision: int) -> Decimal:
    """The fast series evaluated with explicit complex arithmetic.

    The two conjugate power chains are carried independently, so the
    imaginary residue of the sum is a real measure of rounding drift; it
    must stay below 10**-(precision-5).
    """
    x = Fraction(x)
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if x == 0:
        return Decimal(0)
    with working_context(precision + guard_digits()):
        t = fraction_to_decimal(2 / x, precision + guard_digits())
        one, zero = Decimal(1), Decimal(0)
        v = complex_div((one, zero), (one, t))    # 1/(1 + 2i/x)
        u = complex_div((one, zero), (one, -t))   # 1/(1 - 2i/x)
        vsq, usq = complex_mul(v, v), complex_mul(u, u)
        pv, pu = v, u
        sum_re, sum_im = zero, zero
        for m in range(1, terms + 1):
            denom = Decimal(2 * m - 1)
            sum_re += (pv[0] - pu[0]) / denom
            sum_im += (pv[1] - pu[1]) / denom
            if m < terms:
                pv = complex_mul(pv, vsq)
                pu = complex_mul(pu, usq)
        # result is i * sum, which must come out purely real
        residue = abs(sum_re)
        if residue >= Decimal(1).scaleb(-(precision - 5)):
            raise ConsistencyError(
                f"imaginary residue {residue} exceeds 10**-{precision - 5}")
        result = -sum_im
    return round_sig(result, precision)


def _maclaurin_scaled(p: int, q: int, scale: int) -> int:
    """atan(p/q)*scale, 0 < p < q, by the alternating Maclaurin series in
    integers: each carried term scale*x^(2j+1) and each summand (term over
    2j+1) is truncated toward zero, and the loop stops once a term floors to 0.

    With x = p/q and r = 1/(1 - x^2), in units of 1: a carried term errs by
    e_0 < 1 and e_(j+1) < x^2 e_j + 1, so by less than 1 + x^2 + x^4 + ... = r;
    each summand by less than e_j + 1 < 1 + r; and the tail past the first
    term T_J that floors to 0 (T_J < e_J < r) by at most
    T_J (1 + x^2 + ...) < r^2.  With J summed terms the result is within
    J (1 + r) + r^2 of scale*atan(x), and J is at most the count of j with
    scale*x^(2j+1) >= 1, as a smaller term floors to 0."""
    psq, qsq = p * p, q * q
    term, total, n = scale * p // q, 0, 1
    while term:
        total += term // n if n % 4 == 1 else -(term // n)
        n += 2
        # reference_pi's p = 1 skips a full-width multiply by 1 every term
        term = term * psq // qsq if p > 1 else term // qsq
    return total


def series_error(x: Fraction | int, terms: int, series: str = "fast") -> Decimal:
    """|atan(x) - truncation| for the fast or euler series.

    The truncation is an exact rational; the reference is
    _maclaurin_scaled(|p|, q, 10**D)/10**D, whose drift bound (in units of
    10**-D) is pushed ten orders below the difference being measured, so
    the leading digits returned are true regardless of how tiny the error is.
    """
    x = Fraction(x)
    if series not in ("fast", "euler"):
        raise DomainError(f"series must be 'fast' or 'euler', got {series!r}")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if x == 0:
        return Decimal(0)
    x = abs(x)    # every truncation is odd in x, so the error is even
    if x >= Fraction(9, 10):
        raise DomainError("the Maclaurin reference needs |x| < 0.9")
    chain = (_fast_chain if series == "fast" else _euler_chain)(x)
    num, den = _chained_sum(chain, terms)
    trunc = Fraction(num, den)
    # the first omitted term sets the scale of the answer
    n, f = next(chain)
    first_omitted = RationalParts(abs(n), den * f)
    r = 1 / (1 - x * x)
    orders = -float(rational_log10_abs(x))
    # at most D/(2 log10(1/x)) + 1 nonzero terms at scale 10**D
    drift = lambda d: (int(d / (2 * orders)) + 2) * (1 + r) + r * r
    digits = int(15 - float(rational_log10_abs(first_omitted)))
    digits += len(str(int(drift(digits))))
    for _ in range(6):
        diff = abs(Fraction(_maclaurin_scaled(x.numerator, x.denominator, 10**digits),
                            10**digits) - trunc)
        if drift(digits) * 10**10 < diff * 10**digits:
            return fraction_to_decimal(diff, 10)
        digits *= 2
    raise ConsistencyError("Maclaurin drift bound failed to clear the measured error")


@lru_cache(maxsize=32)
def _pi_scaled(places: int) -> int:
    # by _maclaurin_scaled's bound, 16 atan(1/5) - 4 atan(1/239) at scale
    # 10**W, W = places + 25, drifts by under 26 W + 62 units, so the 25 guard
    # digits keep the truncation exact unless pi's digits past ``places`` run
    # 0s or 9s for about 25 - log10(26 W) places
    scale = 10**(places + 25)
    value = 16 * _maclaurin_scaled(1, 5, scale) - 4 * _maclaurin_scaled(1, 239, scale)
    return value // 10**25


def reference_pi(precision: int) -> Decimal:
    """pi with ``precision`` digits after the point, truncated not rounded.

    Built from the classic four-to-one arctangent pair with the plain
    Maclaurin series, on purpose: convergence claims about the fast
    series are tested against a pi that shares no code with it.
    """
    if precision < 1:
        raise DomainError(f"precision must be >= 1, got {precision}")
    scaled = _pi_scaled(precision)
    with working_context(precision + 5):
        return Decimal(scaled).scaleb(-precision)


def _term_rate(p: int, q: int) -> float:
    """Decimal digits contributed per series term at argument p/q,
    log10(s/p^2) = 2t + log10(4 + 10^(-2t)) with t = log10|q/p|, read from
    the leading bits of p and q."""
    t = float(int_log10(q) - int_log10(p))
    # past t = 150 the correction is below a float's resolution, and 10^(-2t) underflows
    return 2 * t + math.log10(4 + 10.0 ** (-2 * min(t, 150.0)))


def auto_term_count(x: Fraction | RationalParts, precision: int) -> int:
    """Terms that take the fast series at x past ``precision`` digits: the one rule."""
    return int((precision + guard_digits() + 6) / _term_rate(x.numerator, x.denominator)) + 2


def arctan_sum(pairs: Iterable[tuple[int, Fraction | int | RationalParts]], precision: int,
               terms: int | None = None) -> Decimal:
    """sum of coeff * atan(1/beta) over (coeff, beta) pairs, |beta| > 1, each
    branch truncated after ``terms`` terms or, when terms is None, after
    auto_term_count's.  Branches are rounded to precision + the digits of the
    largest |coeff| + the guard digits, so no coefficient lifts its rounding
    past 10**-(precision + guard digits); the sum comes back at that width.
    Each beta (an int, Fraction or RationalParts) is read by its parts alone."""
    branches = [(coeff, reciprocal(beta)) for coeff, beta in pairs]
    work = (precision + int_digit_count(max(abs(coeff) for coeff, _ in branches))
            + guard_digits())
    with working_context(work):
        total = Decimal(0)
        for coeff, x in branches:
            branch_terms = auto_term_count(x, work) if terms is None else terms
            total += coeff * arctan_fast(x, branch_terms, work)
    return total


class ConvergenceReport(NamedTuple):
    """Digits-per-term scan of a two-term pair.

    orders[i] is the truncation M, digits[i] the decimal places agreeing
    with the reference pi.  fitted_rate is the mean forward difference
    over the last ceil(len/2) points; predicted_rate is 4.1/e.
    """

    k: int
    u1: Fraction
    u2: Fraction
    precision: int
    orders: tuple[int, ...]
    digits: tuple[int, ...]
    fitted_rate: Decimal
    measure: Decimal
    predicted_rate: Decimal


def convergence_scan(k: int, u1: Fraction | int, u2: Fraction | int,
                     max_terms: int, precision: int) -> ConvergenceReport:
    """Measure how many digits each extra term buys, M = 1..max_terms, from
    pi = 4*(2^(k-1) atan(1/u1) + atan(1/u2)) summed by arctan_sum."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if max_terms < 3:
        raise DomainError(f"max_terms must be >= 3, got {max_terms}")
    try:
        u1, u2 = Fraction(u1), Fraction(u2)
    except TypeError:
        raise DomainError("both cotangents must be exact rationals; "
                          "magnitude-only stand-ins cannot drive the series") from None
    with working_context(40):
        e = 1 / rational_log10_abs(u1, 30) + 1 / rational_log10_abs(u2, 30)
        predicted = Decimal("4.1") / e
    if precision < int(max_terms * float(predicted)) + 20:
        raise PrecisionError(
            f"precision {precision} cannot resolve {max_terms} terms at "
            f"~{predicted:.1f} digits/term; need {int(max_terms * float(predicted)) + 20}")
    reference = reference_pi(precision)
    pair = ((2 ** (k + 1), u1), (4, u2))
    digits = [coinciding_digits(reference, round_sig(arctan_sum(pair, precision, m), precision))
              for m in range(1, max_terms + 1)]
    window = (max_terms + 1) // 2
    tail = digits[-window:]
    with working_context(20):
        fitted = (Decimal(tail[-1]) - Decimal(tail[0])) / (window - 1)
    return ConvergenceReport(
        k=k, u1=u1, u2=u2, precision=precision,
        orders=tuple(range(1, max_terms + 1)),
        digits=tuple(digits),
        fitted_rate=fitted.quantize(Decimal("0.01")),
        measure=e.quantize(Decimal("0.000001")),
        predicted_rate=predicted.quantize(Decimal("0.01")),
    )
