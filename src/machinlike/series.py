"""Rapidly convergent arctangent series and the pi assembly built on them.

The workhorse expansion, at x = p/q, is

    atan(x) = 2 * sum_{m>=1} Im c^(2m-1) / ((2m-1) s^(2m-1)),
    c = p(p + 2iq),  s = p^2 + 4q^2,  |c|^2 = p^2 s,
    c^2 = p^2 (K + 4ipq),  K = p^2 - 4q^2,

so each term contributes about log10(s/p^2) decimal digits.  One binary
splitter, _split, sums the exact truncation (_truncation, which
series_error measures): term m is (1/b_m) prod_(j<=m) p_j/q_j, here with the ratio
p_m/q_m = c^2/s^2 (2c/s at m = 1) and b_m = 2m - 1.  A run of terms keeps
P, Q and B, the products of its p_j, q_j and b_j, and T, its sum being
T/(BQ); adjacent runs join as (P1 P2, Q1 Q2, B1 B2, B2 Q2 T1 + B1 P1 T2).
Euler's series, first term pq/r and real ratio 2m p^2/((2m+1) r) from
term m, r = p^2 + q^2, is its other user.

One fixed-point integer kernel, _arctan_scaled, sums the series instead,
carrying y_m = Im w^(2m-1), w = x/(x + 2i), by a two-term real
recurrence.  One rule sizes every automatic term count (auto_term_count).
One evaluator, arctan_sum, turns a formula's (coeff, beta) terms into
sum coeff * atan(1/beta) for compute-pi, validation, verification and
convergence_scan: it runs every branch at one absolute scale 2^-F, F set
by the kernel's error bound, adds the integers exactly and converts the
total to Decimal once; arctan_fast is its one-branch case.  Euler's
accelerated series (summed exactly) and a complex-arithmetic evaluation
of the same sum serve as cross-checks.
One plain Maclaurin loop in integers, _maclaurin_scaled, shares no code
with any of it and has three users: the four-to-one arctangent pair
behind reference_pi, the arctangent series_error measures against, and
trigcheck.dec_arctan.
"""

from __future__ import annotations

import math
from collections.abc import Iterable
from decimal import Decimal
from fractions import Fraction
from functools import lru_cache
from typing import NamedTuple

from .errors import ConsistencyError, DomainError, PrecisionError
from .exactmath import (
    _EXACT,
    _as_decimal,
    _as_int,
    _bit_length,
    _leading_bits,
    _part_abs,
    _refuse_past_budget,
    _scaled_floor,
    RationalParts,
    coinciding_digits,
    complex_mul,
    fraction_to_decimal,
    guard_digits,
    int_digit_count,
    rational_log10_abs,
    reciprocal,
    round_sig,
    working_context,
)


_LOG10_2, _LOG2_10 = 0.3010299956639812, 3.321928094887362
_pi_places = 0    # the widest pi asked for: by _pi_scaled's bound, truncating it gives pi


def _branch_float(x: Fraction | RationalParts, bits: int) -> tuple[int, int, int, int]:
    """(Im w, Im w^3, 2 Re w^2, |w|^4) * 2^bits, each within 5 units, from
    x rounded to X/2^bits: one division, however wide the parts of x."""
    xs = _scaled_floor(x.numerator, x.denominator, bits)
    den = xs * xs + (1 << 2 * bits + 2)    # (x^2 + 4) * 4^bits
    wr = (xs * xs << bits) // den          # Re w = x^2/(x^2 + 4) = |w|^2
    wi = -((xs << 2 * bits + 1) // den)
    zr, zi = (wr * wr - wi * wi) >> bits, (2 * wr * wi) >> bits
    return wi, (wr * zi + wi * zr) >> bits, 2 * zr, (wr * wr) >> bits


def _arctan_scaled(x: Fraction | RationalParts, terms: int, bits: int, width: int) -> int:
    """2^bits times the fast series at |x| <= 1, truncated after
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
    stops.  ``width`` is the larger bit length of x's parts."""
    p, q = x.numerator, x.denominator
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if _part_abs(p) > q:
        raise DomainError("the fast series needs |x| <= 1; pass the cotangent's reciprocal")
    if 8 * width + 12 <= bits:
        # s^2 fills at most half the scale: exact multipliers over den = s^2
        p, q = _as_int(p), _as_int(q)
        psq, qsq4 = p * p, 4 * q * q
        s = psq + qsq4
        den = s * s
        y_prev = -((2 * p * q << bits) // s)
        y = (2 * psq * p * q * (qsq4 - 3 * psq) << bits) // (s * den)
        a, b = 2 * psq * (psq - qsq4), psq * psq
    else:
        den = 0    # the rounded branch: shifts, not a division
        y_prev, y, a, b = _branch_float(x, bits)
    # each term adds into a narrow part at its own width; the part joins the total every 32
    total, part = -y_prev - (y // 3 if terms > 1 else 0), 0
    for n in range(5, 2 * terms, 2):    # term (n + 1)/2 is -2 y/n
        if not (y or y_prev):
            break
        if not den:
            cut = max(bits - 16 - max(y.bit_length(), y_prev.bit_length()), 0)
            y_prev, y = y, ((a >> cut) * y - (b >> cut) * y_prev) >> bits - cut
        elif b == 1:    # every integer cotangent: p = 1
            y_prev, y = y, (a * y - y_prev) // den
        else:
            y_prev, y = y, (a * y - b * y_prev) // den
        part -= y // n
        if n & 63 == 3:
            total, part = total + part, 0
    return 2 * (total + part)


def arctan_fast(x: Fraction | int | RationalParts, terms: int, precision: int) -> Decimal:
    """Truncation of the fast series after ``terms`` terms, to ``precision``
    significant digits, at |x| <= 1: arctan_sum's one branch at 1/x, asked
    for the orders between |x| and 1 and two spare digits more, which keep
    it within 1/400 of a unit in its last place before the last rounding.
    atan(0) is 0 by the defined limit.  Only x's integer parts are read."""
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if not isinstance(x, RationalParts):
        x = Fraction(x)
    if x.numerator == 0:
        return Decimal(0)
    # decimal orders between |x| and 1
    orders = int((_bit_length(x.denominator) - _bit_length(x.numerator) + 1) * _LOG10_2) + 1
    return round_sig(arctan_sum([(1, reciprocal(x))], precision + orders + 2, terms), precision)


def _split(ratio, lo: int, hi: int) -> tuple:
    """(P, Q, B, T) of the run of terms lo..hi-1 of sum_m (1/b_m) prod_(j<=m) p_j/q_j,
    (p_m, q_m, b_m) = ratio(m), by binary splitting (Haible and Papanikolaou,
    1998), the product started at the run's first term.  p, P and T are
    Gaussian integers (re, im), the rest integers; only +, - and * touch them."""
    if hi - lo == 1:
        p, q, b = ratio(lo)
        return p, q, b, p
    mid = (lo + hi) // 2
    p1, q1, b1, t1 = _split(ratio, lo, mid)
    p2, q2, b2, t2 = _split(ratio, mid, hi)
    scale, (re, im) = b2 * q2, complex_mul(p1, t2)
    return (complex_mul(p1, p2), q1 * q2, b1 * b2,
            (scale * t1[0] + b1 * re, scale * t1[1] + b1 * im))


def _series_ratio(x: Fraction, series: str):
    """ratio(m) = (p_m, q_m, b_m) for _split of the fast or Euler series at
    x = p/q != 0, as the module docstring gives them; Euler's first term,
    i pq/r, carries a factor i so that both series read Im T."""
    p, q = x.numerator, x.denominator
    if series == "fast":
        c, s = (p * p, 2 * p * q), p * p + 4 * q * q
        c_sq, s_sq = complex_mul(c, c), s * s
        return lambda m: ((2 * c[0], 2 * c[1]), s, 1) if m == 1 else (c_sq, s_sq, 2 * m - 1)
    r = p * p + q * q
    return lambda m: (((0, p * q), r, 1) if m == 1
                      else ((2 * (m - 1) * p * p, 0), (2 * m - 1) * r, 1))


def _truncation(x: Fraction | int, terms: int, series: str) -> tuple[RationalParts, RationalParts]:
    """The first ``terms`` terms of the fast or Euler series at x, summed
    exactly by _split, as (Im T, BQ), and the first omitted term's
    magnitude, both unreduced."""
    x = Fraction(x)
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if x == 0:
        return RationalParts(0, 1), RationalParts(0, 1)
    ratio = _series_ratio(x, series)
    p_next, q_next, b_next = ratio(terms + 1)
    # each part of the split grows by about len(q_m b_m) bits a term; peak RSS
    # over the base ran 13-15 bytes per byte of them at 0.25-0.67 MB (x = 1e-6,
    # 1e-100, 1e-400; 2 vCPUs, Python 3.11), and the budget takes 16
    _refuse_past_budget(f"{terms} terms need exact parts",
                        (terms + 1) * (q_next * b_next).bit_length(), 16)
    big_p, big_q, big_b, t = _split(ratio, 1, terms + 1)
    omitted = RationalParts(abs(complex_mul(big_p, p_next)[1]), big_q * q_next * b_next)
    return RationalParts(t[1], big_b * big_q), omitted


def arctan_complex(x: Fraction | int, terms: int, precision: int) -> Decimal:
    """The fast series evaluated with explicit complex arithmetic:
    -sum 2 Im v^(2m-1)/(2m-1), v = 1/(1 + 2i/x), from v's one power chain
    in Decimal, a route that shares no code with the integer kernel.
    """
    x = Fraction(x)
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if x == 0:
        return Decimal(0)
    with working_context(precision + guard_digits()):
        t = fraction_to_decimal(2 / x, precision + guard_digits())
        d = 1 + t * t
        v = (1 / d, -t / d)    # 1/(1 + 2i/x)
        vsq = complex_mul(v, v)
        power, total = v, Decimal(0)
        for m in range(1, terms + 1):
            total += 2 * power[1] / Decimal(2 * m - 1)
            if m < terms:
                power = complex_mul(power, vsq)
        result = -total
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


# series_error sums its Maclaurin reference only below this |x|
SERIES_ERROR_X_BOUND = Fraction(9, 10)


def series_error(x: Fraction | int, terms: int, series: str = "fast") -> Decimal:
    """|atan(x) - truncation| for the fast or euler series.

    The truncation T/(BQ) and the reference M/10**D, M =
    _maclaurin_scaled(|p|, q, 10**D), are compared as |M BQ - T 10**D|, with
    no gcd; M's drift bound (in units of 10**-D) is pushed ten orders below
    the difference, so the leading digits returned are true however tiny.
    """
    x = Fraction(x)
    if series not in ("fast", "euler"):
        raise DomainError(f"series must be 'fast' or 'euler', got {series!r}")
    if terms < 1:
        raise DomainError(f"terms must be >= 1, got {terms}")
    if x == 0:
        return Decimal(0)
    x = abs(x)    # every truncation is odd in x, so the error is even
    if x >= SERIES_ERROR_X_BOUND:
        raise DomainError(f"the Maclaurin reference needs |x| < {SERIES_ERROR_X_BOUND}")
    # the first omitted term sets the scale of the answer
    trunc, first_omitted = _truncation(x, terms, series)
    r = 1 / (1 - x * x)
    orders = -float(rational_log10_abs(x))
    # at most D/(2 log10(1/x)) + 1 nonzero terms at scale 10**D
    drift = lambda d: (int(d / (2 * orders)) + 2) * (1 + r) + r * r
    digits = int(15 - float(rational_log10_abs(first_omitted)))
    digits += len(str(int(drift(digits))))
    for _ in range(6):
        scale = 10**digits
        diff = abs(_maclaurin_scaled(x.numerator, x.denominator, scale) * trunc.denominator
                   - trunc.numerator * scale)
        if drift(digits) * 10**10 * trunc.denominator < diff:
            return fraction_to_decimal(RationalParts(diff, scale * trunc.denominator), 10)
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
    global _pi_places
    if precision < 1:
        raise DomainError(f"precision must be >= 1, got {precision}")
    _pi_places = max(_pi_places, precision)
    scaled = _pi_scaled(_pi_places) // 10**(_pi_places - precision)
    return _as_decimal(scaled).scaleb(-precision, _EXACT)


def _term_rate(p: tuple[int, int], q: tuple[int, int]) -> float:
    """Decimal digits contributed per series term at argument p/q,
    log10(s/p^2) = 2t + log10(4 + 10^(-2t)) with t = log10|q/p|, read as a
    float from p's and q's top 64 bits, _leading_bits(part, 64).

    The quotient of the two 64-bit tops is correctly rounded and ldexp
    scales it exactly, so t is within an ulp or two of the correctly
    rounded log10|q/p|, and an exact ratio such as 3/2 (the one x = 2/3
    where the rate is exactly 1) gives exactly the float a 50-digit
    logarithm gives."""
    (p_shift, p_top), (q_shift, q_top) = p, q
    if p_top == 0:
        raise DomainError("log10 of zero")
    shift = q_shift - p_shift
    if abs(shift) < 900:
        t = math.log10(math.ldexp(q_top / p_top, shift))
    else:
        t = math.log10(q_top / p_top) + shift * _LOG10_2
    # past t = 150 the correction is below a float's resolution, and 10^(-2t) underflows
    return 2 * t + math.log10(4 + 10.0 ** (-2 * min(t, 150.0)))


def _terms_at(rate: float, precision: int) -> int:
    """The one rule: terms past ``precision`` digits at ``rate`` digits a term."""
    return int((precision + guard_digits() + 6) / rate) + 2


def auto_term_count(x: Fraction | RationalParts, precision: int) -> int:
    """Terms that take the fast series at x past ``precision`` digits."""
    return _terms_at(_term_rate(_leading_bits(x.numerator, 64),
                                _leading_bits(x.denominator, 64)), precision)


def arctan_sum(pairs: Iterable[tuple[int, Fraction | int | RationalParts]], precision: int,
               terms: int | None = None) -> Decimal:
    """sum of coeff * atan(1/beta) over (coeff, beta) pairs, |beta| >= 1, each
    branch truncated after ``terms`` terms or, when terms is None, after
    auto_term_count's at work = precision + the digits of the largest |coeff|
    + the guard digits G.  Each beta's parts (ints or Decimals) are read to
    their top 64 bits once, for the term rate and the kernel's branch.  Every
    branch runs the kernel at one scale 2^-bits, within 10 t_i units of its
    t_i-term truncation; with U = 10 sum |coeff_i| t_i,
    bits = len(U) + int((work + G) log2 10) + 1 keeps the exactly added total
    within 10^-(work + G) of the exact sum.  Floored to a multiple of
    10^-(work + G), it is within an absolute 2 * 10^-(work + G) before its
    one rounding to work significant digits, so a sum far below 1 keeps
    fewer than work of them."""
    branches = [(coeff, reciprocal(beta)) for coeff, beta in pairs]
    guard = guard_digits()
    work = precision + int_digit_count(max(abs(coeff) for coeff, _ in branches)) + guard
    runs = []
    for coeff, x in branches:
        leads = _leading_bits(x.numerator, 64), _leading_bits(x.denominator, 64)
        count = _terms_at(_term_rate(*leads), work) if terms is None else terms
        runs.append((coeff, x, count, max(shift + top.bit_length() for shift, top in leads)))
    units = 10 * sum(abs(coeff) * count for coeff, _, count, _ in runs)
    bits = units.bit_length() + int((work + guard) * _LOG2_10) + 1
    total = sum(coeff * _arctan_scaled(x, count, bits, width) for coeff, x, count, width in runs)
    floored = _as_decimal(total * 10**(work + guard) >> bits)
    return round_sig(floored.scaleb(-(work + guard), _EXACT), work)


class ConvergenceReport(NamedTuple):
    """Digits-per-term scan of a two-term pair.

    orders[i] is the truncation M, digits[i] the decimal places agreeing
    with the reference pi.  fitted_rate is the mean forward difference
    over the last ceil(len/2) points; predicted_rate is 4.1/e.
    """

    k: int
    u1: Fraction | RationalParts
    u2: Fraction | RationalParts
    precision: int
    orders: tuple[int, ...]
    digits: tuple[int, ...]
    fitted_rate: Decimal
    measure: Decimal
    predicted_rate: Decimal


def convergence_scan(k: int, u1: Fraction | int | RationalParts, u2: Fraction | int | RationalParts,
                     max_terms: int, precision: int) -> ConvergenceReport:
    """Measure how many digits each extra term buys, M = 1..max_terms, from
    pi = 4*(2^(k-1) atan(1/u1) + atan(1/u2)) summed by arctan_sum at exact u1, u2."""
    if k < 2:
        raise DomainError(f"k must be >= 2, got {k}")
    if max_terms < 3:
        raise DomainError(f"max_terms must be >= 3, got {max_terms}")
    try:
        u1, u2 = (u if isinstance(u, RationalParts) else Fraction(u) for u in (u1, u2))
    except TypeError:
        raise DomainError("both cotangents must be exact rationals; "
                          "magnitude-only stand-ins cannot drive the series") from None
    with working_context(40):
        e = 1 / rational_log10_abs(u1, 30) + 1 / rational_log10_abs(u2, 30)
        predicted = Decimal("4.1") / e
        need = int(max_terms * float(predicted)) + 20
        if precision < need:    # the format below rounds in this context
            raise PrecisionError(f"precision {precision} cannot resolve {max_terms} terms "
                                 f"at ~{predicted:.1f} digits/term; need {need}")
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
