"""Property tests of the fixed-point kernel behind arctan_fast.

The kernel is checked against the exact rational truncation and, through
arctan_sum and the compute-pi and verify commands, against
the Maclaurin reference pi; neither shares code with it.  Every property
runs across the guard-digit budget, down to none.  The kernel's own
scaled integer is held to its docstring's error bound far past the
point where its multipliers are cut to the width of the carried terms,
and arctan_sum's one-scale total to the bound its docstring derives.
"""

import io
import json
import math
import os
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import MAX_EMAX, MIN_EMIN, ROUND_DOWN, ROUND_HALF_EVEN, Context, Decimal, localcontext
from functools import lru_cache
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from machinlike import cli, series
from machinlike.errors import DomainError
from machinlike.exactmath import (
    _EXACT, RationalParts, _bit_length, _leading_bits, coinciding_digits, digits_prefix,
    fraction_to_decimal, guard_digits, int_digit_count, int_log10, reciprocal, round_sig)
from machinlike.formulas import fixtures, lehmer_reduced, two_term_formula
from machinlike.radical import u1_of_k
from machinlike.series import (
    _arctan_scaled,
    _branch_float,
    _series_ratio,
    _split,
    _term_rate,
    arctan_fast,
    arctan_sum,
    auto_term_count,
    reference_pi,
)
from machinlike.squaring import u2_of


def exact_truncation(x, terms, kind="fast"):
    """The first ``terms`` terms of the fast or Euler series at x, summed exactly."""
    total = series._truncation(x, terms, kind)[0]
    return Fraction(total.numerator, total.denominator)


@contextmanager
def guard_digits_set_to(digits: int):
    """MACHINLIKE_GUARD_DIGITS set for the block, the old value restored."""
    old = os.environ.get("MACHINLIKE_GUARD_DIGITS")
    os.environ["MACHINLIKE_GUARD_DIGITS"] = str(digits)
    try:
        yield
    finally:
        if old is None:
            del os.environ["MACHINLIKE_GUARD_DIGITS"]
        else:
            os.environ["MACHINLIKE_GUARD_DIGITS"] = old


@st.composite
def arguments(draw):
    """Signed x = p/q with 1e-30 < |x| <= 1.  Parts of 900 digits are
    wider than the kernel's scale at every drawn precision, so the
    argument-rounding path runs as well as the exact-multiplier one."""
    width = draw(st.sampled_from((1, 6, 40, 900)))
    p = draw(st.integers(1, 10**width))
    orders = draw(st.integers(0, 29))
    q = draw(st.integers(p * 10**orders, p * 10**(orders + 1) - 1))
    return Fraction(draw(st.sampled_from((-1, 1))) * p, q)


@settings(max_examples=120, deadline=None)
@given(x=arguments(), terms=st.integers(1, 10), precision=st.integers(20, 600),
       guard=st.integers(0, 10))
def test_kernel_matches_exact_truncation(x, terms, precision, guard):
    """Both sides are the same truncation rounded to ``precision``
    significant digits, so they differ by at most one unit in the last
    place (a value straddling a rounding boundary)."""
    with guard_digits_set_to(guard):
        fast = arctan_fast(x, terms, precision)
        exact = fraction_to_decimal(exact_truncation(x, terms), precision)
    top = max(fast.adjusted(), exact.adjusted())
    assert abs(fast - exact) <= Decimal(1).scaleb(top - precision + 1), (x, terms)


def _width(x) -> int:
    """The kernel's ``width``: the larger bit length of x's parts."""
    return max(_bit_length(x.numerator), _bit_length(x.denominator))


def _rate(p, q) -> float:
    """_term_rate at p/q, from the parts' top 64 bits."""
    return _term_rate(_leading_bits(p, 64), _leading_bits(q, 64))


def _arctan_fast_own_scale(x, terms: int, precision: int) -> Decimal:
    """arctan_fast by its former rule, which sized its own scale from x's
    significant digits: D = precision + G + the orders between |x| and 1 +
    len(str(terms)) + 2 decimal places, floored once and rounded once."""
    if not isinstance(x, RationalParts):
        x = Fraction(x)
    orders = int((_bit_length(x.denominator) - _bit_length(x.numerator) + 1) * math.log10(2)) + 1
    digits = precision + guard_digits() + orders + len(str(terms)) + 2
    bits = int(digits * math.log2(10)) + 1
    scaled = _arctan_scaled(x, terms, bits, _width(x))
    return round_sig(Decimal(scaled * 10**digits >> bits).scaleb(-digits, _EXACT), precision)


@settings(max_examples=300, deadline=None)
@given(x=arguments(), as_decimal=st.booleans(),
       terms=st.one_of(st.integers(1, 12), st.integers(1, 400)),
       precision=st.integers(20, 800), guard=st.integers(0, 10))
@example(x=Fraction(0), as_decimal=False, terms=1, precision=20, guard=0)
@example(x=Fraction(-1), as_decimal=True, terms=400, precision=800, guard=0)
@example(x=Fraction(1, 10**29 + 1), as_decimal=False, terms=3, precision=20, guard=0)
# the former rule rounds the wrong way: the truncation lies 7.5e-6 units
# in the last place from halfway
@example(x=Fraction(3114098519622917983184851267896594431336,
                    23810145403282698490939798692611434203709210224445979981025),
         as_decimal=False, terms=4, precision=206, guard=0)
def test_arctan_fast_gives_what_its_own_scale_gave(x, as_decimal, terms, precision, guard):
    """arctan_fast returns the Decimal the former rule did, on int and
    Decimal parts alike.  Before its last rounding each is within a tenth
    of a unit in the last place of the truncation, so the two may part
    only by one unit, where the truncation, read to 12 more digits, lies
    that close to halfway between them.  There arctan_fast, within 1/400
    of a unit, rounds to the truncation's side of halfway unless it lies
    closer still."""
    if as_decimal:
        x = RationalParts(Decimal(x.numerator), Decimal(x.denominator))
    with guard_digits_set_to(guard):
        new, old = arctan_fast(x, terms, precision), _arctan_fast_own_scale(x, terms, precision)
        if new != old:
            finer = _arctan_fast_own_scale(x, terms, precision + 12)
            case = x, terms, precision, guard
            with localcontext(_EXACT):
                unit = Decimal(1).scaleb(min(new.adjusted(), old.adjusted()) - precision + 1)
                halfway = (new + old) / 2
                assert abs(new - old) == unit, case
                assert abs(finer - halfway) <= unit / 8, case
                if 399 * abs(finer - halfway) > unit:
                    assert (new > old) == (finer > halfway), case


@pytest.mark.parametrize("x, terms, precision", [(Fraction(-10, 10212781), 3, 399),
                                                  (Fraction(-4, 15), 319, 398)])
def test_two_spare_digits_round_as_the_exact_truncation(x, terms, precision):
    """These truncations lie 5e-4 and 6e-4 units in the last place from
    halfway.  With no guard digits and one spare digit, arctan_fast
    rounded both to the wrong side; two round them correctly."""
    exact = exact_truncation(x, terms)
    ctx = Context(prec=precision, rounding=ROUND_HALF_EVEN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    with guard_digits_set_to(0):
        assert arctan_fast(x, terms, precision) == \
            ctx.divide(Decimal(exact.numerator), Decimal(exact.denominator))


def test_arctan_fast_refuses_no_terms_even_at_zero():
    assert arctan_fast(0, 1, 30) == 0
    with pytest.raises(DomainError, match="terms must be >= 1"):
        arctan_fast(0, 0, 30)


def _kernel_bound(terms: int) -> float:
    """_arctan_scaled's error bound, in units of 2^-bits."""
    return 2 * terms + 2 * math.log(2 * terms) + 6


@st.composite
def kernel_cases(draw):
    """(x, terms, bits) on either side of the kernel's branch rule, with
    parts of 1 to 900 digits and 1e-30 < |x| <= 1.  Term counts run into
    the hundreds where the exact truncation, whose denominator has about
    2*terms*log2(s) bits, stays cheap."""
    width = draw(st.sampled_from((1, 6, 40, 900)))
    p = draw(st.integers(10**(width - 1), 10**width))
    orders = draw(st.integers(0, 29))
    q = draw(st.integers(p * 10**orders, p * 10**(orders + 1) - 1))
    x = Fraction(draw(st.sampled_from((-1, 1))) * p, q)
    cap = 400 if q.bit_length() <= 40 else 150 if q.bit_length() <= 140 else 12
    few = st.integers(1, min(cap, 40))
    terms = draw(few if cap < 100 else st.one_of(few, st.integers(100, cap)))
    rule = 8 * q.bit_length() + 12    # the exact multipliers from here up
    # two in three cases on the rounded branch, where the cut runs
    if rule <= 40 or draw(st.integers(0, 2)) == 0:
        bits = draw(st.integers(rule, rule + 2000))
    else:
        bits = draw(st.integers(40, min(rule - 1, 4000)))
    return x, terms, bits


@settings(max_examples=200, deadline=None)
@given(case=kernel_cases())
def test_kernel_stays_within_its_error_bound(case):
    x, terms, bits = case
    exact = exact_truncation(x, terms)
    num, den = exact.numerator, exact.denominator
    miss = abs(_arctan_scaled(x, terms, bits, _width(x)) * den - (num << bits))
    assert 1000 * miss <= int(1000 * _kernel_bound(terms)) * den, (x, terms, bits)


def _kernel_without_stop(x, terms, bits):
    """_arctan_scaled's recurrence run through every term, with no stop
    once the carried pair is (0, 0)."""
    p, q = x.numerator, x.denominator
    if 8 * max(abs(p).bit_length(), q.bit_length()) + 12 <= bits:
        s = p * p + 4 * q * q
        ys = [-((2 * p * q << bits) // s),
              (2 * p**3 * q * (4 * q * q - 3 * p * p) << bits) // s**3]
        a, b = 2 * p * p * (p * p - 4 * q * q), p**4
        while len(ys) < terms:
            ys.append((a * ys[-1] - b * ys[-2]) // (s * s))
    else:
        *ys, a, b = _branch_float(x, bits)
        while len(ys) < terms:
            width = max(ys[-1].bit_length(), ys[-2].bit_length())
            cut = max(bits - 16 - width, 0)
            ys.append(((a >> cut) * ys[-1] - (b >> cut) * ys[-2]) >> bits - cut)
    return -2 * sum(y // (2 * m - 1) for m, y in enumerate(ys[:terms], start=1))


@settings(max_examples=40, deadline=None)
@given(case=kernel_cases())
def test_stop_at_zero_changes_no_bit(case):
    x, terms, bits = case
    assert _arctan_scaled(x, terms, bits, _width(x)) == _kernel_without_stop(x, terms, bits), case


@lru_cache(maxsize=None)
def _pair(k):
    u1 = u1_of_k(k)
    return u1, u2_of(u1, k)


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 12), precision=st.integers(20, 600))
def test_arctan_sum_two_term_pair_reaches_reference_pi_without_guard_digits(k, precision):
    u1, u2 = _pair(k)
    # the lead branch's error is multiplied by 4 * 2^(k-1)
    need = precision + k + 5
    terms = max(int(need / _rate(1, u1)), int(need / _rate(u2.denominator, u2.numerator))) + 2
    with guard_digits_set_to(0):
        value = round_sig(arctan_sum(((2 ** (k + 1), u1), (4, u2)), precision, terms),
                          precision)
    # precision significant digits of pi are precision - 1 decimal places
    assert coinciding_digits(value, reference_pi(precision + 5)) >= precision - 1, (k, terms)


@lru_cache(maxsize=None)
def _lehmer_remainders():
    """The (P, Q) parts, of 100 to 800 digits, of the rational remainders
    that lehmer_reduced leaves of u2 at k = 7 and 9."""
    remainders = (lehmer_reduced(two_term_formula(k), precision).terms[-1][1]
                  for k in (7, 9) for precision in (1000, 2000))
    return tuple((int(beta.numerator), int(beta.denominator)) for beta in remainders)


@st.composite
def cotangents(draw):
    """A signed cotangent |beta| > 1: an integer from 2 to 10**200, a
    rational with Decimal parts of up to 300 digits, or a Lehmer remainder."""
    sign = draw(st.sampled_from((-1, 1)))
    kind = draw(st.sampled_from(("int", "int", "decimal", "lehmer")))
    if kind == "int":
        return sign * draw(st.one_of(st.integers(2, 10**6), st.integers(2, 10**200)))
    if kind == "lehmer":
        p, q = draw(st.sampled_from(_lehmer_remainders()))
    else:
        q = draw(st.integers(1, 10 ** draw(st.sampled_from((3, 40, 300)))))
        p = draw(st.integers(q + 1, q * 10 ** draw(st.integers(1, 30))))
    return RationalParts(Decimal(sign * p), Decimal(q))


def _exact_sum(pairs, terms):
    """(N, D), unreduced: sum coeff * the exact t-term truncation at
    x = 1/beta, the splitter's exact sum left without its gcd."""
    num, den = 0, 1
    for coeff, beta in pairs:
        x = reciprocal(beta)
        _, q, b, t = _split(_series_ratio(Fraction(int(x.numerator), int(x.denominator)),
                                          "fast"), 1, terms + 1)
        n, d = t[1], b * q
        num, den = num * d + coeff * n * den, den * d
    return num, den


@settings(max_examples=150, deadline=None)
@given(pairs=st.lists(st.tuples(st.integers(-2**66, 2**66).filter(bool), cotangents()),
                      min_size=1, max_size=9),
       terms=st.integers(1, 12),
       precision=st.integers(20, 300), guard=st.integers(0, 10))
@example(pairs=[(2**66, 2), (-2**66, 10**200)], terms=1, precision=20, guard=0)
def test_arctan_sum_stays_within_its_bound_of_the_exact_truncations(pairs, terms, precision,
                                                                    guard):
    """arctan_sum's docstring bound: within 2 * 10^-(work + G) of the exact
    sum before its one rounding to work significant digits, so within that
    plus half a unit in the last place of what it returns."""
    with guard_digits_set_to(guard):
        value = arctan_sum(pairs, precision, terms)
    work = precision + int_digit_count(max(abs(coeff) for coeff, _ in pairs)) + guard
    half_ulp = Fraction(10) ** (value.adjusted() - work + 1) / 2 if value else 0
    num, den = _exact_sum(pairs, terms)
    bound = 2 * Fraction(10) ** -(work + guard) + half_ulp
    assert abs(Fraction(value) * den - num) <= bound * den, (pairs, terms)



def test_arctan_sum_bound_is_absolute_for_a_sum_far_below_one():
    """At x = 10^-20 the floor at 10^-(work + G) leaves about 31 significant
    digits of the 51 that work counts; the docstring promises only the
    absolute bound."""
    with guard_digits_set_to(0):
        value = arctan_sum([(1, 10**20)], 50, 5)
    work = 50 + 1
    exact = exact_truncation(Fraction(1, 10**20), 5)
    assert abs(Fraction(value) - exact) <= 2 * Fraction(10) ** -work
    assert len(value.as_tuple().digits) < work

def _digits_prefix_by_tuple(value: Decimal, count: int) -> str:
    """digits_prefix's former reading of the digits, through as_tuple."""
    if value == 0:
        return "0" * count
    ctx = Context(prec=count, rounding=ROUND_DOWN, Emax=MAX_EMAX, Emin=MIN_EMIN)
    digits = "".join(map(str, ctx.plus(value.copy_abs()).as_tuple().digits))
    return digits.ljust(count, "0")


@settings(max_examples=300, deadline=None)
@given(coefficient=st.one_of(st.integers(0, 10**6), st.integers(0, 10**80)),
       zeros=st.integers(0, 30), exponent=st.integers(-10**6, 10**6),
       negative=st.booleans(), count=st.integers(1, 120))
@example(coefficient=5, zeros=0, exponent=0, negative=False, count=3)
@example(coefficient=123, zeros=4, exponent=-10**6, negative=True, count=200)
def test_digits_prefix_reads_what_as_tuple_read(coefficient, zeros, exponent, negative, count):
    """Trailing zeros, coefficients shorter than the count and exponents of
    +-10^6 read the same from the scientific form as from as_tuple."""
    value = Decimal(f"{'-' if negative else ''}{coefficient}{'0' * zeros}E{exponent}")
    assert digits_prefix(value, count) == _digits_prefix_by_tuple(value, count), value


@settings(max_examples=80, deadline=None)
@given(x=arguments(), q_sign=st.sampled_from((-1, 1)))
def test_term_rate_from_leading_bits_matches_the_full_parts(x, q_sign):
    p, q = x.numerator, q_sign * x.denominator
    full = float(int_log10(p * p + 4 * q * q) - 2 * int_log10(p))
    assert math.isclose(_rate(p, q), full, rel_tol=1e-12), (p, q)


@st.composite
def _rate_part(draw):
    """A positive integer of up to about 3,000 digits, often within 3 of a
    power of 2 or of 10."""
    kind = draw(st.sampled_from(("any", "pow2", "pow10")))
    if kind == "any":
        return draw(st.integers(1, 10 ** draw(st.sampled_from((1, 3, 19, 20, 60, 700, 3000)))))
    base, top = (2, 10000) if kind == "pow2" else (10, 3000)
    return max(base ** draw(st.integers(0, top)) + draw(st.integers(-3, 3)), 1)


@st.composite
def _rate_parts(draw):
    """(p, q) with 1 <= p <= q, or a multiple of (2, 3), the one ratio whose
    rate is exactly 1."""
    if draw(st.booleans()):
        m = draw(_rate_part())
        return 2 * m, 3 * m
    return tuple(sorted((draw(_rate_part()), draw(_rate_part()))))


def _count_from_50_digit_logs(p: int, q: int, precision: int) -> int:
    """auto_term_count's rule with t = log10|q/p| from two 50-digit logarithms."""
    with localcontext() as ctx:
        ctx.prec = 60
        t = float(int_log10(q) - int_log10(p))
    rate = 2 * t + math.log10(4 + 10.0 ** (-2 * min(t, 150.0)))
    return int((precision + guard_digits() + 6) / rate) + 2


@settings(max_examples=300, deadline=None)
@given(parts=_rate_parts(), sign=st.sampled_from((-1, 1)), as_decimal=st.booleans(),
       precision=st.one_of(st.integers(20, 30000), st.sampled_from((20, 10000, 30000))))
@example(parts=(2, 3), sign=1, as_decimal=False, precision=20)
@example(parts=(2 * 10**700, 3 * 10**700), sign=-1, as_decimal=True, precision=30000)
@example(parts=(2 * (2**2000 + 1), 3 * (2**2000 + 1)), sign=1, as_decimal=False, precision=977)
def test_float_term_rate_gives_the_50_digit_term_count(parts, sign, as_decimal, precision):
    """The float rate from the parts' top 64 bits sizes every branch as the
    50-digit logarithms did, on int and Decimal parts alike.

    At x = 2/3 the rate is exactly 1, so the count's quotient is an integer:
    a rate one ulp high drops a term there, and this test fails.  A rate one
    ulp low leaves that floor alone, and at every other x the rate is
    irrational (1 + 4/x^2 is a power of 10 only at x = 2/3), so a quotient
    within the ~1e-16 such a change moves it of an integer is not
    something a draw can find: no count can tell that change apart."""
    p, q = parts
    x = RationalParts(*((Decimal(sign * p), Decimal(q)) if as_decimal else (sign * p, q)))
    assert auto_term_count(x, precision) == _count_from_50_digit_logs(p, q, precision)


def _run_cli(*argv):
    """Exit code and JSON summary of one machinlike command."""
    out = io.StringIO()
    with redirect_stdout(out), redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


SOURCES = st.one_of(st.integers(2, 12).map(lambda k: ("--k", str(k))),
                    st.sampled_from(sorted(fixtures())).map(lambda f: ("--fixture", f)))


@settings(max_examples=60, deadline=None)
@given(source=SOURCES, precision=st.integers(20, 600), guard=st.integers(0, 10))
def test_compute_pi_delivers_every_digit_across_the_guard_budget(source, precision, guard):
    with guard_digits_set_to(guard):
        code, payload = _run_cli("compute-pi", *source, "--precision", str(precision))
    assert (code, payload["ok"]) == (0, True), payload


@settings(max_examples=40, deadline=None)
@given(k=st.integers(2, 12), precision=st.integers(20, 600), guard=st.integers(0, 10))
def test_verify_stays_ok_across_the_guard_budget(k, precision, guard):
    with guard_digits_set_to(guard):
        code, payload = _run_cli("verify", "--k", str(k), "--precision", str(precision))
    assert (code, payload["ok"]) == (0, True), payload


@pytest.mark.parametrize("source", [("--k", "4"), ("--k", "7"), ("--k", "8"), ("--k", "12"),
                                    ("--fixture", "machin-1706"),
                                    ("--fixture", "chienlih-6term")])
def test_compute_pi_delivers_every_digit_at_5000(source):
    code, payload = _run_cli("compute-pi", *source, "--precision", "5000")
    assert (code, payload["ok"], payload["coinciding_digits"]) == (0, True, 5000), payload


def test_a_billion_terms_cost_only_the_terms_before_zero():
    """Past the point where both carried terms floor to 0 the loop stops,
    so a truncation order of 10^9 costs what the full series does."""
    start = time.perf_counter()
    code, payload = _run_cli("compute-pi", "--fixture", "machin-1706", "--precision", "100",
                             "--terms", str(10**9))
    assert (code, payload["ok"], payload["terms"]) == (0, True, 10**9), payload
    assert time.perf_counter() - start < 10
