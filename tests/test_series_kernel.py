"""Property tests of the fixed-point kernel behind arctan_fast.

The kernel is checked against the exact rational truncation and, through
arctan_sum and the compute-pi and verify commands, against
the Maclaurin reference pi; neither shares code with it.  Every property
runs across the guard-digit budget, down to none.  The kernel's own
scaled integer is held to its docstring's error bound far past the
point where its multipliers are cut to the width of the carried terms.
"""

import io
import json
import math
import os
import time
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import Decimal
from functools import lru_cache
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from machinlike import cli
from machinlike.exactmath import coinciding_digits, fraction_to_decimal, int_log10, round_sig
from machinlike.formulas import fixtures
from machinlike.radical import u1_of_k
from machinlike.series import (
    _arctan_scaled,
    _branch_float,
    _term_rate,
    arctan_fast,
    arctan_fast_exact,
    arctan_sum,
    reference_pi,
)
from machinlike.squaring import u2_of


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
        exact = fraction_to_decimal(arctan_fast_exact(x, terms), precision)
    top = max(fast.adjusted(), exact.adjusted())
    assert abs(fast - exact) <= Decimal(1).scaleb(top - precision + 1), (x, terms)


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
    exact = arctan_fast_exact(x, terms)
    num, den = exact.numerator, exact.denominator
    miss = abs(_arctan_scaled(x, terms, bits) * den - (num << bits))
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
    assert _arctan_scaled(x, terms, bits) == _kernel_without_stop(x, terms, bits), case


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
    terms = max(int(need / _term_rate(1, u1)),
                int(need / _term_rate(u2.denominator, u2.numerator))) + 2
    with guard_digits_set_to(0):
        value = round_sig(arctan_sum(((2 ** (k + 1), u1), (4, u2)), precision, terms),
                          precision)
    # precision significant digits of pi are precision - 1 decimal places
    assert coinciding_digits(value, reference_pi(precision + 5)) >= precision - 1, (k, terms)


@settings(max_examples=80, deadline=None)
@given(x=arguments(), q_sign=st.sampled_from((-1, 1)))
def test_term_rate_from_leading_bits_matches_the_full_parts(x, q_sign):
    p, q = x.numerator, q_sign * x.denominator
    full = float(int_log10(p * p + 4 * q * q) - 2 * int_log10(p))
    assert math.isclose(_term_rate(p, q), full, rel_tol=1e-12), (p, q)


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
