"""Property tests of the fixed-point kernel behind arctan_fast.

The kernel is checked against the exact rational truncation and, through
arctan_sum and the compute-pi and verify commands, against
the Maclaurin reference pi; neither shares code with it.  Every property
runs across the guard-digit budget, down to none.
"""

import io
import json
import math
import os
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from decimal import Decimal
from functools import lru_cache
from fractions import Fraction

from hypothesis import given, settings, strategies as st

from machinlike import cli
from machinlike.exactmath import coinciding_digits, fraction_to_decimal, int_log10, round_sig
from machinlike.formulas import fixtures
from machinlike.radical import u1_of_k
from machinlike.series import (
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
