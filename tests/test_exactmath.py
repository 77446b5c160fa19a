"""Numeric plumbing: contexts, conversions, digit bookkeeping."""

import sys
from contextlib import contextmanager
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from machinlike.errors import DomainError, FormulaParseError
from machinlike.exactmath import (
    _LEAF_BITS,
    _LEAF_DIGITS,
    RationalParts,
    coinciding_digits,
    coprime_fraction,
    complex_add,
    complex_div,
    complex_mul,
    digits_prefix,
    format_rational,
    fraction_to_decimal,
    guard_digits,
    int_digit_count,
    int_log10,
    int_to_text,
    parse_rational_parts,
    rational_log10_abs,
    reciprocal,
    round_sig,
    text_to_int,
    working_context,
)


def test_working_context_sets_and_restores_precision():
    before = getcontext().prec
    with working_context(77) as ctx:
        assert ctx.prec == 77
        assert getcontext().prec == 77
    assert getcontext().prec == before


def test_working_context_rejects_nonpositive():
    with pytest.raises(DomainError):
        with working_context(0):
            pass


def test_guard_digits_env_override(monkeypatch):
    monkeypatch.setenv("MACHINLIKE_GUARD_DIGITS", "17")
    assert guard_digits() == 17
    monkeypatch.setenv("MACHINLIKE_GUARD_DIGITS", "-1")
    with pytest.raises(DomainError):
        guard_digits()
    monkeypatch.setenv("MACHINLIKE_GUARD_DIGITS", "three")
    with pytest.raises(DomainError):
        guard_digits()


def test_round_sig_basic():
    assert round_sig(Decimal("3.14159"), 3) == Decimal("3.14")
    assert round_sig(Decimal("0.0012349"), 4) == Decimal("0.001235")
    assert round_sig(Decimal(0), 5) == Decimal(0)
    # half-even at the cut
    assert round_sig(Decimal("1.25"), 2) == Decimal("1.2")
    assert round_sig(Decimal("1.35"), 2) == Decimal("1.4")


def test_round_sig_rejects_bad_input():
    with pytest.raises(DomainError):
        round_sig(Decimal("NaN"), 5)
    with pytest.raises(DomainError):
        round_sig(Decimal(1), 0)


def test_fraction_to_decimal_small_values():
    assert fraction_to_decimal(Fraction(1, 4), 20) == Decimal("0.25")
    assert fraction_to_decimal(Fraction(0), 20) == Decimal(0)
    third = fraction_to_decimal(Fraction(1, 3), 40)
    assert str(third) == "0.3333333333333333333333333333333333333333"


def test_fraction_to_decimal_negative_keeps_full_precision():
    # sign handling must not round through the 28-digit default context
    value = Fraction(-2634699316100146880926635665506082395762836079845121,
                     38035138859000075702655846657186322249216830232319)
    dec = fraction_to_decimal(value, 60)
    assert len(dec.as_tuple().digits) == 60
    assert str(dec).startswith("-69.270137960248576701356882782407736859767488605426746756")


@given(st.fractions(min_value=Fraction(-1000), max_value=Fraction(1000)).filter(lambda f: f != 0),
       st.integers(min_value=20, max_value=60))
def test_fraction_to_decimal_close_to_true_value(frac, precision):
    dec = fraction_to_decimal(frac, precision)
    err = abs(Fraction(dec) - frac)
    assert err <= abs(frac) * Fraction(10) ** -(precision - 2)


def test_fraction_to_decimal_divides_down_large_values():
    # above 10**(precision + guard + 3) the scale shift is negative
    third = Decimal("3.3333333333333333333E+79")
    assert fraction_to_decimal(Fraction(10**80 + 7, 3), 20) == third
    assert fraction_to_decimal(Fraction(-(10**80) - 7, 3), 20) == -third


def test_int_log10_small_and_huge():
    assert round_sig(int_log10(1000), 10) == Decimal(3)
    big = 7 ** 4000  # 3381 digits
    log = int_log10(big, 30)
    assert int(log) + 1 == len(str(big))


def test_int_log10_zero():
    with pytest.raises(DomainError):
        int_log10(0)


def test_rational_log10_abs():
    assert round_sig(rational_log10_abs(Fraction(1, 100)), 10) == Decimal(-2)
    v = rational_log10_abs(Fraction(-239), 30)
    assert str(round_sig(v, 10)) == "2.378397901"


def test_int_digit_count_matches_str():
    for n in (0, 1, 9, 10, 99, 100, 10**50 - 1, 10**50, 10**50 + 1, 7**4000):
        assert int_digit_count(n) == len(str(abs(n))), n
    assert int_digit_count(-12345) == 5


def test_int_digit_count_just_below_a_power_of_ten():
    # the 40-digit estimate of log10(10**107 - 1) rounds up to 107,
    # so the count must be corrected down
    assert int_log10(10**107 - 1, 30) >= 107
    assert int_digit_count(10**107 - 1) == 107


@given(st.integers(min_value=1, max_value=10**200))
def test_int_digit_count_property(n):
    assert int_digit_count(n) == len(str(n))


def test_coinciding_digits_examples():
    assert coinciding_digits(Decimal("3.14159"), Decimal("3.14168")) == 4
    assert coinciding_digits(Decimal("3.1"), Decimal("2.9")) == 0
    assert coinciding_digits(Decimal("100"), Decimal("90")) == -1
    # agreement of equal values is capped by stored resolution
    assert coinciding_digits(Decimal("3.14"), Decimal("3.14")) == 2
    assert coinciding_digits(Decimal("3"), Decimal("3")) == 0


def test_coinciding_digits_power_of_ten_gap():
    # difference exactly 0.001: the values share three decimal places
    assert coinciding_digits(Decimal("1.234"), Decimal("1.235")) == 3
    assert coinciding_digits(Decimal("1.2340"), Decimal("1.2349")) == 3


@given(st.decimals(allow_nan=False, allow_infinity=False, places=20,
                   min_value=Decimal(-1000), max_value=Decimal(1000)),
       st.decimals(allow_nan=False, allow_infinity=False, places=20,
                   min_value=Decimal(-1000), max_value=Decimal(1000)))
def test_coinciding_digits_symmetric(a, b):
    assert coinciding_digits(a, b) == coinciding_digits(b, a)


def test_digits_prefix():
    assert digits_prefix(Decimal("3.14159"), 4) == "3141"
    assert digits_prefix(Decimal("-0.00123"), 3) == "123"
    assert digits_prefix(Decimal("5"), 3) == "500"
    assert digits_prefix(Decimal(0), 4) == "0000"
    with pytest.raises(DomainError):
        digits_prefix(Decimal(1), 0)


def test_digits_prefix_truncates_not_rounds():
    assert digits_prefix(Decimal("1.999"), 3) == "199"


def test_parse_rational():
    assert parse_rational_parts("7/3") == (7, 3)
    assert parse_rational_parts("-239") == (-239, 1)
    assert parse_rational_parts("  -239/1 ") == (-239, 1)
    with pytest.raises(FormulaParseError):
        parse_rational_parts("7/0")
    with pytest.raises(FormulaParseError):
        parse_rational_parts("7/-3")
    with pytest.raises(FormulaParseError):
        parse_rational_parts("seven")


@given(st.fractions())
def test_rational_round_trip(value):
    assert parse_rational_parts(format_rational(value)) == (value.numerator, value.denominator)


def test_rational_parts_are_read_as_written():
    assert parse_rational_parts("+6/4") == (6, 4)
    assert parse_rational_parts(" -0042 ") == (-42, 1)
    assert format_rational(RationalParts(-6, 4)) == "-6/4"
    with pytest.raises(FormulaParseError):
        parse_rational_parts("6/0")


def test_reciprocal_swaps_parts_and_keeps_the_sign_on_top():
    assert reciprocal(RationalParts(-6, 4)) == RationalParts(-4, 6)
    assert reciprocal(Fraction(-239)) == RationalParts(-1, 239)
    assert reciprocal(7) == RationalParts(1, 7)
    with pytest.raises(DomainError):
        reciprocal(0)
    with pytest.raises(DomainError):
        RationalParts(1, 0)


def test_coprime_fraction_takes_the_parts_as_they_are():
    value = coprime_fraction(7, -3)
    assert (value.numerator, value.denominator) == (-7, 3)
    assert value == Fraction(-7, 3) and hash(value) == hash(Fraction(-7, 3))
    with pytest.raises(DomainError):
        coprime_fraction(1, 0)


@contextmanager
def _no_int_text_limit():
    """The reference str()/int() at any size, for the block only."""
    if not hasattr(sys, "set_int_max_str_digits"):
        yield
        return
    saved = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(saved)


def _around(width):
    return [m * width + d for m in (1, 2, 3, 4, 7) for d in (-1, 0, 1)]


# bit lengths at and next to each split width of int_to_text, and 0..2
BIT_LENGTHS = st.sampled_from([0, 1, 2] + _around(_LEAF_BITS))
# digit counts at and next to each split width of text_to_int
DIGIT_COUNTS = st.sampled_from([1, 2] + _around(_LEAF_DIGITS))


@settings(max_examples=150, deadline=None)
@given(n=BIT_LENGTHS.flatmap(lambda b: st.integers(1 << b >> 1, (1 << b) - 1)),
       negative=st.booleans())
def test_int_to_text_equals_str(n, negative):
    n = -n if negative else n
    text = int_to_text(n)
    with _no_int_text_limit():
        assert text == str(n)
    assert text_to_int(text) == n


@settings(max_examples=150, deadline=None)
@given(n=DIGIT_COUNTS.flatmap(lambda d: st.integers(10 ** d // 10, 10 ** d - 1)),
       sign=st.sampled_from(["", "+", "-"]), zeros=st.integers(0, 3))
def test_text_to_int_equals_int(n, sign, zeros):
    with _no_int_text_limit():
        text = sign + "0" * zeros + str(n)
        assert text_to_int(text) == int(text)


def test_complex_helpers_on_fractions():
    a = (Fraction(1, 2), Fraction(1, 3))
    b = (Fraction(2), Fraction(-1))
    assert complex_mul(a, b) == (Fraction(4, 3), Fraction(1, 6))
    assert complex_add(a, b) == (Fraction(5, 2), Fraction(-2, 3))
    prod = complex_mul(complex_div(a, b), b)
    assert prod == a
