"""Numeric plumbing: contexts, conversions, digit bookkeeping."""

import random
import sys
from contextlib import contextmanager
from decimal import Decimal, getcontext
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from machinlike.errors import DomainError, FormulaParseError
from machinlike.exactmath import (
    _EXACT,
    _LEAF_BITS,
    _LEAF_DIGITS,
    _as_decimal,
    RationalParts,
    coinciding_digits,
    coprime_fraction,
    complex_mul,
    digits_prefix,
    format_rational,
    fraction_to_decimal,
    guard_digits,
    int_digit_count,
    int_log10,
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
    with pytest.raises(DomainError):
        rational_log10_abs(Fraction(0))


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
    # so the count cannot be read from that logarithm
    assert int_log10(10**107 - 1, 30) >= 107
    assert int_digit_count(10**107 - 1) == 107


@given(st.integers(min_value=1, max_value=10**200))
def test_int_digit_count_property(n):
    assert int_digit_count(n) == len(str(n))


def _random_int(bits: int, seed: int, negative: bool) -> int:
    n = random.Random(seed).getrandbits(bits)
    return -n if negative else n


@settings(max_examples=150, deadline=None)
@given(n=st.one_of(
    # +-(10^j + d) beside every power of ten the int path compares against
    st.builds(lambda j, d, negative: (-1 if negative else 1) * (10**j + d),
              st.integers(0, 20_000), st.sampled_from([-1, 0, 1]), st.booleans()),
    st.builds(_random_int, st.integers(0, 100_000), st.integers(0, 2**32), st.booleans())))
def test_int_digit_count_of_an_int_is_its_decimals(n):
    # the int path reads a bit length; a Decimal of the same value, its exponent
    assert int_digit_count(n) == _as_decimal(n).adjusted() + 1


def test_coinciding_digits_examples():
    assert coinciding_digits(Decimal("3.14159"), Decimal("3.14168")) == 4
    assert coinciding_digits(Decimal("3.1"), Decimal("2.9")) == 0
    assert coinciding_digits(Decimal("100"), Decimal("90")) == -1
    # agreement of equal values is capped by stored resolution
    assert coinciding_digits(Decimal("3.14"), Decimal("3.14")) == 2
    assert coinciding_digits(Decimal("3"), Decimal("3")) == 0
    for bad in (Decimal("NaN"), Decimal("-Infinity")):
        with pytest.raises(DomainError):
            coinciding_digits(Decimal(1), bad)


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
    for bad in (Decimal("NaN"), Decimal("Infinity")):
        with pytest.raises(DomainError):
            digits_prefix(bad, 3)


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
    # any Unicode decimal digit is a digit, as in a regex's \d; nothing else is
    assert parse_rational_parts("\u0663/\u0664") == (3, 4)
    for text in ("5/", "/5", "5/3/2", "5 / 3", "--5", "+", "\u00b2", "1_0"):
        with pytest.raises(FormulaParseError, match="not a rational literal"):
            parse_rational_parts(text)
    # the first character no literal can have there, or "unfinished"
    for text, fault in (("5/", "unfinished"), ("/5", "first bad character at 1"),
                        ("5/3/2", "first bad character at 4"), (" -12/3x ", "first bad character at 6")):
        with pytest.raises(FormulaParseError) as raised:
            parse_rational_parts(text)
        assert str(raised.value) == (f"not a rational literal: {text.strip()!r} "
                                     f"(length {len(text.strip())}, {fault})")
    # a long line is quoted by its first 40 characters
    with pytest.raises(FormulaParseError) as raised:
        parse_rational_parts("7" * 1000 + "x")
    assert str(raised.value) == (f"not a rational literal: {'7' * 40!r}... "
                                 f"(length 1001, first bad character at 1001)")


def _is_literal(text: str) -> bool:
    num, slash, den = text.partition("/")
    return (num[1:] if num[:1] in "+-" else num).isdecimal() and (not slash or den.isdecimal())


def _parse_by_str_rule(text: str) -> tuple:
    """The reference digit rule: str.isdecimal on the parts, which
    _EXACT.create_decimal makes.  A refusal names the first character at
    which the line's prefix is neither a literal nor a literal short of
    one final digit."""
    line = text.strip()
    if not _is_literal(line):
        end = next((i for i in range(len(line))
                    if not (_is_literal(line[:i + 1]) or _is_literal(line[:i + 1] + "1"))),
                   len(line))
        fault = f"first bad character at {end + 1}" if end < len(line) else "unfinished"
        quoted = repr(line[:40]) + ("..." if len(line) > 40 else "")
        raise FormulaParseError(f"not a rational literal: {quoted} (length {len(line)}, {fault})")
    num, _, den = line.partition("/")
    num, den = map(_EXACT.create_decimal, (num, den or "1"))
    if den == 0:
        raise FormulaParseError(f"zero denominator: {text.strip()!r}")
    return num, den


# ASCII digits, signs, the slash, the whitespace str.strip drops (\x1c-\x1f
# and \u2028 among it), what Decimal() would take past a digit check
# ("_", "e", ".", ...), a Unicode decimal digit and a digit that is no decimal
LITERAL_CHARS = "0123456789+-/ \t\x0b\x0c\x1c\x1f_eE.x\u0663\u00b2\u2028"


@st.composite
def literal_like(draw):
    """Mostly text shaped like [space][sign]digits[/digits][space], with at
    most one stray character, and some of it any text from LITERAL_CHARS."""
    if draw(st.integers(0, 3)) == 0:
        return draw(st.text(LITERAL_CHARS, max_size=12))
    space = st.text(" \t\x0b\x0c\x1c\x1f\u2028", max_size=2)
    digits = st.text("0123456789\u0663", min_size=1, max_size=8)
    text = (draw(space) + draw(st.sampled_from(["", "+", "-"])) + draw(digits)
            + draw(st.sampled_from(["", "/"])) + draw(st.one_of(st.just(""), digits))
            + draw(space))
    if draw(st.booleans()):
        at = draw(st.integers(0, len(text)))
        text = text[:at] + draw(st.sampled_from(LITERAL_CHARS)) + text[at:]
    return text


@settings(max_examples=400)
@given(literal_like())
def test_parse_checks_digits_as_the_str_rule_does(text):
    try:
        expected = _parse_by_str_rule(text)
    except FormulaParseError as exc:
        with pytest.raises(FormulaParseError) as raised:
            parse_rational_parts(text)
        assert str(raised.value) == str(exc)
    else:
        parts = parse_rational_parts(text)
        assert parts == expected
        assert [str(part) for part in parts] == [str(part) for part in expected]
        assert all(type(part) is Decimal for part in parts)


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


# bit lengths at and next to each split width of _as_decimal, and 0..2
BIT_LENGTHS = st.sampled_from([0, 1, 2] + _around(_LEAF_BITS))
# digit counts at and next to each split width of text_to_int
DIGIT_COUNTS = st.sampled_from([1, 2] + _around(_LEAF_DIGITS))


@settings(max_examples=150, deadline=None)
@given(n=BIT_LENGTHS.flatmap(lambda b: st.integers(1 << b >> 1, (1 << b) - 1)),
       negative=st.booleans())
def test_as_decimal_prints_as_str(n, negative):
    n = -n if negative else n
    text = str(_as_decimal(n))
    with _no_int_text_limit():
        assert text == str(n)
    assert text_to_int(text) == n


# 0, 2^2048 +- 2 and 2^4096 +- 2, where _as_decimal's leaves and splits
# begin, and random widths up to 10^5 digits (332,193 bits)
EDGE_INTS = [0] + [(1 << b) + d for b in (_LEAF_BITS, 2 * _LEAF_BITS) for d in range(-2, 3)]
WIDE_INTS = st.one_of(
    st.sampled_from(EDGE_INTS),
    st.tuples(st.integers(1, 332_193), st.randoms(use_true_random=False)).map(
        lambda drawn: drawn[1].getrandbits(drawn[0]) | 1 << (drawn[0] - 1)))


@settings(max_examples=40, deadline=None)
@given(n=WIDE_INTS, negative=st.booleans())
def test_as_decimal_equals_decimal_of_the_int(n, negative):
    n = -n if negative else n
    value = _as_decimal(n)
    assert value == Decimal(n)
    with _no_int_text_limit():
        assert str(value) == str(n)


@given(d=st.decimals())
def test_as_decimal_passes_a_decimal_through(d):
    assert _as_decimal(d) is d


@settings(max_examples=60, deadline=None)
@given(e=st.one_of(st.sampled_from([1, 2, 616, 617, 618, 4300, 20_000]), st.integers(1, 20_000)),
       negative=st.booleans())
def test_int_digit_count_beside_powers_of_ten(e, negative):
    # 10^e - 1, 10^e and 10^e + 1, as ints and as integral Decimals
    sign = "-" if negative else ""
    for n, text, digits in ((10**e - 1, "9" * e, e), (10**e, "1" + "0" * e, e + 1),
                            (10**e + 1, "1" + "0" * (e - 1) + "1", e + 1)):
        assert int_digit_count(-n if negative else n) == digits, (e, text[:3])
        assert int_digit_count(Decimal(sign + text)) == digits, (e, text[:3])


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
