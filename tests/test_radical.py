"""Nested radical ladder and the integer cotangent floors."""

from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from machinlike.errors import DomainError, PrecisionError
from machinlike.exactmath import digits_prefix, round_sig, working_context
from machinlike.radical import MAX_LADDER_K, _bracket, ladder_eval, u1_of_k
from machinlike.series import reference_pi
from machinlike.trigcheck import dec_sin_cos

# floors of the ladder ratio, checked independently at high precision
U1_TABLE = {2: 2, 3: 5, 4: 10, 5: 20, 6: 40, 7: 81, 8: 162, 9: 325,
            10: 651, 11: 1303, 12: 2607, 13: 5215, 14: 10430}


def test_ladder_eval_base_values():
    point = ladder_eval(2, 40)
    assert round_sig(point.previous, 20) == Decimal("1.4142135623730950488")
    # a(2) = sqrt(2 + sqrt(2))
    assert round_sig(point.value * point.value - 2, 20) == round_sig(point.previous, 20)
    assert int(point.ratio) == 2


def test_ladder_ratio_k6_prefix():
    point = ladder_eval(6, 40)
    assert digits_prefix(point.ratio, 22) == "4073548387208330180074"


def test_ladder_value_approaches_two():
    last = Decimal(0)
    for k in range(2, 20):
        point = ladder_eval(k, 60)
        assert last < point.value < 2
        last = point.value


def test_ladder_eval_domain():
    with pytest.raises(DomainError):
        ladder_eval(1, 40)
    with pytest.raises(DomainError):
        ladder_eval(MAX_LADDER_K + 1, 40)
    with pytest.raises(PrecisionError):
        ladder_eval(30, 30)  # needs k + 20


def test_u1_table():
    for k, expected in U1_TABLE.items():
        assert u1_of_k(k) == expected, k


def test_u1_of_k_domain():
    for k in (1, MAX_LADDER_K + 1):
        with pytest.raises(DomainError, match=rf"k must be in \[2, 64\], got {k}$"):
            u1_of_k(k)


def test_u1_of_k_27():
    assert u1_of_k(27) == 85445659


def test_u1_roughly_doubles():
    values = [u1_of_k(k) for k in range(4, 16)]
    for a, b in zip(values, values[1:]):
        assert 1.9 < b / a < 2.1


def test_floor_gap_stays_in_unit_interval():
    """u1 - ratio must land in (-1, 0]: the floor never overshoots."""
    for k in range(2, 22):
        point = ladder_eval(k, 60)
        eps = u1_of_k(k) - point.ratio
        assert Decimal(-1) < eps <= 0, k


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, MAX_LADDER_K),
       # most draws sit at or near the k + 20 floor, where the fewest spare digits remain
       extra=st.one_of(st.integers(0, 3), st.integers(0, 20), st.integers(0, 180)),
       guard=st.integers(0, 10))
def test_ladder_ratio_is_the_cotangent_to_its_last_digit(k, extra, guard):
    """ladder_eval(k, p).ratio is cot(pi/2^(k+1)) within one unit in its p-th
    significant digit, at every guard budget.  The reference comes from the
    Maclaurin pi and the sine and cosine series, which share no code with
    the ladder."""
    precision = k + 20 + extra
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MACHINLIKE_GUARD_DIGITS", str(guard))
        ratio = ladder_eval(k, precision).ratio
    work = precision + 10
    with working_context(work + 5):
        theta = reference_pi(work + 5) / 2 ** (k + 1)
    sin, cos = dec_sin_cos(theta, work)
    with working_context(work):
        cot = cos / sin
        unit = Decimal(1).scaleb(cot.adjusted() - precision + 1)
        assert abs(ratio - cot) <= unit, (k, precision, guard)


@settings(max_examples=100, deadline=None)
@given(k=st.integers(2, MAX_LADDER_K),
       # the bracket is narrower than one unit in the p-th digit once p > 1.2k + 20
       extra=st.one_of(st.integers(0, 20), st.integers(0, 180)),
       guard=st.integers(0, 10))
def test_integer_bracket_holds_the_decimal_ladder(k, extra, guard):
    """u1_of_k's floor is int(ladder_eval(k, p).ratio), and _bracket's
    lo/2^F <= a(k-1) < hi/2^F holds for ladder_eval's a(k-1), within the one
    unit in its p-th significant digit that it is rounded to.  The Decimal
    ladder shares no code with the integer pass; the guard digits reach
    only the Decimal side."""
    precision = k + 20 + extra
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MACHINLIKE_GUARD_DIGITS", str(guard))
        point = ladder_eval(k, precision)
        assert u1_of_k(k) == int(point.ratio), (k, precision, guard)
    f, lo, hi = _bracket(k)
    unit = Fraction(1, 10 ** (precision - 1))   # 1 <= a(k-1) < 2
    previous = Fraction(point.previous)
    assert Fraction(lo, 2 ** f) - unit <= previous < Fraction(hi, 2 ** f) + unit, (k, precision)
