"""Decimal trigonometry and the closed-form cross-checks."""

import functools
import hashlib
import json
from decimal import Decimal, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from machinlike.errors import DomainError, PrecisionError
from machinlike.exactmath import (
    _EXACT,
    coinciding_digits,
    fraction_to_decimal,
    round_sig,
    working_context,
)
from machinlike.radical import u1_of_k
from machinlike.series import arctan_fast, auto_term_count, reference_pi
from machinlike import squaring
from machinlike.cli import EXIT_VERIFY, main
from machinlike.squaring import DESK_SCALE_MAX_K, state_at, u2_of
from machinlike.trigcheck import (
    dec_arctan,
    dec_sin_cos,
    u2_trig,
    verify_k,
)

# independent 40-digit values for spot checks
SIN_1 = Decimal("0.8414709848078965066525023216302989996226")
COS_1 = Decimal("0.5403023058681397174009366074429766037323")
SIN_100 = Decimal("-0.506365641109758793656557610459785432065")
COS_100 = Decimal("0.8623188722876839341019385139508425355101")
ATAN_2 = Decimal("1.10714871779409050301706546017853704007")
ATAN_M3_7 = Decimal("-0.4048917862850834233120729290094426165519")


# atan(1) and atan(7) + atan(1/7) reach pi/4 and pi/2 through the exact
# rational steps, so these two check reference pi's assembly, not the series
def test_dec_arctan_unit():
    value = dec_arctan(Decimal(1), 40)
    with working_context(50):
        quarter_pi = reference_pi(50) / 4
    assert coinciding_digits(value, quarter_pi) >= 39


def test_dec_arctan_spot_values():
    assert coinciding_digits(dec_arctan(Decimal(2), 40), ATAN_2) >= 38
    x = fraction_to_decimal(Fraction(-3, 7), 50)
    assert coinciding_digits(dec_arctan(x, 40), ATAN_M3_7) >= 38


def test_dec_arctan_odd_and_zero():
    assert dec_arctan(Decimal(0), 30) == 0
    a = dec_arctan(Decimal("0.3"), 40)
    b = dec_arctan(Decimal("-0.3"), 40)
    assert a == b.copy_negate()


def test_dec_arctan_reciprocal_identity():
    # atan(x) + atan(1/x) == pi/2 for x > 0
    with working_context(55):
        total = dec_arctan(Decimal(7), 45) + dec_arctan(1 / Decimal(7), 45)
        half_pi = reference_pi(55) / 2
    assert coinciding_digits(total, half_pi) >= 40


def test_dec_arctan_far_ends():
    # a tiny x keeps every digit it has; a huge one is +-pi/2 to the last digit
    assert dec_arctan(Decimal("1e-1000"), 40) == Decimal("1e-1000")
    x = Decimal("-1.234567890123456789012345678901234567891e-1000")
    assert dec_arctan(x, 40) == x
    with working_context(60):
        half_pi = round_sig(reference_pi(60) / 2, 40)
    assert dec_arctan(Decimal("1e300"), 40) == half_pi
    assert dec_arctan(Decimal("-1e300"), 40) == half_pi.copy_negate()


@st.composite
def atan_arguments(draw):
    """A terminating decimal on one of dec_arctan's three branches: |x| <= 1/2
    (down to 1e-70), 1/2 < |x| <= 1, and |x| > 1 (up to 1e41)."""
    branch = draw(st.sampled_from(("direct", "shifted", "flipped")))
    digits = draw(st.integers(1, 50))
    unit = 10**digits
    if branch == "direct":
        mantissa, scale = draw(st.integers(1, unit // 2)), draw(st.integers(0, 40))
    elif branch == "shifted":
        mantissa, scale = draw(st.integers(unit // 2 + 1, unit)), 0
    else:
        mantissa, scale = draw(st.integers(unit + 1, 10 * unit)), -draw(st.integers(0, 40))
    # from text, so no context rounds the mantissa
    return Decimal(f"{draw(st.sampled_from((1, -1))) * mantissa}E{-digits - scale}")


def fast_arctan(x: Fraction, precision: int) -> Decimal:
    """atan(x) from the fast series kernel, through +-pi/2 - atan(1/x) past |x| = 1."""
    if abs(x) <= 1:
        return arctan_fast(x, auto_term_count(x, precision), precision)
    with working_context(precision + 5):
        half_pi = reference_pi(precision + 5) / 2
        return (half_pi if x > 0 else -half_pi) - fast_arctan(1 / x, precision)


@settings(max_examples=150, deadline=None)
@given(x=atan_arguments(), precision=st.integers(5, 120))
def test_dec_arctan_matches_the_fast_kernel(x, precision):
    # correctly rounded to precision digits: within half a unit of the last
    # one, against the kernel read 15 digits further
    value = dec_arctan(x, precision)
    reference = fast_arctan(Fraction(x), precision + 15)
    unit = Fraction(10) ** (value.adjusted() - precision + 1)
    assert abs(Fraction(value) - Fraction(reference)) * 100 <= 51 * unit, (x, precision)


@pytest.mark.parametrize("guard", ["0", None])
@settings(max_examples=100, deadline=None)
@given(x=atan_arguments(), precision=st.integers(5, 120))
def test_dec_arctan_reads_a_fraction_as_its_decimal(guard, x, precision):
    """A Fraction and the terminating Decimal of the same value are one
    exact rational p/q to dec_arctan, so the results are equal, at no guard
    digits and at the default budget."""
    with pytest.MonkeyPatch.context() as patch:
        if guard is None:
            patch.delenv("MACHINLIKE_GUARD_DIGITS", raising=False)
        else:
            patch.setenv("MACHINLIKE_GUARD_DIGITS", guard)
        assert dec_arctan(Fraction(x), precision) == dec_arctan(x, precision)


@pytest.mark.parametrize("precision", [5, 40, 120])
def test_dec_arctan_of_the_exact_trig_argument(precision):
    # tan(2 atan(1/u)) = 2u/(u^2 - 1), read unrounded: 4/3 at u = 2 takes
    # both exact steps, u = 3 and 4 the shifted branch, and u >= 5 the direct one
    for u in range(2, 41):
        x = Fraction(2 * u, u * u - 1)
        value = dec_arctan(x, precision)
        reference = fast_arctan(x, precision + 15)
        unit = Fraction(10) ** (value.adjusted() - precision + 1)
        assert abs(Fraction(value) - Fraction(reference)) * 100 <= 51 * unit, (u, precision)


@pytest.mark.parametrize("text", ["Infinity", "-Infinity", "NaN", "sNaN"])
def test_trig_helpers_refuse_a_non_finite_argument(text):
    with pytest.raises(DomainError, match="cannot take the arctangent"):
        dec_arctan(Decimal(text), 40)
    with pytest.raises(DomainError, match="cannot take the sine and cosine"):
        dec_sin_cos(Decimal(text), 40)


def test_dec_sin_cos_at_one():
    s, c = dec_sin_cos(Decimal(1), 40)
    assert round_sig(s, 40) == SIN_1
    assert round_sig(c, 40) == COS_1


def test_dec_sin_cos_range_reduction():
    s, c = dec_sin_cos(Decimal(100), 39)
    assert coinciding_digits(s, SIN_100) >= 37
    assert coinciding_digits(c, COS_100) >= 37


def test_dec_sin_cos_pythagorean():
    for theta in ("0.5", "1.5", "3", "-2.25"):
        s, c = dec_sin_cos(Decimal(theta), 45)
        with working_context(50):
            residual = abs(s * s + c * c - 1)
        assert residual < Decimal("1e-40"), theta


def taylor_sin_cos(theta: Decimal, digits: int) -> tuple[Decimal, Decimal]:
    """sin and cos of theta by the plain Taylor sums, unhalved, on theta
    reduced to [-pi, pi], every term at digits + 20 working digits."""
    wide = digits + 2 * max(theta.adjusted() + 1, 0) + 20
    with working_context(wide):
        two_pi = 2 * reference_pi(wide)
        r = theta - (theta / two_pi).to_integral_value() * two_pi
    with working_context(digits + 20):
        r = +r
        sums = []
        for term, n in ((r, 1), (Decimal(1), 0)):
            total = Decimal(0)
            while abs(term) > Decimal(1).scaleb(-digits - 25):
                total += term
                term = -term * r * r / ((n + 1) * (n + 2))
                n += 2
            sums.append(total)
    return sums[0], sums[1]


@settings(max_examples=60, deadline=None)
@given(theta=st.builds(lambda m, e: Decimal(m).scaleb(-e),
                       st.integers(-10**12, 10**12), st.integers(6, 40)),
       precision=st.integers(5, 2000), guard=st.integers(0, 10))
@example(theta=Decimal("987654.321"), precision=2000, guard=0)
@example(theta=Decimal("-3.1415926"), precision=1999, guard=10)
def test_halved_sin_cos_matches_the_full_width_taylor_sums(theta, precision, guard):
    """Correct to precision significant digits at every guard budget: within
    half a unit of the last digit of the full-width sums, and the
    10**-(precision + guard + 5) that bounds the halving's own error."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MACHINLIKE_GUARD_DIGITS", str(guard))
        values = dec_sin_cos(theta, precision)
    for value, exact in zip(values, taylor_sin_cos(theta, precision + guard + 10)):
        half_unit = Decimal(5).scaleb(value.adjusted() - precision) if value else 0
        slack = Decimal(1).scaleb(-precision - guard - 5)
        with working_context(precision + guard + 30):
            assert abs(value - exact) <= half_unit + slack, (theta, precision, guard)


def test_u2_trig_matches_exact_fraction():
    for k in (3, 6, 10, 12):
        u1 = u1_of_k(k)
        trig = u2_trig(u1, k, 50)
        exact = fraction_to_decimal(u2_of(u1, k), 60)
        assert coinciding_digits(trig, exact) >= 50 - k - 10, k


# cot(pi/16) to 30 digits: at k = 3, theta = pi/4 - 4 atan(1/u1) lies within
# about 1e-30 of 0, past the first angle's 20 digits of loss, so u2_trig reads
# the arctangent a second time, wider
COT_PI_16 = Fraction("5.02733949212584810451497507106")


def test_u2_trig_retries_when_1_minus_sin_cancels(monkeypatch):
    import machinlike.trigcheck as trigcheck
    precisions = []

    def counting_arctan(x, precision):
        precisions.append(precision)
        return dec_arctan(x, precision)

    monkeypatch.setattr(trigcheck, "dec_arctan", counting_arctan)
    trig = u2_trig(COT_PI_16, 3, 100)
    assert len(precisions) == 2 and precisions[1] > precisions[0]
    exact = u2_of(COT_PI_16, 3)
    assert abs(Fraction(trig) - exact) <= abs(exact) / 10**99


def test_u2_trig_outputs_are_pinned():
    """str(u2_trig) at k = 2..12 and precision 60 and 100, then at cot(pi/16)
    and criterion 10's k = 27, as they read when the argument was still
    rounded to the working precision before the arctangent."""
    calls = [(u1_of_k(k), k, precision) for k in range(2, 13) for precision in (60, 100)]
    calls += [(COT_PI_16, 3, 100), (85445659, 27, 40)]
    text = "\n".join(str(u2_trig(*call)) for call in calls)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "7779fd2511572ad8c9eff1844fc7e928cebdb799e2f6ac7f7d88dc8bc9457ccc")


def test_u2_trig_domain(monkeypatch):
    import machinlike.trigcheck as trigcheck
    with pytest.raises(DomainError):
        u2_trig(1, 3, 40)
    with pytest.raises(DomainError):
        u2_trig(5, 0, 40)
    with pytest.raises(DomainError):
        u2_trig(5, 3, 4)
    # an arctangent of pi/4 or 3 pi/4 to its own width puts theta = pi/4 - atan(1/u1)
    # within that width of 0 or -pi/2, where u2 is infinite or 0
    for quarters in (1, 3):
        def quarter_turns(x, precision):
            with working_context(precision):
                return quarters * reference_pi(precision) / 4
        monkeypatch.setattr(trigcheck, "dec_arctan", quarter_turns)
        with pytest.raises(PrecisionError, match=r"theta is within 10\*\*-\d+ of a multiple of pi/2"):
            u2_trig(5, 1, 40)


@st.composite
def rational_cotangents(draw):
    """u1 = p/q in (1, 60], p, q <= 500."""
    q = draw(st.integers(1, 499))
    return Fraction(draw(st.integers(q + 1, min(60 * q, 500))), q)


# theta within 1e-5 of -pi/2 or pi/2 (|u2| about 4e-6 and 9e-6) and of 0 (|u2| about
# 3e5), then u1 below 2, where dec_arctan's argument takes the shifted branch
@example(u1=Fraction(478, 145), k=4, precision=20, guard=0)
@example(u1=Fraction(220, 147), k=3, precision=300, guard=10)
@example(u1=Fraction(408, 169), k=2, precision=20, guard=0)
@example(u1=Fraction(499, 498), k=9, precision=60, guard=10)
@settings(max_examples=300, deadline=None)
@given(u1=rational_cotangents(), k=st.integers(2, 9), precision=st.integers(20, 300),
       guard=st.integers(0, 10))
def test_u2_trig_agrees_with_the_exact_pair(u1, k, precision, guard):
    """At verify's rule: precision - 2 - u2.adjusted() places of the exact u2,
    on either side of the sizing rule, |u2| above and below 1."""
    with pytest.MonkeyPatch.context() as patch:
        patch.setenv("MACHINLIKE_GUARD_DIGITS", str(guard))
        trig = u2_trig(u1, k, precision)
        exact = fraction_to_decimal(u2_of(u1, k, allow_huge=True), precision + 10)
    assert coinciding_digits(trig, exact) >= precision - 2 - exact.adjusted(), (u1, k)


def test_rational_sin_cos_k3():
    # the chain's (y, x) at k are the exact (sin, cos) of 2^(k-1) atan(2u1/(u1^2 - 1))
    state = state_at(5, 3)
    with working_context(50):
        phi = 4 * dec_arctan(fraction_to_decimal(Fraction(10, 24), 50), 50)
    s, c = dec_sin_cos(phi, 45)
    assert coinciding_digits(s, fraction_to_decimal(state.y, 50)) >= 40
    assert coinciding_digits(c, fraction_to_decimal(state.x, 50)) >= 40


def test_rational_sin_cos_closes_the_formula():
    # cos/(1 - sin) at k against closing_parts, which stops at k - 1
    state = state_at(40, 6)
    assert state.x / (1 - state.y) == u2_of(40, 6)


def test_verify_k_small_depths():
    for k in (2, 3, 6):
        result = verify_k(k, precision=60)
        assert result.ok, k
        assert result.unit_circle_exact
        assert result.oracle_matched is True
        assert result.agreement_digits >= result.required_digits


def test_verify_k_beyond_oracle_depth():
    result = verify_k(13, precision=60)
    assert result.ok
    assert result.oracle_matched is None


def test_verify_k_reports_digit_counts():
    result = verify_k(6, precision=60)
    assert (result.u2_num_digits, result.u2_den_digits) == (52, 50)
    assert result.u2_leading.startswith("-6927013796")


def test_verify_k_json_round_trip():
    payload = verify_k(3, precision=40).to_json_dict()
    text = json.dumps(payload)
    assert json.loads(text)["k"] == 3


def test_verify_k_json_view_is_pinned():
    # every field, in declaration order, with Decimals as strings
    text = json.dumps(verify_k(3, precision=40).to_json_dict())
    assert text == (
        '{"k": 3, "u1": 5, "u2_num_digits": 3, "u2_den_digits": 1, '
        '"u2_leading": "-23900000000000000000", "agreement_digits": 47, '
        '"required_digits": 36, "unit_circle_exact": true, "oracle_matched": true, '
        '"identity_residual": "6E-51", "identity_threshold": "1E-35", '
        '"precision": 40, "ok": true}')


# verify's fields at k = 13..16, precision 60, past the oracle's depth:
# (u2_num_digits, u2_den_digits, u2_leading, agreement_digits, required_digits)
VERIFY_PAST_THE_ORACLE = {
    13: (14610, 14605, "-35111300630927761626", 55, 54),
    14: (32918, 32914, "-35102402049881300754", 56, 54),
    15: (70768, 70764, "-35100178109294520740", 55, 54),
    16: (146468, 146463, "-10346992408450235807", 55, 53),
}


def test_verify_k_past_the_oracle_is_pinned():
    for k, fields in VERIFY_PAST_THE_ORACLE.items():
        result = verify_k(k, precision=60)
        assert (result.u2_num_digits, result.u2_den_digits, result.u2_leading,
                result.agreement_digits, result.required_digits) == fields, k
        assert result.unit_circle_exact is True and result.ok is True, k


def test_verify_k_catches_a_wrong_chain(monkeypatch, capsys):
    real = squaring.closing_parts

    def off_by_one(u1, k, allow_huge=False):
        num, den = real(u1, k, allow_huge)
        # a bare + 1 would round a Decimal part to 28 digits
        with localcontext(_EXACT):
            return num + 1, den

    monkeypatch.setattr(squaring, "closing_parts", off_by_one)
    result = verify_k(6, precision=60)
    assert result.unit_circle_exact is False
    assert result.oracle_matched is False
    assert result.ok is False
    assert main(["verify", "--k", "6", "--precision", "60"]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["ok"] is False
    # deeper: k = 12, the oracle's last depth, where the unit circle and the
    # oracle both flag the int part, and k = 14, past the oracle, where the
    # unit circle flags the Decimal part; the trig closed form sees only
    # leading digits and passes
    for k, oracle, kind in ((12, False, int), (14, None, Decimal)):
        assert all(type(part) is kind for part in real(u1_of_k(k), k))
        result = verify_k(k, precision=60)
        assert result.unit_circle_exact is False, k
        assert result.oracle_matched is oracle, k
        assert result.agreement_digits >= result.required_digits, k
        assert result.ok is False, k


def test_verify_k_trig_check_asks_for_all_but_one_digit(monkeypatch):
    """The trig value must keep precision - 1 significant digits of u2 at
    every desk depth and precision, so a sign-flipped one fails even at
    precision 20 and k = 15..20."""
    import machinlike.trigcheck as trigcheck
    # each depth's chain and closed-form D run once for the five precisions
    for name in ("closing_parts", "_denominator"):
        monkeypatch.setattr(squaring, name, functools.cache(getattr(squaring, name)))
    for k in range(2, DESK_SCALE_MAX_K + 1):
        for precision in (20, 21, 25, 60, 100):
            result = verify_k(k, precision)
            assert result.ok and result.required_digits >= 1, (k, precision)
    real = trigcheck.u2_trig
    monkeypatch.setattr(trigcheck, "u2_trig", lambda u1, k, p: real(u1, k, p).copy_negate())
    for k in range(15, DESK_SCALE_MAX_K + 1):
        assert verify_k(k, 20).ok is False, k


def test_u2_trig_keeps_all_but_one_digit_past_the_cap():
    # against the rounded chain at 20 digits more, from k = 21 to 64, where
    # |u2| passes 10**(precision/2) at precision 20
    for precision in (20, 40):
        for k in range(21, 65):
            u1 = u1_of_k(k)
            rounded = squaring.rounded_u2(u1, k, precision + 20)
            agreement = coinciding_digits(u2_trig(u1, k, precision), rounded)
            assert agreement + rounded.adjusted() + 1 >= precision - 1, (k, precision)


def test_verify_k_rejects_k1():
    with pytest.raises(DomainError):
        verify_k(1)


def test_verify_k_desk_scale_gate():
    # refused before any squaring, although the chain would stop at k - 1
    with pytest.raises(DomainError):
        verify_k(DESK_SCALE_MAX_K + 1)
