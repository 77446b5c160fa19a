"""Decimal trigonometry and the closed-form cross-checks."""

import json
from decimal import Decimal
from fractions import Fraction

import pytest

from machinlike.errors import DomainError
from machinlike.exactmath import (
    coinciding_digits,
    fraction_to_decimal,
    round_sig,
    working_context,
)
from machinlike.series import reference_pi
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


def test_u2_trig_matches_exact_fraction():
    for k in (3, 6, 10, 12):
        from machinlike.radical import u1_of_k
        u1 = u1_of_k(k)
        trig = u2_trig(u1, k, 50)
        exact = fraction_to_decimal(u2_of(u1, k), 60)
        assert coinciding_digits(trig, exact) >= 50 - k - 10, k


# cot(pi/16) to 30 digits: at k = 3 the angle 4 * atan(2u1/(u1^2 - 1))
# lands within about 1e-29 of pi/2, so 1 - sin(phi) cancels some 60 digits
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


def test_u2_trig_domain():
    with pytest.raises(DomainError):
        u2_trig(1, 3, 40)
    with pytest.raises(DomainError):
        u2_trig(5, 0, 40)
    with pytest.raises(DomainError):
        u2_trig(5, 3, 4)


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
        '"required_digits": 27, "unit_circle_exact": true, "oracle_matched": true, '
        '"identity_residual": "6E-51", "identity_threshold": "1E-35", '
        '"precision": 40, "ok": true}')


def test_verify_k_catches_a_wrong_chain(monkeypatch, capsys):
    real = squaring.closing_parts

    def off_by_one(u1, k, allow_huge=False):
        num, den, d = real(u1, k, allow_huge)
        return num + 1, den, d

    monkeypatch.setattr(squaring, "closing_parts", off_by_one)
    result = verify_k(6, precision=60)
    assert result.unit_circle_exact is False
    assert result.oracle_matched is False
    assert result.ok is False
    assert main(["verify", "--k", "6", "--precision", "60"]) == EXIT_VERIFY
    assert json.loads(capsys.readouterr().out)["ok"] is False


def test_verify_k_rejects_k1():
    with pytest.raises(DomainError):
        verify_k(1)


def test_verify_k_desk_scale_gate():
    # refused before any squaring, although the chain would stop at k - 1
    with pytest.raises(DomainError):
        verify_k(DESK_SCALE_MAX_K + 1)
