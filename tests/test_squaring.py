"""Exact unit-circle squaring chain and the closing cotangent."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from machinlike.errors import (
    ConsistencyError,
    DegenerateFormulaError,
    DomainError,
    FormulaParseError,
)
from machinlike.radical import u1_of_k
from machinlike.trigcheck import verify_k
from machinlike.squaring import (
    DESK_SCALE_MAX_K,
    ComplexRationalState,
    closing_parts,
    init_state,
    read_fraction_parts,
    shared_parts,
    square_step,
    state_at,
    u2_direct_oracle,
    u2_of,
    write_fraction_file,
)

U2_K6 = Fraction(
    -2634699316100146880926635665506082395762836079845121,
    38035138859000075702655846657186322249216830232319)


def test_init_state_u1_5():
    state = init_state(5)
    assert (state.x, state.y) == (Fraction(12, 13), Fraction(5, 13))
    assert state.n == 1


def test_init_state_rejects_small_u1():
    with pytest.raises(DomainError):
        init_state(1)
    with pytest.raises(DomainError):
        init_state(Fraction(1, 2))


def test_square_step_doubles_angle():
    state = ComplexRationalState(n=1, x=Fraction(3, 5), y=Fraction(4, 5))
    out = square_step(state)
    assert (out.x, out.y) == (Fraction(-7, 25), Fraction(24, 25))
    assert out.n == 2


def test_u2_small_cases():
    assert u2_of(2, 2) == Fraction(-7)
    assert u2_of(5, 3) == Fraction(-239)
    assert u2_of(40, 6) == U2_K6


def test_k3_chain_values():
    state = state_at(5, 3)
    assert (state.x, state.y) == (Fraction(-239, 28561), Fraction(28560, 28561))
    # z(2) = (119 + 120i)/169, so u2 = (119 + 120)/(119 - 120)
    assert closing_parts(5, 3) == (239, -1, 169)


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=7))
def test_unit_circle_invariant(u1, k):
    state = state_at(u1, k)
    assert state.x ** 2 + state.y ** 2 == 1


@given(st.integers(min_value=2, max_value=60), st.integers(min_value=1, max_value=7))
def test_parts_share_reduced_denominator(u1, k):
    # unit-circle rationals always reduce to a common denominator
    state = state_at(u1, k)
    assert state.x.denominator == state.y.denominator


@settings(deadline=None)
@given(st.integers(min_value=2, max_value=40), st.integers(min_value=2, max_value=8))
def test_oracle_agrees_with_chain(u1, k):
    assert u2_direct_oracle(u1, k) == u2_of(u1, k)


def test_rational_u1_supported():
    u1 = Fraction(163, 7)
    for k in range(2, 7):
        assert u2_of(u1, k) == u2_direct_oracle(u1, k)


def test_shared_parts_match_state():
    for u1, k in ((5, 3), (40, 6), (163, 4), (Fraction(163, 7), 5)):
        # the plain Fraction reference, step by step
        state = init_state(u1)
        for _ in range(k - 1):
            state = square_step(state)
        x_num, y_num, den = shared_parts(u1, k)
        assert Fraction(x_num, den) == state.x
        assert Fraction(y_num, den) == state.y
        assert x_num * x_num + y_num * y_num == den * den
        assert state_at(u1, k) == state


def test_closing_parts_reduce_to_u2():
    num, den, d = closing_parts(40, 6)
    assert Fraction(num, den) == U2_K6
    # coprime by proof, so the parts are u2's reduced parts up to sign
    assert (abs(num), abs(den)) == (abs(U2_K6.numerator), U2_K6.denominator)
    assert num * num + den * den == 2 * d * d


def test_final_reduction_halves_digit_counts():
    # x(k) and 1 - y(k) share the factor A - B that closing_parts never forms
    x, _, _ = shared_parts(40, 6)
    assert len(str(abs(x))) > 90
    assert len(str(abs(U2_K6.numerator))) == 52
    assert len(str(U2_K6.denominator)) == 50


u1_values = st.one_of(
    st.integers(min_value=2, max_value=10**4),
    st.builds(Fraction, st.integers(min_value=2, max_value=2000),
              st.integers(min_value=1, max_value=200)).filter(lambda u: u > 1))


@settings(deadline=None, max_examples=60)
@given(u1_values, st.integers(min_value=2, max_value=9))
def test_u2_from_the_state_one_squaring_short(u1, k):
    num, den, d = closing_parts(u1, k)
    assert Fraction(num, den) == u2_of(u1, k) == u2_direct_oracle(u1, k)
    assert num * num + den * den == 2 * d * d
    # x(k) and D^2 - y(k) of the full chain at k carry the extra factor A - B
    x, y, d_k = shared_parts(u1, k)
    assert (x, d_k - y) == (num * den, den * den)
    # so (A + B)/(A - B) is already in lowest terms
    assert math.gcd(num, den) == 1


def test_u2_of_and_verify_k_take_no_gcd_of_wide_operands(monkeypatch):
    # Fraction(r) of a numbers.Rational copies its parts unreduced on every
    # supported CPython; one that starts to re-reduce them fails here
    # instead of slowing u2_of down by a giant gcd
    u1 = u1_of_k(14)
    wide = []
    gcd = math.gcd

    def counting_gcd(*args):
        wide.extend(a for a in args if abs(a).bit_length() > 64)
        return gcd(*args)

    monkeypatch.setattr(math, "gcd", counting_gcd)
    u2 = u2_of(u1, 14)
    result = verify_k(14)
    assert wide == []
    monkeypatch.undo()
    # Fraction's == compares parts, so u2 is in lowest terms
    assert u2 == Fraction(*closing_parts(u1, 14)[:2])
    assert result.ok


def test_desk_scale_cap(monkeypatch):
    with pytest.raises(DomainError):
        state_at(2, DESK_SCALE_MAX_K + 1)
    with pytest.raises(DomainError):
        closing_parts(2, DESK_SCALE_MAX_K + 1)
    # the gate is on k, although u2 needs the chain only up to k - 1
    with pytest.raises(DomainError):
        u2_of(2, DESK_SCALE_MAX_K + 1)
    # the override lifts it; the integer parts stay on the unit circle
    x, y, d = shared_parts(2, DESK_SCALE_MAX_K + 1, allow_huge=True)
    assert x * x + y * y == d * d
    # state_at forwards the override: at a lowered cap it refuses, then lifts
    import machinlike.squaring as squaring
    monkeypatch.setattr(squaring, "DESK_SCALE_MAX_K", 4)
    with pytest.raises(DomainError):
        state_at(2, 5)
    state = state_at(2, 5, allow_huge=True)
    assert state.n == 5 and state.x ** 2 + state.y ** 2 == 1


def test_oracle_depth_limit():
    with pytest.raises(DomainError):
        u2_direct_oracle(5, 13)
    assert u2_direct_oracle(5, 13, max_k=13) == u2_of(5, 13)


def test_degenerate_state_rejected(monkeypatch):
    import machinlike.squaring as squaring
    # no rational u1 reaches A == B (that is z(k-1) = e^(i pi/4)); fake the chain
    monkeypatch.setattr(squaring, "shared_parts", lambda u1, k, allow_huge=False: (3, 3, 5))
    with pytest.raises(DegenerateFormulaError):
        closing_parts(5, 3)


def test_u2_of_k1_rejected():
    with pytest.raises(DomainError):
        u2_of(5, 1)


def test_fraction_file_round_trip(tmp_path):
    path = tmp_path / "u2.txt"
    write_fraction_file(path, U2_K6)
    assert read_fraction_parts(path) == (U2_K6.numerator, U2_K6.denominator)
    raw = path.read_text(encoding="ascii")
    assert raw.endswith("\n")
    assert raw.count("\n") == 1


def test_fraction_file_tolerates_comments(tmp_path):
    path = tmp_path / "u2.txt"
    path.write_text("# closing cotangent for k=3\n\n-239/1\n", encoding="ascii")
    assert read_fraction_parts(path) == (-239, 1)


def test_fraction_file_rejects_garbage(tmp_path):
    path = tmp_path / "bad.txt"
    path.write_text("# header\nnot a fraction\n", encoding="ascii")
    with pytest.raises(FormulaParseError) as info:
        read_fraction_parts(path)
    assert "line 2" in str(info.value)


def test_fraction_file_rejects_multiple_values(tmp_path):
    path = tmp_path / "two.txt"
    path.write_text("-239/1\n-7/1\n", encoding="ascii")
    with pytest.raises(FormulaParseError):
        read_fraction_parts(path)


ROUND_TRIP_SCRIPT = """
import sys
from fractions import Fraction

import machinlike
from machinlike.errors import DomainError
from machinlike.exactmath import format_rational
from machinlike.formulas import MachinFormula, format_formula, parse_formula_file
from machinlike.squaring import read_fraction_parts, write_fraction_file

limit = sys.get_int_max_str_digits()
assert limit == 4300, limit
value = Fraction(-(3 ** 20000), 7 ** 6000)  # 9543 and 5071 digits
write_fraction_file(sys.argv[1], value)
assert Fraction(*read_fraction_parts(sys.argv[1])) == value
formula = MachinFormula(((1, Fraction(5)), (-1, value)))
with open(sys.argv[2], "w", encoding="ascii") as fh:
    fh.write(format_formula(formula))
assert parse_formula_file(sys.argv[2]).terms == formula.terms
# a huge cotangent inside the unit interval is still a domain error
with open(sys.argv[2], "w", encoding="ascii") as fh:
    fh.write(f"1 * atan({format_rational(value)})")
try:
    parse_formula_file(sys.argv[2])
except DomainError:
    pass
else:
    raise AssertionError("cotangent below 1 accepted")
assert sys.get_int_max_str_digits() == limit
"""


@pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                    reason="this interpreter has no int<->str digit limit")
def test_import_keeps_int_digit_limit_and_huge_files_round_trip(tmp_path):
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", ROUND_TRIP_SCRIPT, str(tmp_path / "u2.txt"),
         str(tmp_path / "formula.txt")],
        env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
