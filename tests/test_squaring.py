"""Exact unit-circle squaring chain and the closing cotangent."""

import math
import os
import subprocess
import sys
from decimal import ROUND_HALF_EVEN, Context, Decimal, localcontext
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from machinlike.errors import (
    ConsistencyError,
    DomainError,
    FormulaParseError,
    PrecisionError,
)
from machinlike.exactmath import _EXACT, _as_int, coprime_fraction, fraction_to_decimal
from machinlike.radical import u1_of_k
from machinlike.trigcheck import u2_trig, verify_k
from machinlike.squaring import (
    DESK_SCALE_MAX_K,
    ComplexRationalState,
    _denominator,
    closing_parts,
    init_state,
    read_fraction_parts,
    rounded_u2,
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
    assert closing_parts(5, 3) == (239, -1) and _denominator(5, 2) == 169


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
        x_num, y_num = shared_parts(u1, k)
        den = _denominator(u1, k)
        assert Fraction(x_num, den) == state.x
        assert Fraction(y_num, den) == state.y
        assert x_num * x_num + y_num * y_num == den * den
        assert state_at(u1, k) == state


def test_closing_parts_reduce_to_u2():
    num, den = closing_parts(40, 6)
    d = _denominator(40, 5)
    assert Fraction(num, den) == U2_K6
    # coprime by proof, so the parts are u2's reduced parts up to sign
    assert (abs(num), abs(den)) == (abs(U2_K6.numerator), U2_K6.denominator)
    assert num * num + den * den == 2 * d * d


def test_final_reduction_halves_digit_counts():
    # x(k) and 1 - y(k) share the factor A - B that closing_parts never forms
    x, _ = shared_parts(40, 6)
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
    # a chain whose parts end past 32,768 bits has Decimal parts: read them as ints
    num, den = map(_as_int, closing_parts(u1, k))
    d = _as_int(_denominator(u1, k - 1))
    assert Fraction(num, den) == u2_of(u1, k) == u2_direct_oracle(u1, k)
    assert num * num + den * den == 2 * d * d
    # the chain's parts over the closed-form D are the plain Fraction reference's
    # (a rational u1's reduced denominator is not (u1^2 + 1)/2)
    x, y = map(_as_int, shared_parts(u1, k))
    d_k = _as_int(_denominator(u1, k))
    state = init_state(u1)
    for _ in range(k - 1):
        state = square_step(state)
    assert (Fraction(x, d_k), Fraction(y, d_k)) == (state.x, state.y)
    # x(k) and D^2 - y(k) of the full chain at k carry the extra factor A - B
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
    assert u2 == Fraction(*map(_as_int, closing_parts(u1, 14)))
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
    x, y = shared_parts(2, DESK_SCALE_MAX_K + 1, allow_huge=True)
    d = _denominator(2, DESK_SCALE_MAX_K + 1)
    with localcontext(_EXACT):    # Decimal parts, of about 3 million digits
        assert x * x + y * y == d * d
    # state_at forwards the override: at a lowered cap it refuses, then lifts
    import machinlike.squaring as squaring
    monkeypatch.setattr(squaring, "DESK_SCALE_MAX_K", 4)
    with pytest.raises(DomainError):
        state_at(2, 5)
    state = state_at(2, 5, allow_huge=True)
    assert state.n == 5 and state.x ** 2 + state.y ** 2 == 1


def test_memory_budget_holds_under_allow_huge():
    # the ladder's pair at k = 28 runs the chain to depth 27: about 8.2 GiB;
    # each refusal names the k it was given
    with pytest.raises(DomainError, match="^k=28 .*8.16 GiB.*memory budget"):
        u2_of(u1_of_k(28), 28, allow_huge=True)
    with pytest.raises(DomainError, match="^k=28 .*16.3 GiB.*memory budget"):
        state_at(u1_of_k(28), 28, allow_huge=True)
    with pytest.raises(DomainError, match="^k=40 .*memory budget"):
        shared_parts(2, 40, allow_huge=True)
    # a wide u1 meets the budget under the desk-scale cap too
    with pytest.raises(DomainError, match="memory budget"):
        shared_parts(Fraction(10**2000 + 1, 10**2000), 20)


def _rounded_error_bound(u1, k, work):
    """rounded_u2's bound, 146 * 2**m * 10**(L - W), from the cancellation L
    its docstring defines, read off a rounded chain of the test's own."""
    with localcontext(Context(prec=work, rounding=ROUND_HALF_EVEN, Emax=10**6, Emin=-10**6)):
        x, y = (Decimal(v.numerator) / Decimal(v.denominator) for v in init_state(u1)[1:])
        for _ in range(k - 2):
            x, y = (x - y) * (x + y), 2 * x * y
        s, t = x + y, x - y
    lost = max(0, -s.adjusted(), -t.adjusted())
    return Decimal(146 * 2 ** (k - 2)).scaleb(lost - work)


@pytest.mark.parametrize("k", range(2, DESK_SCALE_MAX_K + 1))
def test_rounded_u2_keeps_its_bound_against_the_exact_u2(k):
    u1 = u1_of_k(k)
    exact = fraction_to_decimal(coprime_fraction(*closing_parts(u1, k)), 200)
    for precision, work in ((40, None), (40, 60 + k), (60, 150)):
        work = work or precision + 2 * k + 20
        value = rounded_u2(u1, k, precision, work)
        assert len(value.as_tuple().digits) <= work
        with localcontext() as ctx:
            ctx.prec = 300
            error = abs(value - exact) / abs(exact)
        bound = _rounded_error_bound(u1, k, work)
        assert error < bound <= Decimal(10) ** -precision, (k, work, error, bound)


def test_rounded_u2_refuses_a_working_precision_the_closing_cancels():
    u1 = u1_of_k(27)
    trig = u2_trig(u1, 27, 80)    # about 2.6e8: A - B is about 5e-9, so L = 9
    # the narrowest W that keeps 40 digits is 40 + L + floor(0.30103 * 25) + 4;
    # every narrower one raises, and the narrowest one keeps its promise
    narrowest = 40 + 9 + 7 + 4
    for work in range(41, narrowest):
        with pytest.raises(PrecisionError, match="k=27 cancelled too many of its"):
            rounded_u2(u1, 27, 40, work)
    value = rounded_u2(u1, 27, 40, narrowest)
    with localcontext() as ctx:
        ctx.prec = 100
        assert abs(value / trig - 1) < Decimal(10) ** -40
    # far narrower chains, whose closing may cancel to exactly 0, raise too
    for work in (3, 10):
        with pytest.raises(PrecisionError):
            rounded_u2(u1, 27, 40, work)


def test_rounded_u2_has_no_cap_and_leaves_the_gates_alone():
    # past the cap the rounded chain runs with no allow_huge; k = 64 on the
    # integer numerators would overflow even MAX_EMAX
    u1 = u1_of_k(64)
    assert rounded_u2(u1, 64, 40).adjusted() == 19
    with pytest.raises(DomainError):
        shared_parts(u1, 64)
    with pytest.raises(DomainError, match="k must be >= 2"):
        rounded_u2(5, 1, 40)
    with pytest.raises(DomainError, match="u1 must exceed 1"):
        rounded_u2(1, 5, 40)


def test_rounded_u2_runs_no_exact_chain(monkeypatch):
    import machinlike.squaring as squaring
    expected = {k: rounded_u2(u1_of_k(k), k, 50) for k in (21, 27, 64)}

    def forbidden(*args, **kwargs):
        raise AssertionError("rounded_u2 reached the exact chain")

    for name in ("shared_parts", "closing_parts"):
        monkeypatch.setattr(squaring, name, forbidden)
    for k, value in expected.items():
        assert str(rounded_u2(u1_of_k(k), k, 50)) == str(value), k


def test_oracle_depth_limit(monkeypatch):
    import machinlike.squaring as squaring
    with pytest.raises(DomainError):
        u2_direct_oracle(5, 13)
    with pytest.raises(DomainError, match="u1 must exceed 1, got 1"):
        u2_direct_oracle(1, 3)
    monkeypatch.setattr(squaring, "ORACLE_MAX_K", 13)
    assert u2_direct_oracle(5, 13) == u2_of(5, 13)


def test_oracle_shares_no_code_with_the_chain(monkeypatch):
    import machinlike.exactmath as exactmath
    import machinlike.squaring as squaring
    expected = {k: u2_of(u1_of_k(k), k) for k in range(2, 13)}

    def forbidden(*args, **kwargs):
        raise AssertionError("the oracle reached the chain or the complex helpers")

    for name in ("shared_parts", "closing_parts", "_denominator", "init_state"):
        monkeypatch.setattr(squaring, name, forbidden)
    # the helpers at their home and at any name squaring imports them under
    for module in (exactmath, squaring):
        monkeypatch.setattr(module, "complex_mul", forbidden, raising=False)
    for k, u2 in expected.items():
        assert u2_direct_oracle(u1_of_k(k), k) == u2, k


@settings(deadline=None, max_examples=80)
@given(st.integers(min_value=2, max_value=10**6).flatmap(
           lambda p: st.builds(Fraction, st.just(p), st.integers(min_value=1, max_value=p - 1))),
       st.integers(min_value=2, max_value=7))
def test_oracle_agrees_with_chain_on_rational_u1(u1, k):
    assert u2_direct_oracle(u1, k) == u2_of(u1, k)


def fraction_oracle(u1, k):
    """The direct oracle as Fractions, each operation reduced by a gcd: the
    reference the two-int doubling must reproduce."""
    t = 1 / Fraction(u1)
    for _ in range(k - 1):
        t = 2 * t / (1 - t * t)
    return (1 + t) / (1 - t)


def same_fraction(got, want):
    return type(got) is Fraction and (got.numerator, got.denominator) == (
        want.numerator, want.denominator)


@pytest.mark.parametrize("k", range(2, 13))
def test_oracle_equals_the_fraction_doubling_on_the_ladder(k):
    u1 = u1_of_k(k)
    assert same_fraction(u2_direct_oracle(u1, k), fraction_oracle(u1, k))


@settings(deadline=None, max_examples=100)
@given(st.one_of(
           st.integers(min_value=2, max_value=10**4),
           st.integers(min_value=2, max_value=10**6).flatmap(
               lambda p: st.builds(Fraction, st.just(p), st.integers(1, p - 1)))),
       st.integers(min_value=2, max_value=12))
def test_oracle_equals_the_fraction_doubling_on_rational_u1(u1, k):
    # odd and even parts both: the halvings are the only reduction taken
    assert same_fraction(u2_direct_oracle(u1, k), fraction_oracle(u1, k))


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
assert read_fraction_parts(sys.argv[1]) == (value.numerator, value.denominator)
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
