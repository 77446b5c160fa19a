"""Integer parts held as Decimals: generate's chain, its u2 file, and the
part readers that compute-pi and validation read them through.

A squaring chain whose parts end past 32,768 bits (k >= 13 on the ladder)
runs in Decimal under an exact context from its first step, and
compute-pi --u2-file reads the file back as Decimals.
Every reader must give on Decimal(n) exactly what it gives on the int n,
so that every output stays byte-identical to the int code's.
"""

import contextlib
import io
import random
from decimal import Decimal, getcontext, localcontext
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from machinlike import cli, squaring
from machinlike.errors import DomainError, FormulaParseError
from machinlike.exactmath import (
    _EXACT,
    _as_decimal,
    _as_int,
    _bit_length,
    _scaled_floor,
    RationalParts,
    coprime_fraction,
    format_rational,
    int_digit_count,
    int_log10,
    reciprocal,
)
from machinlike.formulas import MachinFormula
from machinlike.radical import u1_of_k
from machinlike.series import _arctan_scaled, _branch_float, arctan_fast, auto_term_count
from machinlike.squaring import (
    _PADDED_DIGITS, _SCHOOLBOOK_DIGITS, ORACLE_MAX_K, _denominator, _ends_in_decimal, _product,
    closing_parts, init_state, read_fraction_parts, shared_parts, square_step, u2_direct_oracle,
    u2_of)


def _dec(n: int) -> Decimal:
    """n as an exact Decimal of exponent 0, as the chain and the file reader make them."""
    return Decimal(str(_as_decimal(n)))


def _run(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(argv)
    return code, out.getvalue()


def _generated_u2_text(tmp_path, k: int) -> str:
    path = tmp_path / f"u2-k{k}.txt"
    code, _ = _run(["generate", "--k", str(k), "--out", str(path)])
    assert code == 0
    return path.read_text(encoding="ascii")


def test_generate_writes_the_direct_oracles_u2_through_k12(tmp_path):
    # the oracle shares no code with the chain generate writes from
    for k in range(2, ORACLE_MAX_K + 1):
        expected = format_rational(u2_direct_oracle(u1_of_k(k), k)) + "\n"
        assert _generated_u2_text(tmp_path, k) == expected, k


def test_generate_prints_its_decimal_parts_as_u2_ofs_ints_print_past_the_oracle(tmp_path):
    # the same chain: generate writes its Decimal parts with str, u2_of's
    # Fraction is printed from ints by str(_as_decimal(part))
    for k in range(ORACLE_MAX_K + 1, 17):
        expected = format_rational(u2_of(u1_of_k(k), k)) + "\n"
        assert _generated_u2_text(tmp_path, k) == expected, k


def _reference_parts(u1: int, k: int) -> list[str]:
    """(A + B, A - B) as text, with z(k-1) = (A + iB)/D from the plain
    Fraction reference over the closed-form D."""
    state = init_state(u1)
    for _ in range(k - 2):
        state = square_step(state)
    d = _as_int(_denominator(u1, k - 1))
    a, b = int(state.x * d), int(state.y * d)
    return [str(_as_decimal(a + b)), str(_as_decimal(a - b))]


def test_a_chain_runs_in_ints_unless_its_parts_end_past_32768_bits():
    small = closing_parts(40, 6)    # 176-bit parts stay ints
    assert [str(_as_decimal(part)) for part in small] == _reference_parts(40, 6)
    assert all(type(part) is int for part in small)
    # k = 12's closing parts, about 22,200 bits, stay ints; k = 13's, about
    # 48,500, are Decimals from the first step
    for k, kind in ((12, int), (13, Decimal)):
        parts = closing_parts(u1_of_k(k), k)
        assert all(type(part) is kind for part in parts), k
        assert [str(_as_decimal(part)) for part in parts] == _reference_parts(u1_of_k(k), k)
    # generate's u2 through k = 12 stays a Fraction, which perfbench's
    # wrong-u2-file test adds to.  The closed-form D at k - 1 takes the parts' kind.
    for k in range(2, 17):
        kinds = {type(part) for part in closing_parts(u1_of_k(k), k)}
        kinds.add(type(_denominator(u1_of_k(k), k - 1)))
        assert kinds == ({int} if k <= 12 else {Decimal}), k
    # the rule itself: final parts of 32,768 bits stay ints, one bit more moves
    # them; a chain of no steps keeps z(1)'s ints however wide
    assert not _ends_in_decimal(16_384, 1) and _ends_in_decimal(16_385, 1)
    assert not _ends_in_decimal(1 << 20, 0)


@st.composite
def chain_ends(draw):
    """(u1, k): a rational u1 > 1 whose z(1) has a reduced denominator of
    3 to about 3,000 bits, and a k at which shared_parts' chain ends
    within 2**17 bits, so that chains end on both sides of 32,768 bits."""
    top = draw(st.integers(2, 1500))
    num = draw(st.integers(1 << (top - 1), (1 << top) - 1))
    u1 = Fraction(num, draw(st.integers(1, num - 1)))
    bits = init_state(u1).x.denominator.bit_length()
    return u1, draw(st.integers(2, ((1 << 17) // bits).bit_length()))


def _reference_state(u1: Fraction, k: int):
    """z(k) from the plain Fraction reference, and z(1)'s denominator to
    the 2**(k-1), the chain's D at k, as ints."""
    state = init_state(u1)
    den = state.x.denominator ** (1 << (k - 1))
    for _ in range(k - 1):
        state = square_step(state)
    return state, den


def _one_kind(parts, decimal: bool):
    kind = Decimal if decimal else int
    assert all(type(part) is kind for part in parts), (kind, parts)
    assert all(part.as_tuple().exponent == 0 for part in parts if decimal)


@settings(max_examples=40, deadline=None)
@given(chain=chain_ends())
# z(1)'s denominator has 14 bits: the model's 28,672-bit closing parts
# stay ints, and shared_parts' 57,344 are Decimals
@example(chain=(Fraction(163, 7), 13))
# the ladder's u1 at k = 13: 49,152 and 98,304 bits, both Decimal
@example(chain=(Fraction(u1_of_k(13)), 13))
# a z(1) denominator of 3,000 bits: 24,000-bit closing parts at k = 5
@example(chain=(Fraction(2**1500 + 3, 5), 5))
@example(chain=(Fraction(2**1500 + 3, 5), 6))
def test_a_chain_keeps_the_kind_its_end_names_from_its_first_step(chain):
    u1, k = chain
    bits = init_state(u1).x.denominator.bit_length()
    state, den = _reference_state(u1, k)
    x, y = parts = shared_parts(u1, k)
    assert (Fraction(_as_int(x), den), Fraction(_as_int(y), den)) == (state.x, state.y)
    _one_kind([*parts, _denominator(u1, k)], _ends_in_decimal(bits, k - 1))
    state, den = _reference_state(u1, k - 1)
    a, b = state.x * den, state.y * den
    closing = closing_parts(u1, k)
    assert [_as_int(part) for part in closing] == [a + b, a - b]
    _one_kind([*closing, _denominator(u1, k - 1)], _ends_in_decimal(bits, k - 2))


def _int_chain(u1: Fraction, steps: int) -> tuple[int, int]:
    """z(1)'s integer numerators squared ``steps`` times in ints."""
    start = init_state(u1)
    x, y = start.x.numerator, start.y.numerator
    for _ in range(steps):
        x, y = (x - y) * (x + y), 2 * x * y
    return x, y


# chains whose Decimal steps cross libmpdec's schoolbook band at different
# widths: the ladder's shorter factor has 3,652 to 4,576 digits there,
# 163/7's 4,222 and (2**1500 + 3)/5's 3,162; 163/7's closing chain at
# k = 13 and (2**1500 + 3)/5's at k = 5 stay in ints
BAND_CHAINS = ([(Fraction(u1_of_k(k)), k) for k in range(13, 17)]
               + [(Fraction(163, 7), k) for k in (13, 14, 15)]
               + [(Fraction(2**1500 + 3, 5), k) for k in (5, 6, 7)])


@pytest.mark.parametrize("u1, k", BAND_CHAINS, ids=[
    *(f"ladder-k{k}" for k in range(13, 17)), *(f"163/7-k{k}" for k in (13, 14, 15)),
    *(f"(2**1500+3)/5-k{k}" for k in (5, 6, 7))])
def test_the_padded_band_step_gives_the_int_chains_parts(u1, k, monkeypatch):
    padded = []

    def product(a, b):
        padded.append(_PADDED_DIGITS <= min(a.adjusted(), b.adjusted()) + 1 <= _SCHOOLBOOK_DIGITS)
        return _product(a, b)

    monkeypatch.setattr(squaring, "_product", product)
    x, y = _int_chain(u1, k - 1)
    a, b = _int_chain(u1, k - 2)
    for parts, expected in ((shared_parts(u1, k), (x, y)), (closing_parts(u1, k), (a + b, a - b))):
        assert [_as_int(part) for part in parts] == list(expected)
        assert [str(_as_decimal(part)) for part in parts] == [str(_as_decimal(n)) for n in expected]
        assert all(part.as_tuple().exponent == 0 for part in parts if type(part) is Decimal)
    assert any(padded)


@pytest.mark.parametrize("short", [2_699, 2_700, 4_864, 4_865])
def test_a_product_at_the_band_edges_is_the_int_product(short):
    for long in (short, 9_000):
        a, b = -_digits(short, short), _digits(long, long + 1)
        with localcontext(_EXACT):
            for x, y in ((a, b), (b, a), (-b, a)):
                product = _product(_as_decimal(x), _as_decimal(y))
                assert str(product) == str(_as_decimal(x * y))
                assert product.as_tuple().exponent == 0


def test_a_bad_byte_deep_in_a_wide_part_is_refused(tmp_path):
    # Decimal() alone would take "_", "e" or "." between digits; a digit
    # check that stopped scanning early would pass any of them
    text = _generated_u2_text(tmp_path, 16)
    at = (1 if text[0] == "-" else 0) + 69_999    # the numerator's 70,000th digit
    assert text[at].isdigit() and text.index("/") > at
    path = tmp_path / "bad.txt"
    for bad in (b"_", b"e", b" ", b".", b"\xb2"):
        path.write_bytes(text[:at].encode() + bad + text[at + 1:].encode())
        with pytest.raises(FormulaParseError) as raised:
            read_fraction_parts(path)
        assert raised.value.line == 1
        assert ("0xb2" in str(raised.value)) == (bad == b"\xb2")
        assert _run(["compute-pi", "--k", "16", "--u2-file", str(path)]) == (4, "")


def _digits(count: int, seed: int) -> int:
    return random.Random(seed).randrange(10 ** (count - 1), 10 ** count)


# random integers of 1 to 20,000 digits, and values just either side of
# powers of 10 and of 2, where a reader's rounded shortcut must give way
MAGNITUDES = st.one_of(
    st.builds(_digits, st.integers(1, 20_000), st.integers(0, 2**32)),
    st.builds(lambda e, d: 10**e + d, st.integers(1, 20_000), st.integers(-2, 2)),
    st.builds(lambda e, d: 2**e + d, st.integers(2, 66_000), st.integers(-2, 2)),
)
SIGNED = st.tuples(MAGNITUDES, st.booleans()).map(lambda t: -t[0] if t[1] else t[0])


@settings(max_examples=120, deadline=None)
@given(n=SIGNED)
def test_single_part_readers_match_the_int_code(n):
    d = _dec(n)
    assert int_digit_count(d) == int_digit_count(n)
    assert int_log10(d, 45) == int_log10(n, 45)
    # the bit lengths behind the series' exact/rounded branch choice
    assert _bit_length(d) == n.bit_length()
    assert _scaled_floor(d, 1, -(n.bit_length() // 2)) == n >> (n.bit_length() // 2)


def test_readers_past_two_million_digits():
    # a default Context cannot scale by 2 million orders; k = 20 parts have 3 million digits
    n = 10**2_500_000 + 1
    d = Decimal("1" + "0" * 2_499_999 + "1")
    assert int_digit_count(d) == 2_500_001
    assert int_log10(d, 45) == int_log10(n, 45)
    assert _bit_length(d) == n.bit_length()


@settings(max_examples=80, deadline=None)
@given(a=SIGNED, b=MAGNITUDES, bits=st.integers(1, 4_000))
def test_rational_readers_match_the_int_code(a, b, bits):
    exact, dec = RationalParts(a, b), RationalParts(_dec(a), _dec(b))
    assert reciprocal(dec) == reciprocal(exact)
    inside = []
    for beta in (exact, dec):
        try:
            MachinFormula(((1, beta),))
        except DomainError:
            inside.append(True)
        else:
            inside.append(False)
    assert inside[0] == inside[1] == (abs(a) <= b)
    small = exact if abs(a) <= b else reciprocal(exact)
    small_dec = dec if abs(a) <= b else reciprocal(dec)
    assert _branch_float(small_dec, bits) == _branch_float(small, bits)
    assert _scaled_floor(small_dec.numerator, small_dec.denominator, bits) == \
        (small.numerator << bits) // small.denominator
    if small.numerator:
        assert auto_term_count(small_dec, 200) == auto_term_count(small, 200)


@settings(max_examples=40, deadline=None)
@given(a=SIGNED.filter(lambda n: abs(n) < 10**2_000), b=MAGNITUDES.filter(lambda n: n < 10**2_000),
       step=st.integers(-1, 1))
def test_kernel_takes_the_same_branch_on_decimal_parts(a, b, step):
    if a == 0:
        a = 1
    p, q = sorted((abs(a), b))
    p = -p if a < 0 else p
    # the scale at the exact/rounded threshold of _arctan_scaled, and next to it
    bits = 8 * max(p.bit_length(), q.bit_length()) + 12 + step
    exact = RationalParts(p, q)
    width = max(_bit_length(_dec(p)), _bit_length(_dec(q)))
    assert width == max(abs(p).bit_length(), q.bit_length())
    assert _arctan_scaled(RationalParts(_dec(p), _dec(q)), 3, bits, width) == \
        _arctan_scaled(exact, 3, bits, width)


def test_a_40_digit_part_one_past_its_denominator():
    den = 10**39 + 12_345
    # abs() would round both to 28 digits, where they are equal
    outside = RationalParts(_dec(-(den + 1)), _dec(den))
    MachinFormula(((1, outside),))
    assert reciprocal(outside) == RationalParts(-den, den + 1)
    assert coprime_fraction(_dec(den + 1), _dec(-den)) == RationalParts(-(den + 1), den)
    with pytest.raises(DomainError):
        MachinFormula(((1, RationalParts(_dec(-(den - 1)), _dec(den))),))
    x = reciprocal(outside)
    assert arctan_fast(x, 5, 60) == arctan_fast(Fraction(-den, den + 1), 5, 60)


def test_a_negative_u2_floors_its_quotient(tmp_path):
    # every ladder u2 is negative; x = 1/u2 must be floored, not truncated
    path = tmp_path / "u2.txt"
    assert _run(["generate", "--k", "13", "--out", str(path)])[0] == 0
    parts = read_fraction_parts(path)
    assert parts[0] < 0 and isinstance(parts[0], Decimal)
    x_dec = reciprocal(RationalParts(*parts))
    x_int = reciprocal(RationalParts(*map(_as_int, parts)))
    for bits in (700, 701, 4_000):
        assert _branch_float(x_dec, bits) == _branch_float(x_int, bits)
        truncated = -(-(x_int.numerator << bits) // x_int.denominator)
        assert _scaled_floor(x_dec.numerator, x_dec.denominator, bits) == truncated - 1
    code, text = _run(["compute-pi", "--k", "13", "--u2-file", str(path), "--precision", "200"])
    assert code == 0 and '"ok": true' in text


def test_generate_and_compute_pi_leave_the_decimal_context_alone(tmp_path):
    context = getcontext()
    before = (context.prec, context.rounding, context.Emax, context.Emin,
              dict(context.traps), dict(context.flags))
    path = str(tmp_path / "u2.txt")
    assert _run(["generate", "--k", "14", "--out", path])[0] == 0
    assert _run(["compute-pi", "--k", "14", "--u2-file", path])[0] == 0
    context = getcontext()
    assert (context.prec, context.rounding, context.Emax, context.Emin,
            dict(context.traps), dict(context.flags)) == before
