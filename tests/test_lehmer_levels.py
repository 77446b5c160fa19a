"""Lehmer's levels: formulas.lehmer_reduced and the digits compute-pi
delivers from the formula it evaluates.

The transform must be exact, and it must leave alone every cotangent
below its width rule.  compute-pi applies it to every source, so its
digit file is held byte for byte against the Maclaurin reference pi at
every depth through 16, with and without --u2-file, and from every
fixture.
"""

import contextlib
import io
import json
from decimal import Decimal
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

from machinlike import cli, formulas, series
from machinlike.exactmath import RationalParts, guard_digits, reciprocal, working_context
from machinlike.formulas import (
    MachinFormula, fixtures, lehmer_reduced, two_term_formula, validate_formula)
from machinlike.series import arctan_fast, reference_pi


def _gaussian(beta) -> tuple[int, int]:
    """(P, Q) of a cotangent P/Q, as ints: atan(1/beta) is arg(P + iQ) for P > 0."""
    return int(beta.numerator), int(beta.denominator)


def _times(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


@st.composite
def wide_cotangents(draw):
    """(P, Q) with Q of 256 bits or more and 1 < P/Q <= 10**80, below
    where the levels stop."""
    den_digits = draw(st.integers(78, 3000))
    orders = draw(st.integers(0, 80))
    den = draw(st.integers(10**(den_digits - 1), 10**den_digits - 1))
    return draw(st.integers(den + 1, den * 10**orders + 1)), den


@settings(max_examples=60, deadline=None)
@given(parts=wide_cotangents(), negative=st.booleans(), as_decimal=st.booleans(),
       coeff=st.integers(-10**6, 10**6).filter(bool), precision=st.integers(1000, 30000))
@example(parts=(7 * 10**80, 10**80), negative=True, as_decimal=True, coeff=3, precision=1000)
def test_the_levels_are_exact(parts, negative, as_decimal, coeff, precision):
    """(P + iQ) times the conjugate of prod (n_j + i) * (P_r + iQ_r) is real
    and positive: the levels' arctangents sum to atan(Q/P) exactly.  A P
    that is a multiple of Q is the one level P/Q, with no remainder."""
    num, den = parts
    beta = RationalParts(-num if negative else num, den)
    if as_decimal:
        beta = RationalParts(Decimal(beta.numerator), Decimal(den))
    reduced = lehmer_reduced(MachinFormula(((coeff, beta),)), precision)
    if num % den == 0:
        assert reduced.terms == ((-coeff if negative else coeff, Fraction(num // den)),)
    else:
        assert len(reduced.terms) > 1
    assert all(c == (-coeff if negative else coeff) for c, _ in reduced.terms)
    assert all(b.denominator == 1 and b.numerator > 1 for _, b in reduced.terms[:-1])
    last = reduced.terms[-1][1]
    assert last.denominator == 1 or type(last.numerator) is type(beta.numerator)
    real, imag = _conjugate_product(num, den, reduced)
    assert imag == 0 and real > 0


def _conjugate_product(num: int, den: int, formula) -> tuple[int, int]:
    """(num + i den) times the conjugate of the product of every term's
    P + iQ: real and positive when the terms' arctangents sum to atan(den/num)."""
    product = (1, 0)
    for _, beta in formula.terms:
        product = _times(product, _gaussian(beta))
    return _times((num, den), (product[0], -product[1]))


def test_a_level_can_end_the_term_exactly():
    """P + iQ = (7 + i)(N + i): the first level is 7, the cotangent left is
    N itself, and the second level leaves no remainder."""
    big = 2**256 + 1
    beta = RationalParts(7 * big - 1, big + 7)
    reduced = lehmer_reduced(MachinFormula(((3, beta),)), 1000)
    assert reduced.terms == ((3, Fraction(7)), (3, Fraction(big)))


@pytest.mark.parametrize("precision", [500, 1000, 2000, 5000, 30000])
def test_integer_cotangents_and_narrow_parts_pass_through(precision):
    for formula in fixtures().values():
        assert lehmer_reduced(formula, precision) == formula
    for k in range(2, 7):    # u2's parts have at most 171 bits here
        formula = two_term_formula(k)
        assert lehmer_reduced(formula, precision) == formula


def test_the_rule_reads_the_precision_and_the_width():
    narrow = two_term_formula(7)    # u2's denominator has 367 bits
    assert lehmer_reduced(narrow, 999) == narrow
    reduced = lehmer_reduced(narrow, 1000)
    assert reduced.terms[0] == narrow.terms[0] and len(reduced.terms) > 2
    # a remainder already past 10**(precision/12) is not reduced again
    assert lehmer_reduced(reduced, 1000) == reduced
    # 48,517 bits: past 1000**2.5/1600 (19,764), within 2000**2.5/1600 (111,803)
    wide = two_term_formula(13)
    assert lehmer_reduced(wide, 1000) == wide
    assert len(lehmer_reduced(wide, 2000).terms) > 2


def test_validation_sums_the_levels_compute_pi_sums(monkeypatch):
    """validate_formula hands arctan_sum the terms of lehmer_reduced at its
    precision, and its result is the unreduced sum's."""
    formula = two_term_formula(12)
    reduced = lehmer_reduced(formula, 2000)
    assert len(reduced.terms) > 2
    summed = []
    arctan_sum = series.arctan_sum

    def spy(pairs, precision, *rest):
        summed.append(list(pairs))
        return arctan_sum(summed[-1], precision, *rest)

    monkeypatch.setattr(series, "arctan_sum", spy)
    result = validate_formula(formula, 2000)
    assert summed == [[(4 * coeff, beta) for coeff, beta in reduced.terms]]
    monkeypatch.setattr(formulas, "lehmer_reduced", lambda formula, precision: formula)
    unreduced = validate_formula(formula, 2000)
    assert len(summed[1]) == 2
    assert result == unreduced and result.valid


def _run(*argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        code = cli.main(list(argv))
    return code, json.loads(out.getvalue())


@pytest.fixture(scope="module")
def u2_files(tmp_path_factory):
    """generate's u2 file at every k = 2..16."""
    folder = tmp_path_factory.mktemp("u2")
    for k in range(2, 17):
        code, _ = _run("generate", "--k", str(k), "--out", str(folder / f"u2-k{k}.txt"))
        assert code == 0
    return folder


SOURCES = ([("--k", str(k)) for k in range(2, 17)]
           + [("--k", str(k), "--u2-file", f"u2-k{k}.txt") for k in range(2, 17)]
           + [("--fixture", name) for name in sorted(fixtures())])


@pytest.mark.parametrize("precision", [500, 1000, 2000, 5000])
@pytest.mark.parametrize("source", SOURCES, ids=" ".join)
def test_the_digit_file_is_the_reference_pi(source, precision, u2_files, tmp_path):
    if "--u2-file" in source:
        source = source[:-1] + (str(u2_files / source[-1]),)
    out = tmp_path / "pi.txt"
    code, payload = _run("compute-pi", *source, "--precision", str(precision), "--out", str(out))
    assert (code, payload["ok"]) == (0, True), payload
    assert out.read_bytes() == f"{reference_pi(precision)}\n".encode("ascii")


def test_terms_truncates_every_branch_of_the_evaluated_formula(tmp_path):
    """--terms M is M terms of each arctangent that compute-pi sums, the
    Lehmer levels and their remainder included."""
    precision, m, out = 2000, 100, tmp_path / "pi.txt"
    code, payload = _run("compute-pi", "--k", "12", "--precision", str(precision),
                         "--terms", str(m), "--out", str(out))
    evaluated = lehmer_reduced(two_term_formula(12), precision)
    assert (code, payload["terms"], payload["arctangents"]) == (0, m, len(evaluated.terms))
    assert not payload["ok"] and payload["coinciding_digits"] < precision

    def digits(formula):
        # compute-pi's sum, term by term: 8 spare digits, the coefficients' and the guard
        work = precision + 8 + len(str(4 * 2**11)) + guard_digits()
        with working_context(work):
            value = Decimal(0)
            for coeff, beta in formula.terms:
                value += 4 * coeff * arctan_fast(reciprocal(beta), m, work)
        return f"{value:f}"[:precision + 2] + "\n"

    assert out.read_text() == digits(evaluated)
    assert out.read_text() != digits(two_term_formula(12))
