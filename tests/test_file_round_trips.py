"""Property round trips of fraction files and formula files.

Parts reach past the interpreter's 4,300-digit int<->str limit, and the
files carry signs, '#' comments, blank lines and bare integers; writing
and reading must leave that limit as it was.
"""

import sys
import tempfile
from fractions import Fraction
from pathlib import Path

from hypothesis import given, settings, strategies as st

from machinlike.formulas import MachinFormula, format_formula, parse_formula_file
from machinlike.squaring import read_fraction_file, write_fraction_file

SMALL = st.integers(1, 10**40)
# lead * 10**4300 + low has 4,301 digits or more
HUGE = st.builds(lambda lead, exp, low: lead * 10**exp + low,
                 st.integers(1, 9), st.integers(4300, 4500), st.integers(0, 10**40))
PARTS = st.one_of(SMALL, HUGE)
NOISE = st.lists(st.sampled_from(["", "   ", "# note", "  # indented, k=3"]), max_size=3)


def _int_text_limit():
    return getattr(sys, "get_int_max_str_digits", lambda: None)()


@settings(max_examples=40, deadline=None)
@given(num=PARTS, den=PARTS, negative=st.booleans(), plus=st.booleans(),
       bare=st.booleans(), before=NOISE, after=NOISE)
def test_fraction_file_round_trip(num, den, negative, plus, bare, before, after):
    value = Fraction(-num if negative else num, 1 if bare else den)
    limit = _int_text_limit()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "u2.txt"
        write_fraction_file(path, value)
        line = path.read_text(encoding="ascii").strip()
        if bare:
            line = line.removesuffix("/1")
        if plus and not negative:
            line = "+" + line
        path.write_text("\n".join(before + [line] + after) + "\n", encoding="ascii")
        assert read_fraction_file(path) == value
    assert _int_text_limit() == limit


TERMS = st.tuples(st.integers(-10**6, 10**6).filter(bool), PARTS, PARTS, st.booleans())


@settings(max_examples=40, deadline=None)
@given(terms=st.lists(TERMS, min_size=1, max_size=3), noise=st.lists(NOISE, min_size=4, max_size=4))
def test_formula_file_round_trip(terms, noise):
    # |cotangent| = (a + b)/b > 1, of either sign
    formula = MachinFormula(tuple(
        (coeff, Fraction(a + b, -b if negative else b)) for coeff, a, b, negative in terms))
    limit = _int_text_limit()
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "pair.txt"
        lines = format_formula(formula).splitlines()
        text = [row for extra, line in zip(noise, lines + [""]) for row in extra + [line]]
        path.write_text("\n".join(text) + "\n", encoding="ascii")
        parsed = parse_formula_file(path)
    assert parsed.terms == formula.terms
    assert parsed.name == "pair"
    assert _int_text_limit() == limit
