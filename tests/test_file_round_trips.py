"""Property round trips of fraction files and formula files.

Parts reach past the interpreter's 4,300-digit int<->str limit, and the
files carry signs, '#' comments, blank lines and bare integers; writing
and reading must leave that limit as it was, and work under any limit.
"""

import json
import os
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from machinlike.formulas import MachinFormula, format_formula, parse_formula_file
from machinlike.squaring import read_fraction_parts, write_fraction_file

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
        assert read_fraction_parts(path) == (value.numerator, value.denominator)
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


def test_huge_fraction_file_round_trips_without_touching_the_digit_limit(tmp_path, monkeypatch):
    def refuse(limit):
        raise AssertionError("the library changed the int<->str digit limit")

    monkeypatch.setattr(sys, "set_int_max_str_digits", refuse, raising=False)
    value = Fraction(-(7 ** 118_300 + 1), 3 ** 209_590)   # 99,976 and 100,000 digits
    path = tmp_path / "u2.txt"
    write_fraction_file(path, value)
    assert path.stat().st_size == 99_976 + 100_000 + 3
    assert read_fraction_parts(path) == (value.numerator, value.denominator)


LOWEST_LIMIT_SCRIPT = """
import sys
from fractions import Fraction

from machinlike.formulas import MachinFormula, format_formula, parse_formula_file

assert sys.get_int_max_str_digits() == 640
# parts of 1,000 and 955 digits and a coefficient of 700
value = Fraction(10 ** 999 + 7, 3 ** 2000)
formula = MachinFormula(((10 ** 699 + 1, Fraction(5)), (-1, value)))
with open(sys.argv[1], "w", encoding="ascii") as fh:
    fh.write(format_formula(formula))
assert parse_formula_file(sys.argv[1]).terms == formula.terms
"""


LOWEST_LIMIT = pytest.mark.skipif(not hasattr(sys, "get_int_max_str_digits"),
                                  reason="this interpreter has no int<->str digit limit")


def _run_at_lowest_limit(cwd, *args):
    """Run Python under the lowest int<->str digit limit, 640, with src/ importable."""
    env = dict(os.environ)
    env.pop("PYTHONINTMAXSTRDIGITS", None)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-X", "int_max_str_digits=640", *args],
                          env=env, cwd=cwd, capture_output=True, text=True, timeout=120)


@LOWEST_LIMIT
def test_files_work_under_the_lowest_digit_limit(tmp_path):
    def run(*args):
        done = _run_at_lowest_limit(tmp_path, *args)
        assert (done.returncode, done.stderr) == (0, ""), done.stderr
        return done.stdout

    # u2 at k = 12 has parts of about 6,700 digits
    generated = json.loads(run("-m", "machinlike.cli", "generate", "--k", "12",
                               "--out", "u2.txt"))
    assert generated["valid"] is True and generated["u2_den_digits"] > 640
    computed = json.loads(run("-m", "machinlike.cli", "compute-pi", "--k", "12",
                              "--u2-file", "u2.txt"))
    assert computed["ok"] is True
    run("-c", LOWEST_LIMIT_SCRIPT, "formula.txt")


@LOWEST_LIMIT
def test_measure_refuses_a_coefficient_past_the_digit_limit_in_one_line(tmp_path):
    # the file parses at any limit; the JSON summary would print the coefficient
    (tmp_path / "wide.txt").write_text(f"{10 ** 699 + 1} * atan(1/5)\n-1 * atan(1/239)\n",
                                       encoding="ascii")
    done = _run_at_lowest_limit(tmp_path, "-m", "machinlike.cli", "measure",
                                "--formula", "wide.txt")
    assert (done.returncode, done.stdout) == (4, "")
    assert done.stderr.startswith("error: cannot write the JSON summary: ")
    assert done.stderr.count("\n") == 1, done.stderr
