"""No result reads the caller's decimal context.

Every public call and every command gives under a caller's unusual
context (rounding mode, precision, exponent limits, trapped signals, a
lower-case exponent) exactly what it gives under the default context.
A public call's value is written by repr under the default context,
since repr writes a Decimal's exponent in the caller's capitals; a
command's output is compared as it was printed.
"""

import contextlib
import io
import os
from decimal import (
    ROUND_CEILING, ROUND_DOWN, ROUND_FLOOR, ROUND_HALF_EVEN, ROUND_UP, Context, Decimal,
    DivisionByZero, Inexact, InvalidOperation, Overflow, Rounded, Subnormal, Underflow,
    localcontext)
from fractions import Fraction

import pytest

from machinlike import (
    arctan_complex, arctan_fast, coinciding_digits, convergence_scan, dec_arctan, dec_sin_cos,
    fixtures, fraction_to_decimal, int_log10, ladder_eval, lehmer_measure, lehmer_reduced,
    reference_pi, round_sig, rounded_u2, series_error, two_term_formula, u1_of_k, u2_trig,
    validate_formula, verify_k, working_context)
from machinlike.cli import main
from machinlike.exactmath import _EXACT

AMBIENT = {
    "round-up": Context(rounding=ROUND_UP),
    "round-floor": Context(rounding=ROUND_FLOOR),
    "round-ceiling": Context(rounding=ROUND_CEILING),
    "round-down": Context(rounding=ROUND_DOWN),
    "prec-1-round-down": Context(prec=1, rounding=ROUND_DOWN),
    "prec-3": Context(prec=3),
    "exponents-99": Context(Emin=-99, Emax=99),
    "traps": Context(traps=[InvalidOperation, DivisionByZero, Overflow,
                            Inexact, Rounded, Subnormal, Underflow]),
    "capitals-0": Context(capitals=0),
}

# Machin's formula with u2 off by 1.4276e-31: a residual of -9.9968e-36, a
# hair inside validation's threshold of 1e-35 at precision 40
NEAR_MISS = two_term_formula(3, u2_value=Fraction(-239) + Fraction("1.4276e-31"))

CALLS = {
    "round_sig": lambda: [round_sig(Decimal("2.5"), 1), round_sig(Decimal("-1234.5678"), 6)],
    "fraction_to_decimal": lambda: [fraction_to_decimal(Fraction(-22, 7), 50),
                                    fraction_to_decimal(Fraction(1, 3 * 10**200), 30)],
    "reference_pi": lambda: reference_pi(60),
    "lehmer_measure": lambda: [lehmer_measure(fixtures()["chienlih-6term"]),
                               lehmer_measure(two_term_formula(6))],
    "u2_trig": lambda: u2_trig(u1_of_k(9), 9, 40),
    "arctan_fast": lambda: arctan_fast(Fraction(1, 7), 20, 50),
    "arctan_complex": lambda: arctan_complex(Fraction(1, 7), 20, 50),
    "validate_formula": lambda: [validate_formula(fixtures()["machin-1706"], 40),
                                 validate_formula(fixtures()["kanada-a"], 150),
                                 validate_formula(NEAR_MISS, 40)],
    "convergence_scan": lambda: convergence_scan(3, 5, -239, 6, 80),
    "convergence_scan_refusal": lambda: convergence_scan(3, 5, -239, 50, 40),
    "series_error": lambda: [series_error(Fraction(1, 10), 5),
                             series_error(Fraction(1, 10**6), 10, "euler")],
    "ladder_eval": lambda: ladder_eval(10, 40),
    "rounded_u2": lambda: rounded_u2(u1_of_k(27), 27, 50),
    "verify_k": lambda: [verify_k(5, 40), verify_k(9, 60)],
    "int_log10": lambda: int_log10(3**1000, 30),
    "dec_sin_cos": lambda: dec_sin_cos(Decimal("12345.678"), 30),
    "dec_arctan": lambda: [dec_arctan(Decimal("0.3"), 40), dec_arctan(Fraction(4, 3), 40)],
    "coinciding_digits": lambda: [coinciding_digits(Decimal("3.14159"), Decimal("3.14168")),
                                  coinciding_digits(Decimal("1E-150"), Decimal("2E-150"))],
    "lehmer_reduced": lambda: lehmer_reduced(two_term_formula(8), 1200),
}

COMMANDS = [
    ["measure", "--k", "27"],
    ["measure-sweep", "--k-max", "24"],
    ["verify", "--k", "9", "--precision", "60"],
    ["verify", "--k", "14", "--precision", "20"],
    ["generate", "--k", "7"],
    ["compute-pi", "--k", "8", "--precision", "1200", "--out", "pi.txt"],
    ["compute-pi", "--fixture", "lehmer-3term", "--precision", "300", "--out", "pi.txt"],
    ["error-curve", "--series", "fast"],
    ["error-curve", "--series", "euler"],
]


def _outcome(call):
    """repr of what ``call`` returns, written under the default context, or
    of what it raises."""
    try:
        value = call()
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    with localcontext(Context()):
        return repr(value)


def _command(argv, where):
    """(exit code, stdout, stderr, {file: text}) of ``main(argv)`` run in
    the new directory ``where``."""
    where.mkdir()
    out, err = io.StringIO(), io.StringIO()
    before = os.getcwd()
    os.chdir(where)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        os.chdir(before)
    files = {path.name: path.read_text() for path in sorted(where.iterdir())}
    return code, out.getvalue(), err.getvalue(), files


def _everything(where):
    return ({name: _outcome(call) for name, call in CALLS.items()},
            [_command(argv, where / str(i)) for i, argv in enumerate(COMMANDS)])


@pytest.fixture(scope="module")
def under_default(tmp_path_factory):
    with localcontext(Context()):
        return _everything(tmp_path_factory.mktemp("default"))


@pytest.mark.parametrize("name", AMBIENT)
def test_no_result_reads_the_callers_context(name, under_default, tmp_path):
    calls, commands = under_default
    assert calls["round_sig"] == repr([Decimal("2"), Decimal("-1234.57")])
    assert '"e": "0.245319"' in commands[0][1]
    with localcontext(AMBIENT[name]):
        calls_here, commands_here = _everything(tmp_path)
        # the package's own contexts, whatever the caller's
        with working_context(7) as ctx:
            own = ctx.prec, ctx.rounding, {s for s, on in ctx.traps.items() if on}
    for call in CALLS:
        assert calls_here[call] == calls[call], call
    for argv, here, default in zip(COMMANDS, commands_here, commands):
        assert here == default, argv
    assert own == (7, ROUND_HALF_EVEN, {InvalidOperation, DivisionByZero, Overflow})
    assert {s for s, on in _EXACT.traps.items() if on} == {
        InvalidOperation, DivisionByZero, Overflow, Inexact}
