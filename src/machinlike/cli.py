"""Command line front end.

Subcommands::

    machinlike generate      --k N [--precision P] [--out PATH] [--allow-huge]
    machinlike compute-pi    (--k N [--u2-file PATH] | --fixture NAME | --formula PATH)
                             [--terms M] [--precision P] [--out PATH]
    machinlike measure       (--k N | --fixture NAME | --formula PATH)
    machinlike verify        --k N [--precision P] [--allow-huge]
    machinlike error-curve   [--series fast|euler] [--terms M] [--samples N]
                             [--x-min X] [--x-max X] [--out PATH]
    machinlike measure-sweep [--k-max N] [--out PATH]

Every command prints its JSON summary to stdout whole or not at all, and
bulk artifacts (digit files, CSV tables) to --out.  Fixed defaults live in
the parser; every refusal of an option value (a bound, --u2-file without
--k, an unknown fixture, the desk-scale cap) happens in _check_args, before
any work, so no command body raises UsageError.
Exit codes: 0 success, 2 usage, 3 I/O, 4 domain or parse failure or out
of memory, 5 verification failure (compute-pi: fewer digits than
--precision with an auto-sized term count).
"""

from __future__ import annotations

import argparse
import json
import sys
from decimal import Decimal
from fractions import Fraction

from . import formulas, series, squaring, trigcheck
from .errors import (
    ConsistencyError,
    DomainError,
    FormulaParseError,
    PrecisionError,
    UsageError,
)
from .exactmath import (
    _EXACT,
    _refuse_past_budget,
    _write_lines,
    RationalParts,
    coinciding_digits,
    coprime_fraction,
    digits_prefix,
    fraction_to_decimal,
    guard_digits,
    int_digit_count,
    reciprocal,
)
from .radical import MAX_LADDER_K, u1_of_k
from .squaring import DESK_SCALE_MAX_K

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DOMAIN = 4
EXIT_VERIFY = 5


# add_argument's keywords for each option, by flag
_OPTIONS = {
    "--k": {"type": int, "help": "ladder index, 2..64"},
    "--precision": {"type": int, "default": 100, "help": "decimal digits (default 100)"},
    "--terms": {"type": int, "help": "series truncation order"},
    "--out": {"help": "output file path"},
    "--formula": {"help": "formula file to load"},
    "--fixture": {"help": "named built-in formula"},
    "--allow-huge": {"action": "store_true", "help": "lift the k <= 20 desk-scale cap"},
    "--u2-file": {"help": "reload the closing cotangent of --k"},
    "--series": {"choices": ("fast", "euler"), "default": "fast"},
    "--samples": {"type": int, "default": 41},
    "--x-min": {"default": "-1/1000000"},
    "--x-max": {"default": "1/1000000"},
    "--k-max": {"type": int, "default": 16},
}
# a command with --formula takes its formula from exactly one of these
_SOURCES = ("--k", "--formula", "--fixture")


def _build_parser(argv: list[str]) -> argparse.ArgumentParser:
    """The parser of argv.  When argv[0] names a command it holds that
    command alone, which parses argv as the full parser does for a fraction
    of its build time; otherwise (--help, no arguments, an unknown word) it
    holds all six."""
    # each command's name, help, options in the order its --help lists
    # them, and set_defaults' keywords: run, the handler main calls as
    # args.run(args), and any default of a shared option the command changes
    commands = (
        ("generate", "derive the pair (u1, u2) at index k",
         ("--k", "--precision", "--out", "--allow-huge"), {"run": cmd_generate}),
        ("compute-pi", "evaluate pi from a formula",
         ("--k", "--precision", "--terms", "--out", "--formula", "--fixture", "--u2-file"),
         {"run": cmd_compute_pi}),
        ("measure", "digits-per-term measure of a formula",
         ("--k", "--formula", "--fixture"), {"run": cmd_measure}),
        ("verify", "independent cross-checks at index k",
         ("--k", "--precision", "--allow-huge"), {"run": cmd_verify}),
        ("error-curve", "truncation error over an interval",
         ("--terms", "--out", "--series", "--samples", "--x-min", "--x-max"),
         {"run": cmd_error_curve, "terms": 10}),
        ("measure-sweep", "measure vs k table", ("--out", "--k-max"), {"run": cmd_measure_sweep}),
    )
    names = [name for name, *_ in commands]
    named = argv[0] if argv and argv[0] in names else None
    parser = argparse.ArgumentParser(
        prog="machinlike",
        description="two-term arctangent formula generation, measurement, "
                    "and verification")
    # with one command built, the usage line of an "unrecognized arguments"
    # error still names all six
    sub = parser.add_subparsers(dest="command", required=True,
                                **({"metavar": "{" + ",".join(names) + "}"} if named else {}))
    for name, help_text, options, defaults in commands:
        if named not in (None, name):
            continue
        p = sub.add_parser(name, help=help_text)
        p.set_defaults(**defaults)
        sources = p.add_mutually_exclusive_group(required=True) if "--formula" in options else p
        for flag in options:
            if flag in _SOURCES:
                sources.add_argument(flag, required=sources is p, **_OPTIONS[flag])
            else:
                p.add_argument(flag, **_OPTIONS[flag])
    return parser


# (dest, low, high) of every numeric option; high None leaves it open
_BOUNDS = (("k", 2, MAX_LADDER_K), ("precision", 20, None), ("terms", 1, None),
           ("k_max", 2, MAX_LADDER_K), ("samples", 3, None))

# Peak RSS over the interpreter's per byte of a --precision P run's widest
# working integer, about 2**(3.322 (P + 25 + 2G)) with G guard digits:
# reference pi's 10**(P + 25) and arctan_sum's 2**bits, which carries the
# G digits twice.  At P = 10**5 (2 vCPUs, Python 3.11, fresh processes)
# compute-pi took 9.5-12.6, generate 6.3 and verify, whose trig check
# works on Decimals of P digits, 33-47 at k = 2, 3 and 12 (12-35 at
# P = 30,000).
_PRECISION_PEAK_PER_BYTE = 16
_VERIFY_PEAK_PER_BYTE = 64


def _check_args(args: argparse.Namespace) -> None:
    """Refuse every option value the parser lets through, a bad
    MACHINLIKE_GUARD_DIGITS and a --precision whose working integers would
    pass the memory budget, before any work, and read error-curve's bounds
    as Fractions.  The Namespace of a command holds only that command's
    options."""
    for flag in ("x_min", "x_max"):
        if hasattr(args, flag):
            try:
                setattr(args, flag, Fraction(getattr(args, flag)))
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"--{flag.replace('_', '-')} expects a rational "
                                 f"like -1/1000000 or 1e-6: {exc}")
    k = getattr(args, "k", None)
    # before the bounds: --u2-file with no --k names the missing --k first
    if getattr(args, "u2_file", None) is not None and k is None:
        raise UsageError("--u2-file holds the u2 of one --k; it needs --k")
    for dest, low, high in _BOUNDS:
        value = getattr(args, dest, None)
        if value is not None and not low <= value <= (high or value):
            span = f">= {low}" if high is None else f"in {low}..{high}"
            raise UsageError(f"--{dest.replace('_', '-')} must be {span}, got {value}")
    if hasattr(args, "x_min") and args.x_min >= args.x_max:
        raise UsageError("--x-min must be below --x-max")
    if hasattr(args, "x_min") and max(-args.x_min, args.x_max) >= series.SERIES_ERROR_X_BOUND:
        raise UsageError(f"error-curve needs |x| < {series.SERIES_ERROR_X_BOUND} on its interval")
    fixture = getattr(args, "fixture", None)
    if fixture is not None and fixture not in (table := formulas.fixtures()):
        raise UsageError(f"unknown fixture {fixture!r}; known: {', '.join(sorted(table))}")
    if (k is not None and k > DESK_SCALE_MAX_K and args.command != "measure"
            and not getattr(args, "allow_huge", False)):
        # compute-pi needs u2 exactly and has no way past the cap
        lift = ("" if args.command == "compute-pi" else
                "; pass --allow-huge to proceed (expect long integer runtimes)")
        raise UsageError(f"--k {k} exceeds the desk-scale cap {DESK_SCALE_MAX_K}{lift}")
    guard = guard_digits()    # raises DomainError on a bad MACHINLIKE_GUARD_DIGITS
    precision = getattr(args, "precision", None)
    if precision is not None:
        _refuse_past_budget(f"--precision {precision} needs working integers",
                            (precision + 25 + 2 * guard) * 3322 // 1000,
                            _VERIFY_PEAK_PER_BYTE if args.command == "verify"
                            else _PRECISION_PEAK_PER_BYTE)


def _text(value) -> str:
    """str(value), a Decimal written by _EXACT: str() would read the
    caller's capitals."""
    return _EXACT.to_sci_string(value) if isinstance(value, Decimal) else str(value)


def _emit(payload: dict) -> None:
    # formatted whole before the first byte goes out: a summary that cannot
    # be written leaves stdout empty
    try:
        text = json.dumps(payload, indent=2)
    except ValueError as exc:   # an int past the interpreter's int-to-text limit
        raise DomainError(f"cannot write the JSON summary: {exc}") from None
    sys.stdout.write(text + "\n")


def cmd_generate(args: argparse.Namespace) -> int:
    k = args.k
    u1 = u1_of_k(k)
    # from k = 13 the chain runs in Decimal, whose parts print in one pass
    u2 = coprime_fraction(*squaring.closing_parts(u1, k, args.allow_huge))
    out = args.out or f"u2-k{k}.txt"
    squaring.write_fraction_file(out, u2)

    formula = formulas.two_term_formula(k, u2_value=u2, u1=u1)
    report = formulas.lehmer_measure(formula)
    check = formulas.validate_formula(formula, args.precision)

    payload = {
        "k": k,
        "u1": u1,
        "u2_num_digits": int_digit_count(u2.numerator),
        "u2_den_digits": int_digit_count(u2.denominator),
        "e": _text(report.e),
        "valid": check.valid,
        "residual": _text(check.residual),
        "validation_precision": check.precision,
        "out": out,
    }
    if (text := formulas.full_text(u2)) is not None:
        payload["u2"] = text
    _emit(payload)
    return EXIT_OK if check.valid else EXIT_VERIFY


def _load_formula(args: argparse.Namespace) -> formulas.MachinFormula:
    if args.formula is not None:
        return formulas.parse_formula_file(args.formula)
    return formulas.fixtures()[args.fixture]


def cmd_compute_pi(args: argparse.Namespace) -> int:
    precision = args.precision
    if args.k is None:
        formula = _load_formula(args)
    else:
        # the file's parts as written, as Decimals, with no gcd; generate
        # writes them in lowest terms
        u2 = (None if args.u2_file is None
              else RationalParts(*squaring.read_fraction_parts(args.u2_file)))
        formula = formulas.two_term_formula(args.k, u2_value=u2)
    # the formula evaluated: wide cotangents become Lehmer's integer levels
    formula = formulas.lehmer_reduced(formula, precision)
    # the truncation order that clears precision digits on every branch
    terms = args.terms or max(series.auto_term_count(reciprocal(beta), precision)
                              for _, beta in formula.terms)
    # pi is the sum at 4 * coeff; 8 spare digits keep rounding out of the digit file
    value = series.arctan_sum([(4 * c, beta) for c, beta in formula.terms],
                              precision + 8, terms)

    reference = series.reference_pi(precision)
    matched = coinciding_digits(value, reference)
    ok = matched >= precision
    payload = {
        "source": formula.name or "formula",
        "terms": terms,
        "arctangents": len(formula.terms),
        "precision": precision,
        "pi_prefix": digits_prefix(value, 30),
        "coinciding_digits": matched,
        "ok": ok,
    }
    if args.out:
        # the value's own sign and integer part, truncated to precision places
        count = value.adjusted() + 1 + precision
        digits = (digits_prefix(value, count) if count > 0 else "").rjust(precision + 1, "0")
        sign = "-" if value < 0 else ""
        _write_lines(args.out, [f"{sign}{digits[:-precision]}.{digits[-precision:]}"])
        payload["out"] = args.out
    _emit(payload)
    if not ok and args.terms is None:
        # an explicit --terms asks for the truncation; an auto-sized one
        # promised the digits
        print(f"compute-pi delivered {matched} of {precision} digits", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _measured_pair(k: int) -> tuple[formulas.MachinFormula, str]:
    """The pair at k: "exact" up to the desk-scale cap, else "magnitude",
    with u2 known by sign and size from the squaring chain at working
    precision, to 10 digits past the 40 its logarithm is taken to."""
    if k <= DESK_SCALE_MAX_K:
        return formulas.two_term_formula(k), "exact"
    u1 = u1_of_k(k)
    u2 = squaring.rounded_u2(u1, k, 50)
    stand_in = formulas.MagnitudeOnly(sign=-1 if u2 < 0 else 1, magnitude=u2.copy_abs())
    return formulas.two_term_formula(k, u2_value=stand_in, u1=u1), "magnitude"


def cmd_measure(args: argparse.Namespace) -> int:
    if args.k is None:
        formula, path = _load_formula(args), "exact"
    else:
        formula, path = _measured_pair(args.k)
    report = formulas.lehmer_measure(formula)
    contributions = [
        {"coefficient": coeff, "inverse_log10_cotangent": _text(contrib)}
        for (coeff, _), contrib in zip(formula.terms, report.contributions)
    ]
    _emit({
        "formula": formula.name or "formula",
        "e": _text(report.e),
        "path": path,
        "contributions": contributions,
    })
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    k = args.k
    result = trigcheck.verify_k(k, precision=args.precision,
                                allow_huge=args.allow_huge)
    _emit(result.to_json_dict())
    if not result.ok:
        print(f"verification failed at k={k}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _sci(value: Fraction | Decimal, digits: int) -> str:
    """value to ``digits`` significant digits, d.dddE+XX, rounded half even
    from the exact value: no float underflows a tiny value to 0, and the
    exponent keeps at least two digits, zero's too."""
    rounded = fraction_to_decimal(value, digits)
    exponent = rounded.adjusted() if rounded else 0
    return f"{rounded.scaleb(-exponent, _EXACT):.{digits - 1}f}E{exponent:+03d}"


def cmd_error_curve(args: argparse.Namespace) -> int:
    x_min, x_max = args.x_min, args.x_max
    step = Fraction(x_max - x_min, args.samples - 1)
    out = args.out or f"error-curve-{args.series}.csv"
    rows = [(x, series.series_error(x, args.terms, series=args.series))
            for x in (x_min + i * step for i in range(args.samples))]
    _write_lines(out, ["x,abs_error", *(f"{_sci(x, 7)},{_sci(err, 6)}" for x, err in rows)])
    peak = max(rows, key=lambda pair: pair[1])
    _emit({
        "series": args.series,
        "terms": args.terms,
        "samples": args.samples,
        "x_min": str(x_min),
        "x_max": str(x_max),
        "peak_error": _sci(peak[1], 6),
        "out": out,
    })
    return EXIT_OK


def cmd_measure_sweep(args: argparse.Namespace) -> int:
    out = args.out or "measure-sweep.csv"
    rows = []
    for k in range(2, args.k_max + 1):
        formula, path = _measured_pair(k)
        rows.append((k, formula.terms[0][1], formulas.lehmer_measure(formula).e, path))
    _write_lines(out, ["k,u1,e,path", *(",".join(map(_text, row)) for row in rows)])
    _emit({
        "k_max": args.k_max,
        "rows": len(rows),
        "e_first": _text(rows[0][2]),
        "e_last": _text(rows[-1][2]),
        "out": out,
    })
    return EXIT_OK


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv).parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _check_args(args)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormulaParseError, DomainError, PrecisionError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except ConsistencyError as exc:
        print(f"verification error: {exc}", file=sys.stderr)
        return EXIT_VERIFY
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO
    except MemoryError:
        print("error: out of memory; lower --k or --precision", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
