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
the parser; _check_args refuses bad values (--u2-file without --k) up front.
Exit codes: 0 success, 2 usage, 3 I/O, 4 domain or parse failure or out
of memory, 5 verification failure (compute-pi: fewer digits than
--precision with an auto-sized term count).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from fractions import Fraction

from . import formulas, series, squaring, trigcheck
from .errors import (
    ConsistencyError,
    DegenerateFormulaError,
    DomainError,
    FormulaParseError,
    PrecisionError,
    UsageError,
)
from .exactmath import (
    RationalParts,
    coinciding_digits,
    digits_prefix,
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="machinlike",
        description="two-term arctangent formula generation, measurement, "
                    "and verification")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, k=False, precision=False, terms=False, out=False,
               formula=False, allow_huge=False):
        # a formula comes from exactly one source: --k, --formula or --fixture
        sources = p.add_mutually_exclusive_group(required=True) if formula else p
        if k:
            sources.add_argument("--k", type=int, required=not formula,
                                 help="ladder index, 2..64")
        if precision:
            p.add_argument("--precision", type=int, default=100,
                           help="decimal digits (default 100)")
        if terms:
            p.add_argument("--terms", type=int, help="series truncation order")
        if out:
            p.add_argument("--out", help="output file path")
        if formula:
            sources.add_argument("--formula", help="formula file to load")
            sources.add_argument("--fixture", help="named built-in formula")
        if allow_huge:
            p.add_argument("--allow-huge", action="store_true",
                           help="lift the k <= 20 desk-scale cap")

    p = sub.add_parser("generate", help="derive the pair (u1, u2) at index k")
    common(p, k=True, precision=True, out=True, allow_huge=True)

    p = sub.add_parser("compute-pi", help="evaluate pi from a formula")
    common(p, k=True, precision=True, terms=True, out=True, formula=True)
    p.add_argument("--u2-file", help="reload the closing cotangent of --k")

    p = sub.add_parser("measure", help="digits-per-term measure of a formula")
    common(p, k=True, formula=True)

    p = sub.add_parser("verify", help="independent cross-checks at index k")
    common(p, k=True, precision=True, allow_huge=True)

    p = sub.add_parser("error-curve", help="truncation error over an interval")
    common(p, terms=True, out=True)
    p.set_defaults(terms=10)
    p.add_argument("--series", choices=("fast", "euler"), default="fast")
    p.add_argument("--samples", type=int, default=41)
    p.add_argument("--x-min", default="-1/1000000")
    p.add_argument("--x-max", default="1/1000000")

    p = sub.add_parser("measure-sweep", help="measure vs k table")
    common(p, out=True)
    p.add_argument("--k-max", type=int, default=16)

    return parser


def _check_args(args: argparse.Namespace) -> None:
    """Refuse the option values the parser lets through, before any work, and
    read error-curve's bounds as Fractions.  The Namespace of a command holds
    only that command's options."""
    for flag in ("x_min", "x_max"):
        if hasattr(args, flag):
            try:
                setattr(args, flag, Fraction(getattr(args, flag)))
            except (ValueError, ZeroDivisionError) as exc:
                raise UsageError(f"--{flag.replace('_', '-')} expects a rational "
                                 f"like -1/1000000 or 1e-6: {exc}")
    k = getattr(args, "k", None)
    if k is not None and not 2 <= k <= MAX_LADDER_K:
        raise UsageError(f"--k must be in 2..{MAX_LADDER_K}, got {k}")
    if getattr(args, "u2_file", None) is not None and k is None:
        raise UsageError("--u2-file holds the u2 of one --k; it needs --k")
    if getattr(args, "precision", 20) < 20:
        raise UsageError(f"--precision must be >= 20, got {args.precision}")
    if getattr(args, "terms", None) is not None and args.terms < 1:
        raise UsageError(f"--terms must be >= 1, got {args.terms}")
    if not 2 <= getattr(args, "k_max", 2) <= MAX_LADDER_K:
        raise UsageError(f"--k-max must be in 2..{MAX_LADDER_K}, got {args.k_max}")


def _check_desk_scale(args: argparse.Namespace) -> None:
    if args.k > DESK_SCALE_MAX_K and not getattr(args, "allow_huge", False):
        # compute-pi needs u2 exactly and has no way past the cap
        lift = ("" if args.command == "compute-pi" else
                "; pass --allow-huge to proceed (expect long integer runtimes)")
        raise UsageError(f"--k {args.k} exceeds the desk-scale cap {DESK_SCALE_MAX_K}{lift}")


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
    _check_desk_scale(args)
    u1 = u1_of_k(k)
    u2 = squaring.u2_of(u1, k, allow_huge=args.allow_huge)
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
        "e": str(report.e),
        "valid": check.valid,
        "residual": str(check.residual),
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
    table = formulas.fixtures()
    if args.fixture not in table:
        raise UsageError(
            f"unknown fixture {args.fixture!r}; known: {', '.join(sorted(table))}")
    return table[args.fixture]


def _auto_terms(formula: formulas.MachinFormula, precision: int) -> int:
    """Truncation order that clears ``precision`` digits on every branch."""
    return max(series.auto_term_count(reciprocal(beta), precision) for _, beta in formula.terms)


def cmd_compute_pi(args: argparse.Namespace) -> int:
    precision = args.precision
    if args.k is None:
        formula = _load_formula(args)
    else:
        _check_desk_scale(args)
        # the file's parts as written, with no gcd; generate writes them in lowest terms
        u2 = (None if args.u2_file is None
              else RationalParts(*squaring.read_fraction_parts(args.u2_file)))
        formula = formulas.two_term_formula(args.k, u2_value=u2)
    terms = args.terms or _auto_terms(formula, precision)
    # pi is the sum at 4 * coeff; 8 spare digits keep rounding out of the digit file
    value = series.arctan_sum([(4 * c, beta) for c, beta in formula.terms],
                              precision + 8, terms)

    reference = series.reference_pi(precision)
    matched = coinciding_digits(value, reference)
    ok = matched >= precision
    payload = {
        "source": formula.name or "formula",
        "terms": terms,
        "precision": precision,
        "pi_prefix": digits_prefix(value, 30),
        "coinciding_digits": matched,
        "ok": ok,
    }
    if args.out:
        text = digits_prefix(value, precision + 1)
        with open(args.out, "w", encoding="ascii") as fh:
            fh.write("3." + text[1:] + "\n")
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
    with u2 known by sign and size from the trig closed form."""
    if k <= DESK_SCALE_MAX_K:
        return formulas.two_term_formula(k), "exact"
    u1 = u1_of_k(k)
    trig = trigcheck.u2_trig(u1, k, 40)
    stand_in = formulas.MagnitudeOnly(sign=-1 if trig < 0 else 1, magnitude=abs(trig))
    return formulas.two_term_formula(k, u2_value=stand_in, u1=u1), "magnitude"


def cmd_measure(args: argparse.Namespace) -> int:
    if args.k is None:
        formula, path = _load_formula(args), "exact"
    else:
        formula, path = _measured_pair(args.k)
    report = formulas.lehmer_measure(formula)
    contributions = [
        {"coefficient": coeff, "inverse_log10_cotangent": str(contrib)}
        for (coeff, _), contrib in zip(formula.terms, report.contributions)
    ]
    _emit({
        "formula": formula.name or "formula",
        "e": str(report.e),
        "path": path,
        "contributions": contributions,
    })
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    k = args.k
    _check_desk_scale(args)
    result = trigcheck.verify_k(k, precision=args.precision,
                                allow_huge=args.allow_huge)
    _emit(result.to_json_dict())
    if not result.ok:
        print(f"verification failed at k={k}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_error_curve(args: argparse.Namespace) -> int:
    if args.samples < 3:
        raise UsageError(f"--samples must be >= 3, got {args.samples}")
    x_min, x_max = args.x_min, args.x_max
    if x_min >= x_max:
        raise UsageError("--x-min must be below --x-max")
    step = Fraction(x_max - x_min, args.samples - 1)
    out = args.out or f"error-curve-{args.series}.csv"
    rows = []
    for i in range(args.samples):
        x = x_min + i * step
        err = series.series_error(x, args.terms, series=args.series)
        rows.append((x, err))
    with open(out, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["x", "abs_error"])
        for x, err in rows:
            # Decimal zero formats with a stray exponent; pin it by hand
            text = "0.00000E+00" if err == 0 else f"{err:.5E}"
            writer.writerow([f"{float(x):.6E}", text])
    peak = max(rows, key=lambda pair: pair[1])
    _emit({
        "series": args.series,
        "terms": args.terms,
        "samples": args.samples,
        "x_min": str(x_min),
        "x_max": str(x_max),
        "peak_error": f"{peak[1]:.5E}",
        "out": out,
    })
    return EXIT_OK


def cmd_measure_sweep(args: argparse.Namespace) -> int:
    out = args.out or "measure-sweep.csv"
    rows = []
    for k in range(2, args.k_max + 1):
        formula, path = _measured_pair(k)
        rows.append((k, formula.terms[0][1], formulas.lehmer_measure(formula).e, path))
    with open(out, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "u1", "e", "path"])
        for k, u1, e, path in rows:
            writer.writerow([k, u1, f"{e:.6f}", path])
    _emit({
        "k_max": args.k_max,
        "rows": len(rows),
        "e_first": f"{rows[0][2]:.6f}",
        "e_last": f"{rows[-1][2]:.6f}",
        "out": out,
    })
    return EXIT_OK


_DISPATCH = {
    "generate": cmd_generate,
    "compute-pi": cmd_compute_pi,
    "measure": cmd_measure,
    "verify": cmd_verify,
    "error-curve": cmd_error_curve,
    "measure-sweep": cmd_measure_sweep,
}


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    try:
        _check_args(args)
        return _DISPATCH[args.command](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except (FormulaParseError, DomainError, DegenerateFormulaError,
            PrecisionError) as exc:
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
