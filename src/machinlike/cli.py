"""Command line front end.

Subcommands::

    machinlike generate      --k N [--precision P] [--out PATH] [--allow-huge]
    machinlike compute-pi    (--k N [--u2-file PATH] | --fixture NAME | --formula PATH)
                             [--terms M] [--precision P] [--out PATH]
    machinlike measure       (--k N | --fixture NAME | --formula PATH) [--allow-huge]
    machinlike verify        --k N [--precision P] [--allow-huge]
    machinlike error-curve   [--series fast|euler] [--terms M] [--samples N]
                             [--x-min X] [--x-max X] [--out PATH]
    machinlike measure-sweep [--k-max N] [--out PATH]

Every command prints a JSON summary to stdout; bulk artifacts (digit
files, CSV tables) go to --out.  --u2-file without --k is a usage error.
Exit codes: 0 success, 2 usage, 3 I/O, 4 domain or parse failure or out
of memory, 5 verification failure (compute-pi: fewer digits than
--precision with an auto-sized term count).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
from dataclasses import dataclass
from decimal import Decimal
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
    coinciding_digits,
    digits_prefix,
    int_digit_count,
    int_log10,
    working_context,
)
from .radical import MAX_LADDER_K, u1_of_k
from .squaring import DESK_SCALE_MAX_K

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DOMAIN = 4
EXIT_VERIFY = 5


@dataclass
class RunConfig:
    """Validated bundle of options for one invocation."""

    command: str
    k: int | None = None
    precision: int = 100
    terms: int | None = None
    out: str | None = None
    formula: str | None = None
    fixture: str | None = None
    u2_file: str | None = None
    series: str = "fast"
    samples: int = 41
    x_min: Fraction | None = None
    x_max: Fraction | None = None
    k_max: int = 16
    allow_huge: bool = False

    def __post_init__(self):
        if self.k is not None and not 2 <= self.k <= MAX_LADDER_K:
            raise UsageError(f"--k must be in 2..{MAX_LADDER_K}, got {self.k}")
        if self.u2_file is not None and self.k is None:
            raise UsageError("--u2-file holds the u2 of one --k; it needs --k")
        if self.precision < 20:
            raise UsageError(f"--precision must be >= 20, got {self.precision}")
        if self.terms is not None and self.terms < 1:
            raise UsageError(f"--terms must be >= 1, got {self.terms}")
        if not 2 <= self.k_max <= MAX_LADDER_K:
            raise UsageError(f"--k-max must be in 2..{MAX_LADDER_K}, got {self.k_max}")


def _parse_fraction_arg(text: str, flag: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"{flag} expects a rational like -1/1000000 or 1e-6: {exc}")


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
    common(p, k=True, formula=True, allow_huge=True)

    p = sub.add_parser("verify", help="independent cross-checks at index k")
    common(p, k=True, precision=True, allow_huge=True)

    p = sub.add_parser("error-curve", help="truncation error over an interval")
    common(p, terms=True, out=True)
    p.add_argument("--series", choices=("fast", "euler"), default="fast")
    p.add_argument("--samples", type=int, default=41)
    p.add_argument("--x-min", default="-1/1000000")
    p.add_argument("--x-max", default="1/1000000")

    p = sub.add_parser("measure-sweep", help="measure vs k table")
    common(p, out=True)
    p.add_argument("--k-max", type=int, default=16)

    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    options = dict(vars(args))
    if args.command == "error-curve":
        options["x_min"] = _parse_fraction_arg(args.x_min, "--x-min")
        options["x_max"] = _parse_fraction_arg(args.x_max, "--x-max")
    return RunConfig(**options)


def _check_desk_scale(cfg: RunConfig) -> None:
    if cfg.k > DESK_SCALE_MAX_K and not cfg.allow_huge:
        # compute-pi needs u2 exactly and has no way past the cap
        lift = ("" if cfg.command == "compute-pi" else
                "; pass --allow-huge to proceed (expect long integer runtimes)")
        raise UsageError(f"--k {cfg.k} exceeds the desk-scale cap {DESK_SCALE_MAX_K}{lift}")


def _emit(payload: dict) -> None:
    json.dump(payload, sys.stdout, indent=2)
    sys.stdout.write("\n")


def cmd_generate(cfg: RunConfig) -> int:
    k = cfg.k
    _check_desk_scale(cfg)
    u1 = u1_of_k(k)
    u2 = squaring.u2_of(u1, k, allow_huge=cfg.allow_huge)
    out = cfg.out or f"u2-k{k}.txt"
    squaring.write_fraction_file(out, u2)

    formula = formulas.two_term_formula(k, u2_value=u2, u1=u1)
    report = formulas.lehmer_measure(formula)
    check = formulas.validate_formula(formula, cfg.precision)

    num_digits = int_digit_count(u2.numerator)
    den_digits = int_digit_count(u2.denominator)
    payload = {
        "k": k,
        "u1": u1,
        "u2_num_digits": num_digits,
        "u2_den_digits": den_digits,
        "e": str(report.e),
        "valid": check.valid,
        "residual": str(check.residual),
        "validation_precision": check.precision,
        "out": out,
    }
    if num_digits + den_digits <= 60:
        payload["u2"] = f"{u2.numerator}/{u2.denominator}"
    _emit(payload)
    return EXIT_OK if check.valid else EXIT_VERIFY


def _load_formula(cfg: RunConfig) -> formulas.MachinFormula:
    if cfg.formula is not None:
        return formulas.parse_formula_file(cfg.formula)
    table = formulas.fixtures()
    if cfg.fixture not in table:
        raise UsageError(
            f"unknown fixture {cfg.fixture!r}; known: {', '.join(sorted(table))}")
    return table[cfg.fixture]


def _auto_terms(formula: formulas.MachinFormula, precision: int) -> int:
    """Truncation order that clears ``precision`` digits on every branch."""
    return max(series.auto_term_count(1 / beta, precision) for _, beta in formula.terms)


def cmd_compute_pi(cfg: RunConfig) -> int:
    precision = cfg.precision
    if cfg.k is None:
        formula = _load_formula(cfg)
    else:
        _check_desk_scale(cfg)
        u1 = u1_of_k(cfg.k)
        if cfg.u2_file is not None:
            u2 = squaring.read_fraction_file(cfg.u2_file)
        else:
            u2 = squaring.u2_of(u1, cfg.k)
        formula = formulas.two_term_formula(cfg.k, u2_value=u2, u1=u1)
    terms = cfg.terms or _auto_terms(formula, precision)
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
    if cfg.out:
        text = digits_prefix(value, precision + 1)
        with open(cfg.out, "w", encoding="ascii") as fh:
            fh.write("3." + text[1:] + "\n")
        payload["out"] = cfg.out
    _emit(payload)
    if not ok and cfg.terms is None:
        # an explicit --terms asks for the truncation; an auto-sized one
        # promised the digits
        print(f"compute-pi delivered {matched} of {precision} digits", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def _measured_pair(k: int, allow_huge: bool) -> tuple[formulas.MachinFormula, str]:
    """The pair at k with u2 known by sign and size only: "exact" from the
    chain's parts, with no gcd, up to the cap or with allow_huge, else "magnitude" from trig."""
    u1 = u1_of_k(k)
    if k <= DESK_SCALE_MAX_K or allow_huge:
        num, den, _ = squaring.closing_parts(u1, k, allow_huge=True)
        with working_context(40):
            magnitude = Decimal(10) ** (int_log10(num) - int_log10(den))
        sign, path = (-1 if (num < 0) != (den < 0) else 1), "exact"
    else:
        trig = trigcheck.u2_trig(u1, k, 40)
        sign, magnitude, path = (-1 if trig < 0 else 1), abs(trig), "magnitude"
    stand_in = formulas.MagnitudeOnly(sign=sign, magnitude=magnitude)
    return formulas.two_term_formula(k, u2_value=stand_in, u1=u1), path


def cmd_measure(cfg: RunConfig) -> int:
    if cfg.k is None:
        formula, path = _load_formula(cfg), "exact"
    else:
        formula, path = _measured_pair(cfg.k, cfg.allow_huge)
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


def cmd_verify(cfg: RunConfig) -> int:
    k = cfg.k
    _check_desk_scale(cfg)
    result = trigcheck.verify_k(k, precision=cfg.precision,
                                allow_huge=cfg.allow_huge)
    _emit(result.to_json_dict())
    if not result.ok:
        print(f"verification failed at k={k}", file=sys.stderr)
        return EXIT_VERIFY
    return EXIT_OK


def cmd_error_curve(cfg: RunConfig) -> int:
    if cfg.samples < 3:
        raise UsageError(f"--samples must be >= 3, got {cfg.samples}")
    terms = cfg.terms or 10
    x_min, x_max = cfg.x_min, cfg.x_max
    if x_min >= x_max:
        raise UsageError("--x-min must be below --x-max")
    step = Fraction(x_max - x_min, cfg.samples - 1)
    out = cfg.out or f"error-curve-{cfg.series}.csv"
    rows = []
    for i in range(cfg.samples):
        x = x_min + i * step
        err = series.series_error(x, terms, series=cfg.series)
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
        "series": cfg.series,
        "terms": terms,
        "samples": cfg.samples,
        "x_min": str(x_min),
        "x_max": str(x_max),
        "peak_error": f"{peak[1]:.5E}",
        "out": out,
    })
    return EXIT_OK


def cmd_measure_sweep(cfg: RunConfig) -> int:
    out = cfg.out or "measure-sweep.csv"
    rows = []
    for k in range(2, cfg.k_max + 1):
        formula, path = _measured_pair(k, allow_huge=False)
        rows.append((k, formula.terms[0][1], formulas.lehmer_measure(formula).e, path))
    with open(out, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["k", "u1", "e", "path"])
        for k, u1, e, path in rows:
            writer.writerow([k, u1, f"{e:.6f}", path])
    _emit({
        "k_max": cfg.k_max,
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
        cfg = _config_from_args(args)
        return _DISPATCH[cfg.command](cfg)
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
