"""Command line behavior: JSON summaries, artifacts, exit codes."""

import hashlib
import json
import time
from decimal import Decimal, localcontext

import pytest

from machinlike import series, squaring, trigcheck
from machinlike.cli import (
    EXIT_DOMAIN,
    EXIT_IO,
    EXIT_OK,
    EXIT_USAGE,
    EXIT_VERIFY,
    _build_parser,
    main,
)
from machinlike.errors import ConsistencyError
from machinlike.exactmath import _as_int
from machinlike.formulas import lehmer_measure, two_term_formula
from machinlike.radical import u1_of_k
from machinlike.squaring import read_fraction_parts, u2_of

U2_K6 = u2_of(40, 6)


def run(capsys, *argv, main=main):
    """``main`` runs argv; a test that patches a freshly imported cli passes its main."""
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def payload_of(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == EXIT_OK, err
    return json.loads(out)


def test_no_arguments_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == EXIT_USAGE


COMMANDS = ("generate", "compute-pi", "measure", "verify", "error-curve", "measure-sweep")


def test_help_exits_clean(capsys):
    code, out, _ = run(capsys, "--help")
    assert code == EXIT_OK
    assert all(name in out for name in COMMANDS)


def _parsed(capsys, parser, argv):
    """(exit code, stdout, stderr, vars of the Namespace or None) of
    parser.parse_args(argv)."""
    try:
        namespace, code = vars(parser.parse_args(argv)), 0
    except SystemExit as exc:
        namespace, code = None, exc.code
    out = capsys.readouterr()
    return code, out.out, out.err, namespace


@pytest.mark.parametrize("argv", [
    *([name, "-h"] for name in COMMANDS), ["-h", "verify"],
    [], ["bogus"], ["veri"],
    ["verify"], ["verify", "--k", "three"],
    ["verify", "--k", "3", "--bogus"], ["verify", "--k", "3", "extra"],
    ["compute-pi", "--k", "3", "--fixture", "machin-1706"],
    ["error-curve", "--series", "taylor"],
    ["generate", "--k", "3", "--precision", "50", "--out", "u2.txt", "--allow-huge"],
    ["compute-pi", "--k", "6", "--u2-file", "u2.txt", "--terms", "9", "--out", "pi.txt"],
    ["measure", "--fixture", "machin-1706"],
    ["verify", "--k", "12", "--precision", "60"],
    ["error-curve", "--series", "euler", "--samples", "5", "--x-min=-1e-6", "--x-max", "1/2"],
    ["measure-sweep", "--k-max", "22", "--out", "sweep.csv"],
], ids=lambda argv: " ".join(argv) or "no-arguments")
def test_a_parser_of_one_command_parses_as_the_full_one(capsys, argv):
    """_build_parser(argv) holds only the command argv names; on every
    argv it must print, exit and parse as the parser of all six does."""
    full = _parsed(capsys, _build_parser([]), argv)
    assert _parsed(capsys, _build_parser(argv), argv) == full
    assert full[0] == 0 or "usage: machinlike" in full[2]


def test_a_named_command_builds_only_its_own_parser():
    def built(argv):
        action, = (a for a in _build_parser(argv)._actions if a.dest == "command")
        return tuple(action.choices)

    assert all(built([name, "--k", "3"]) == (name,) for name in COMMANDS)
    assert built([]) == built(["--help"]) == built(["veri"]) == COMMANDS


def test_main_rejects_bad_values_before_any_work(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    for argv, message in [
        (("generate", "--k", "1"), "--k must be in 2..64, got 1"),
        (("generate", "--k", "65"), "--k must be in 2..64, got 65"),
        (("compute-pi", "--k", "3", "--precision", "10"), "--precision must be >= 20, got 10"),
        (("compute-pi", "--k", "3", "--terms", "0"), "--terms must be >= 1, got 0"),
        (("measure-sweep", "--k-max", "65"), "--k-max must be in 2..64, got 65"),
        (("generate", "--k", "25"), "--k 25 exceeds the desk-scale cap 20; pass "
                                    "--allow-huge to proceed (expect long integer runtimes)"),
        (("verify", "--k", "25"), "--k 25 exceeds the desk-scale cap 20; pass "
                                  "--allow-huge to proceed (expect long integer runtimes)"),
        (("compute-pi", "--k", "25"), "--k 25 exceeds the desk-scale cap 20"),
        # a bound outranks the desk-scale cap
        (("compute-pi", "--k", "25", "--precision", "10"), "--precision must be >= 20, got 10"),
        (("error-curve", "--samples", "2"), "--samples must be >= 3, got 2"),
        (("error-curve", "--x-min", "1/2", "--x-max", "1/4"), "--x-min must be below --x-max"),
        # refused before the samples at x = 0 and 0.475 are computed
        (("error-curve", "--x-min", "0", "--x-max", "0.95", "--samples", "3"),
         "error-curve needs |x| < 9/10 on its interval"),
        (("error-curve", "--x-min=-9/10", "--x-max", "0"),
         "error-curve needs |x| < 9/10 on its interval"),
        (("compute-pi", "--fixture", "nope"), "unknown fixture 'nope'; known: chienlih-6term, "
                                              "kanada-a, kanada-b, lehmer-3term, machin-1706"),
    ]:
        code, out, err = run(capsys, *argv)
        assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n"), argv
    assert list(tmp_path.iterdir()) == []


def test_generate_k3(tmp_path, capsys):
    out = tmp_path / "u2.txt"
    payload = payload_of(capsys, "generate", "--k", "3", "--out", str(out))
    assert payload["k"] == 3
    assert payload["u1"] == 5
    assert payload["u2"] == "-239/1"
    assert payload["valid"] is True
    assert read_fraction_parts(out) == (-239, 1)


def test_generate_k6_writes_exact_fraction(tmp_path, capsys):
    out = tmp_path / "u2.txt"
    payload = payload_of(capsys, "generate", "--k", "6", "--out", str(out))
    assert payload["e"] == "1.167513"
    assert (payload["u2_num_digits"], payload["u2_den_digits"]) == (52, 50)
    assert "u2" not in payload  # too wide for the summary line
    assert read_fraction_parts(out) == (U2_K6.numerator, U2_K6.denominator)


def test_generate_round_trip_through_compute_pi(tmp_path, capsys):
    """generate writes u2; compute-pi must reload it bit for bit."""
    out = tmp_path / "u2.txt"
    payload_of(capsys, "generate", "--k", "6", "--out", str(out))
    assert read_fraction_parts(out) == (U2_K6.numerator, U2_K6.denominator)
    payload = payload_of(capsys, "compute-pi", "--k", "6",
                         "--u2-file", str(out), "--precision", "80")
    assert payload["coinciding_digits"] >= 80


def test_compute_pi_reads_unreduced_u2_parts_to_the_same_digits(tmp_path, capsys):
    reduced, tripled = tmp_path / "u2.txt", tmp_path / "u2-x3.txt"
    payload_of(capsys, "generate", "--k", "8", "--out", str(reduced))
    num, den = map(_as_int, read_fraction_parts(reduced))
    tripled.write_text(f"{3 * num}/{3 * den}\n", encoding="ascii")
    outputs = []
    for path in (reduced, tripled):
        digits = tmp_path / f"pi-{path.stem}.txt"
        code, out, err = run(capsys, "compute-pi", "--k", "8", "--u2-file", str(path),
                             "--precision", "300", "--out", str(digits))
        assert (code, err) == (EXIT_OK, "")
        outputs.append((out.replace(digits.name, "pi.txt"), digits.read_bytes()))
    assert outputs[0] == outputs[1]
    assert json.loads(outputs[0][0])["ok"] is True


def test_generate_respects_desk_scale(capsys):
    code, _, err = run(capsys, "generate", "--k", "25")
    assert code == EXIT_USAGE
    assert "allow-huge" in err


def test_k_range_enforced(capsys):
    assert run(capsys, "generate", "--k", "1")[0] == EXIT_USAGE
    assert run(capsys, "generate", "--k", "65")[0] == EXIT_USAGE


def test_compute_pi_defaults(tmp_path, capsys):
    digits = tmp_path / "pi.txt"
    payload = payload_of(capsys, "compute-pi", "--k", "3",
                         "--precision", "100", "--out", str(digits))
    assert payload["coinciding_digits"] >= 100
    text = digits.read_text(encoding="ascii")
    assert text.startswith("3.14159265358979323846")
    assert len(text.strip()) == 102  # "3." + 100 places


@pytest.mark.parametrize("text, written", [
    ("1 * atan(1/2)", "1.854590436003224464857024925844"),
    ("-1 * atan(1/10)", "-0.398674609964648109513784479512"),
    # 4e-40 truncates to all zeros at 30 places, its sign kept
    (f"1 * atan(1/{10**40})", "0." + "0" * 30),
    (f"-1 * atan(1/{10**40})", "-0." + "0" * 30),
])
def test_compute_pi_digit_file_holds_the_value_itself(tmp_path, capsys, text, written):
    """The digit file is 4 * the formula's sum truncated to --precision
    places, with its own sign and integer part, not pi's "3."."""
    path, digits = tmp_path / "formula.txt", tmp_path / "value.txt"
    path.write_text(text + "\n", encoding="ascii")
    payload = payload_of(capsys, "compute-pi", "--formula", str(path), "--precision", "30",
                         "--terms", "40", "--out", str(digits))
    assert payload["ok"] is False
    assert digits.read_text(encoding="ascii") == written + "\n"


@pytest.mark.parametrize("command", ["generate", "verify"])
def test_allow_huge_past_the_memory_budget_is_refused_before_any_work(
        tmp_path, monkeypatch, capsys, command):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, command, "--k", "40", "--allow-huge")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == ("error: k=40 needs squaring-chain parts of about 2.17e+13 bits, an "
                   "estimated 4.8e+04 GiB at peak, past the 6 GiB memory budget\n")
    assert list(tmp_path.iterdir()) == []


def test_error_curve_past_the_memory_budget_is_refused_before_any_summing(
        tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    start = time.perf_counter()
    code, out, err = run(capsys, "error-curve", "--terms", "100000000", "--samples", "3")
    assert time.perf_counter() - start < 1
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == ("error: 100000000 terms need exact parts of about 1.12e+10 bits, an "
                   "estimated 20.9 GiB at peak, past the 6 GiB memory budget\n")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv, figures", [
    (["compute-pi", "--fixture", "machin-1706", "--precision", "100000000000", "--out", "pi.txt"],
     "--precision 100000000000 needs working integers of about 3.32e+11 bits, "
     "an estimated 619 GiB"),
    (["generate", "--k", "5", "--precision", "1000000000"],
     "--precision 1000000000 needs working integers of about 3.32e+09 bits, "
     "an estimated 6.19 GiB"),
    # verify's trig check peaks at about 4 times compute-pi's per digit
    (["verify", "--k", "5", "--precision", "300000000"],
     "--precision 300000000 needs working integers of about 9.97e+08 bits, "
     "an estimated 7.43 GiB"),
    # a width past a float's range is named, not raised
    (["verify", "--k", "5", "--precision", "1" + "0" * 400],
     f"--precision 1{'0' * 400} needs working integers of about inf bits, an estimated inf GiB"),
], ids=["compute-pi", "generate", "verify", "verify-past-a-float"])
def test_precision_past_the_memory_budget_is_refused_before_any_work(
        tmp_path, monkeypatch, capsys, argv, figures):
    def reached(*args, **kwargs):
        raise AssertionError("work started")
    for module, name in ((series, "arctan_sum"), (series, "reference_pi"),
                         (trigcheck, "u2_trig")):
        monkeypatch.setattr(module, name, reached)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: {figures} at peak, past the 6 GiB memory budget\n"
    assert list(tmp_path.iterdir()) == []


def test_error_curve_terms_past_a_floats_range_are_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "error-curve", "--terms", "1" + "0" * 400, "--samples", "3")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.endswith(" terms need exact parts of about inf bits, an estimated inf GiB "
                        "at peak, past the 6 GiB memory budget\n")
    assert list(tmp_path.iterdir()) == []


def test_compute_pi_calibrated_terms(capsys):
    # ~2 digits per term at k=3, so 55 terms comfortably clear 100 places
    payload = payload_of(capsys, "compute-pi", "--k", "3",
                         "--terms", "55", "--precision", "100")
    assert payload["terms"] == 55
    assert payload["coinciding_digits"] >= 100


def test_compute_pi_fixture(capsys):
    payload = payload_of(capsys, "compute-pi", "--fixture", "machin-1706",
                         "--precision", "60")
    assert payload["source"] == "machin-1706"
    assert payload["coinciding_digits"] >= 60
    assert payload["pi_prefix"].startswith("314159265358979323846")


def test_compute_pi_formula_file(tmp_path, capsys):
    path = tmp_path / "classic.txt"
    path.write_text("4 * atan(1/5)\n1 * atan(-1/239)\n", encoding="ascii")
    payload = payload_of(capsys, "compute-pi", "--formula", str(path),
                         "--precision", "40")
    assert payload["source"] == "classic"
    assert payload["coinciding_digits"] >= 40


def test_compute_pi_missing_inputs(capsys):
    assert run(capsys, "compute-pi")[0] == EXIT_USAGE


@pytest.mark.parametrize("source", [("--fixture", "machin-1706"),
                                    ("--formula", "unread.txt")])
def test_compute_pi_u2_file_needs_k(capsys, source):
    code, out, err = run(capsys, "compute-pi", *source, "--u2-file", "/nonexistent",
                         "--precision", "30")
    assert code == EXIT_USAGE
    assert out == "" and "--u2-file" in err


def test_compute_pi_unknown_fixture(capsys):
    code, _, err = run(capsys, "compute-pi", "--fixture", "nope")
    assert code == EXIT_USAGE
    assert "machin-1706" in err


def test_compute_pi_missing_file_is_io_error(tmp_path, capsys):
    gone = tmp_path / "missing.txt"
    code, _, _ = run(capsys, "compute-pi", "--k", "6", "--u2-file", str(gone))
    assert code == EXIT_IO


def test_compute_pi_bad_fraction_file(tmp_path, capsys):
    path = tmp_path / "bad.txt"
    path.write_text("not a fraction\n", encoding="ascii")
    code, _, _ = run(capsys, "compute-pi", "--k", "6", "--u2-file", str(path))
    assert code == EXIT_DOMAIN


def test_a_bad_line_of_k16_size_is_refused_in_one_short_line(tmp_path, capsys):
    # u2's parts at k = 16 have about 146,000 digits each; one "_" in the
    # numerator's middle
    path = tmp_path / "u2-bad.txt"
    path.write_text("7" * 73_000 + "_" + "7" * 73_000 + "/" + "3" * 146_000 + "\n",
                    encoding="ascii")
    code, out, err = run(capsys, "compute-pi", "--k", "16", "--u2-file", str(path),
                         "--precision", "200")
    assert (code, out) == (EXIT_DOMAIN, "")
    assert len(err.encode()) < 300 and err.count("\n") == 1, err
    assert err == (f"error: line 1: not a rational literal: {'7' * 40!r}... "
                   f"(length 292002, first bad character at 73001)\n")


def test_measure_fixture(capsys):
    payload = payload_of(capsys, "measure", "--fixture", "lehmer-3term")
    assert payload["e"] == "1.527917"
    assert payload["path"] == "exact"
    assert len(payload["contributions"]) == 3


def test_measure_two_term(capsys):
    payload = payload_of(capsys, "measure", "--k", "6")
    assert payload["e"] == "1.167513"
    assert payload["path"] == "exact"


def test_measure_by_size_matches_the_exact_fraction(capsys):
    # measure --k scores the generated pair itself, to every printed digit
    for k in range(2, 17):
        payload = payload_of(capsys, "measure", "--k", str(k))
        report = lehmer_measure(two_term_formula(k))
        assert payload["path"] == "exact"
        assert payload["e"] == str(report.e), k
        assert ([c["inverse_log10_cotangent"] for c in payload["contributions"]]
                == [str(c) for c in report.contributions]), k


def test_measure_has_no_allow_huge(capsys):
    # past the cap measure takes the magnitude path; there is nothing to lift
    code, out, err = run(capsys, "measure", "--k", "21", "--allow-huge")
    assert (code, out) == (EXIT_USAGE, "")
    assert "--allow-huge" in err


def test_k_excludes_fixture_and_formula(tmp_path, capsys):
    path = tmp_path / "classic.txt"
    path.write_text("4 * atan(1/5)\n1 * atan(-1/239)\n", encoding="ascii")
    for command in ("compute-pi", "measure"):
        for source in (("--fixture", "machin-1706"), ("--formula", str(path))):
            code, _, err = run(capsys, command, "--k", "3", *source)
            assert code == EXIT_USAGE, (command, source)
            assert "not allowed with" in err


def test_compute_pi_past_the_cap_names_no_flag_it_lacks(capsys):
    code, _, err = run(capsys, "compute-pi", "--k", "21")
    assert code == EXIT_USAGE
    assert "desk-scale cap" in err and "allow-huge" not in err
    assert run(capsys, "compute-pi", "--k", "21", "--allow-huge")[0] == EXIT_USAGE


def test_measure_huge_k_uses_magnitude_path(capsys):
    payload = payload_of(capsys, "measure", "--k", "27")
    assert payload["path"] == "magnitude"
    assert abs(Decimal(payload["e"]) - Decimal("0.245319")) < Decimal("0.0001")


def test_measure_past_the_cap_prints_every_digit_of_u2s_contribution(capsys):
    # |u2| keeps its working digits; abs() would round it to 28
    payload = payload_of(capsys, "measure", "--k", "27")
    printed = payload["contributions"][1]["inverse_log10_cotangent"]
    assert printed == "0.1192429476438971603136512797068328855131"
    trig = trigcheck.u2_trig(u1_of_k(27), 27, 60)
    with localcontext() as ctx:
        ctx.prec = 40
        assert printed == str(1 / trig.copy_abs().log10())


@pytest.mark.parametrize("k", range(squaring.DESK_SCALE_MAX_K + 1, 65))
def test_measure_past_the_cap_scores_u2_as_an_80_digit_trig_value_does(capsys, k):
    # u2 comes from the rounded squaring chain, the check from the closed form;
    # u2's log is taken to 40 digits, from all the digits u2 carries
    payload = payload_of(capsys, "measure", "--k", str(k))
    u1 = u1_of_k(k)
    with localcontext() as ctx:
        ctx.prec = 60
        log_u1 = Decimal(u1).log10()
        ctx.prec = 40
        expected = [1 / log_u1, 1 / trigcheck.u2_trig(u1, k, 80).copy_abs().log10()]
        e = sum(expected).quantize(Decimal("0.000001"))
    assert payload["path"] == "magnitude"
    assert payload["e"] == str(e)
    assert ([c["inverse_log10_cotangent"] for c in payload["contributions"]]
            == [str(c) for c in expected])


def test_measure_past_the_cap_prints_its_recorded_summaries(capsys):
    # one recorded digest pins every byte of measure's JSON at k = 21..64,
    # all 40 digits of each contribution included
    digest = hashlib.sha256()
    for k in range(squaring.DESK_SCALE_MAX_K + 1, 65):
        code, out, err = run(capsys, "measure", "--k", str(k))
        assert code == EXIT_OK, err
        digest.update(out.encode())
    assert digest.hexdigest() == "646a470e64915e814247b4302d31330178e72d458c4c1857ecb55ef75a108645"


def test_measure_formula_parse_failure(tmp_path, capsys):
    path = tmp_path / "broken.txt"
    path.write_text("4 * atan(1/5)\n?? * atan(1/7)\n", encoding="ascii")
    code, _, err = run(capsys, "measure", "--formula", str(path))
    assert code == EXIT_DOMAIN
    assert "line 2" in err


@pytest.mark.parametrize("argv, text, line", [
    (("measure", "--formula"), "# \u03c0/4\n4 * atan(1/5)\n1 * atan(-1/239)\n", 1),
    (("compute-pi", "--formula"), "4 * atan(1/5)\n# \u03c0\n1 * atan(-1/239)\n", 2),
    (("compute-pi", "--k", "3", "--u2-file"), "# u2 at k = 3\n-239/1\n# \u03c0/4\n", 3),
], ids=["measure-formula", "compute-pi-formula", "compute-pi-u2-file"])
def test_non_ascii_input_file_is_one_line_refusal(tmp_path, capsys, argv, text, line):
    # UTF-8 pi is the bytes cf 80; CRLF endings keep their line numbers
    path = tmp_path / "input.txt"
    path.write_bytes(text.replace("\n", "\r\n").encode("utf-8"))
    code, out, err = run(capsys, *argv, str(path))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err == f"error: line {line}: non-ASCII byte 0xcf; input files are ASCII\n"


def _near_one_formula(tmp_path, exponent, flip=False):
    """``1 * atan(N/(N+1))`` with N = 10**exponent (flip: ``(N+1)/N``),
    spelled out without str() of an int past its digit limit."""
    n, n1 = "1" + "0" * exponent, "1" + "0" * (exponent - 1) + "1"
    path = tmp_path / f"near-one-{exponent}.txt"
    path.write_text(f"1 * atan({n1}/{n})\n" if flip else f"1 * atan({n}/{n1})\n",
                    encoding="ascii")
    return path


def _reference_e(exponent):
    """1/log10(1 + 10**-exponent) to 6 decimals, from ln(1 + t) summed at 200 digits."""
    with localcontext() as ctx:
        ctx.prec = 200
        t = Decimal(10) ** -exponent
        ln1p = sum((-1) ** (j + 1) * t**j / j for j in range(1, 200 // exponent + 3))
        return (Decimal(10).ln() / ln1p).quantize(Decimal("0.000001"))


@pytest.mark.parametrize("guard", ["0", "10"])
@pytest.mark.parametrize("exponent", [10, 20, 22, 60, 5000])
def test_measure_cotangent_just_above_one(tmp_path, capsys, monkeypatch, exponent, guard):
    # an e that is right in every decimal, or one refusal line and exit 4
    monkeypatch.setenv("MACHINLIKE_GUARD_DIGITS", guard)
    code, out, err = run(capsys, "measure", "--formula",
                         str(_near_one_formula(tmp_path, exponent)))
    if code == EXIT_OK:
        assert Decimal(json.loads(out)["e"]) == _reference_e(exponent)
    else:
        assert code == EXIT_DOMAIN
        assert err.count("\n") == 1 and len(err.encode()) < 200, err
    # the refusal bound is log10 |cotangent| < 1e-12, whatever the guard digits
    assert (code == EXIT_OK) == (exponent < 12)


@pytest.mark.parametrize("guard", ["abc", "-1"])
def test_bad_guard_digits_are_refused_before_any_work(tmp_path, capsys, monkeypatch, guard):
    monkeypatch.setenv("MACHINLIKE_GUARD_DIGITS", guard)
    out = str(tmp_path / "out.txt")
    for argv in (("generate", "--k", "5"), ("compute-pi", "--k", "5"),
                 ("measure-sweep", "--k-max", "5"), ("error-curve",)):
        code, stdout, err = run(capsys, *argv, "--out", out)
        assert code == EXIT_DOMAIN, argv
        assert stdout == "" and err.count("\n") == 1, argv
        assert err.startswith("error: MACHINLIKE_GUARD_DIGITS must be"), err
    assert list(tmp_path.iterdir()) == []


def test_rejected_cotangent_names_its_size_past_60_digits(tmp_path, capsys):
    code, _, err = run(capsys, "measure", "--formula",
                       str(_near_one_formula(tmp_path, 5000, flip=True)))
    assert code == EXIT_DOMAIN
    assert err.count("\n") == 1 and len(err.encode()) < 200
    assert "5001/5001 digits" in err
    short = tmp_path / "short.txt"
    short.write_text("1 * atan(7/5)\n", encoding="ascii")
    code, _, err = run(capsys, "measure", "--formula", str(short))
    assert code == EXIT_DOMAIN and "got 5/7" in err


@pytest.mark.parametrize("command", ["compute-pi", "measure"])
def test_coefficient_past_the_int_text_limit_is_one_line_refusal(tmp_path, capsys, command):
    path = tmp_path / "wide.txt"
    path.write_text("1" + "0" * 5000 + " * atan(1/5)\n", encoding="ascii")
    code, out, err = run(capsys, command, "--formula", str(path))
    assert (code, out) == (EXIT_DOMAIN, "")
    assert err.count("\n") == 1 and len(err.encode()) < 200, err
    assert "5001 digits" in err


def test_a_summary_that_cannot_be_written_leaves_stdout_empty(capsys):
    from machinlike import cli
    with pytest.raises(ValueError):
        cli._emit({"ok": True, "wide": 10**5000})
    assert capsys.readouterr().out == ""


def test_verify_ok(capsys):
    payload = payload_of(capsys, "verify", "--k", "6", "--precision", "60")
    assert payload["ok"] is True
    assert payload["unit_circle_exact"] is True


def test_verify_failure_exits_5(capsys, monkeypatch):
    # force the trig side off by one part in 1e6
    real = trigcheck.u2_trig
    monkeypatch.setattr(trigcheck, "u2_trig",
                        lambda u1, k, precision: real(u1, k, precision) * Decimal("1.000001"))
    code, out, err = run(capsys, "verify", "--k", "6", "--precision", "60")
    assert code == EXIT_VERIFY
    assert json.loads(out)["ok"] is False
    # an internal contradiction is exit 5 too, with no summary
    def contradiction(u1, k):
        raise ConsistencyError("imaginary residue 1 in the closing arctangent argument")

    monkeypatch.setattr(squaring, "u2_direct_oracle", contradiction)
    code, out, err = run(capsys, "verify", "--k", "6")
    assert (code, out) == (EXIT_VERIFY, "")
    assert err.startswith("verification error: ") and err.count("\n") == 1


def test_error_curve_zero_row_and_symmetry(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    payload = payload_of(capsys, "error-curve", "--series", "fast",
                         "--terms", "10", "--samples", "9", "--out", str(out))
    assert payload["peak_error"] == "4.54131E-134"
    lines = out.read_text(encoding="ascii").strip().splitlines()
    assert lines[0] == "x,abs_error"
    assert len(lines) == 10
    middle = lines[5].split(",")
    assert middle == ["0.000000E+00", "0.00000E+00"]
    # symmetric interval, even error curve
    assert lines[1].split(",")[1] == lines[-1].split(",")[1]
    assert b"\r" not in out.read_bytes()
    # the error's exponent has two digits, as x's does
    payload = payload_of(capsys, "error-curve", "--x-min", "0", "--x-max", "1/2",
                         "--terms", "1", "--samples", "3", "--out", str(out))
    assert payload["peak_error"] == "6.94063E-03"
    assert out.read_text(encoding="ascii").splitlines()[2] == "2.500000E-01,1.17518E-03"


def test_error_curve_euler_peak(tmp_path, capsys):
    out = tmp_path / "euler.csv"
    payload = payload_of(capsys, "error-curve", "--series", "euler",
                         "--terms", "10", "--samples", "5", "--out", str(out))
    assert payload["peak_error"] == "2.70260E-127"


def test_error_curve_guards(capsys):
    assert run(capsys, "error-curve", "--samples", "2")[0] == EXIT_USAGE
    assert run(capsys, "error-curve", "--x-min", "1/2",
               "--x-max", "1/4")[0] == EXIT_USAGE
    assert run(capsys, "error-curve", "--x-min", "banana")[0] == EXIT_USAGE


def test_error_curve_accepts_scientific_bounds(tmp_path, capsys):
    # negative scientific bounds need the = form to survive argparse
    out = tmp_path / "c.csv"
    payload = payload_of(capsys, "error-curve", "--x-min=-1e-7",
                         "--x-max", "1e-7", "--samples", "3", "--out", str(out))
    assert payload["x_min"] == "-1/10000000"
    assert out.read_text(encoding="ascii").splitlines()[1].startswith("-1.000000E-07,")
    # x is written from the exact Fraction, far below a float's range too
    payload_of(capsys, "error-curve", "--x-min=-1e-400", "--x-max", "1e-400",
               "--samples", "3", "--out", str(out))
    assert out.read_text(encoding="ascii").splitlines() == [
        "x,abs_error", "-1.000000E-400,4.54131E-8408",
        "0.000000E+00,0.00000E+00", "1.000000E-400,4.54131E-8408"]


def test_measure_sweep_decreasing(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    payload = payload_of(capsys, "measure-sweep", "--k-max", "12",
                         "--out", str(out))
    assert payload["rows"] == 11
    assert b"\r" not in out.read_bytes()
    lines = out.read_text(encoding="ascii").strip().splitlines()[1:]
    values = [Decimal(line.split(",")[2]) for line in lines]
    assert values == sorted(values, reverse=True)
    assert all(line.endswith("exact") for line in lines)


def test_measure_sweep_crosses_into_magnitude(tmp_path, capsys):
    out = tmp_path / "sweep.csv"
    payload = payload_of(capsys, "measure-sweep", "--k-max", "21",
                         "--out", str(out))
    lines = out.read_text(encoding="ascii").strip().splitlines()[1:]
    assert lines[-1].endswith("magnitude")
    assert lines[-2].endswith("exact")
    values = [Decimal(line.split(",")[2]) for line in lines]
    assert values == sorted(values, reverse=True)


def test_measure_sweep_guard(capsys):
    assert run(capsys, "measure-sweep", "--k-max", "1")[0] == EXIT_USAGE


def test_measure_sweep_refuses_k_max_past_the_ladder_before_any_row(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "measure-sweep", "--k-max", "65")
    assert (code, out) == (EXIT_USAGE, "")
    assert "--k-max must be in 2..64" in err
    assert list(tmp_path.iterdir()) == []


def test_compute_pi_explicit_short_truncation_reports_not_ok(capsys):
    # two terms of Machin's formula give four places; asked for, not failed
    payload = payload_of(capsys, "compute-pi", "--fixture", "machin-1706",
                         "--terms", "2", "--precision", "50")
    assert payload["coinciding_digits"] == 4
    assert payload["ok"] is False


def test_compute_pi_auto_terms_shortfall_exits_5(capsys, monkeypatch):
    from machinlike import cli
    monkeypatch.setattr(cli.series, "auto_term_count", lambda x, precision: 2)
    code, out, err = run(capsys, "compute-pi", "--k", "3", "--precision", "50", main=cli.main)
    assert code == EXIT_VERIFY
    payload = json.loads(out)
    assert payload["ok"] is False and payload["coinciding_digits"] < 50
    assert "50" in err


def test_out_of_memory_exits_4_with_one_line(capsys, monkeypatch):
    from machinlike import cli

    def exhausted(cfg):
        raise MemoryError
    monkeypatch.setattr(cli, "cmd_verify", exhausted)
    code, out, err = run(capsys, "verify", "--k", "3", main=cli.main)
    assert code == EXIT_DOMAIN
    assert out == "" and err.count("\n") == 1 and "out of memory" in err
