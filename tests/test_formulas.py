"""Formula container, fixtures, measure, validation, file format."""

from decimal import Decimal
from fractions import Fraction

import pytest

from machinlike.errors import DomainError, FormulaParseError, PrecisionError
from machinlike.formulas import (
    MachinFormula,
    MagnitudeOnly,
    fixtures,
    format_formula,
    lehmer_measure,
    parse_formula_file,
    two_term_formula,
    validate_formula,
)
from machinlike.squaring import u2_of

# measures computed independently at 40 digits, rounded to 6 places
FIXTURE_MEASURES = {
    "machin-1706": "1.851128",
    "kanada-a": "1.586041",
    "kanada-b": "1.779904",
    "lehmer-3term": "1.527917",
    "chienlih-6term": "1.512439",
}


def test_fixture_measures_are_pinned():
    table = fixtures()
    assert set(table) == set(FIXTURE_MEASURES)
    for name, formula in table.items():
        assert str(lehmer_measure(formula).e) == FIXTURE_MEASURES[name], name


def test_fixtures_validate_against_pi():
    for name, formula in fixtures().items():
        result = validate_formula(formula, 60)
        assert result.valid, (name, result.residual)


def test_two_term_k3_is_the_classic_pair():
    formula = two_term_formula(3)
    assert formula.terms == ((4, Fraction(5)), (1, Fraction(-239)))
    assert str(lehmer_measure(formula).e) == "1.851128"


def test_two_term_k6_measure():
    assert str(lehmer_measure(two_term_formula(6)).e) == "1.167513"


def test_two_term_accepts_precomputed_u2():
    u2 = u2_of(40, 6)
    formula = two_term_formula(6, u2_value=u2)
    assert formula.terms[1] == (1, u2)
    assert formula.name == "two-term-k6"


def test_formula_rejects_bad_terms():
    with pytest.raises(DomainError):
        MachinFormula(terms=())
    with pytest.raises(DomainError):
        MachinFormula(terms=((0, Fraction(5)),))
    with pytest.raises(DomainError):
        MachinFormula(terms=((1, Fraction(1)),))
    with pytest.raises(DomainError):
        MachinFormula(terms=((1, Fraction(-1)),))
    with pytest.raises(DomainError) as info:
        MachinFormula(terms=((1.5, Fraction(5)),))
    assert "coefficient" in str(info.value)


def test_magnitude_only_terms():
    stand_in = MagnitudeOnly(sign=-1, magnitude=Decimal("2.43354953e8"))
    formula = two_term_formula(27, u2_value=stand_in)
    assert not formula.exact()
    e = lehmer_measure(formula).e
    assert abs(e - Decimal("0.245319")) < Decimal("0.0001")
    with pytest.raises(DomainError):
        validate_formula(formula, 40)
    with pytest.raises(DomainError):
        format_formula(formula)


def test_magnitude_only_validation():
    with pytest.raises(DomainError):
        MagnitudeOnly(sign=0, magnitude=Decimal(5))
    with pytest.raises(DomainError):
        MagnitudeOnly(sign=1, magnitude=Decimal(-5))
    with pytest.raises(DomainError):
        MagnitudeOnly(sign=1, magnitude=Decimal("NaN"))


def test_validate_catches_wrong_formula():
    # sign flipped on the closing term: off by ~2*atan(1/239)
    wrong = MachinFormula(terms=((4, Fraction(5)), (1, Fraction(239))))
    result = validate_formula(wrong, 40)
    assert not result.valid
    assert abs(result.residual) > Decimal("0.004")


def test_validate_precision_floor():
    with pytest.raises(PrecisionError):
        validate_formula(two_term_formula(3), 10)


def test_format_parse_round_trip(tmp_path):
    formula = fixtures()["lehmer-3term"]
    path = tmp_path / "lehmer.txt"
    path.write_text(format_formula(formula), encoding="ascii")
    back = parse_formula_file(path)
    assert back.terms == formula.terms
    assert back.name == "lehmer"


def test_formula_file_text_shape(tmp_path):
    text = format_formula(two_term_formula(3))
    assert text == "4 * atan(1/5)\n1 * atan(-1/239)\n"


def test_parse_formula_tolerates_comments(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# classic\n\n4 * atan(1/5)\n1 * atan(-1/239)\n", encoding="ascii")
    formula = parse_formula_file(path)
    assert formula.terms == ((4, Fraction(5)), (1, Fraction(-239)))


def test_parse_formula_reports_line(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("4 * atan(1/5)\n4 * cot(1/5)\n", encoding="ascii")
    with pytest.raises(FormulaParseError) as info:
        parse_formula_file(path)
    assert "line 2" in str(info.value)


def test_parse_formula_rejects_zero_numerator(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("4 * atan(0/5)\n", encoding="ascii")
    with pytest.raises(FormulaParseError) as info:
        parse_formula_file(path)
    assert str(info.value) == "line 1: zero arctangent argument"


def test_parse_formula_rejects_zero_denominator(tmp_path):
    # checked before the numerator, so 0/0 is a zero denominator too
    path = tmp_path / "f.txt"
    for arg in ("1/0", "-0/0"):
        path.write_text(f"# k = 3\n4 * atan({arg})\n", encoding="ascii")
        with pytest.raises(FormulaParseError) as info:
            parse_formula_file(path)
        assert str(info.value) == f"line 2: zero denominator: {arg!r}"


def test_parse_formula_empty(tmp_path):
    path = tmp_path / "f.txt"
    path.write_text("# nothing here\n", encoding="ascii")
    with pytest.raises(FormulaParseError):
        parse_formula_file(path)


def test_package_all_lists_exactly_the_public_imports():
    import types

    import machinlike
    public = {name for name, value in vars(machinlike).items()
              if not name.startswith("_") and not isinstance(value, types.ModuleType)}
    assert sorted(machinlike.__all__) == sorted(public)
    assert len(machinlike.__all__) == len(public)
    assert "VerificationFailure" not in public


def test_two_term_formula_past_the_cap_names_a_call_that_exists():
    with pytest.raises(DomainError, match="desk-scale cap") as info:
        two_term_formula(21)
    assert "u2_of(u1, k, allow_huge=True)" in str(info.value)
