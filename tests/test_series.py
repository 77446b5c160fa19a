"""Series engines: fast, Euler, complex cross-check, reference pi."""

import math
from decimal import Decimal
from fractions import Fraction
from itertools import islice

import pytest
from hypothesis import example, given, settings, strategies as st

from machinlike.errors import ConsistencyError, DomainError, PrecisionError
from machinlike.exactmath import (
    coinciding_digits, fraction_to_decimal, round_sig, working_context)
from machinlike.series import (
    _maclaurin_scaled,
    _scaled_parts,
    arctan_complex,
    arctan_euler_exact,
    arctan_fast,
    arctan_fast_exact,
    arctan_sum,
    convergence_scan,
    reference_pi,
    series_error,
)
from machinlike.squaring import u2_of

PI_30 = Decimal("3.141592653589793238462643383279")


def test_single_term_at_one():
    assert arctan_fast(1, 1, 30) == Decimal("0.8")
    assert arctan_fast_exact(1, 1) == Fraction(4, 5)


def test_fast_series_converges_at_one():
    """At x = 1 each term buys ~log10(5) digits, so 30 terms give ~21."""
    value = arctan_fast(1, 30, 60)
    agreement = coinciding_digits(value, reference_pi(70) / 4)
    assert 20 <= agreement <= 25


def test_fast_series_fifth():
    err = series_error(Fraction(1, 5), 10, series="fast")
    assert str(err).startswith("4.2287")
    assert err.adjusted() == -23


@given(st.fractions(min_value=Fraction(-3), max_value=Fraction(3)).filter(lambda f: f != 0))
def test_coeff_magnitude_law(x):
    """A^2 + B^2 == s^(2m-1), s = p^2 + 4q^2, exactly, every step."""
    p, q = x.numerator, x.denominator
    s = p * p + 4 * q * q
    for m, (big_a, big_b) in enumerate(islice(_scaled_parts(p, q), 5), start=1):
        assert big_a ** 2 + big_b ** 2 == s ** (2 * m - 1)


def test_euler_matches_fast_in_the_limit():
    for x in (Fraction(1, 5), Fraction(1, 40), Fraction(-3, 7)):
        fast = arctan_fast(x, 60, 50)
        euler = fraction_to_decimal(arctan_euler_exact(x, 400), 50)
        assert coinciding_digits(fast, euler) >= 45, x


def test_euler_exact_matches_decimal_path():
    # Euler's terms in closed form, 2^2n (n!)^2/(2n+1)! x^(2n+1)/(1+x^2)^(n+1),
    # summed in Decimal: no term ratio shared with the exact recurrence
    exact = arctan_euler_exact(Fraction(1, 5), 30)
    with working_context(70):
        x = Decimal(1) / 5
        dec = sum(Decimal(4**n * math.factorial(n)**2) / math.factorial(2 * n + 1)
                  * x**(2 * n + 1) / (1 + x * x)**(n + 1) for n in range(30))
    assert coinciding_digits(fraction_to_decimal(exact, 70), dec) >= 60


def test_complex_evaluation_agrees_with_integer_path():
    for x in (Fraction(1, 5), Fraction(-1, 239), Fraction(7, 19)):
        fast = arctan_fast(x, 40, 60)
        cx = arctan_complex(x, 40, 60)
        assert coinciding_digits(fast, cx) >= 50, x


def test_zero_argument_short_circuits():
    assert arctan_fast(0, 5, 30) == 0
    assert arctan_euler_exact(0, 5) == 0
    assert arctan_complex(0, 5, 30) == 0
    assert series_error(0, 5) == 0


def test_bad_term_counts():
    for fn in (arctan_fast, arctan_complex):
        with pytest.raises(DomainError):
            fn(Fraction(1, 5), 0, 30)
    with pytest.raises(DomainError):
        arctan_euler_exact(Fraction(1, 5), 0)


def test_series_error_frozen_values():
    x = Fraction(1, 10**6)
    assert str(series_error(x, 10, series="euler")).startswith("2.70260")
    assert str(series_error(x, 10, series="fast")).startswith("4.54130")


def test_series_error_even_in_x():
    x = Fraction(3, 10**7)
    assert series_error(x, 6) == series_error(-x, 6)


def test_series_error_domain():
    with pytest.raises(DomainError):
        series_error(Fraction(1, 10**6), 10, series="maclaurin")
    with pytest.raises(DomainError):
        series_error(Fraction(95, 100), 10)


def test_reference_pi_truncates():
    assert reference_pi(1) == Decimal("3.1")
    assert reference_pi(5) == Decimal("3.14159")
    assert reference_pi(30) == PI_30
    with pytest.raises(DomainError):
        reference_pi(0)


@settings(max_examples=60, deadline=None)
@given(st.integers(2, 10**6).flatmap(lambda q: st.tuples(st.integers(1, q - 1), st.just(q)))
       .filter(lambda pq: 10 * pq[0] < 9 * pq[1]),
       st.integers(0, 40))
@example((2, 21), 1)    # no term survives: the tail bound r^2 alone, 93 % used
@example((1, 11), 5)    # two summed terms, 20 % of the bound used
def test_maclaurin_scaled_within_its_drift_bound(pq, digits):
    """|_maclaurin_scaled(p, q, 10**D) - 10**D atan(p/q)| < J (1 + r) + r^2,
    r = 1/(1 - x^2), J the count of j with 10**D x^(2j+1) >= 1."""
    p, q = pq
    x, scale = Fraction(p, q), 10**digits
    r = 1 / (1 - x * x)
    count = 0
    while scale * x ** (2 * count + 1) >= 1:
        count += 1
    # Euler's term ratio stays below x^2/(1 + x^2) < 0.45: 4D + 60 terms pass D + 20 digits
    atan = Fraction(fraction_to_decimal(arctan_euler_exact(x, 4 * digits + 60), digits + 10))
    assert abs(_maclaurin_scaled(p, q, scale) - scale * atan) < count * (1 + r) + r * r


def test_reference_pi_prefix_stability():
    # longer requests refine, never contradict, shorter ones
    long = str(reference_pi(120))
    short = str(reference_pi(60))
    assert long.startswith(short)


def test_arctan_sum_sizes_a_small_argument():
    auto = arctan_sum([(1, 7)], 60)
    explicit = arctan_fast(Fraction(1, 7), 60, 60)
    assert coinciding_digits(auto, explicit) >= 58
    # an explicit count of zero terms is refused, not taken for "size it"
    with pytest.raises(DomainError):
        arctan_sum([(1, 7)], 60, terms=0)


def test_arctan_fast_rejects_wide_arguments():
    with pytest.raises(DomainError):
        arctan_fast(Fraction(3, 2), 10, 40)
    with pytest.raises(DomainError):
        arctan_sum([(1, Fraction(2, 3))], 40)
    assert arctan_fast(0, 10, 40) == 0


def test_arctan_sum_huge_cotangent_path():
    """Closing cotangents with thousands of digits take the floating
    branch; it must agree with the exact integer branch."""
    u2 = u2_of(1303, 11)
    assert len(str(abs(u2.numerator))) > 1500
    auto = arctan_sum([(1, u2)], 50)
    exact = arctan_fast(1 / u2, 14, 50)
    assert coinciding_digits(auto, exact) >= 40


def test_arctan_sum_two_term_pair_k6():
    u2 = u2_of(40, 6)
    value = round_sig(arctan_sum([(2**7, 40), (4, u2)], 100, 31), 100)
    assert coinciding_digits(value, reference_pi(110)) >= 100


def test_convergence_scan_rejects_magnitude_stand_in():
    from machinlike.formulas import MagnitudeOnly
    stand_in = MagnitudeOnly(sign=-1, magnitude=Decimal("2.4e8"))
    with pytest.raises(DomainError):
        convergence_scan(27, 85445659, stand_in, 10, 40)
    with pytest.raises(DomainError):
        convergence_scan(1, 2, 3, 10, 400)


def test_convergence_scan_digits_increase():
    u2 = u2_of(40, 6)
    report = convergence_scan(6, 40, u2, 10, 300)
    assert report.digits == tuple(sorted(report.digits))
    assert len(set(report.digits)) == len(report.digits)
    assert report.fitted_rate > 0
    assert str(report.measure) == "1.167513"
    report = convergence_scan(3, 5, -239, 6, 200)
    assert report.digits == (2, 4, 6, 8, 10, 13)
    assert (str(report.fitted_rate), str(report.measure), str(report.predicted_rate)) == (
        "2.50", "1.851128", "2.21")


def test_convergence_scan_rate_against_prediction():
    u2 = u2_of(10, 4)
    report = convergence_scan(4, 10, u2, 12, 300)
    assert abs(report.fitted_rate - report.predicted_rate) <= Decimal("0.7")


def test_convergence_scan_guards():
    u2 = u2_of(40, 6)
    with pytest.raises(DomainError):
        convergence_scan(6, 40, u2, 2, 300)
    with pytest.raises(PrecisionError):
        convergence_scan(6, 40, u2, 60, 100)
