from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given, strategies as st

from qrwe import eta_products, verify
from qrwe.cli import main
from qrwe.errors import ConsistencyError
from qrwe.eta_products import (QSeries, _series_power, discriminant_form,
                               eta_product, hecke_eigenvalue_prime_power,
                               ramanujan_tau, weight6_level4_form,
                               weight8_level2_form)


def euler_factor(scale, precision):
    """prod_{n >= 1} (1 - x^(scale n)), one binomial at a time."""
    out = [1] + [0] * (precision - 1)
    for e in range(scale, precision, scale):
        for i in range(precision - 1, e - 1, -1):
            out[i] -= out[i - e]
    return QSeries(out, precision)


def reference_eta_product(factors, precision):
    """The product by repeated schoolbook QSeries multiplication."""
    series = QSeries([1], precision)
    for scale, power in factors:
        base = euler_factor(scale, precision)
        for _ in range(power):
            series = base * series
    lead = sum(scale * power for scale, power in factors) // 24
    return QSeries([0] * lead + series.coefficients[:precision - lead], precision)


def test_discriminant_form_leading_coefficients():
    delta = eta_product([(1, 24)], 10)
    assert [delta.coeff(n) for n in range(1, 6)] == [1, -24, 252, -1472, 4830]
    assert delta.coefficients[:2] == [0, 1]  # the expansion starts at x^1


def test_weight6_level4_expansion():
    f = eta_product([(2, 12)], 8)
    assert [f.coeff(n) for n in range(1, 8)] == [1, 0, -12, 0, 54, 0, -88]


def test_weight8_level2_expansion():
    f = eta_product([(1, 8), (2, 8)], 4)
    assert [f.coeff(n) for n in range(1, 4)] == [1, -8, 12]


def test_non_integral_leading_exponent_rejected():
    with pytest.raises(ValueError, match="leading exponent"):
        eta_product([(1, 1)], 10)


def test_eigenvalue_recursion():
    assert ramanujan_tau(9) == 252 ** 2 - 3 ** 11 == -113643
    assert hecke_eigenvalue_prime_power(weight6_level4_form(), 6, 5, 1) == 54
    assert hecke_eigenvalue_prime_power(discriminant_form(), 12, 7, 0) == 1


@pytest.mark.parametrize("p,e", [(7, -1), (0, 1), (1, 1)])
def test_eigenvalue_refuses_p_below_2_and_negative_e(p, e):
    with pytest.raises(ValueError, match="needs p >= 2 and e >= 0"):
        hecke_eigenvalue_prime_power(discriminant_form(), 12, p, e)


def test_eigenvalue_refuses_a_series_that_is_not_normalized():
    for coefficients in ([0] * 10, [0], [1, 1, 0], [0, 2, 5], [0, 0, 1]):
        with pytest.raises(ValueError, match="not a normalized eigenform"):
            hecke_eigenvalue_prime_power(QSeries(coefficients), 12, 2, 1)


def test_eigenvalue_recursion_that_disagrees_is_a_consistency_error():
    broken = list(discriminant_form(60).coefficients)
    broken[49] += 1
    with pytest.raises(ConsistencyError, match="disagrees with expansion at 49"):
        hecke_eigenvalue_prime_power(QSeries(broken), 12, 7, 2)


def test_verify_reports_a_broken_eta_identity_without_a_traceback(capsys, monkeypatch):
    def broken_form(precision):
        coefficients = list(weight6_level4_form(precision).coefficients)
        coefficients[25] += 1
        return QSeries(coefficients, precision)
    monkeypatch.setattr(verify, "weight6_level4_form", broken_form)
    assert main(["verify", "--suite", "traces", "--qmax", "30"]) == 1
    err = capsys.readouterr().err
    assert err == "error: eigenvalue recursion disagrees with expansion at 25\n"


def test_eigenvalue_needs_precision():
    small = eta_product([(1, 24)], 5)
    with pytest.raises(ValueError, match="precision"):
        hecke_eigenvalue_prime_power(small, 12, 7, 1)


@pytest.mark.parametrize("form,weight", [
    (discriminant_form, 12),
    (weight6_level4_form, 6),
    (weight8_level2_form, 8),
])
def test_multiplicativity_on_coprime_indices(form, weight):
    series = form()
    for m in range(1, 61):
        for n in range(1, 61 // m + 1):
            if m * n <= 60 and gcd(m, n) == 1:
                assert series.coeff(m * n) == series.coeff(m) * series.coeff(n)


def test_series_multiplication_telescopes():
    one_minus = QSeries([1, -1], 6)
    product = one_minus * QSeries([1, 1, 1, 1, 1, 1], 6)
    # (1 - x) * geometric series = 1 - x^6, and x^6 is beyond precision
    assert product.coefficients == [1, 0, 0, 0, 0, 0]


def test_negative_eta_power_rejected():
    with pytest.raises(ValueError, match="power"):
        eta_product([(1, 24), (1, -24)], 8)


@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=30),
       st.integers(min_value=5, max_value=150))
def test_eta_product_matches_repeated_multiplication(scale, power, precision):
    # a second factor eta(z)^r, 0 <= r < 24, makes the leading exponent integral
    factors = [(scale, power), (1, -scale * power % 24)]
    assert eta_product(factors, precision) == reference_eta_product(factors, precision)


@pytest.mark.parametrize("factors", [((1, 24),), ((2, 12),), ((1, 8), (2, 8))])
def test_reference_forms_match_repeated_multiplication(factors):
    assert eta_product(factors, 300) == reference_eta_product(factors, 300)


def test_series_power_needs_constant_term_one():
    for g0 in (0, 2, -1):
        with pytest.raises(ValueError, match="constant term"):
            _series_power(QSeries([g0, 1, 1], 6), 3)
    assert _series_power(QSeries([1, -1], 6), 3).coefficients == [1, -3, 3, -1, 0, 0]
    assert _series_power(QSeries([1, 5, 7], 6), 0).coefficients == [1, 0, 0, 0, 0, 0]


def test_series_power_refuses_an_inexact_division(monkeypatch):
    # with g_0 = 1 and integer g every division is exact; a base
    # coefficient patched to 1/2 makes one inexact, which must raise
    # rather than be floored into an integer coefficient
    true_factor = eta_products._pentagonal_series

    def patched(scale, precision):
        series = true_factor(scale, precision)
        series.coefficients[3] = Fraction(1, 2)
        return series

    monkeypatch.setattr(eta_products, "_pentagonal_series", patched)
    with pytest.raises(ConsistencyError, match="not an integer"):
        eta_product([(1, 24)], 20)
