from math import gcd

import pytest

from qrwe.eta_products import (QSeries, discriminant_form, eta_product,
                               hecke_eigenvalue_prime_power, ramanujan_tau,
                               weight6_level4_form, weight8_level2_form)


def test_discriminant_form_leading_coefficients():
    delta = eta_product([(1, 24)], 10)
    assert [delta.coeff(n) for n in range(1, 6)] == [1, -24, 252, -1472, 4830]
    assert delta.leading_exponent == 1


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
