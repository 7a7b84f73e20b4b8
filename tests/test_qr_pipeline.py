from fractions import Fraction

import pytest

from qrwe import qr_pipeline
from qrwe.arith import odd_prime_powers
from qrwe.curve_census import weierstrass_census
from qrwe.errors import ConsistencyError
from qrwe.finite_field import field
from qrwe.isogeny_counts import IsogenyProfile, weighted_count
from qrwe.qr_pipeline import (classical_dual_weight7_check,
                              classical_quartic_code_enumerator,
                              dual_code_report, predicted_dual_coefficient,
                              quartic_code_enumerator, singular_quartic_part,
                              smooth_quartic_part)
from qrwe.rs_codes import brute_force_enumerator, reed_solomon_code
from references import smooth_quartic_part_fractions


def test_singular_part_coefficients():
    for q in (5, 7, 9, 11):
        singular = singular_quartic_part(q)
        assert singular.coeff(0, 0) == 1
        assert singular.coeff(q, 0) == (q - 1) * (q + 1) // 2
        assert singular.coeff(q + 1, 0) == (q - 1) ** 2 * q // 4
        half = (q - 1) // 2
        assert singular.coeff(half, half) == (q - 1) * q * (q + 1)
        assert singular.is_yz_symmetric()


def test_pipeline_matches_brute_force(quartic_census_for):
    for q, (p, v) in {5: (5, 1), 7: (7, 1), 9: (3, 2)}.items():
        enum = quartic_code_enumerator(q)
        code = reed_solomon_code(field(p, v), 4)
        assert enum == brute_force_enumerator(code), q


def test_totals_are_q_to_the_fifth():
    for q in (5, 7, 11, 13, 25, 27):
        assert quartic_code_enumerator(q).total() == q ** 5
        assert classical_quartic_code_enumerator(q).total() == q ** 5


def test_symmetry():
    for q in (5, 7, 9, 11, 13):
        assert quartic_code_enumerator(q).is_yz_symmetric()
        assert classical_quartic_code_enumerator(q).is_yz_symmetric()


def test_smooth_part_fibers_recover_weighted_counts():
    # summing smooth coefficients along i + 2j = q + 1 - t recovers the
    # weighted class count of trace t
    for q in (5, 7, 9, 11, 13):
        smooth = smooth_quartic_part(q)
        scale = (q - 1) ** 2 * q * (q + 1)
        fibers = {}
        for (j, k), value in smooth.terms.items():
            i = q + 1 - j - k
            points = i + 2 * j
            fibers[points] = fibers.get(points, 0) + value
        for points, total in fibers.items():
            t = q + 1 - points
            assert total == weighted_count(q, t) * scale, (q, t)


def test_smooth_part_in_integers_matches_the_fraction_reference():
    # term by term, insertion order included
    for q in [q for q in odd_prime_powers(2000) if q >= 5] + [3 ** 9, 5 ** 6, 10007, 100003]:
        smooth = smooth_quartic_part(q)
        assert list(smooth.terms.items()) == list(
            smooth_quartic_part_fractions(q).terms.items()), q
        assert all(type(value) is int for value in smooth.terms.values()), q


def test_smooth_part_refuses_weights_it_cannot_split_exactly(monkeypatch):
    def profile_of(table):
        monkeypatch.setattr(qr_pipeline, "isogeny_profile",
                            lambda q: IsogenyProfile(q=q, table=table))
    # a denominator outside 1/24 has no quarter in units of 1/96
    profile_of({1: (Fraction(1, 32), Fraction(0))})
    with pytest.raises(ConsistencyError, match="1/24"):
        smooth_quartic_part(11)
    # a quarter of 1/24 at q = 11 leaves (q-1)^2 q (q+1) / 96 non-integral
    profile_of({0: (Fraction(1, 24), Fraction(1, 24))})
    with pytest.raises(ConsistencyError, match="non-integral"):
        smooth_quartic_part(11)


def test_model_counts_per_class_aggregate():
    # each isomorphism class accounts for (q-1)^2 q (q+1) / |Aut| smooth
    # quartics; in aggregate, quartic bucket totals are the Weierstrass
    # model counts times (q-1) q (q+1)
    for q in (5, 7, 11, 13):
        ctx = field(q, 1)
        smooth = smooth_quartic_part(q)
        wcensus = weierstrass_census(ctx)
        per_trace = {}
        for (j, k), value in smooth.terms.items():
            i = q + 1 - j - k
            t = q + 1 - (i + 2 * j)
            per_trace[t] = per_trace.get(t, 0) + value
        for t, bucket in wcensus.buckets.items():
            assert per_trace.get(t, 0) == bucket.total * (q - 1) * q * (q + 1)


def test_dual_report_reference_coefficients():
    report13 = dual_code_report(13, 7)
    assert report13["coefficients"][(6, 0)] == 1638
    report7 = dual_code_report(7, 7)
    assert report7["coefficients"][(3, 3)] == 168
    assert report7["coefficients"].get((5, 1), 0) == 0
    assert all(item["match"] for item in report7["comparisons"])


def test_dual_report_verified_by_brute_force():
    q = 7
    report = dual_code_report(q, 7)
    code = reed_solomon_code(field(q, 1), q - 5)
    brute = brute_force_enumerator(code)
    for (j, k), value in report["coefficients"].items():
        assert brute.coeff(j, k) == value, (j, k)


def test_truncated_transform_restricts_full_transform():
    from qrwe.enumerators import qr_dual_coefficients, qr_macwilliams_dual
    for q in (7, 9, 11, 13, 25, 27):
        n = q + 1
        enum = quartic_code_enumerator(q)
        full = qr_macwilliams_dual(enum, q, q ** 5)
        for max_codim in sorted({0, 1, 6, min(9, n), n}):
            truncated = qr_dual_coefficients(enum, q, q ** 5, max_codim)
            assert truncated == {key: value for key, value in full.terms.items()
                                 if sum(key) <= max_codim}, (q, max_codim)


def test_predicted_coefficient_low_weights_vanish():
    for q in (13, 7):
        for w in range(1, 6):
            assert predicted_dual_coefficient(q, w, 0) == 0
    assert predicted_dual_coefficient(13, 0, 0) == 1


def test_classical_dual_weight7():
    assert classical_dual_weight7_check(7)["match"]
    assert classical_dual_weight7_check(13)["match"]


def test_classical_dual_weight7_preconditions():
    with pytest.raises(ValueError, match="prime"):
        classical_dual_weight7_check(9)
    with pytest.raises(ValueError, match="q >= 11"):
        classical_dual_weight7_check(5)


def test_rejects_small_or_even_q():
    with pytest.raises(ValueError):
        quartic_code_enumerator(3)
    with pytest.raises(ValueError):
        singular_quartic_part(8)


def test_rejects_odd_q_that_is_not_a_prime_power():
    for q in (15, 21):
        with pytest.raises(ValueError):
            singular_quartic_part(q)


def test_dual_report_compares_every_low_monomial_in_sorted_order():
    # the closed-form table covers every j + k <= 7 in both residue classes
    for q in (13, 11):
        for max_codim in (0, 5, 6, 7, 9):
            limit = min(max_codim, 7)
            expected = [(j, k) for j in range(limit + 1) for k in range(limit + 1 - j)]
            got = [(item["monomial"]["j"], item["monomial"]["k"])
                   for item in dual_code_report(q, max_codim)["comparisons"]]
            assert got == expected, (q, max_codim)
