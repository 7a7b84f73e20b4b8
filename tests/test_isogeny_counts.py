from fractions import Fraction
from math import isqrt

import pytest

from qrwe.arith import odd_prime_powers
from qrwe.errors import BudgetExceededError
from qrwe.hecke_traces import moment_formula
from qrwe.isogeny_counts import (isogeny_profile, weighted_count,
                                 weighted_count_full_2tors)

from references import weighted_count_by_cases, weighted_count_full_2tors_by_cases


def test_reference_values():
    assert weighted_count(3, 1) == Fraction(1, 2)      # H(-11)/2
    assert weighted_count(3, 0) == Fraction(2, 3)      # H(-12)/2
    assert weighted_count(5, 4) == Fraction(1, 4)      # H(-4)/2
    assert weighted_count(9, 3) == Fraction(1, 6)      # square q, t^2 = q
    assert weighted_count(9, 6) == Fraction(1, 12)     # t^2 = 4q
    assert weighted_count(27, 9) == Fraction(1, 6)     # t^2 = 3q, p = 3


def test_full_2tors_reference_values():
    assert weighted_count_full_2tors(5, 2) == Fraction(1, 4)
    assert weighted_count_full_2tors(7, 0) == Fraction(1, 2)  # h_w(-7)/2
    assert weighted_count_full_2tors(5, 1) == 0
    assert weighted_count_full_2tors(9, 6) == weighted_count(9, 6)
    assert weighted_count_full_2tors(25, 5) == 0       # t^2 = q
    assert weighted_count_full_2tors(13, 0) == 0       # q = 1 mod 4


def test_odd_traces_have_no_2_torsion():
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        for t in range(-11, 12):
            if t % 2 != 0:
                assert weighted_count_full_2tors(q, t) == 0


def test_vanishing_outside_hasse_interval():
    assert weighted_count(5, 5) == 0
    assert weighted_count_full_2tors(5, 5) == 0


def test_divisible_trace_vanishing():
    # p | t, t != 0, no boundary case: no isogeny class exists
    assert weighted_count(27, 3) == 0
    assert weighted_count(27, 6) == 0
    assert weighted_count(9, 30) == 0


def test_profile_invariants():
    for q in (3, 5, 7, 9, 13, 25, 27):
        profile = isogeny_profile(q)
        for t, (n_all, n_full) in profile.table.items():
            assert n_all >= n_full >= 0, (q, t)
            assert t * t <= 4 * q


def test_mass_equals_zeroth_moment():
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        profile = isogeny_profile(q)
        total = sum(pair[0] for pair in profile.table.values())
        assert total == moment_formula(q, 0, "all"), q


def test_rejects_even_q():
    with pytest.raises(ValueError):
        weighted_count(8, 1)
    with pytest.raises(ValueError):
        weighted_count_full_2tors(16, 0)
    with pytest.raises(ValueError):
        weighted_count_full_2tors(16, 1)


def test_isogeny_profile_at_large_prime():
    q = 100003
    table = isogeny_profile(q).table
    assert sum(count for count, _ in table.values()) == q
    assert sum(full for _, full in table.values()) == Fraction(q, 6) - Fraction(1, 3)


def _profile_by_t(q):
    """The profile table from the case analysis at every t, in t order."""
    bound = isqrt(4 * q)
    table = {}
    for t in range(-bound, bound + 1):
        pair = (weighted_count_by_cases(q, t), weighted_count_full_2tors_by_cases(q, t))
        if pair != (0, 0):
            table[t] = pair
    return table


def test_isogeny_profile_matches_the_counts_at_every_t():
    for q in odd_prime_powers(2000) + [3 ** 7, 5 ** 5, 7 ** 4, 16411, 100003]:
        table, expected = isogeny_profile(q).table, _profile_by_t(q)
        assert list(table.items()) == list(expected.items()), q
        assert all(type(x) is Fraction for pair in table.values() for x in pair), q
        bound = isqrt(4 * q) + 3
        for t in range(-bound, bound + 1):
            pair = (weighted_count(q, t), weighted_count_full_2tors(q, t))
            assert pair == expected.get(t, (0, 0)), (q, t)
            assert all(type(x) is Fraction for x in pair), (q, t)


@pytest.mark.parametrize("p, v", [(467, 3), (10007, 2)])
def test_traces_divisible_by_p_answer_without_the_row_of_4q(monkeypatch, p, v):
    # 4q is past the default budget: only the t prime to p need that row,
    # and the full count at an odd t needs none
    monkeypatch.delenv("QRWE_BUDGET", raising=False)
    q = p ** v
    for t in (0, p, 2 * p, 3 * p, 10 ** 9):
        pair = (weighted_count(q, t), weighted_count_full_2tors(q, t))
        assert pair == (weighted_count_by_cases(q, t),
                        weighted_count_full_2tors_by_cases(q, t)), t
    for t in (1, -3, p + 2):
        count = weighted_count_full_2tors(q, t)
        assert count == 0 and type(count) is Fraction, t
    if p == 467:
        assert weighted_count(q, 0) == 14
        with pytest.raises(BudgetExceededError):
            weighted_count(q, 1)
