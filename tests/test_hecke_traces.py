import hashlib
import io
from fractions import Fraction
from math import comb, isqrt

import pytest
from hypothesis import given, strategies as st

from qrwe import hecke_traces
from qrwe.arith import odd_prime_powers, odd_primes
from qrwe.errors import ConsistencyError
from qrwe.eta_products import weight8_level2_form
from qrwe.hecke_traces import (FLAVORS, TraceTable, _class_number_sum,
                               min_power_sum, moment_formula, trace,
                               trace_level1, trace_level2, trace_level4)
from qrwe.quadratic_forms import (hurwitz_class_number, hurwitz_row,
                                  weighted_class_number)
from references import ballot, lucas_kernel


def _kernel_coefficients(k, q):
    """P_k(t, q) as a polynomial in u = t^2, highest power first, from
    the library's signed binomials."""
    return [b * q ** j for j, b in enumerate(hecke_traces._kernel_binomials(k))]


def _horner(coefficients, u):
    value = 0
    for c in coefficients:
        value = value * u + c
    return value


def _row_walk(q, flavor, kernel):
    """sum over all t with t^2 < 4q of the flavor of kernel(t) 6H, with 6H
    read off hurwitz_row at |t| (or |t|/2 for full 2-torsion)."""
    full = flavor == "full_two_torsion"
    row = hurwitz_row(q if full else 4 * q)
    total = 0
    bound = isqrt(4 * q - 1)
    for t in range(-bound, bound + 1):
        if full:
            if t % 4 == (q + 1) % 4:
                total += kernel(t) * row[abs(t) // 2]
        elif flavor == "all" or t % 2 == 0:
            total += kernel(t) * row[abs(t)]
    return total


def test_kernel_coefficients_match_the_binomial_formula():
    for k in range(2, 201, 2):
        assert hecke_traces._kernel_binomials(k) == tuple(
            (-1) ** j * comb(k - 2 - j, j) for j in range(k // 2)), k


def test_kernel_low_weights():
    # P_2 = 1 and P_4 = t^2 - q
    for q in (1, 3, 5, 7, 9):
        for flavor in FLAVORS:
            assert _class_number_sum(2, q, flavor) == _row_walk(q, flavor, lambda t: 1)
            assert _class_number_sum(4, q, flavor) == _row_walk(
                q, flavor, lambda t: t * t - q), (q, flavor)


@given(st.integers(min_value=1, max_value=20), st.integers(min_value=-500, max_value=500),
       st.integers(min_value=1, max_value=10 ** 5))
def test_kernel_matches_lucas_recurrence(half, t, q):
    assert _horner(_kernel_coefficients(2 * half, q), t * t) == lucas_kernel(2 * half, t, q)


@given(st.integers(min_value=1, max_value=8), st.sampled_from(FLAVORS),
       st.sampled_from([1] + list(odd_prime_powers(2000))))
def test_moment_kernel_matches_a_walk_over_the_hurwitz_row(half, flavor, q):
    k = 2 * half
    assert _class_number_sum(k, q, flavor) == _row_walk(
        q, flavor, lambda t: lucas_kernel(k, t, q))


def test_min_power_sum_values():
    assert min_power_sum(7, 6) == 2
    assert min_power_sum(9, 4) == 29
    assert min_power_sum(27, 2) == 8
    for q in odd_prime_powers(3 ** 8):
        p, v = hecke_traces.odd_prime_power_split(q)
        for k in range(2, 25, 2):
            assert min_power_sum(q, k) == sum(min(p ** i, p ** (v - i)) ** (k - 1)
                                              for i in range(v + 1)), (q, k)


def test_min_power_sum_refuses_weights_below_two():
    for k in (1, 0, -2):
        with pytest.raises(ValueError, match="weight"):
            min_power_sum(9, k)


def test_dimension_zero_traces_small():
    for q in odd_prime_powers(50):
        for k in (4, 6, 8, 10, 14):
            assert trace_level1(k, q) == 0, (k, q)
        for k in (2, 4, 6):
            assert trace_level2(k, q) == 0, (k, q)
        for k in (2, 4):
            assert trace_level4(k, q) == 0, (k, q)
        assert trace_level1(2, q) == 0, q


def test_trace_reference_values():
    assert trace_level4(6, 3) == -12
    assert trace_level2(8, 3) == 12
    assert trace_level1(12, 5) == 4830
    # prime powers through the eigenvalue recursion
    assert trace_level2(8, 9) == 12 ** 2 - 3 ** 7
    assert trace_level4(6, 25) == 54 ** 2 - 5 ** 5
    assert trace_level1(12, 9) == 252 ** 2 - 3 ** 11


def test_fractional_trace_is_a_consistency_error(monkeypatch):
    true_sum = hecke_traces._class_number_sum
    expected = Fraction(12 * trace(1, 12, 101) - 1, 12)
    monkeypatch.setattr(hecke_traces.DEFAULT_TABLE, "entries", {})
    monkeypatch.setattr(hecke_traces, "_class_number_sum",
                        lambda k, q, flavor: true_sum(k, q, flavor) + 1)
    with pytest.raises(ConsistencyError, match="non-integer") as info:
        trace(1, 12, 101)
    assert str(expected) in str(info.value)


def test_oldform_doubling():
    for p in odd_primes(100):
        assert trace_level4(8, p) == 2 * trace_level2(8, p)


def test_moment_kernel_sentinels():
    # q = 1, which moment_formula meets as q/p^2 at v = 2, sums over
    # t^2 < 4 only: H(-4) = 1/2 at t = 0, H(-3) = 1/3 at t = 1
    assert _class_number_sum(2, 1, "all") == 12 * Fraction(7, 12)
    assert _class_number_sum(2, 1, "two_torsion") == 12 * Fraction(1, 4)
    assert _class_number_sum(4, 1, "two_torsion") == 12 * Fraction(-1, 4)
    assert _class_number_sum(6, 1, "full_two_torsion") == 0
    for k in range(2, 41, 2):
        at_zero = Fraction(lucas_kernel(k, 0, 1), 4)
        assert _class_number_sum(k, 1, "all") == 12 * (
            at_zero + Fraction(lucas_kernel(k, 1, 1), 3))
        assert _class_number_sum(k, 1, "two_torsion") == 12 * at_zero
        assert _class_number_sum(k, 1, "full_two_torsion") == 0


def test_moment_kernel_level1_prime():
    # for prime q and weight 12 the kernel is -tau(q) - 1
    assert _class_number_sum(12, 5, "all") == 12 * (-4830 - 1)


def test_kernel_expansion_coeff():
    assert ballot(3, 0) == 1
    assert ballot(3, 3) == 5      # Catalan number
    assert ballot(2, 1) == 3


@given(st.integers(min_value=0, max_value=12).flatmap(
    lambda R: st.tuples(st.just(R), st.integers(min_value=0, max_value=R))))
def test_kernel_expansion_coeff_closed_form(R_j):
    R, j = R_j
    assert ballot(R, j) * (2 * R + 1) == (2 * R - 2 * j + 1) * comb(2 * R + 1, j)


def test_power_expands_into_kernels():
    # t^(2R) = sum_j coeff(R, j) q^j P_{2R-2j+2}(t, q)
    for q in odd_prime_powers(49):
        for R in range(7):
            for t in range(-int((4 * q) ** 0.5), int((4 * q) ** 0.5) + 1):
                if t * t > 4 * q:
                    continue
                total = sum(ballot(R, j) * q ** j * lucas_kernel(2 * R - 2 * j + 2, t, q)
                            for j in range(R + 1))
                assert total == t ** (2 * R), (q, R, t)


def _ballot_moment(q, R, flavor):
    """Reference: the moment as the ballot combination of the kernels at
    q and q/p^2, plus the boundary term at even v.  q/p^2 is 0 at v = 1,
    where the kernel vanishes."""
    p, v = hecke_traces.odd_prime_power_split(q)
    sub = q // (p * p)
    total = 0
    for j in range(R + 1):
        k = 2 * R - 2 * j + 2
        term = _class_number_sum(k, q, flavor)
        if sub:
            term -= p ** (k - 1) * _class_number_sum(k, sub, flavor)
        total += ballot(R, j) * q ** j * term
    if v % 2 == 0:
        total += (p - 1) * (4 * q) ** R
    return Fraction(total, 12)


def test_moment_formula_collapses_the_ballot_combination():
    # q/p^2 is 0 at primes, 1 at squares and a prime power at 3^7, 5^5, 7^4
    for q in list(odd_prime_powers(2000)) + [3 ** 7, 5 ** 5, 7 ** 4, 16411]:
        for flavor in FLAVORS:
            for R in range(8):
                assert moment_formula(q, R, flavor) == _ballot_moment(q, R, flavor), (
                    q, flavor, R)


def _horner_class_number_sum(k, q, flavor):
    """Reference 12 K: P_k(t, q) by Horner's rule in t^2 at every t,
    t > 0 standing for t and -t."""
    full = flavor == "full_two_torsion"
    row = hurwitz_row(q if full else 4 * q)
    start, step = ((q + 1) % 4, 4) if full else (0, 1 if flavor == "all" else 2)
    coefficients = _kernel_coefficients(k, q)
    total = 0
    for t in range(start, isqrt(4 * q - 1) + 1, step):
        value = _horner(coefficients, t * t)
        total += (2 if t else 1) * value * row[t // 2 if full else t]
    return total


def test_kernels_from_moments_match_horner_in_any_weight_order(monkeypatch):
    # each flavor alone in ascending, descending and zigzag order, then
    # the flavors interleaved at one q: the even class is shared by
    # "all" and "two_torsion", so a request can extend it mid-list
    weights = list(range(2, 41, 2))
    half = len(weights) // 2
    zigzag = [k for pair in zip(weights[:half], weights[half:]) for k in pair]
    orders = [[(flavor, k) for k in order]
              for flavor in FLAVORS for order in (weights, weights[::-1], zigzag)]
    orders += [[(flavor, k) for k in weights for flavor in FLAVORS],
               [("two_torsion", 6), ("all", 14), ("two_torsion", 20), ("all", 4),
                ("full_two_torsion", 8), ("all", 30), ("two_torsion", 40),
                ("all", 40), ("full_two_torsion", 2)],
               [pair for pairs in zip([("all", k) for k in zigzag],
                                      [("two_torsion", k) for k in weights[::-1]])
                for pair in pairs]]
    for q in [1] + list(odd_prime_powers(2000)) + [100003]:
        expected = {(flavor, k): _horner_class_number_sum(k, q, flavor)
                    for flavor in FLAVORS for k in weights}
        for order in orders:
            monkeypatch.setattr(hecke_traces, "_MOMENTS", {})
            for flavor, k in order:
                assert hecke_traces._class_number_sum(k, q, flavor) == expected[flavor, k], (
                    q, flavor, k, order[0])


def test_moments_cache_stays_within_its_bound(monkeypatch):
    bound = hecke_traces._MOMENTS_MAX
    cache = {-i: {"even": [0] * 8, "odd": [0] * 8} for i in range(bound)}
    monkeypatch.setattr(hecke_traces, "_MOMENTS", cache)
    hecke_traces._power_moments(-1, "all", 8)  # a hit refreshes its entry
    for q in odd_prime_powers(300):
        for flavor in FLAVORS:
            hecke_traces._power_moments(q, flavor, 3)
            assert len(cache) <= bound
    assert len(cache) == bound
    assert -1 in cache and -2 not in cache
    # an entry is the moments of each class of t, not the term lists
    assert sorted(cache[3]) == ["even", "full", "odd"]
    assert all(type(m) is int and len(moments) == 3
               for moments in cache[3].values() for m in moments)


def test_each_trace_and_moment_reads_only_the_rows_it_needs(monkeypatch):
    asked = []
    monkeypatch.setattr(hecke_traces, "hurwitz_row", lambda m: asked.append(m) or hurwitz_row(m))
    calls = ((lambda q: trace_level1(12, q), lambda q: {4 * q}),
             (lambda q: trace_level2(8, q), lambda q: {4 * q, q}),
             (lambda q: trace_level4(6, q), lambda q: {q}),
             (lambda q: moment_formula(q, 5, "two_torsion"), lambda q: {4 * q}),
             (lambda q: moment_formula(q, 5, "full_two_torsion"), lambda q: {q}))
    for q in (3, 1009, 16411):
        for call, rows in calls:
            monkeypatch.setattr(hecke_traces, "_MOMENTS", {})
            monkeypatch.setattr(hecke_traces.DEFAULT_TABLE, "entries", {})
            asked.clear()
            call(q)
            assert set(asked) == rows(q), (q, asked)


# sha256 of every trace at levels 1, 2, 4 and weights 2..22 and every
# moment formula R <= 8 at the odd prime powers q <= 2000 and four larger
# q, taken before the moments were kept per q as three classes of t
PINNED_DIGEST = "70ca17886ecf1ab640595a7399f7e4a7c0ada308f1bb3447d74f6580b3416385"


def test_traces_and_moments_are_bit_identical_to_the_pinned_digest():
    digest = hashlib.sha256()
    for q in list(odd_prime_powers(2000)) + [16411, 65537, 3 ** 9, 5 ** 6]:
        for level in (1, 2, 4):
            for k in range(2, 23, 2):
                digest.update(b"%d,%d,%d,%d;" % (level, k, q, trace(level, k, q)))
        for flavor in FLAVORS:
            for R in range(9):
                digest.update(("%s,%d,%d,%s;" % (flavor, R, q, moment_formula(q, R, flavor)))
                              .encode())
    assert digest.hexdigest() == PINNED_DIGEST


def test_even_trace_class_number_sum_is_two_torsion_kernel():
    # (1/2) sum_{t even, t^2 < 4q} P_k(t, q) H(t^2 - 4q) equals the
    # two-torsion moment kernel
    from math import isqrt
    for q in (3, 5, 7, 9, 11, 13, 25, 27):
        for k in (2, 4, 6, 8, 10, 12):
            total = Fraction(0)
            for t in range(-isqrt(4 * q), isqrt(4 * q) + 1):
                if t % 2 == 0 and t * t < 4 * q:
                    total += lucas_kernel(k, t, q) * hurwitz_class_number(t * t - 4 * q)
            assert 12 * total / 2 == _class_number_sum(k, q, "two_torsion"), (q, k)


def test_odd_conductor_sum_and_vanishing_quarter_discriminant():
    # the level-2 class part rests on both identities, for even t with
    # t^2 < 4q and D = t^2 - 4q
    from math import isqrt
    for q in odd_prime_powers(200):
        bound = isqrt(4 * q - 1)
        for t in range(-bound, bound + 1):
            if t % 2 != 0:
                continue
            disc = t * t - 4 * q
            odd_conductors = sum((weighted_class_number(disc // (m * m))
                                  for m in range(1, isqrt(-disc) + 1, 2)
                                  if disc % (m * m) == 0
                                  and (disc // (m * m)) % 4 in (0, 1)), Fraction(0))
            assert odd_conductors == (hurwitz_class_number(disc)
                                      - hurwitz_class_number(disc // 4)), (q, t)
            if t % 4 != (q + 1) % 4:
                assert hurwitz_class_number(disc // 4) == 0, (q, t)


def test_ordinary_part_recursion():
    # quadratic-endomorphism contribution = kernel(q) - p^(k-1) kernel(q/p^2)
    from math import isqrt
    from qrwe.isogeny_counts import weighted_count
    for q, p in ((9, 3), (25, 5), (27, 3)):
        for k in (2, 4, 6, 8, 10, 12):
            total = Fraction(0)
            for t in range(-isqrt(4 * q), isqrt(4 * q) + 1):
                if t % 2 == 0 and t % p != 0 and t * t < 4 * q:
                    total += lucas_kernel(k, t, q) * hurwitz_class_number(t * t - 4 * q)
            total = total / 2 + lucas_kernel(k, 0, q) * weighted_count(q, 0)
            expected = (_class_number_sum(k, q, "two_torsion")
                        - p ** (k - 1) * _class_number_sum(k, q // (p * p), "two_torsion"))
            assert 12 * total == expected, (q, k)


def test_prime_moment_polynomials():
    for p in (3, 5, 7, 11, 13):
        assert moment_formula(p, 2, "all") == 2 * p ** 3 - 3 * p - 1
        a_p = trace_level4(6, p)
        assert (moment_formula(p, 2, "two_torsion")
                == Fraction(4, 3) * p ** 3 - Fraction(2, 3) * p ** 2 - 3 * p - 1
                + Fraction(a_p, 3))
        assert (moment_formula(p, 0, "full_two_torsion")
                == Fraction(p, 6) - Fraction(1, 3))


def test_weight8_family_traces_match_eta():
    eta8 = weight8_level2_form()
    for p in odd_primes(60):
        assert trace_level2(8, p) == eta8.coeff(p)


def test_trace_table_csv():
    table = TraceTable()
    table.get(4, 6, 3)
    table.get(1, 12, 5)
    out = io.StringIO()
    table.to_csv(out)
    lines = out.getvalue().strip().splitlines()
    assert lines[0] == "N,k,q,trace"
    assert "1,12,5,4830" in lines and "4,6,3,-12" in lines


def test_trace_table_stays_within_its_bound():
    bound = hecke_traces._TRACES_MAX
    table = TraceTable()
    table.entries.update(((1, 12, -i), 0) for i in range(bound))
    assert table.get(1, 12, -1) == 0  # a hit moves nothing
    keys = list(table.entries)
    assert table.get(4, 6, 3) == -12
    assert len(table.entries) == bound
    assert list(table.entries) == keys[1:] + [(4, 6, 3)]
    for q in odd_prime_powers(50):
        table.get(2, 8, q)
        assert len(table.entries) == bound


def test_trace_table_rejects_bad_keys():
    table = TraceTable()
    with pytest.raises(ValueError):
        table.get(3, 6, 5)
    with pytest.raises(ValueError):
        table.get(4, 5, 5)
    with pytest.raises(ValueError):
        trace_level1(12, 4)


def test_moment_formula_rejects_bad_input():
    with pytest.raises(ValueError):
        moment_formula(8, 1)
    with pytest.raises(ValueError):
        moment_formula(5, -1)
    with pytest.raises(ValueError):
        moment_formula(5, 4, "nope")


def test_level1_trace_at_large_prime():
    # tau(100003) from one Hurwitz row; Ramanujan's congruence and the
    # Deligne bound check it independently of the pinned value
    p = 100003
    tau = trace_level1(12, p)
    assert tau == 1194906306375914517502892252
    assert (tau - 1 - p ** 11) % 691 == 0
    assert tau * tau <= 4 * p ** 11
