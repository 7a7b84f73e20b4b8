import hashlib
import json
from fractions import Fraction
from math import comb

import pytest

from qrwe.arith import odd_prime_powers
from qrwe.enumerators import (QREnumerator, _finalize, _krawtchouk,
                              mds_weight_distribution, qr_dual_coefficients,
                              qr_macwilliams_dual)
from qrwe.errors import ConsistencyError
from qrwe.qr_pipeline import classical_quartic_code_enumerator, quartic_code_enumerator

from references import qr_enumerator_from_json


def full_space_enumerator(n, q):
    """Every word of F_q^n: multinomial counts with (q-1)/2 residues and
    as many non-residues available per coordinate."""
    half = (q - 1) // 2
    terms = {}
    for j in range(n + 1):
        for k in range(n - j + 1):
            terms[(j, k)] = (comb(n, j) * comb(n - j, k) * half ** (j + k))
    return QREnumerator(n, q, terms)


def test_enumerator_validation():
    with pytest.raises(ValueError):
        QREnumerator(3, 5, {(2, 2): 1})
    with pytest.raises(ValueError):
        QREnumerator(3, 5, {(0, 1): -2})
    enum = QREnumerator(3, 5, {(0, 0): 1, (1, 0): 0})
    assert enum.terms == {(0, 0): 1}


def test_public_constructor_keeps_the_checks_the_dual_skips():
    # `_finalize` checks its own terms and skips the constructor's pass;
    # the constructor must still refuse every bad term
    for bad in ({(-1, 0): 1}, {(0, -1): 1}, {(3, 1): 1}, {(0, 1): -1},
                {(0, 1): Fraction(1, 2)}, {(1, 1): 2.5}):
        with pytest.raises(ValueError):
            QREnumerator(3, 5, bad)
    assert QREnumerator(3, 5, {(1, 1): Fraction(4, 2)}).terms == {(1, 1): 2}
    primal = quartic_code_enumerator(13)
    dual = qr_macwilliams_dual(primal, 13, 13 ** 5)
    assert dual == QREnumerator(dual.n, dual.q, dual.terms)
    assert all(type(value) is int and value > 0 for value in dual.terms.values())
    with pytest.raises(ConsistencyError):
        _finalize({(0, 0): -2 ** 4}, 4, 5, 1)


def test_mds_distribution_values():
    dist = mds_weight_distribution(8, 5, 7)
    assert dist[0] == 1 and dist[1] == dist[2] == dist[3] == 0
    assert dist[4] == comb(8, 4) * 6 == 420
    assert sum(dist) == 7 ** 5


def test_mds_full_space():
    assert mds_weight_distribution(6, 6, 7) == [comb(6, i) * 6 ** i for i in range(7)]


def test_mds_rejects_bad_parameters():
    with pytest.raises(ValueError):
        mds_weight_distribution(9, 0, 7)
    with pytest.raises(ValueError):
        mds_weight_distribution(10, 5, 7)


def test_qr_transform_of_zero_code():
    for q, n in ((5, 4), (7, 6), (9, 8), (11, 10)):
        zero_code = QREnumerator(n, q, {(0, 0): 1})
        dual = qr_macwilliams_dual(zero_code, q, 1)
        assert dual == full_space_enumerator(n, q)


def test_qr_transform_refuses_asymmetric_input():
    asym = QREnumerator(4, 5, {(0, 0): 1, (1, 0): 4})
    with pytest.raises(ValueError, match="symmetric"):
        qr_macwilliams_dual(asym, 5, 5)
    with pytest.raises(ValueError, match="symmetric"):
        qr_dual_coefficients(asym, 5, 5, 2)


def test_qr_transform_rejects_out_of_range_max_codim():
    zero_code = QREnumerator(4, 5, {(0, 0): 1})
    for max_codim in (-1, 5):
        with pytest.raises(ValueError, match="max_codim"):
            qr_macwilliams_dual(zero_code, 5, 1, max_codim)
        with pytest.raises(ValueError, match="max_codim"):
            qr_dual_coefficients(zero_code, 5, 1, max_codim)


def test_qr_transform_flags_malformed_size():
    zero_code = QREnumerator(4, 5, {(0, 0): 1})
    with pytest.raises(ConsistencyError):
        qr_macwilliams_dual(zero_code, 5, 3)


def test_qr_transform_checks_code_size_against_the_total():
    primal = quartic_code_enumerator(13)
    assert qr_macwilliams_dual(primal, 13, 13 ** 5).total() == 13 ** 9
    # a 13x larger size would pass every divisibility and sign gate
    for size in (13 ** 4, 0, -13 ** 5):
        with pytest.raises(ConsistencyError, match="code size"):
            qr_macwilliams_dual(primal, 13, size)
        with pytest.raises(ConsistencyError, match="code size"):
            qr_dual_coefficients(primal, 13, size, 7)
    with pytest.raises(ConsistencyError, match="code size"):
        qr_macwilliams_dual(QREnumerator(4, 5, {}), 5, 0)


def test_qr_transform_rejects_another_field():
    primal = quartic_code_enumerator(13)
    for q in (11, 17):
        with pytest.raises(ValueError, match="F_13"):
            qr_macwilliams_dual(primal, q, 13 ** 5)
        with pytest.raises(ValueError, match="F_13"):
            qr_dual_coefficients(primal, q, 13 ** 5, 7)


def test_truncated_matches_full_on_full_space():
    q, n = 7, 6
    enum = full_space_enumerator(n, q)
    # dual of the full space is the zero code
    dual = qr_macwilliams_dual(enum, q, q ** n)
    assert dual.terms == {(0, 0): 1}
    truncated = qr_dual_coefficients(enum, q, q ** n, 3)
    assert truncated == {(0, 0): 1}


def test_hamming_specialization():
    enum = full_space_enumerator(5, 5)
    assert enum.hamming_distribution() == [comb(5, w) * 4 ** w for w in range(6)]
    single = QREnumerator(4, 5, {(0, 0): 1})
    assert single.hamming_distribution() == [1, 0, 0, 0, 0]


def test_json_round_trip_and_order():
    enum = QREnumerator(4, 5, {(2, 0): 7, (0, 2): 7, (1, 0): 3, (0, 1): 3,
                               (0, 0): 1})
    payload = enum.to_json_dict()
    weights = [(item["j"] + item["k"], item["j"]) for item in payload["terms"]]
    assert weights == sorted(weights)
    assert all(isinstance(item["A"], str) for item in payload["terms"])
    assert qr_enumerator_from_json(payload) == enum


def test_total_scaling_through_transform():
    # output total must be q^n / |C|
    q, n = 5, 4
    zero_code = QREnumerator(n, q, {(0, 0): 1})
    dual = qr_macwilliams_dual(zero_code, q, 1)
    assert dual.total() == q ** n


def _evaluate(enum, x, y, z):
    return sum(value * x ** (enum.n - j - k) * y ** j * z ** k
               for (j, k), value in enum.terms.items())


def _substituted_at_point(enum, q, x, y, z):
    """W(2L1, 2L2, 2L3) at an integer point, summed term by term in Z[s]
    (pairs (rational part, s part), s^2 = +-q) with no use of symmetry."""
    s_sq = q if q % 4 == 1 else -q

    def mul(f, g):
        return (f[0] * g[0] + s_sq * f[1] * g[1], f[0] * g[1] + f[1] * g[0])

    def power(base, e):
        out = (1, 0)
        for _ in range(e):
            out = mul(out, base)
        return out

    form1 = (2 * x + (q - 1) * (y + z), 0)
    form2 = (2 * x - y - z, y - z)
    form3 = (2 * x - y - z, z - y)
    total = (0, 0)
    for (j, k), value in enum.terms.items():
        term = mul(mul(power(form1, enum.n - j - k), power(form2, j)), power(form3, k))
        total = (total[0] + value * term[0], total[1] + value * term[1])
    return total


def test_qr_transform_matches_substitution_at_points():
    points = ((1, 1, 1), (2, -1, 3), (0, 1, 0), (3, 2, -5))
    for q in (13, 19, 25, 27, 49):
        n = q + 1
        primal = quartic_code_enumerator(q)
        dual = qr_macwilliams_dual(primal, q, q ** 5)
        for x, y, z in points:
            assert _substituted_at_point(primal, q, x, y, z) == (
                2 ** n * q ** 5 * _evaluate(dual, x, y, z), 0), (q, x, y, z)
        assert qr_macwilliams_dual(dual, q, q ** (n - 5)) == primal, q
        assert dual.hamming_distribution() == mds_weight_distribution(n, n - 5, q), q


def test_krawtchouk_recurrence_matches_the_binomial_sum():
    for j0 in range(31):
        for k0 in range(j0 + 1):
            top = j0 + k0
            expected = [sum((-1) ** i * comb(k0, i) * comb(j0 - k0, v - 2 * i)
                            for i in range(min(k0, v // 2) + 1))
                        for v in range(top + 1)]
            assert _krawtchouk(k0, j0, top) == expected, (j0, k0)
            for shorter in range(min(top, 2)):
                assert _krawtchouk(k0, j0, shorter) == expected[:shorter + 1]


# The convolution form of the transform: a comb sum for each kernel, one
# U-series convolution per (i0, v) and a double comb loop back to Y, Z.
# It is the bit-identity reference for qr_macwilliams_dual, in the
# unscaled U = Y + Z with one 2^n |C| denominator.

def _reference_pair_weights(enum, q, limit):
    s_sq = q if q % 4 == 1 else -q
    weights = {}
    for (j0, k0), coefficient in enum.terms.items():
        if j0 < k0:
            continue
        d = j0 - k0
        i0 = enum.n - j0 - k0
        pair = coefficient if d == 0 else 2 * coefficient
        for v in range(0, min(limit, j0 + k0) + 1, 2):
            kernel = sum((-1) ** i * comb(k0, i) * comb(d, v - 2 * i)
                         for i in range(min(k0, v // 2) + 1))
            if kernel:
                key = (i0, v)
                weights[key] = weights.get(key, 0) + pair * kernel * s_sq ** (v // 2)
    return weights


def _reference_transform(enum, q, code_size, max_codim=None):
    n = enum.n
    limit = n if max_codim is None else max_codim

    def series(base, slope, power):
        return [comb(power, u) * base ** (power - u) * slope ** u
                for u in range(min(power, limit) + 1)]

    uv = {}
    for (i0, v), weight in _reference_pair_weights(enum, q, limit).items():
        first = series(2, q - 1, i0)
        second = series(2, -1, n - i0 - v)
        for u in range(limit - v + 1):
            value = sum(first[a] * second[u - a]
                        for a in range(len(first)) if 0 <= u - a < len(second))
            if value:
                uv[(u, v)] = uv.get((u, v), 0) + weight * value
    accumulator = {}
    for (u, v), value in uv.items():
        for a in range(u + 1):
            for b in range(v + 1):
                key = (a + b, u - a + v - b)
                accumulator[key] = (accumulator.get(key, 0)
                                    + (-1) ** b * comb(u, a) * comb(v, b) * value)
    # the 2^n |C| denominator of the forms in U, divided out here on its
    # own so that the library's per-degree scaling is compared, not shared
    denominator = 2 ** n * code_size
    terms = {}
    for key, value in accumulator.items():
        assert value % denominator == 0 and value >= 0, (key, value)
        terms[key] = value // denominator
    return QREnumerator(n, q, terms)


def test_qr_transform_is_bit_identical_to_the_convolution_reference():
    for q in odd_prime_powers(27):
        if q < 5:
            continue
        n = q + 1
        primal = quartic_code_enumerator(q)
        dual = qr_macwilliams_dual(primal, q, q ** 5)
        assert dual == _reference_transform(primal, q, q ** 5), q
        assert qr_macwilliams_dual(dual, q, q ** (n - 5)) == _reference_transform(
            dual, q, q ** (n - 5)), q
        codims = range(n + 1) if q <= 13 else (0, 1, 6, 7, n)
        for max_codim in codims:
            for enum, size in ((primal, q ** 5), (dual, q ** (n - 5))):
                assert qr_macwilliams_dual(enum, q, size, max_codim) == _reference_transform(
                    enum, q, size, max_codim), (q, max_codim)
    for q in (131, 1009):
        for enum in (quartic_code_enumerator(q), classical_quartic_code_enumerator(q)):
            assert qr_dual_coefficients(enum, q, q ** 5, 7) == _reference_transform(
                enum, q, q ** 5, 7).terms, (q, enum.n)


def _digest(coefficients):
    text = json.dumps(sorted((j, k, str(value)) for (j, k), value in coefficients.items()))
    return hashlib.sha256(text.encode()).hexdigest()


def test_truncated_duals_at_large_q_keep_their_digests():
    # recorded from the transform that carried one 2^n denominator
    pinned = {
        (10007, 12): "63fcb59bcf59f4662d29fccf02c0a7e7b2a394a762f53077508644cac4ff6158",
        (100003, 16): "7ca5ea54ccf89cb5fb940baa573c1061b4dccb3097cc6a9dbfe320fcf996b94e",
    }
    for (q, max_codim), digest in pinned.items():
        coefficients = qr_dual_coefficients(quartic_code_enumerator(q), q, q ** 5, max_codim)
        assert _digest(coefficients) == digest, q
    classical = qr_dual_coefficients(classical_quartic_code_enumerator(131), 131, 131 ** 5, 7)
    assert _digest(classical) == (
        "6a22400c54f34697e1a04b018defdac4305b1f39ea1a644d9b82fbc21f474012")


def test_finalize_divides_each_degree_by_its_own_power_of_two():
    # degree m = j + k divides by 2^m |C|, never by 2^n |C|
    dual = _finalize({(0, 0): 3, (1, 0): 2 * 3 * 5, (1, 1): 4 * 3 * 7}, 4, 5, 3)
    assert dual.terms == {(0, 0): 1, (1, 0): 5, (1, 1): 7}
    for key, numerator in (((0, 1), 3), ((2, 0), 2 * 3 * 5), ((1, 2), 4 * 3 * 7),
                           ((0, 0), 2)):
        with pytest.raises(ConsistencyError, match="not divisible by %d" % (3 << sum(key))):
            _finalize({key: numerator}, 4, 5, 3)
