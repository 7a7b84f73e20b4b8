from math import comb

import pytest

from qrwe.enumerators import (QREnumerator, mds_weight_distribution,
                              qr_dual_coefficients, qr_macwilliams_dual)
from qrwe.errors import ConsistencyError
from qrwe.qr_pipeline import quartic_code_enumerator


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
    assert QREnumerator.from_json_dict(payload) == enum


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
