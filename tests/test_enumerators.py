from math import comb

import pytest

from qrwe.enumerators import (QREnumerator, QuadRing, hamming_macwilliams_dual,
                              mds_weight_distribution, qr_dual_coefficients,
                              qr_macwilliams_dual)
from qrwe.errors import ConsistencyError


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


def test_quad_ring_involution():
    for q in (5, 7):
        ring = QuadRing(q)
        x = (3, 2)
        y = (-1, 4)
        assert ring.mul(x, y) == ring.mul(y, x)
        conj_prod = ring.mul(ring.conj(x), ring.conj(y))
        assert conj_prod == ring.conj(ring.mul(x, y))
        a, b = ring.mul(x, ring.conj(x))
        assert b == 0  # norms are rational


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


def test_hamming_macwilliams_zero_code():
    n, q = 5, 7
    zero_code = [1] + [0] * n
    dual = hamming_macwilliams_dual(zero_code, q, 1)
    assert dual == [comb(n, i) * (q - 1) ** i for i in range(n + 1)]


def test_hamming_macwilliams_involution():
    for q in (7, 9):
        n = q + 1
        primal = mds_weight_distribution(n, 5, q)
        dual = hamming_macwilliams_dual(primal, q, q ** 5)
        assert dual == mds_weight_distribution(n, n - 5, q)
        assert hamming_macwilliams_dual(dual, q, q ** (n - 5)) == primal


def test_qr_transform_of_zero_code():
    for q, n in ((5, 4), (7, 6)):
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
