import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest

from qrwe.enumerators import QREnumerator, mds_weight_distribution, qr_macwilliams_dual
from qrwe.errors import (BudgetExceededError, ConsistencyError, check_budget,
                         clamp_threads, map_units)
from qrwe.finite_field import FieldContext, field
from qrwe.rs_codes import (_tally_scalar, brute_force_enumerator,
                           puncture_enumerator, reed_solomon_code)

SRC = Path(__file__).resolve().parent.parent / "src"


def test_code_dimensions():
    code = reed_solomon_code(field(7, 1), 4)
    assert code.n == 8 and code.dim == 5
    classical = reed_solomon_code(field(3, 2), 4, projective=False)
    assert classical.n == 9 and classical.dim == 5


def test_rejects_large_degree():
    with pytest.raises(ValueError):
        reed_solomon_code(field(5, 1), 6)


def test_dual_orthogonality():
    for p, v, h in ((7, 1, 4), (3, 2, 4), (7, 1, 2)):
        ctx = field(p, v)
        code = reed_solomon_code(ctx, h)
        dual = reed_solomon_code(ctx, ctx.q - 1 - h)
        for row in code.rows:
            for other in dual.rows:
                acc = 0
                for x, y in zip(row, other):
                    acc = ctx.add(acc, ctx.mul(x, y))
                assert acc == 0


def test_brute_force_total_and_engines():
    # dim 1 and 2, an extension field and a classical code among them;
    # grids narrower than the points (25 < 26, 1 < 13) and wider ones
    for p, v, h, projective in ((5, 1, 4, True), (7, 1, 2, True), (3, 2, 2, True),
                                (7, 1, 0, True), (11, 1, 1, True), (3, 2, 3, True),
                                (5, 1, 2, False), (5, 2, 2, True), (13, 1, 0, False)):
        ctx = field(p, v)
        code = reed_solomon_code(ctx, h, projective=projective)
        fast = brute_force_enumerator(code)
        slow = QREnumerator(code.n, ctx.q, _tally_scalar(code))
        assert fast == slow
        assert fast.total() == ctx.q ** (h + 1)


@pytest.mark.parametrize("p,v", [(3, 1), (3, 2), (5, 3), (1009, 1)])
def test_order_one_walk_matches_its_closed_form(p, v):
    # The q - 1 forms cx take the value c at the q points (1, a) and vanish
    # at (0, 1).  A form ax + by with b != 0 takes every value once on the
    # points (1, a), and b at (0, 1): one more square than non-squares if
    # b is a square, one fewer if not, for q(q - 1)/2 forms each.
    q = p ** v
    half = (q - 1) // 2
    code = reed_solomon_code(field(p, v), 1)
    tracemalloc.start()
    try:
        enum = brute_force_enumerator(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert enum.terms == {(0, 0): 1, (q, 0): half, (0, q): half,
                          (half + 1, half): q * half, (half, half + 1): q * half}
    assert peak < 64 * 2 ** 20  # one tally over the q + 2 tops, not (n + 1)^2 cells per top


def test_brute_force_threads_deterministic():
    code = reed_solomon_code(field(7, 1), 3)
    assert (brute_force_enumerator(code, threads=4)
            == brute_force_enumerator(code))


def test_clamp_threads(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 4)
    assert clamp_threads(None, 10) == 1
    assert clamp_threads(0, 10) == 1
    assert clamp_threads(-2, 10) == 1
    assert clamp_threads(3, 10) == 3
    assert clamp_threads(10 ** 6, 10) == 4
    assert clamp_threads(10 ** 6, 2) == 2
    assert clamp_threads(3, 0) == 1
    monkeypatch.setattr(os, "cpu_count", lambda: None)
    assert clamp_threads(10 ** 6, 10) == 1


def test_import_leaves_out_the_thread_pool_and_map_units_keeps_order():
    code = """
import sys
import qrwe
from qrwe.errors import map_units
assert "concurrent.futures" not in sys.modules
assert map_units(lambda u: u * u, list(range(20)), threads=2) == [u * u for u in range(20)]
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_enumerator_independent_of_modulus():
    default = field(3, 2)
    other = FieldContext(3, 2, modulus=(2, 1, 1))  # x^2 + x + 2
    enum_a = brute_force_enumerator(reed_solomon_code(default, 4))
    enum_b = brute_force_enumerator(reed_solomon_code(other, 4))
    assert enum_a == enum_b


def test_budget_refusal_names_requirement():
    code = reed_solomon_code(field(11, 1), 6)
    with pytest.raises(BudgetExceededError) as info:
        brute_force_enumerator(code, budget=10 ** 6)
    assert info.value.required == 11 ** 7
    assert info.value.budget == 10 ** 6


def test_negative_explicit_budget_is_a_usage_error():
    with pytest.raises(ValueError, match="budget"):
        check_budget(1, -1)
    code = reed_solomon_code(field(5, 1), 1)
    with pytest.raises(ValueError, match="budget"):
        brute_force_enumerator(code, budget=-3)
    with pytest.raises(BudgetExceededError):
        brute_force_enumerator(code, budget=0)


def test_budget_env_override(monkeypatch):
    monkeypatch.setenv("QRWE_BUDGET", "100")
    code = reed_solomon_code(field(5, 1), 3)
    with pytest.raises(BudgetExceededError):
        brute_force_enumerator(code)
    monkeypatch.setenv("QRWE_BUDGET", "1000")
    assert brute_force_enumerator(code).total() == 5 ** 4


def test_dual_code_identity_through_transform():
    # the dual of the degree-2 projective code is the degree-(q-3) one
    q = 7
    ctx = field(q, 1)
    enum2 = brute_force_enumerator(reed_solomon_code(ctx, 2))
    enum4 = brute_force_enumerator(reed_solomon_code(ctx, 4))
    assert qr_macwilliams_dual(enum4, q, q ** 5) == enum2
    assert enum2.hamming_distribution() == mds_weight_distribution(q + 1, 3, q)


def test_puncture_matches_classical_brute_force():
    q = 7
    ctx = field(q, 1)
    projective = brute_force_enumerator(reed_solomon_code(ctx, 4))
    punctured = puncture_enumerator(projective, q)
    classical = brute_force_enumerator(reed_solomon_code(ctx, 4, projective=False))
    assert punctured == classical
    assert punctured.total() == projective.total()
    assert punctured.coeff(0, 0) == 1


def test_classical_length_q_duality():
    # the dual of the 5-dimensional classical code has dimension q - 5
    for q, (p, v) in {7: (7, 1), 9: (3, 2)}.items():
        ctx = field(p, v)
        primal = brute_force_enumerator(reed_solomon_code(ctx, 4, projective=False))
        dual_order = q - 6  # dimension q - 5
        dual = brute_force_enumerator(
            reed_solomon_code(ctx, dual_order, projective=False))
        assert qr_macwilliams_dual(primal, q, q ** 5) == dual, q


def test_puncture_rejects_non_transitive_input():
    q = 5
    lopsided = QREnumerator(q + 1, q, {(0, 0): 1, (1, 0): 1})
    with pytest.raises(ConsistencyError, match="point-transitive"):
        puncture_enumerator(lopsided, q)
    with pytest.raises(ValueError):
        puncture_enumerator(QREnumerator(4, 5, {(0, 0): 1}), 5)
