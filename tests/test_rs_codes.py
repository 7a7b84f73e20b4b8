import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import assume, given, settings, strategies as st

from qrwe import rs_codes
from qrwe.arith import odd_prime_power_split
from qrwe.enumerators import (QREnumerator, mds_weight_distribution,
                              qr_dual_coefficients, qr_macwilliams_dual)
from qrwe.errors import BudgetExceededError, ConsistencyError, check_budget
from qrwe.finite_field import FieldContext, field
from qrwe.rs_codes import (LinearCode, _monomial_rows, brute_force_enumerator,
                           puncture_enumerator, reed_solomon_code)
from references import _tally_scalar

SRC = Path(__file__).resolve().parent.parent / "src"


def test_code_dimensions():
    code = reed_solomon_code(field(7, 1), 4)
    assert code.n == 8 and code.dim == 5
    classical = reed_solomon_code(field(3, 2), 4, projective=False)
    assert classical.n == 9 and classical.dim == 5


def test_linear_code_derives_its_shape_from_the_rows():
    ctx = field(5, 1)
    code = LinearCode(ctx, ((1, 0, 2), (0, 1, 4)))
    assert (code.n, code.dim, code.size) == (3, 2, 25)
    assert code.rows == [[1, 0, 2], [0, 1, 4]]
    assert "rows" not in repr(code) and "[" not in repr(code)


@pytest.mark.parametrize("rows,match", [
    ([], "at least one"),
    ([[]], "at least one"),
    ([[1, 0, 2], [0, 1]], "unequal"),
    ([[1, 0, 5]], "element codes"),
    ([[1, -1, 0]], "element codes"),
    ([[1, 0.5, 0]], "element codes"),
    ([[1, 2, 3], [2, 4, 1]], "dependent"),  # the second row is twice the first over F_5
    ([[0, 0, 0]], "dependent"),
])
def test_linear_code_refuses_bad_rows(rows, match):
    with pytest.raises(ValueError, match=match):
        LinearCode(field(5, 1), rows)


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
    assert peak < 64 * 2 ** 20  # two levels of one base each, not (n + 1)^2 cells per base


@pytest.mark.parametrize("q", [3, 7, 9, 169, 251, 9973])
def test_monomial_rows_are_the_powers_of_the_points(q):
    ctx = field(*odd_prime_power_split(q))
    for h in (0, 1, 4):
        powers = [[1] * q]  # s^e at s = 0, 1, ..., q - 1, one product at a time
        for _ in range(h):
            powers.append([ctx.mul(x, s) for x, s in zip(powers[-1], ctx.elements())])
        classical = [powers[h - a] for a in range(h + 1)]
        assert _monomial_rows(ctx, h, projective=False) == classical
        assert _monomial_rows(ctx, h) == [row + [int(a == 0)] for a, row in enumerate(classical)]


def _rs_codes(q, limit):
    """Every projective and classical RS code over F_q with q^dim <= limit."""
    ctx = field(*odd_prime_power_split(q))
    return [reed_solomon_code(ctx, h, projective) for projective in (True, False)
            for h in range(q + projective) if q ** (h + 1) <= limit]


@pytest.mark.parametrize("q", [3, 5, 7, 9, 11, 13, 25, 27])
def test_level_walk_matches_the_scalar_walk(q):
    # with p | h - k at q = 3, h = 3; q = 5, h = 5; q = 9, h = 3 and 4, and
    # level 0 of every projective code of odd h on the translations alone
    for code in _rs_codes(q, 6 * 10 ** 4):
        assert rs_codes._tally_vector(code) == _tally_scalar(code), code


@pytest.mark.parametrize("q,h", [(11, 4), (13, 4), (25, 4), (27, 4), (37, 4), (11, 6),
                                 (7, 3), (13, 5), (9, 5), (25, 3), (27, 3)])
def test_translated_walk_matches_the_walk_of_the_reversed_rows(q, h):
    # reversed, the rows are not the monomials, so every level walks all of c_(k+1);
    # odd h takes the projective level-0 exception, and p | h - k at q = 9, h = 5
    # and q = 27, h = 3
    ctx = field(*odd_prime_power_split(q))
    for projective in (True, False):
        code = reed_solomon_code(ctx, h, projective)
        reversed_code = LinearCode(ctx, code.rows[::-1])
        assert rs_codes._tally_vector(code) == rs_codes._tally_vector(reversed_code)


def _cells_walked(code):
    """The cells (base, grid combination, point) that `_form_counts`
    evaluates in one walk of `code`."""
    cells, form_counts = [], rs_codes._form_counts

    def spy(ctx, chi, bases, grid_rows):
        cells.append(bases.shape[0] * ctx.q ** len(grid_rows) * bases.shape[1])
        return form_counts(ctx, chi, bases, grid_rows)
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(rs_codes, "_form_counts", spy)
        brute_force_enumerator(code)
    return sum(cells)


@pytest.mark.parametrize("p,v,h", [(7, 1, 6), (3, 1, 3), (5, 1, 5), (3, 2, 3), (3, 2, 4),
                                   (11, 1, 4), (7, 1, 3), (3, 2, 5)])
def test_the_walk_evaluates_one_base_per_translated_level(p, v, h):
    # level k < h - 1 walks the 3 bases c_(k+2) = 0, 1, nu over q^(h-k-2)
    # grid combinations, or the 2 bases c_(k+1) = 0, 1 over q^(h-k-1) where
    # p | h - k; level 0 of a projective code of odd h walks 1 base, or q
    # where p | h, over q^(h-1); levels h - 1 and h walk one codeword each;
    # the zero codeword is tallied without an evaluation
    ctx, q = field(p, v), p ** v

    def level(k, projective):
        if k >= h - 1:
            return 1
        if projective and k == 0 and h % 2:
            return (q if h % p == 0 else 1) * q ** (h - 1)
        return 2 * q ** (h - k - 1) if (h - k) % p == 0 else 3 * q ** (h - k - 2)
    for code in [reed_solomon_code(ctx, h, projective) for projective in (True, False)
                 if h < q + projective]:
        n = code.n
        assert _cells_walked(code) == sum(level(k, n == q + 1) for k in range(h + 1)) * n
        reversed_code = LinearCode(ctx, code.rows[::-1])
        assert _cells_walked(reversed_code) == sum(q ** e for e in range(h + 1)) * n


@pytest.mark.parametrize("q,h", [(7, 6), (11, 4)])
def test_the_walk_gathers_the_characters_of_the_sums_once(monkeypatch, q, h):
    # char_table[add_table] holds q^2 characters; the h + 1 levels share one
    code, reads, table = reed_solomon_code(field(q, 1), h), [], FieldContext._table

    def spy(ctx, name):
        reads.append(name)
        return table(ctx, name)
    monkeypatch.setattr(FieldContext, "_table", spy)
    brute_force_enumerator(code)
    assert reads.count("char") == 1


def test_brute_force_threads_deterministic():
    code = reed_solomon_code(field(7, 1), 3)
    assert (brute_force_enumerator(code, threads=4)
            == brute_force_enumerator(code))


def test_import_leaves_out_the_thread_pool_and_map_units_keeps_order():
    # The pool and its map are gone: the ignored threads= keyword keeps every
    # result, no thread starts and concurrent.futures is never imported.
    code = """
import sys
import threading
import qrwe
ctx = qrwe.field(7, 1)
for census in (qrwe.quartic_census, qrwe.weierstrass_census):
    assert qrwe.census_json(census(ctx, threads=4)) == qrwe.census_json(census(ctx))
rs = qrwe.reed_solomon_code(ctx, 3)
assert qrwe.brute_force_enumerator(rs, threads=4) == qrwe.brute_force_enumerator(rs)
assert threading.active_count() == 1
assert "concurrent.futures" not in sys.modules
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
    punctured = puncture_enumerator(projective)
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
        puncture_enumerator(lopsided)
    with pytest.raises(ValueError):
        puncture_enumerator(QREnumerator(4, 5, {(0, 0): 1}))


# ---------------------------------------------------------------------------
# The QR MacWilliams identity over random linear codes
# ---------------------------------------------------------------------------

_FIELDS = {3: (3, 1), 5: (5, 1), 7: (7, 1), 9: (3, 2)}
_WALK_LIMIT = 10 ** 5  # q^k and q^(n-k) both at most this


def _dual_rows(ctx, rows) -> list:
    """Generator rows of the dual code: Gauss-Jordan reduction of `rows`,
    then one nullspace vector per free column."""
    matrix, pivots = [list(row) for row in rows], []
    n = len(matrix[0])
    for col in range(n):
        pivot = next((r for r in range(len(pivots), len(matrix)) if matrix[r][col]), None)
        if pivot is None:
            continue
        top = len(pivots)
        matrix[top], matrix[pivot] = matrix[pivot], matrix[top]
        inv = ctx.inv(matrix[top][col])
        matrix[top] = [ctx.mul(inv, x) for x in matrix[top]]
        for r in range(len(matrix)):
            if r != top and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [ctx.sub(x, ctx.mul(factor, y)) for x, y in zip(matrix[r], matrix[top])]
        pivots.append(col)
    dual = []
    for free in (c for c in range(n) if c not in pivots):
        word = [0] * n
        word[free] = 1
        for row, col in zip(matrix, pivots):
            word[col] = ctx.neg(row[free])
        dual.append(word)
    return dual


@st.composite
def _codes(draw):
    """(code, max_codim): a random full-rank k x n generator matrix over
    F_q, q in {3, 5, 7, 9}, 2 <= n <= 10, 1 <= k < n, q^k and q^(n-k)
    at most _WALK_LIMIT, and a truncation 0 <= max_codim <= n."""
    q = draw(st.sampled_from(sorted(_FIELDS)))
    ctx = field(*_FIELDS[q])
    n = draw(st.integers(2, 10))
    k = draw(st.sampled_from([k for k in range(1, n)
                              if max(q ** k, q ** (n - k)) <= _WALK_LIMIT]))
    rows = draw(st.lists(st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
                         min_size=k, max_size=k))
    try:
        code = LinearCode(ctx, rows)
    except ValueError:  # dependent rows
        assume(False)
    return code, draw(st.integers(0, n))


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(_codes())
def test_qr_macwilliams_identity_on_random_linear_codes(drawn):
    # every F_q-linear code is Y/Z-symmetric, and its QR transform is
    # the walk of its dual (MacWilliams and Sloane, ch. 5)
    code, max_codim = drawn
    ctx, q = code.ctx, code.ctx.q
    dual = LinearCode(ctx, _dual_rows(ctx, code.rows))
    assert dual.dim == code.n - code.dim
    for row in code.rows:
        for other in dual.rows:
            acc = 0
            for x, y in zip(row, other):
                acc = ctx.add(acc, ctx.mul(x, y))
            assert acc == 0
    enum, dual_enum = brute_force_enumerator(code), brute_force_enumerator(dual)
    assert qr_macwilliams_dual(enum, q, code.size) == dual_enum
    assert qr_dual_coefficients(enum, q, code.size, max_codim) == {
        (j, k): c for (j, k), c in dual_enum.terms.items() if j + k <= max_codim}
