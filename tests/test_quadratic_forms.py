import os
import subprocess
import sys
import tracemalloc
from fractions import Fraction
from math import isqrt
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from qrwe import quadratic_forms
from qrwe.arith import odd_prime_powers
from qrwe.errors import BudgetExceededError
from qrwe.quadratic_forms import (_TABLE_CAP, _isqrt_array, _sieve_table,
                                  _sweep_row, _sweep_row_numpy, _table_row,
                                  class_number, hurwitz_class_number,
                                  hurwitz_row, kronecker, weighted_class_number)

SRC = Path(quadratic_forms.__file__).resolve().parent.parent

KNOWN_CLASS_NUMBERS = {
    -3: 1, -4: 1, -7: 1, -8: 1, -11: 1, -12: 1, -15: 2, -16: 1,
    -19: 1, -20: 2, -23: 3, -24: 2, -31: 3, -47: 5, -71: 7,
}


def test_kronecker_at_two():
    assert kronecker(-4, 2) == 0
    assert kronecker(17, 2) == 1
    assert kronecker(-7, 2) == 1       # -7 = 1 mod 8
    assert kronecker(-3, 2) == -1      # -3 = 5 mod 8


def test_kronecker_odd_prime_examples():
    assert kronecker(-3, 7) == 1       # -3 = 4 = 2^2 mod 7
    assert kronecker(-3, 5) == -1
    assert kronecker(-4, 5) == 1


def test_kronecker_rejects_zero():
    with pytest.raises(ValueError):
        kronecker(-3, 0)


def test_kronecker_matches_euler_criterion():
    for p in (3, 5, 7, 11, 13, 17, 19, 23):
        for a in range(-30, 31):
            expected = pow(a % p, (p - 1) // 2, p)
            expected = {0: 0, 1: 1, p - 1: -1}[expected]
            assert kronecker(a, p) == expected, (a, p)


@given(st.integers(min_value=-200, max_value=200).map(lambda d: 4 * d),
       st.integers(min_value=1, max_value=60),
       st.integers(min_value=1, max_value=60))
def test_kronecker_multiplicative_in_n(delta, m, n):
    assert kronecker(delta, m * n) == kronecker(delta, m) * kronecker(delta, n)


def test_class_numbers_known_values():
    for d, h in KNOWN_CLASS_NUMBERS.items():
        assert class_number(d) == h, d


def test_class_number_domain_errors():
    for bad in (5, 0, -6, -13):
        with pytest.raises(ValueError):
            class_number(bad)


def test_weighted_class_number():
    assert weighted_class_number(-3) == Fraction(1, 3)
    assert weighted_class_number(-4) == Fraction(1, 2)
    assert weighted_class_number(-23) == 3


def test_hurwitz_values():
    assert hurwitz_class_number(-11) == 1
    assert hurwitz_class_number(-16) == Fraction(3, 2)
    assert hurwitz_class_number(-12) == Fraction(4, 3)
    assert hurwitz_class_number(-3) == Fraction(1, 3)
    assert hurwitz_class_number(-4) == Fraction(1, 2)


def test_hurwitz_inadmissible_input_gives_zero():
    assert hurwitz_class_number(-2) == 0
    assert hurwitz_class_number(-5) == 0  # -5 = 3 mod 4, squarefree


def test_hurwitz_rejects_nonnegative():
    with pytest.raises(ValueError):
        hurwitz_class_number(0)
    with pytest.raises(ValueError):
        hurwitz_class_number(8)


def test_hurwitz_dominates_weighted():
    for delta in range(-400, 0):
        if delta % 4 in (0, 1):
            assert hurwitz_class_number(delta) >= weighted_class_number(delta)


def test_conductor_scaling_identity():
    # h_w(f^2 d) = h_w(d) f prod_{p | f} (1 - (d|p)/p)
    for d in (-3, -4, -7, -8, -11, -15, -20):
        for f in range(1, 13):
            expected = weighted_class_number(d) * f
            for p in (2, 3, 5, 7, 11):
                if f % p == 0:
                    expected *= 1 - Fraction(kronecker(d, p), p)
            assert weighted_class_number(f * f * d) == expected, (d, f)


def test_hurwitz_row_matches_one_discriminant_at_a_time():
    # every m < 3000 meets forms of weight 1/2 (t^2 - m = -4a^2) and
    # of weight 1/3 (t^2 - m = -3a^2); the sweep is called directly,
    # since after two rows `hurwitz_row` reads the shared table
    for m in range(1, 3000):
        for row in (hurwitz_row(m), _sweep_row(m)):
            assert len(row) == isqrt(m - 1) + 1, m
            for t, value in enumerate(row):
                assert value == 6 * hurwitz_class_number(t * t - m), (m, t)


def test_hurwitz_row_at_trace_formula_arguments():
    # the rows the Eichler-Selberg sums read: m = 4q and m = q
    for q in odd_prime_powers(2000):
        for m in (q, 4 * q):
            row = hurwitz_row(m)
            assert row == tuple(6 * hurwitz_class_number(t * t - m)
                                for t in range(isqrt(m - 1) + 1)), m


def test_hurwitz_row_rejects_nonpositive():
    with pytest.raises(ValueError):
        hurwitz_row(0)


def test_sieve_table_matches_one_discriminant_at_a_time_and_the_sweep():
    top = 3000
    table = _sieve_table(top)
    assert len(table) == top + 1 and table[0] == 0
    for n in range(1, top + 1):
        assert table[n] == 6 * hurwitz_class_number(-n), n
    for m in range(1, top + 1):
        assert _table_row(table, m) == _sweep_row(m), m


def _sieve_loop(top):
    """The strided-slice sieve, one progression per pair (a, b): the
    reference for `_sieve_table`."""
    tab = np.zeros(top + 1, dtype=np.int64)
    for a in range(1, isqrt(top // 3) + 1):
        mod = 4 * a
        for b in range(a + 1):
            start = 4 * a * a - b * b  # c = a
            if start > top:
                continue
            both = 12 if 0 < b < a else 6
            tab[start::mod] += both
            tab[start] -= both - (3 if b == 0 else 2 if b == a else 6)
    return tab.astype(np.int32)


def test_sieve_table_is_byte_identical_to_the_strided_loop():
    for top in (1, 2, 3, 10, 128, 1000, 4736, 20000, 1 << 18):
        table, reference = _sieve_table(top), _sieve_loop(top)
        assert table.dtype == reference.dtype, top
        assert table.tobytes() == reference.tobytes(), top


LARGE_ROWS = (16411, 65644, 4 * 16417, (1 << 18) + 1, 4 * 100003)


def test_numpy_sweep_is_bit_identical_to_the_loop():
    small = range(1, 1 << 11)
    edge = range((1 << 13) - 64, (1 << 13) + 65)
    for m in (*small, *edge, *LARGE_ROWS):
        assert _sweep_row_numpy(m) == _sweep_row(m), m


def test_isqrt_array_is_exact_where_the_float_root_is_not():
    # above 2^52 the float root of s^2 - 1 rounds up to s, and above
    # 2^53 the int64 -> float conversion itself rounds
    roots = [s + d for s in (1, 1 << 13, 1 << 26, 94906265, 1 << 30, (1 << 31) - 1)
             for d in (-1, 0, 1) if s + d >= 0]
    x = np.array([v for s in roots for v in (s * s - 1, s * s, s * s + 1) if 0 <= v < 1 << 62],
                 dtype=np.int64)
    assert _isqrt_array(x).tolist() == [isqrt(v) for v in x.tolist()]


def test_numpy_sweep_memory_stays_in_blocks():
    m = 4 * 100003
    _sweep_row_numpy(m)  # numpy's own first-call allocations
    tracemalloc.start()
    try:
        _sweep_row_numpy(m)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, peak


def test_hurwitz_row_entries_are_python_ints():
    for m in (5, 4 * 997, 4 * 10007):
        for row in (hurwitz_row(m), _table_row(_sieve_table(m), m), _sweep_row_numpy(m)):
            assert all(type(value) is int for value in row), m


def test_table_is_built_only_for_a_loop_over_q():
    # a fresh interpreter, so no row is cached and no table built yet
    code = """
import qrwe.quadratic_forms as qf
from qrwe import trace_level1, trace_level4
from qrwe.arith import odd_prime_powers

trace_level1(12, 10007)
assert len(qf._table) == 0, "a lone q built a table"
for q in odd_prime_powers(200):
    trace_level1(12, q)
    trace_level4(6, q)
assert 4 * 197 < len(qf._table) <= qf._TABLE_CAP + 1, len(qf._table)
top = qf._TABLE_CAP
qf.hurwitz_row(top)
assert len(qf._table) == top + 1, len(qf._table)
swept = qf.hurwitz_row(top + 1)
assert len(qf._table) == top + 1, len(qf._table)
assert all(value == qf._table[top + 1 - t * t] for t, value in enumerate(swept) if t)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_tiny_rows_are_swept_and_build_no_table():
    # rows m < 2^7 (68 and 17 at q = 17, 100 and 4 at q = 25) neither
    # build the table nor count toward the two sweeps before it
    code = """
import qrwe.quadratic_forms as qf
from qrwe import moment_formula, quartic_code_enumerator, trace_level1

trace_level1(12, 10007)
quartic_code_enumerator(17)
moment_formula(25, 2)
assert len(qf._table) == 0, len(qf._table)
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_numpy_sweep_serves_only_large_rows_once_numpy_is_loaded():
    # a lone trace must not import numpy; once numpy is loaded, a large
    # swept row comes from the numpy passes and equals the loop's row
    code = """
import sys
import qrwe.quadratic_forms as qf
from qrwe import trace_level1

trace_level1(12, 16411)
assert "numpy" not in sys.modules, "a lone trace imported numpy"
looped = qf.hurwitz_row(4 * 16411)

import numpy
served = []
numpy_sweep = qf._sweep_row_numpy
qf._sweep_row_numpy = lambda m: served.append(m) or numpy_sweep(m)
# as in a fresh process that has numpy loaded: no row cached or swept
qf.hurwitz_row.cache_clear()
qf._sweeps = 0
assert qf.hurwitz_row(4 * 16411) == looped
assert served == [4 * 16411], served
for m in (100, qf._NUMPY_SWEEP_FROM - 1, 2000, 5000):
    qf.hurwitz_row(m)  # a tiny row, the second sweep, then table reads
assert len(qf._table) > 5000, len(qf._table)
assert served == [4 * 16411], served
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_a_row_at_the_import_limit_imports_numpy_for_its_sweep():
    # the limit patched low, so both rows stay cheap: the row just below
    # it runs the loop without numpy, the row at it imports numpy
    code = """
import sys
import qrwe.quadratic_forms as qf

qf._NUMPY_IMPORT_FROM = limit = 3 * qf._NUMPY_SWEEP_FROM
served = []
numpy_sweep = qf._sweep_row_numpy
qf._sweep_row_numpy = lambda m: served.append(m) or numpy_sweep(m)
qf.hurwitz_row(limit - 1)
assert "numpy" not in sys.modules and served == [], served
assert qf.hurwitz_row(limit) == qf._sweep_row(limit)
assert "numpy" in sys.modules and served == [limit], served
"""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    result = subprocess.run([sys.executable, "-c", code], env=env,
                            capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr


def test_every_class_number_sweep_is_charged_to_the_budget(monkeypatch):
    # the uncached bodies, so each call is a cache miss, on any engine;
    # a row above the table cap is swept by the numpy passes, and the
    # budget must refuse it before they start
    served = []
    monkeypatch.setattr(quadratic_forms, "_sweep_row_numpy",
                        lambda m: served.append(m) or _sweep_row_numpy(m))
    for table, sweeps in ((_sieve_table(60), 2), ((), 0)):
        monkeypatch.setattr(quadratic_forms, "_table", table)
        monkeypatch.setattr(quadratic_forms, "_sweeps", sweeps)
        for m in (7, 4 * 13, _TABLE_CAP + 1):
            monkeypatch.setenv("QRWE_BUDGET", str(m - 1))
            calls = len(served)
            with pytest.raises(BudgetExceededError):
                hurwitz_row.__wrapped__(m)
            assert len(served) == calls, m
            monkeypatch.setenv("QRWE_BUDGET", str(m))
            assert hurwitz_row.__wrapped__(m) == _sweep_row(m)
        assert quadratic_forms._table is table
    assert served == [_TABLE_CAP + 1] * 2, served
    monkeypatch.setenv("QRWE_BUDGET", "22")
    with pytest.raises(BudgetExceededError):
        class_number.__wrapped__(-23)
    monkeypatch.setenv("QRWE_BUDGET", "23")
    assert class_number.__wrapped__(-23) == 3


def test_hurwitz_divisor_loop_is_charged_first(monkeypatch):
    # -1000001 is 3 mod 4 and square-free: no divisor reaches a class
    # number, so the loop's isqrt(1000001) = 1000 steps are the only charge
    hurwitz = hurwitz_class_number.__wrapped__
    monkeypatch.setenv("QRWE_BUDGET", "999")
    with pytest.raises(BudgetExceededError, match="budget >= 1000,"):
        hurwitz(-1000001)
    monkeypatch.setenv("QRWE_BUDGET", "1000")
    assert hurwitz(-1000001) == 0
    # H(36) = h_w(-36) + h_w(-4): the class numbers' charges still bound it
    monkeypatch.setenv("QRWE_BUDGET", "36")
    assert hurwitz(-36) == Fraction(5, 2)
