"""Standalone property suites: field axioms, character multiplicativity,
census parity invariants, enumerator symmetry, and the kernel expansion
identity over their full stated grids."""

import random

import pytest

from qrwe.arith import odd_prime_powers, prime_power_split
from qrwe.errors import BudgetExceededError
from qrwe.finite_field import field
from qrwe.hecke_traces import gegenbauer_kernel, kernel_expansion_coeff
from qrwe.qr_pipeline import quartic_code_enumerator
from qrwe.verify import cached_quartic_census


@pytest.mark.parametrize("q", [q for q in odd_prime_powers(27)])
def test_field_axioms(q):
    p, v = prime_power_split(q)
    ctx = field(p, v)
    elems = list(ctx.elements())
    for a in elems:
        for b in elems:
            for c in elems:
                assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b),
                                                            ctx.mul(a, c))
                assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
                assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))
                assert ctx.add(a, b) == ctx.add(b, a)
                assert ctx.mul(a, b) == ctx.mul(b, a)


def test_field_axioms_random_triples_large_field():
    ctx = field(11, 2)  # q = 121
    rng = random.Random(20260810)
    for _ in range(10_000):
        a = rng.randrange(ctx.q)
        b = rng.randrange(ctx.q)
        c = rng.randrange(ctx.q)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))


@pytest.mark.parametrize("q", [q for q in odd_prime_powers(81)])
def test_character_multiplicative(q):
    p, v = prime_power_split(q)
    ctx = field(p, v)
    for a in range(1, q):
        for b in range(1, q):
            assert (ctx.quadratic_character(ctx.mul(a, b))
                    == ctx.quadratic_character(a) * ctx.quadratic_character(b))


@pytest.mark.parametrize("q", [q for q in odd_prime_powers(27)])
def test_census_parity_invariants(q):
    census = cached_quartic_census(q)
    for t, bucket in census.buckets.items():
        assert bucket.by_roots[3] == 0, (q, t)
        assert sum(bucket.by_roots) == bucket.total
        if (q + 1 - t) % 2 == 1:
            assert bucket.by_roots[0] == bucket.by_roots[2] == bucket.by_roots[4] == 0
        else:
            assert bucket.by_roots[1] == 0


@pytest.mark.parametrize("q", [5, 7, 9, 11, 13, 17, 19, 23, 25, 27])
def test_enumerator_symmetry(q):
    assert quartic_code_enumerator(q).is_yz_symmetric()


def test_kernel_expansion_identity_full_grid():
    for q in odd_prime_powers(49):
        for R in range(7):
            for t in range(-14, 15):
                if t * t > 4 * q:
                    continue
                total = sum(kernel_expansion_coeff(R, j) * q ** j
                            * gegenbauer_kernel(2 * R - 2 * j + 2, t, q)
                            for j in range(R + 1))
                assert total == t ** (2 * R)


def test_prime_power_split_charges_the_divisors_it_would_try(monkeypatch):
    # 1031^2 and 1031 * 1033 both stop at their 1030th divisor, 1031
    split = prime_power_split.__wrapped__
    for q, expected in ((1031 ** 2, (1031, 2)), (1031 * 1033, None)):
        monkeypatch.setenv("QRWE_BUDGET", "1029")
        with pytest.raises(BudgetExceededError):
            split(q)
        monkeypatch.setenv("QRWE_BUDGET", "1030")
        if expected is None:
            with pytest.raises(ValueError, match="not a prime power"):
                split(q)
        else:
            assert split(q) == expected
    # a prime is refused before any division, and a budget of two divisors finds 3
    monkeypatch.setenv("QRWE_BUDGET", "2")
    with pytest.raises(BudgetExceededError, match="budget >= 31621,"):
        split(1000000007)
    with pytest.raises(ValueError, match="not a prime power"):
        split(3 * 1000000007)
    # a division of at most 1024 divisors is not charged
    monkeypatch.setenv("QRWE_BUDGET", "0")
    assert split(1021 ** 2) == (1021, 2)
