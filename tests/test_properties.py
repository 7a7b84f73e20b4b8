"""Standalone property suites: field axioms, character multiplicativity,
census parity invariants, enumerator symmetry, and the kernel expansion
identity over their full stated grids."""

import random

import pytest

from qrwe.arith import is_prime, odd_prime_powers, odd_primes, prime_power_split
from qrwe.errors import BudgetExceededError
from qrwe.finite_field import field
from qrwe.qr_pipeline import quartic_code_enumerator
from references import (ballot, lucas_kernel, odd_prime_powers_by_split,
                        odd_primes_by_test, trial_division_split)


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
def test_census_parity_invariants(q, quartic_census_for):
    census = quartic_census_for(q)
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
                total = sum(ballot(R, j) * q ** j * lucas_kernel(2 * R - 2 * j + 2, t, q)
                            for j in range(R + 1))
                assert total == t ** (2 * R)


def _parity_qs():
    yield from range(2, 1 << 17)
    yield from range((1 << 20) - (1 << 12), (1 << 20) + (1 << 12) + 1)
    for p in (1031, 1033, 65537):
        for v in range(1, 5):
            yield p ** v
    yield 1031 * 1033
    yield 1031 ** 2 * 1033


def test_prime_power_split_and_is_prime_match_trial_division():
    # below 2^20 the split is the small-divisor loop; at and beyond 1025^2
    # a q with no divisor <= 2^10 is settled by integer roots and is_prime
    split = prime_power_split.__wrapped__
    for q in _parity_qs():
        expected = trial_division_split(q)
        assert is_prime(q) == (expected == (q, 1)), q
        if expected is None:
            with pytest.raises(ValueError, match="not a prime power"):
                split(q)
        else:
            assert split(q) == expected, q


def test_sieved_prime_powers_match_the_split_and_the_primality_test():
    top = 2 ** 16 + 1
    powers, primes = odd_prime_powers_by_split(top), odd_primes_by_test(top)
    assert odd_prime_powers(top) == powers and odd_primes(top) == primes
    assert odd_prime_powers(10 ** 4) == odd_prime_powers_by_split(10 ** 4)
    assert odd_primes(10 ** 4) == odd_primes_by_test(10 ** 4)
    for limit in range(-2, 3001):
        assert odd_prime_powers(limit) == [q for q in powers if q <= limit], limit
        assert odd_primes(limit) == [p for p in primes if p <= limit], limit


def test_prime_power_split_reads_no_budget_below_the_exact_bound(monkeypatch):
    split = prime_power_split.__wrapped__
    p = 10 ** 9 + 7
    powers = {p ** v: (p, v) for v in range(1, 5)}
    powers.update({2 ** 61 - 1: (2 ** 61 - 1, 1), (2 ** 61 - 1) ** 2: (2 ** 61 - 1, 2),
                   3 ** 40: (3, 40), 1031 ** 2: (1031, 2), 1021 ** 2: (1021, 2)})
    monkeypatch.setenv("QRWE_BUDGET", "0")
    for q, expected in powers.items():
        assert split(q) == expected
    for q in (p * (p + 2), 3 * p, 1031 * 1033):
        with pytest.raises(ValueError, match="not a prime power"):
            split(q)
    # a budget that check_budget would refuse is never read
    monkeypatch.setenv("QRWE_BUDGET", "unreadable")
    for q, expected in powers.items():
        assert split(q) == expected


def test_is_prime_is_exact_up_to_the_strong_test_bound(monkeypatch):
    monkeypatch.setenv("QRWE_BUDGET", "0")
    # a strong pseudoprime to every base up to 37, caught by 41
    assert not is_prime(318665857834031151167461)
    # the bound itself passes the strong test to every base: it is not
    # called prime, and the division that would settle it is charged
    with pytest.raises(BudgetExceededError):
        is_prime(3317044064679887385961981)
    # a prime above the bound is refused at the default budget
    monkeypatch.delenv("QRWE_BUDGET")
    for check in (is_prime, prime_power_split.__wrapped__):
        with pytest.raises(BudgetExceededError):
            check(2 ** 89 - 1)
