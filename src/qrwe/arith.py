"""Small shared integer helpers."""

from functools import lru_cache
from math import isqrt

from .errors import BudgetExceededError, configured_budget

# The strong probable-prime test to these bases is exact below
# _STRONG_TEST_EXACT_BELOW: no composite under it passes all of them
# (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_STRONG_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_STRONG_TEST_EXACT_BELOW = 3317044064679887385961981
# A trial division of at most this many divisors takes microseconds and
# is not charged: the many small q that loops split read no budget.
_UNCHARGED_DIVISORS = 1 << 10


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


def _strong_probable_prime(n: int) -> bool:
    """Whether n passes the strong test to every base in
    _STRONG_TEST_BASES.  Every composite n fails, below
    _STRONG_TEST_EXACT_BELOW; a prime n <= 41 may fail too."""
    d, s = n - 1, 0
    while d % 2 == 0:
        d, s = d // 2, s + 1
    for a in _STRONG_TEST_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@lru_cache(maxsize=256)
def prime_power_split(q: int) -> tuple:
    """(p, v) with q = p^v, or ValueError if q is not a prime power.

    p is the first of the divisors 2, 3, ..., isqrt(q) that divides q,
    else q itself.  Refuses (BudgetExceededError) when that trial
    division would try more than _UNCHARGED_DIVISORS divisors and more
    than the budget allows (`errors.configured_budget`): at once for a
    prime q, which the strong test settles exactly below
    _STRONG_TEST_EXACT_BELOW, and after the budget's divisors for any
    other q.  Callers split the same q many times; the cache holds a
    fixed number."""
    if q < 2:
        raise ValueError("not a prime power: %d" % q)
    top = limit = isqrt(q)  # the division tries the divisors 2 .. limit
    if top - 1 > _UNCHARGED_DIVISORS:
        budget = configured_budget()
        if top - 1 > budget:
            if q < _STRONG_TEST_EXACT_BELOW and _strong_probable_prime(q):
                raise BudgetExceededError(required=top - 1, budget=budget)
            limit = budget + 1
    p = q
    for d in range(2, limit + 1):
        if q % d == 0:
            p = d
            break
    else:
        if limit < top:
            raise BudgetExceededError(required=top - 1, budget=limit - 1)
    v = 0
    rest = q
    while rest % p == 0:
        rest //= p
        v += 1
    if rest != 1:
        raise ValueError("not a prime power: %d" % q)
    return p, v


def odd_prime_power_split(q: int) -> tuple:
    """(p, v) with q = p^v and p odd, or ValueError otherwise."""
    p, v = prime_power_split(q)
    if p == 2:
        raise ValueError("q must be odd, got q=%d" % q)
    return p, v


def odd_prime_powers(limit: int):
    """All odd prime powers q with 3 <= q <= limit, ascending."""
    for q in range(3, limit + 1, 2):
        try:
            prime_power_split(q)
        except ValueError:
            continue
        yield q


def odd_primes(limit: int):
    for p in range(3, limit + 1, 2):
        if is_prime(p):
            yield p
