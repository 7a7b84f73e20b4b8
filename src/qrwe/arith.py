"""Small shared integer helpers."""

from functools import lru_cache
from math import isqrt


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    for f in range(3, isqrt(n) + 1, 2):
        if n % f == 0:
            return False
    return True


@lru_cache(maxsize=256)
def prime_power_split(q: int) -> tuple:
    """(p, v) with q = p^v, or ValueError if q is not a prime power.
    Callers split the same q many times; the cache holds a fixed number."""
    if q < 2:
        raise ValueError("not a prime power: %d" % q)
    p = q
    for d in range(2, isqrt(q) + 1):
        if q % d == 0:
            p = d
            break
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
