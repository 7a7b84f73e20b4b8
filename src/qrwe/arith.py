"""Small shared integer helpers: the one split of q = p^v and the one
primality test, neither of which reads the budget below
_STRONG_TEST_EXACT_BELOW."""

from functools import lru_cache
from itertools import compress
from math import isqrt

from .errors import check_budget

# The strong probable-prime test to these bases is exact below
# _STRONG_TEST_EXACT_BELOW: no composite under it passes all of them
# (Sorenson and Webster, Math. Comp. 86 (2017) 985-1003).
_STRONG_TEST_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_STRONG_TEST_EXACT_BELOW = 3317044064679887385961981
# Trial division stops at this divisor: it settles every n < 2^20, and
# an n it leaves has every prime factor above it.
_SMALL_DIVISORS = 1 << 10


def _small_factor(n: int, top: int) -> int:
    """The least d in 2, 3, ..., min(top, 2^10) that divides n, else 0;
    2 for every even n, n = 2 included."""
    if n % 2 == 0:
        return 2
    for d in range(3, min(top, _SMALL_DIVISORS) + 1, 2):
        if n % d == 0:
            return d
    return 0


def is_prime(n: int) -> bool:
    """Whether n is prime, exactly: trial division by d <= 2^10, then
    the strong test, and beyond _STRONG_TEST_EXACT_BELOW a trial
    division up to isqrt(n) charged to the budget."""
    if n < 2:
        return False
    top = isqrt(n)
    d = _small_factor(n, top)
    if d:
        return d == n
    if top <= _SMALL_DIVISORS:
        return True
    if not _strong_probable_prime(n):
        return False
    if n < _STRONG_TEST_EXACT_BELOW:
        return True
    check_budget(top - _SMALL_DIVISORS)
    return all(n % d for d in range(_SMALL_DIVISORS + 1, top + 1))


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


def _integer_root(n: int, k: int) -> int:
    """floor(n^(1/k)) for n >= 1, by integer Newton steps from above."""
    x = 1 << -(-n.bit_length() // k)
    while True:
        y = ((k - 1) * x + n // x ** (k - 1)) // k
        if y >= x:
            return x
        x = y


@lru_cache(maxsize=256)
def prime_power_split(q: int) -> tuple:
    """(p, v) with q = p^v, or ValueError if q is not a prime power.

    p is the first of the divisors 2, 3, ..., min(isqrt(q), 2^10) that
    divides q, else q itself if isqrt(q) <= 2^10.  Otherwise every prime
    factor of q exceeds 2^10, so q = p^v needs v <= bit_length(q) / 10:
    v is the largest such exponent with an exact integer root p = q^(1/v)
    (else v = 1), and q is a prime power exactly when p is prime.
    Callers split the same q many times; the cache holds a fixed number."""
    if q < 2:
        raise ValueError("not a prime power: %d" % q)
    top = isqrt(q)
    p = _small_factor(q, top)
    if not p:
        if top <= _SMALL_DIVISORS:
            return q, 1
        p, v = q, 1
        for k in range(q.bit_length() // 10, 1, -1):
            root = _integer_root(q, k)
            if root ** k == q:
                p, v = root, k
                break
        if not is_prime(p):
            raise ValueError("not a prime power: %d" % q)
        return p, v
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


def odd_primes(limit: int) -> list:
    """All odd primes p <= limit, ascending, by the sieve of Eratosthenes."""
    flags = bytearray(b"\0\0") + bytearray(b"\1") * (limit - 1)
    for d in range(2, isqrt(max(limit, 0)) + 1):
        if flags[d]:
            flags[d * d::d] = bytes(len(range(d * d, limit + 1, d)))
    return [p for p in compress(range(limit + 1), flags) if p > 2]


def odd_prime_powers(limit: int) -> list:
    """All odd prime powers q with 3 <= q <= limit, ascending: the powers
    of `odd_primes(limit)`, with no split of q."""
    powers = []
    for p in odd_primes(limit):
        power = p
        while power <= limit:
            powers.append(power)
            power *= p
    return sorted(powers)
