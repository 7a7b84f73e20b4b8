"""Class numbers of imaginary quadratic orders and Kronecker symbols.

Everything here is computed by enumerating reduced binary quadratic
forms; no value is read from a stored table, so the module doubles as
its own oracle.  Rational weights are exact `fractions.Fraction` values.

Three enumerations compute the same numbers.  `class_number` and
`hurwitz_class_number` count the forms of one discriminant at a time,
O(|d|) each; they are the scalar reference.  `hurwitz_row(m)` gives
H(t^2 - m) for every t with t^2 < m, which the Eichler-Selberg sums and
the isogeny counts read as whole rows, from one of two engines: a sweep
over the reduced forms (a, b, c) with 3a^2 <= m, O(m) per row, or a
lookup in one table of 6H(N) for every N <= X, sieved from the same
forms in a single numpy pass once a process asks for more than two rows
(the class-number table of Cohen, *A Course in Computational Algebraic
Number Theory*, 5.3).  Each engine serves as the other's test.

Conventions:
  * a discriminant d is a negative integer with d = 0 or 1 (mod 4);
  * h(d) counts reduced primitive positive definite forms
    ax^2 + bxy + cy^2 with b^2 - 4ac = d, |b| <= a <= c, gcd(a,b,c) = 1
    and b >= 0 whenever |b| = a or a = c;
  * the weighted class number divides h(-3) by 3 and h(-4) by 2
    (the extra units of those two orders);
  * the Hurwitz-Kronecker class number of D < 0 sums the weighted class
    numbers of all orders containing the order of discriminant D.
"""

from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .errors import ConsistencyError, check_budget


def _jacobi(a: int, n: int) -> int:
    """Jacobi symbol (a/n) for odd n >= 1."""
    a %= n
    result = 1
    while a != 0:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                result = -result
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            result = -result
        a %= n
    return result if n == 1 else 0


def kronecker(delta: int, n: int) -> int:
    """Kronecker symbol (delta/n) for n >= 1.

    Completely multiplicative in n; equals the Legendre symbol at odd
    primes.  At n = 2 it is 0 for even delta, +1 for delta = 1 (mod 8)
    and -1 for delta = 5 (mod 8).
    """
    if n < 1:
        raise ValueError("kronecker symbol needs n >= 1, got n=%d" % n)
    result = 1
    while n % 2 == 0:
        if delta % 2 == 0:
            return 0
        if delta % 8 in (3, 5):
            result = -result
        n //= 2
    return result * _jacobi(delta, n)


def _check_discriminant(d: int) -> None:
    if d >= 0:
        raise ValueError("discriminant must be negative, got %d" % d)
    if d % 4 not in (0, 1):
        raise ValueError("discriminant must be 0 or 1 mod 4, got %d" % d)


@lru_cache(maxsize=1 << 14)
def class_number(d: int) -> int:
    """h(d): number of reduced primitive forms of discriminant d < 0,
    keeping b >= 0 on the boundary |b| = a or a = c.  The count takes
    O(|d|) steps, charged to the budget first."""
    _check_discriminant(d)
    check_budget(-d)
    count = 0
    for a in range(1, isqrt(-d // 3) + 1):
        for b in range(-a, a + 1):
            num = b * b - d
            if num % (4 * a) != 0:
                continue
            c = num // (4 * a)
            if c < a:
                continue
            if gcd(gcd(a, abs(b)), c) != 1:
                continue
            if (abs(b) == a or a == c) and b < 0:
                continue
            count += 1
    return count


def weighted_class_number(d: int) -> Fraction:
    """h_w(d): the class number with h(-3)/3 and h(-4)/2."""
    h = class_number(d)
    if d == -3:
        return Fraction(h, 3)
    if d == -4:
        return Fraction(h, 2)
    return Fraction(h)


@lru_cache(maxsize=1 << 14)
def hurwitz_class_number(delta: int) -> Fraction:
    """Hurwitz-Kronecker class number H_w(delta) for delta < 0.

    Sums h_w(delta/d^2) over all d >= 1 with d^2 | delta and
    delta/d^2 = 0 or 1 (mod 4).  Inputs with no admissible divisor at
    all (delta = 2 or 3 mod 4 and square-free in the relevant sense)
    give 0, which lets callers feed arbitrary negative integers.
    """
    if delta >= 0:
        raise ValueError("Hurwitz class number needs delta < 0, got %d" % delta)
    total = Fraction(0)
    for d in range(1, isqrt(-delta) + 1):
        if delta % (d * d) != 0:
            continue
        quotient = delta // (d * d)
        if quotient % 4 in (0, 1):
            total += weighted_class_number(quotient)
    return total


# Rows with _SWEEP_BELOW <= m <= _TABLE_CAP come from the shared table
# once two of them have been swept; other rows are swept unless a table
# already covers them.  A row below _SWEEP_BELOW sweeps in microseconds,
# less than the table's first numpy call.  The sieve costs about twice
# a sweep of the same size up to 2^18, but 2.6x at 2^19 and 12x at 2^22,
# and the table at the cap takes 1 MB.
_SWEEP_BELOW = 1 << 7
_TABLE_CAP = 1 << 18
_SWEEPS_BEFORE_TABLE = 2
_table = ()  # 6H(N) for 0 <= N < len(_table): an int32 array once built
_sweeps = 0  # uncovered rows _SWEEP_BELOW <= m <= _TABLE_CAP swept so far


@lru_cache(maxsize=256)
def hurwitz_row(m: int) -> tuple:
    """The integers 6 H(t^2 - m) for t = 0, 1, ... with t^2 < m.

    H(N) counts every reduced form of discriminant -N, primitive or
    not, with weight 1, except a(x^2 + y^2) (weight 1/2) and
    a(x^2 + xy + y^2) (weight 1/3); six times it is an integer.

    A row the table covers is read off it.  Otherwise every row
    m < _SWEEP_BELOW, the first two rows with _SWEEP_BELOW <= m <=
    _TABLE_CAP, and every larger row, are swept (`_sweep_row`): one q
    asks for exactly two rows, 4q and q, so a lone trace builds no
    table.  Any later row _SWEEP_BELOW <= m <= _TABLE_CAP first rebuilds
    the table up to min(_TABLE_CAP, max(m, 2X)), X its current top, so a
    loop over q reads every later row off it.  Each cache
    miss charges m to the budget, whichever engine serves it.  The
    cache holds a fixed number of rows.
    """
    global _table, _sweeps
    if m < 1:
        raise ValueError("Hurwitz row needs m >= 1, got %d" % m)
    check_budget(m)
    table = _table
    if max(len(table), _SWEEP_BELOW) <= m <= _TABLE_CAP:
        if _sweeps < _SWEEPS_BEFORE_TABLE:
            _sweeps += 1
        else:
            table = _table = _sieve_table(min(_TABLE_CAP, max(m, 2 * (len(table) - 1))))
    return _table_row(table, m) if m < len(table) else _sweep_row(m)


def _table_row(table, m: int) -> tuple:
    """Row m read off a table that covers it, as Python ints."""
    import numpy as np

    t = np.arange(isqrt(m - 1) + 1)
    return tuple(table[m - t * t].tolist())


def _sieve_table(top: int):
    """6H(N) for 0 <= N <= top as one int32 array.

    A reduced form (a, b, c) has discriminant -N for N = 4ac - b^2, so
    for fixed (a, b) with 0 <= b <= a the forms with c >= a fill the
    progression N = 4a^2 - b^2 (mod 4a) from c = a on.  Each gets the
    sweep's weight (12 for (a, b, c) and (a, -b, c), 6 at b = 0 or
    b = a) and the same correction at c = a.  The sums are formed in
    int64 and checked to fit int32.
    """
    import numpy as np

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
    if tab.max() > np.iinfo(np.int32).max:
        raise ConsistencyError("6H(N) for N <= %d does not fit int32" % top)
    return tab.astype(np.int32)


def _sweep_row(m: int) -> tuple:
    """Row m of `hurwitz_row` from one sweep over the reduced forms.

    A reduced form (a, b, c) has discriminant t^2 - m exactly when
    t^2 = b^2 + m - 4ac, so for fixed (a, b) the traces t are the square
    roots of b^2 + m modulo 4a with t^2 <= m - 4a^2 + b^2 (that is,
    c >= a).  Forms with b and -b are counted together; on the boundary
    a = c only b >= 0 is kept.
    """
    row = [0] * (isqrt(m - 1) + 1)
    for a in range(1, isqrt(m // 3) + 1):
        mod = 4 * a
        # square roots modulo 4a, only those below the largest t when
        # that is less than 4a
        roots = {}
        for r in range(min(mod, isqrt(m - 3 * a * a) + 1)):
            roots.setdefault(r * r % mod, []).append(r)
        for b in range(a + 1):
            top = m - 4 * a * a + b * b  # t^2 <= top, and t^2 = top means c = a
            if top < 0:
                continue
            tmax = isqrt(top)
            both = 12 if 0 < b < a else 6  # (a, b, c) and (a, -b, c)
            for r in roots.get((b * b + m) % mod, ()):
                for t in range(r, tmax + 1, mod):
                    row[t] += both
            if tmax * tmax == top:
                # c = a: b = 0 is a(x^2 + y^2), b = a is a(x^2 + xy + y^2),
                # and -b is not reduced
                row[tmax] -= both - (3 if b == 0 else 2 if b == a else 6)
    return tuple(row)
