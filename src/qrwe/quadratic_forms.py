"""Class numbers of imaginary quadratic orders and Kronecker symbols.

Everything here is computed by enumerating reduced binary quadratic
forms; no value is read from a stored table, so the module doubles as
its own oracle.  Rational weights are exact `fractions.Fraction` values.

Three enumerations compute the same numbers.  `class_number` and
`hurwitz_class_number` count the forms of one discriminant at a time,
O(|d|) each; they are the scalar reference.  `hurwitz_row(m)` gives
H(t^2 - m) for every t with t^2 < m, which the Eichler-Selberg sums and
the isogeny counts read as whole rows.  A row comes from a sweep over
the reduced forms (a, b, c) with 3a^2 <= m, O(m) per row, or from a
lookup in one table of 6H(N) for every N <= X, sieved from the same
forms once a process asks for more than two rows (the class-number
table of Cohen, *A Course in Computational Algebraic Number Theory*,
5.3).  The sweep runs as a Python loop (`_sweep_row`) or, for large
rows in a process that has numpy loaded or for rows too large for the
loop to beat numpy's import, as array passes over blocks of a
(`_sweep_row_numpy`).  Each engine serves as the others' test.

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

import sys
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
    give 0, which lets callers feed arbitrary negative integers.  The
    isqrt(-delta) divisors are charged to the budget first.
    """
    if delta >= 0:
        raise ValueError("Hurwitz class number needs delta < 0, got %d" % delta)
    top = isqrt(-delta)
    check_budget(top)
    total = Fraction(0)
    for d in range(1, top + 1):
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
# and the table at the cap takes 1 MB.  A row swept with m >=
# _NUMPY_SWEEP_FROM runs the numpy passes when numpy is already loaded.
# Each call of the passes costs about 0.15 ms before any work, and the
# first in a process 0.5 ms more.  Warm, they win from m = 768 on (3x at
# 2^13), but a first call loses below m = 4096, and as only the first two
# rows up to _TABLE_CAP are swept, most swept rows are first calls.
# A row with m >= _NUMPY_IMPORT_FROM imports numpy for them: in fresh
# processes the passes save 85-135 ns per unit of m over the loop, as
# the host's speed drifts, so they repay numpy's 60-75 ms import between
# m = 5 * 10^5 and 8 * 10^5.
_SWEEP_BELOW = 1 << 7
_NUMPY_SWEEP_FROM = 1 << 13
_NUMPY_IMPORT_FROM = 1 << 20
_TABLE_CAP = 1 << 18
_SWEEPS_BEFORE_TABLE = 2
_table = ()  # 6H(N) for 0 <= N < len(_table): an int32 array once built
_sweeps = 0  # uncovered rows _SWEEP_BELOW <= m <= _TABLE_CAP swept so far
_squares = ()  # t^2 for t < len(_squares), grown by _table_row
# The sieve expands progressions of at most _SHORT_PROGRESSION cells in
# one ragged pass; each block of the numpy sweep holds about _BLOCK_CELLS
# cells, which bounds its memory.
_SHORT_PROGRESSION = 64
_BLOCK_CELLS = 1 << 12


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
    loop over q reads every later row off it.  A swept row runs the
    numpy passes (`_sweep_row_numpy`), up to 3x faster than the loop, when
    m >= _NUMPY_SWEEP_FROM and numpy is already in `sys.modules`
    (smaller rows are faster in the loop), or when m >=
    _NUMPY_IMPORT_FROM, whatever was imported before: such a row saves
    more than numpy's import costs, while importing it for a lone
    trace at q = 16411 would cost more than its two rows save.  Each
    cache miss charges m to the budget, whichever engine serves it.  The
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
    if m < len(table):
        return _table_row(table, m)
    if m >= _NUMPY_SWEEP_FROM and ("numpy" in sys.modules or m >= _NUMPY_IMPORT_FROM):
        return _sweep_row_numpy(m)
    return _sweep_row(m)


def _table_row(table, m: int) -> tuple:
    """Row m read off a table that covers it, as Python ints: one gather
    at m - t^2 through the cached squares."""
    global _squares
    size = isqrt(m - 1) + 1
    if len(_squares) < size:
        import numpy as np

        _squares = np.arange(isqrt(len(table) - 1) + 1) ** 2
    return tuple(table[m - _squares[:size]].tolist())


def _sieve_table(top: int):
    """6H(N) for 0 <= N <= top as one int32 array.

    A reduced form (a, b, c) has discriminant -N for N = 4ac - b^2, so
    for fixed (a, b) with 0 <= b <= a the forms with c >= a fill the
    progression N = 4a^2 - b^2 (mod 4a) from c = a on.  Each gets the
    sweep's weight (12 for (a, b, c) and (a, -b, c), 6 at b = 0 or
    b = a) and the same correction at c = a.  Progressions of at most
    _SHORT_PROGRESSION cells, most of the pairs when top is a few
    thousand, are counted in one ragged expansion; the longer ones are
    added as strided slices.  The sums are formed in int64 and checked to
    fit int32.
    """
    import numpy as np

    a = np.arange(1, isqrt(top // 3) + 1)
    owner, b = _ragged(a + 1)
    a = a[owner]
    start = 4 * a * a - b * b  # c = a
    keep = start <= top
    a, b, start = a[keep], b[keep], start[keep]
    heavy, fix = _pair_weights(a, b)
    count = (top - start) // (4 * a) + 1
    short = count <= _SHORT_PROGRESSION
    tab = 6 * _progression_units(top + 1, start[short], 4 * a[short], count[short],
                                 heavy[short])
    long = ~short
    for first, step, both in zip(start[long].tolist(), (4 * a[long]).tolist(),
                                 heavy[long].tolist()):
        tab[first::step] += 12 if both else 6
    np.subtract.at(tab, start, fix)
    if tab.max() > np.iinfo(np.int32).max:
        raise ConsistencyError("6H(N) for N <= %d does not fit int32" % top)
    return tab.astype(np.int32)


def _ragged(counts):
    """The pairs (i, j) with 0 <= j < counts[i], in order, as two int64
    arrays: i repeated counts[i] times, and j counting up beside it."""
    import numpy as np

    owner = np.repeat(np.arange(len(counts)), counts)
    return owner, np.arange(len(owner)) - (np.cumsum(counts) - counts)[owner]


def _pair_weights(a, b):
    """For reduced pairs (a, b) with 0 <= b <= a: whether (a, -b, c) is
    counted with (a, b, c), for weight 12 rather than 6, and how far the
    weight at c = a falls below that (b = 0 is a(x^2 + y^2), weight 3;
    b = a is a(x^2 + xy + y^2), weight 2; -b is not reduced)."""
    import numpy as np

    return (0 < b) & (b < a), np.where(b == 0, 3, np.where(b == a, 4, 6))


def _progression_units(size: int, start, step, count, heavy):
    """Over 6, the weight the progressions start + k step, 0 <= k < count,
    put on each N < size: 2 per cell of a heavy progression, else 1.
    Two integer bincounts over the ragged expansion."""
    import numpy as np

    owner, k = _ragged(count)
    cells = start[owner] + step[owner] * k
    units = np.bincount(cells, minlength=size)
    units += np.bincount(cells[heavy[owner]], minlength=size)
    return units


def _isqrt_array(x):
    """isqrt of each entry of an int64 array with entries in [0, 2^62):
    the float root is only a first guess, corrected by exact integer
    comparisons."""
    import numpy as np

    root = np.sqrt(x).astype(np.int64)
    root -= root * root > x
    root += (root + 1) * (root + 1) <= x
    return root


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


def _sweep_row_numpy(m: int) -> tuple:
    """`_sweep_row` as array passes over blocks of a, in exact integers.

    Per block: the roots r < min(4a, isqrt(m - 3a^2) + 1) grouped by
    (a, r^2 mod 4a); the pairs (a, b) with top = m - 4a^2 + b^2 >= 0,
    each keyed by (a, (b^2 + m) mod 4a); a ragged expansion from each
    pair to its roots r <= isqrt(top), and from each root to the traces
    t = r + 4a k <= isqrt(top), counted by `_progression_units`; then the
    c = a correction where top is a square.  A block holds about
    _BLOCK_CELLS cells, counting for each a its roots, its a + 1 pairs
    and isqrt(m)/4 for its traces, which keeps the pass's traced memory
    to a few hundred kB at m = 4 * 10^5.
    """
    import numpy as np

    size = isqrt(m - 1) + 1
    row = np.zeros(size, dtype=np.int64)
    amax = isqrt(m // 3)
    every_a = np.arange(1, amax + 1)
    every_nroots = np.minimum(4 * every_a, _isqrt_array(m - 3 * every_a * every_a) + 1)
    cost = np.cumsum(every_nroots + every_a + 1 + size // 4)  # cells through each a
    starts = np.flatnonzero(np.diff(cost // _BLOCK_CELLS)) + 1
    edges = [0, *starts.tolist(), amax]
    for lo, hi in zip(edges, edges[1:]):
        a, nroots = every_a[lo:hi], every_nroots[lo:hi]
        mod = 4 * a
        base = np.cumsum(mod) - mod  # key of (a, 0)
        owner, r = _ragged(nroots)
        key = base[owner] + r * r % mod[owner]
        # stable: the default int64 argsort first loads numpy's SIMD
        # sort, about 0.4 MB more peak RSS for a 10% faster pass
        r = r[np.argsort(key, kind="stable")]
        count = np.bincount(key, minlength=int(mod.sum()))
        first = np.cumsum(count) - count
        owner, b = _ragged(a + 1)
        top = m - mod[owner] * a[owner] + b * b  # t^2 = top means c = a
        keep = top >= 0
        owner, b, top = owner[keep], b[keep], top[keep]
        tmax = _isqrt_array(top)
        key = base[owner] + (b * b + m) % mod[owner]
        heavy, fix = _pair_weights(a[owner], b)
        pair, j = _ragged(count[key])
        root = r[first[key][pair] + j]
        below = root <= tmax[pair]
        pair, root = pair[below], root[below]
        step = mod[owner[pair]]
        row += 6 * _progression_units(size, root, step, (tmax[pair] - root) // step + 1,
                                      heavy[pair])
        square = tmax * tmax == top
        np.subtract.at(row, tmax[square], fix[square])
    return tuple(row.tolist())
