"""Weighted isogeny-class counts of elliptic curves over F_q.

For an odd prime power q = p^v and a trace of Frobenius t, the count
"all" is the number of F_q-isomorphism classes of elliptic curves with
trace t, each class weighted by 1/|Aut(E)|, and "full" the part of it
whose rational 2-torsion is all of E[2].  Schoof (Nonsingular plane
cubic curves over finite fields, JCTA 1987) writes both as Hurwitz
class numbers H.  `isogeny_profile(q)` is the one derivation of them,
a table t -> (all, full):

 * at t prime to p, all = H(4q - t^2)/2, and full = H(q - t^2/4)/2 when
   t = q + 1 (mod 4), else 0: one pass over `hurwitz_row(4q)` and
   `hurwitz_row(q)`;
 * at t divisible by p only the few cases `_divisible_traces` lists
   carry a class.

`weighted_count(q, t)` and `weighted_count_full_2tors(q, t)` read one t
of it: a t divisible by p, or outside the Hasse interval, and the full
count at an odd t are answered without the profile and so build no row
of 4q.  The brute-force
censuses in `curve_census` are checked against the profile.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt

from .arith import odd_prime_power_split
from .quadratic_forms import hurwitz_row, kronecker

_NO_CLASS = (Fraction(0), Fraction(0))


def _divisible_traces(q: int, p: int, v: int) -> dict:
    """{|t|: (all, full)} at the t divisible by p that carry a class.

    At odd v, t = 0 gives H(4p)/2, with full 2-torsion H(p)/2 when
    q = 3 (mod 4) (then -p is a fundamental discriminant and
    H(p) = h_w(-p)); at p = 3, t^2 = 3q gives 1/6.  At even v, t = 0
    gives (1 - (-4/p))/4, t^2 = q gives (1 - (-3/p))/6, and t^2 = 4q
    gives (p - 1)/24 with all 2-torsion rational.  Any other t divisible
    by p has no curve.  The row pass of `isogeny_profile` never reads
    these t: there H(4q - t^2)/2 does not count the classes (at t = 0
    and odd v the discriminant is -4p, not -4q).
    """
    if v % 2:
        full = Fraction(hurwitz_row(p)[0], 12) if q % 4 == 3 else Fraction(0)
        cases = {0: (Fraction(hurwitz_row(4 * p)[0], 12), full)}
        if p == 3:
            cases[isqrt(3 * q)] = (Fraction(1, 6), Fraction(0))
    else:
        root = isqrt(q)
        ends = Fraction(p - 1, 24)
        cases = {0: (Fraction(1 - kronecker(-4, p), 4), Fraction(0)),
                 root: (Fraction(1 - kronecker(-3, p), 6), Fraction(0)),
                 2 * root: (ends, ends)}
    return {a: pair for a, pair in cases.items() if pair != _NO_CLASS}


def _pair(q: int, t: int) -> tuple:
    """(all, full) at one t, (0, 0) where no class has trace t."""
    p, v = odd_prime_power_split(q)
    if t * t > 4 * q:
        return _NO_CLASS
    if t % p == 0:
        return _divisible_traces(q, p, v).get(abs(t), _NO_CLASS)
    return isogeny_profile(q).table[t]


def weighted_count(q: int, t: int) -> Fraction:
    """Classes with trace t over F_q, weighted by 1/|Aut|."""
    return _pair(q, t)[0]


def weighted_count_full_2tors(q: int, t: int) -> Fraction:
    """Classes with trace t and fully rational 2-torsion, weighted."""
    if t % 2:  # an odd trace never has full 2-torsion
        odd_prime_power_split(q)
        return _NO_CLASS[1]
    return _pair(q, t)[1]


@dataclass(frozen=True)
class IsogenyProfile:
    """All weighted counts for a fixed q: t -> (all, full 2-torsion)."""
    q: int
    table: dict

    def traces(self):
        return sorted(self.table)


@lru_cache(maxsize=16)
def isogeny_profile(q: int) -> IsogenyProfile:
    """Every nonzero (all, full) pair at q, keyed by t from -isqrt(4q)
    up; both depend on |t| only.  At p not dividing t they are
    6H(t^2 - 4q)/12 and, at t = q + 1 (mod 4), 6H(t^2/4 - q)/12 (else 0),
    with one Fraction per distinct 6H.  The cache holds a few profiles,
    shared with every caller, so the table must not be changed."""
    p, v = odd_prime_power_split(q)
    bound = isqrt(4 * q)
    row, half_row = hurwitz_row(4 * q), hurwitz_row(q)
    twelfths = {six_h: Fraction(six_h, 12) for six_h in {0, *row, *half_row}}
    full = (q + 1) % 4
    by_abs = _divisible_traces(q, p, v)
    for a in range(bound + 1):
        if a % p:
            by_abs[a] = (twelfths[row[a]], twelfths[half_row[a // 2] if a % 4 == full else 0])
    table = {t: by_abs[abs(t)] for t in range(-bound, bound + 1) if abs(t) in by_abs}
    return IsogenyProfile(q=q, table=table)
