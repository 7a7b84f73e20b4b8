"""Weighted isogeny-class counts of elliptic curves over F_q.

`weighted_count(q, t)` is the number of F_q-isomorphism classes of
elliptic curves with trace of Frobenius t, each class weighted by
1/|Aut(E)|.  `weighted_count_full_2tors(q, t)` restricts to classes
whose rational 2-torsion is all of E[2].  Both are exact rationals built
from Hurwitz-Kronecker class numbers, all read off `hurwitz_row`; the
brute-force censuses in `curve_census` verify them case by case.

Branch layout notes:
 * the boundary cases t = 0, t^2 = q, t^2 = 3q, t^2 = 4q are tested
   before the generic coprime-trace branch, whose class number would be
   evaluated at discriminant 0 there;
 * for non-square q the t = 0 count uses the discriminant -4p (not -4q),
   and its full-2-torsion part for q = 3 (mod 4) is H(p)/2, since -p is
   then a fundamental discriminant and H(p) = h_w(-p);
 * p | t with t != 0 and no boundary case applies means no curve exists
   and the count is 0.

`isogeny_profile(q)` reads every t prime to p off one pass over
`hurwitz_row(4q)` and `hurwitz_row(q)`: every boundary case has p | t,
so only those t call the two counts.
"""

from dataclasses import dataclass
from fractions import Fraction
from math import isqrt

from .arith import odd_prime_power_split
from .quadratic_forms import hurwitz_row, kronecker


def _half_hurwitz(m: int, t: int) -> Fraction:
    """H(t^2 - m) / 2 for t^2 < m, read off the Hurwitz row."""
    return Fraction(hurwitz_row(m)[abs(t)], 12)


def weighted_count(q: int, t: int) -> Fraction:
    """Classes with trace t over F_q, weighted by 1/|Aut|."""
    p, v = odd_prime_power_split(q)
    if t * t > 4 * q:
        return Fraction(0)
    if v % 2 == 1:
        if t == 0:
            return _half_hurwitz(4 * p, 0)
        if t * t == 3 * q and p == 3:
            return Fraction(1, 6)
        if t * t < 4 * q and t % p != 0:
            return _half_hurwitz(4 * q, t)
        return Fraction(0)
    if t == 0:
        return Fraction(1 - kronecker(-4, p), 4)
    if t * t == q:
        return Fraction(1 - kronecker(-3, p), 6)
    if t * t == 4 * q:
        return Fraction(p - 1, 24)
    if t % p != 0:
        return _half_hurwitz(4 * q, t)
    return Fraction(0)


def weighted_count_full_2tors(q: int, t: int) -> Fraction:
    """Classes with trace t and fully rational 2-torsion, weighted."""
    p, _ = odd_prime_power_split(q)
    if t % 2 or t * t > 4 * q:
        return Fraction(0)  # an odd trace never has full 2-torsion
    if t * t == 4 * q:
        return weighted_count(q, t)
    if t == 0:
        if q % 4 == 1:
            return Fraction(0)
        return _half_hurwitz(p, 0)
    if t * t in (q, 2 * q, 3 * q):
        return Fraction(0)
    if t % p != 0 and t % 4 == (q + 1) % 4:
        return _half_hurwitz(q, t // 2)
    return Fraction(0)


@dataclass(frozen=True)
class IsogenyProfile:
    """All weighted counts for a fixed q: t -> (all, full 2-torsion)."""
    q: int
    table: dict

    def traces(self):
        return sorted(self.table)


def isogeny_profile(q: int) -> IsogenyProfile:
    """Every nonzero (weighted_count, weighted_count_full_2tors) pair at
    q, keyed by t from -isqrt(4q) up; both depend on |t| only.  At p not
    dividing t they are 6H(t^2 - 4q)/12 and, at t = q + 1 (mod 4),
    6H(t^2/4 - q)/12 (else 0), with one Fraction per distinct 6H."""
    p, _ = odd_prime_power_split(q)
    bound = isqrt(4 * q)
    row, half_row = hurwitz_row(4 * q), hurwitz_row(q)
    twelfths = {six_h: Fraction(six_h, 12) for six_h in {0, *row, *half_row}}
    full = (q + 1) % 4
    by_abs = {}
    for a in range(bound + 1):
        if a % p:
            by_abs[a] = (twelfths[row[a]], twelfths[half_row[a // 2] if a % 4 == full else 0])
        else:
            pair = (weighted_count(q, a), weighted_count_full_2tors(q, a))
            if pair != (0, 0):
                by_abs[a] = pair
    table = {t: by_abs[abs(t)] for t in range(-bound, bound + 1) if abs(t) in by_abs}
    return IsogenyProfile(q=q, table=table)
