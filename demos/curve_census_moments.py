#!/usr/bin/env python3
"""Counting elliptic curves two ways: brute force vs class numbers.

The census enumerates every smooth binary quartic (or every short
Weierstrass model) over a small field and buckets it by trace of
Frobenius.  The closed-form side produces the same weighted counts from
Hurwitz class numbers, and the power moments of the trace come out as
polynomials in p plus Hecke traces.
"""

from qrwe import (empirical_moment, field, isogeny_profile, moment_formula,
                  quartic_census, weierstrass_census)

q = 7
ctx = field(q, 1)

census = quartic_census(ctx)
print("Smooth binary quartics over F_%d, bucketed by trace t:" % q)
for t in census.traces():
    bucket = census.buckets[t]
    print("  t = %+d: %6d quartics, by rational roots %s  -> weighted count %s"
          % (t, bucket.total, bucket.by_roots, census.weighted_count(t)))

print("\nThe same weighted counts from class numbers:")
profile = isogeny_profile(q)
for t in profile.traces():
    n_all, n_full = profile.table[t]
    assert (n_all, n_full) == (census.weighted_count(t), census.weighted_count_full_2tors(t))
    print("  t = %+d: all classes %s, full 2-torsion %s" % (t, n_all, n_full))

print("\nShort Weierstrass models agree (p >= 5): models(t)/(q-1):")
wcensus = weierstrass_census(ctx)
assert {t: (wcensus.weighted_count(t), wcensus.weighted_count_full_2tors(t))
        for t in wcensus.traces()} == profile.table
print("  checked all traces at q = %d" % q)

print("\nMoments of the trace, census vs closed form:")
for R in range(4):
    emp = empirical_moment(census, R, "all")
    formula = moment_formula(q, R, "all")
    assert emp == formula
    print("  sum of t^%d weighted: %10s  (formula %s)" % (2 * R, emp, formula))

print("\nRestricted to curves with rational 2-torsion:")
for R in range(3):
    emp = empirical_moment(census, R, "two_torsion")
    print("  order %d moment: %s" % (2 * R, emp))
    assert emp == moment_formula(q, R, "two_torsion")

print("\nPrime power fields work too; q = 9 exercises the square-field "
      "branches:")
census9 = quartic_census(field(3, 2))
for R in range(3):
    assert empirical_moment(census9, R, "all") == moment_formula(9, R, "all")
print("  census == formula at q = 9 for orders 0, 2, 4")
