#!/usr/bin/env python3
"""The refined weight enumerator of the 5-dimensional projective
Reed-Solomon code.

Codewords are the values of binary quartics at the q+1 points of the
projective line, so counting codewords with j square values and k
non-square values is the same as counting quartics whose associated
hyperelliptic equation w^2 = f4 has a prescribed point count and root
structure.  The closed form is assembled from weighted isogeny-class
counts; the check is a literal walk over all q^5 codewords.
"""

from qrwe import (brute_force_enumerator, field, mds_weight_distribution,
                  puncture_enumerator, quartic_code_enumerator,
                  reed_solomon_code, singular_quartic_part, smooth_quartic_part)

q = 7
ctx = field(q, 1)

singular = singular_quartic_part(q)
smooth = smooth_quartic_part(q)
print("Enumerator pieces at q = %d: %d singular-type terms, %d smooth-type "
      "terms" % (q, len(singular.terms), len(smooth.terms)))

enum = quartic_code_enumerator(q)
print("Total codewords: %d = %d^5" % (enum.total(), q))

code = reed_solomon_code(ctx, 4)
brute = brute_force_enumerator(code)
assert enum == brute
print("Brute force over all %d codewords agrees exactly." % code.size)

print("\nA few coefficients (X-exponent, Y-exponent, Z-exponent: count):")
for (j, k) in sorted(enum.terms, key=lambda jk: (jk[0] + jk[1], jk[0]))[:8]:
    print("  X^%d Y^%d Z^%d: %d" % (q + 1 - j - k, j, k, enum.terms[(j, k)]))

print("\nForgetting the square / non-square split recovers the classical "
      "MDS weight distribution:")
print("  from the refined enumerator:", enum.hamming_distribution())
print("  from the MDS closed form:   ", mds_weight_distribution(q + 1, 5, q))

print("\nPuncturing one coordinate gives the classical length-%d code:" % q)
classical = puncture_enumerator(enum)
classical_brute = brute_force_enumerator(reed_solomon_code(ctx, 4, projective=False))
assert classical == classical_brute
print("  punctured enumerator matches the classical brute force; total %d"
      % classical.total())

print("\nThe enumerator is symmetric under swapping the two nonzero letter "
      "classes: scaling codewords by a non-square is a code automorphism.")
print("  symmetric:", enum.is_yz_symmetric())
