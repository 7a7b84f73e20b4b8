"""Acceptance gate: every published identity at zero tolerance.

Each test prints one line per criterion; the checks live in
`qrwe.verify` so that `qrwe verify --suite all` runs exactly the same
logic.  All comparisons are exact integer / rational / enumerator
equality.
"""

from qrwe import verify


def _run(number, name, *check_fns, **kwargs):
    failures = []
    for fn in check_fns:
        for label, ok in fn(**kwargs):
            if not ok:
                failures.append(label)
    status = "PASS" if not failures else "FAIL"
    print("ACCEPTANCE %02d %-58s %s" % (number, name, status))
    assert not failures, failures


def test_criterion_01_class_numbers():
    _run(1, "class number identities and Hurwitz values",
         verify.checks_classnumbers)


def test_criterion_02_trace_formula_dimensions():
    _run(2, "traces vanish on zero-dimensional spaces (q <= 2000)",
         verify.checks_traces_dimension_zero)


def test_criterion_03_trace_formula_eta_oracle():
    _run(3, "traces match eta-product eigenvalues (q <= 2000)",
         verify.checks_traces_eta)


def test_criterion_04_prime_moment_polynomials():
    _run(4, "displayed prime moment polynomials (p <= 47)",
         verify.checks_moments_displayed)


def test_criterion_05_moments_vs_census():
    _run(5, "quartic, Weierstrass and Legendre census moments vs formulas",
         verify.checks_census, verify.checks_weierstrass_moments,
         verify.checks_legendre_moments)


def test_criterion_06_isogeny_counts_vs_census():
    _run(6, "special j-invariant classes vs census",
         verify.checks_j_special)


def test_criterion_07_degree4_enumerator():
    _run(7, "degree-4 enumerator vs brute force, MDS, totals",
         verify.checks_c14)


def test_criterion_08_macwilliams_dual():
    _run(8, "MacWilliams duals, involution, puncturing vs brute force",
         verify.checks_duals)


def test_criterion_09_dual_closed_forms():
    _run(9, "dual coefficient closed forms (projective and classical)",
         verify.checks_examples)


def test_criterion_10_family_sums():
    _run(10, "sixth-power family sums vs weight-8 traces",
         verify.checks_family_sums)


def test_criterion_11_property_suites(quartic_census_for):
    # the property suites live in tests/test_properties.py and run
    # standalone; here we spot-run the census parity invariant so the
    # acceptance table stays self-contained
    failures = []
    for q in (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27):
        census = quartic_census_for(q)
        for t, bucket in census.buckets.items():
            odd_order = (q + 1 - t) % 2 == 1
            if bucket.by_roots[3] != 0:
                failures.append((q, t, "three-root bucket"))
            if odd_order and (bucket.by_roots[0] or bucket.by_roots[2]
                              or bucket.by_roots[4]):
                failures.append((q, t, "even split in odd order"))
            if not odd_order and bucket.by_roots[1]:
                failures.append((q, t, "odd split in even order"))
    status = "PASS" if not failures else "FAIL"
    print("ACCEPTANCE 11 %-58s %s" % ("census parity property suite (q <= 27)", status))
    assert not failures, failures
