"""Verification suites: every published identity as an exact check.

Each suite yields (label, ok) pairs; `run_suite` prints a pass/fail
table and reports overall success.  Every per-q check is one `_rows`
call: one row per label at each q <= qmax, or, when `qmax` leaves no q,
one row per label with ok None, printed as SKIP.  The same functions
back the acceptance test module, so `qrwe verify --suite all` and pytest
exercise identical logic.  All comparisons are exact: integers,
Fractions, or enumerator equality, with zero tolerance.
"""

from fractions import Fraction

from .arith import odd_prime_powers, odd_primes, prime_power_split
from .curve_census import (empirical_moment, j_special_census,
                           legendre_family_sum, quartic_census,
                           weierstrass_census)
from .enumerators import mds_weight_distribution, qr_macwilliams_dual
from .eta_products import (hecke_eigenvalue_prime_power, ramanujan_tau,
                           weight6_level4_form, weight8_level2_form)
from .finite_field import field
from .hecke_traces import (FLAVORS, moment_formula, trace, trace_level1,
                           trace_level2, trace_level4)
from .isogeny_counts import isogeny_profile
from .qr_pipeline import (classical_dual_weight7_check, dual_code_report,
                          quartic_code_enumerator)
from .quadratic_forms import (hurwitz_class_number, kronecker,
                              weighted_class_number)
from .rs_codes import brute_force_enumerator, puncture_enumerator, reed_solomon_code

CENSUS_QS = (3, 5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37)
JSPECIAL_QS = (5, 7, 11, 13, 17, 19, 23, 25, 29, 31, 37, 49, 121, 125, 169, 289, 343,
               1009)
C14_QS = (5, 7, 9, 11, 13, 17, 19, 23, 25, 27, 29, 31, 37)
DUAL_QS = (7, 9, 11)
# prime powers no brute-force walk reaches: involution and MDS collapse only
DUAL_PRIME_POWER_QS = (25, 27, 49)
DUAL_TRUNCATED_QS = (81, 121, 125)  # past DUAL_PRIME_POWER_QS, up to j + k = 12
PUNCTURE_QS = (7, 9)
EXAMPLE_PRIMES_1MOD4 = (13, 17, 29)
EXAMPLE_PRIMES_3MOD4 = (7, 11, 19, 23)
CLASSICAL_PRIMES = (13, 17, 7, 11, 19)
# after CENSUS_QS, censuses past the default budget
CENSUS_SCALE_QS = (41, 43, 47, 53, 59, 61, 67, 71, 73, 79, 83, 89, 97, 101, 49, 121)
# Weierstrass censuses past the quartic census's reach: moments to R = 12
# at the primes, to R = 8 at the prime powers
WEIERSTRASS_PRIMES = (5, 7, 11, 101, 1009)
WEIERSTRASS_PRIME_POWERS = (25, 49, 121, 125, 169, 289, 343, 361, 529, 625, 961, 1331)
FAMILY_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59, 61,
                 67, 71, 73, 79, 83, 89, 97)

def _rows(labels, values, qmax, check, var="q"):
    """The rows of a per-q check.  `labels` is one label, with `check(N)`
    its ok at N, or a tuple of labels, with `check(N)` a tuple of as many
    oks.  Each value N <= qmax gives one row "<label> at <var> = N" per
    label; with no such value, each label gives one SKIP row (ok None)."""
    single = isinstance(labels, str)
    labels = (labels,) if single else labels
    values = [v for v in values if qmax is None or v <= qmax]
    if not values:
        for label in labels:
            yield "%s: none of its q is <= %d" % (label, qmax), None
    for v in values:
        oks = (check(v),) if single else check(v)
        for label, ok in zip(labels, oks, strict=True):
            yield "%s at %s = %d" % (label, var, v), ok


def _field(q: int):
    return field(*prime_power_split(q))


# -- criterion 1 -------------------------------------------------------------

def checks_classnumbers(qmax=None):
    special = {-3: Fraction(1, 3), -4: Fraction(1, 2),
               -16: Fraction(3, 2), -12: Fraction(4, 3)}
    ok = all(hurwitz_class_number(d) == v for d, v in special.items())
    yield "Hurwitz class numbers at -3, -4, -12, -16", ok
    for d in (-3, -4, -7, -8, -11, -15, -20):
        good = True
        for f in range(1, 13):
            expected = weighted_class_number(d) * f
            for p in {2, 3, 5, 7, 11}:
                if f % p == 0:
                    expected *= 1 - Fraction(kronecker(d, p), p)
            good = good and weighted_class_number(f * f * d) == expected
        yield "class number scaling under conductor f <= 12, d = %d" % d, good


# -- criterion 2 and 3 -------------------------------------------------------

# The eta references are expanded to precision limit + 1.  The trace
# checks stop at q = 2000 however large qmax is: the three forms cost
# about 0.13 s there and 2.6 s at precision 10^4.
TRACE_QMAX = 2000
# level -> the weights whose cusp space is zero-dimensional
ZERO_DIM_WEIGHTS = {1: (4, 6, 8, 10, 14), 2: (2, 4, 6), 4: (2, 4)}


def _trace_limit(qmax):
    return TRACE_QMAX if qmax is None else min(qmax, TRACE_QMAX)


def checks_traces_dimension_zero(qmax=None):
    limit = _trace_limit(qmax)
    qs = odd_prime_powers(limit)
    for level, weights in ZERO_DIM_WEIGHTS.items():
        for k in weights:
            ok = all(trace(level, k, q) == 0 for q in qs)
            yield ("level %d weight %d trace vanishes (dim 0), q <= %d"
                   % (level, k, limit), ok)


def checks_traces_eta(qmax=None):
    limit = _trace_limit(qmax)
    qs = odd_prime_powers(limit)
    primes = odd_primes(limit)
    precision = limit + 1
    ok = all(trace_level1(12, q) == ramanujan_tau(q, precision) for q in qs)
    yield "level 1 weight 12 trace = tau(q), q <= %d" % limit, ok
    eta6 = weight6_level4_form(precision)
    ok = True
    for q in qs:
        p, v = prime_power_split(q)
        ok = ok and trace_level4(6, q) == hecke_eigenvalue_prime_power(eta6, 6, p, v)
    yield "level 4 weight 6 trace = eta(2z)^12 eigenvalue, q <= %d" % limit, ok
    eta8 = weight8_level2_form(precision)
    ok = all(trace_level2(8, p) == eta8.coeff(p) for p in primes)
    yield "level 2 weight 8 trace = eta(z)^8 eta(2z)^8 coefficient, p <= %d" % limit, ok
    ok = all(trace_level4(8, p) == 2 * eta8.coeff(p) for p in primes)
    yield "level 4 weight 8 trace doubles the level 2 one, p <= %d" % limit, ok


# -- criterion 4 -------------------------------------------------------------

def _displayed_all(p, R, tau_p):
    return {
        0: Fraction(p),
        1: Fraction(p ** 2 - 1),
        2: Fraction(2 * p ** 3 - 3 * p - 1),
        3: Fraction(5 * p ** 4 - 9 * p ** 2 - 5 * p - 1),
        4: Fraction(14 * p ** 5 - 28 * p ** 3 - 20 * p ** 2 - 7 * p - 1),
        5: Fraction(42 * p ** 6 - 90 * p ** 4 - 75 * p ** 3 - 35 * p ** 2
                    - 9 * p - 1 - tau_p),
    }[R]


def _displayed_two_torsion(p, R, a_p):
    return {
        0: Fraction(2 * p - 1, 3),
        1: Fraction(p * (2 * p - 1), 3) - 1,
        2: (Fraction(4, 3) * p ** 3 - Fraction(2, 3) * p ** 2 - 3 * p - 1
            + Fraction(a_p, 3)),
    }[R]


def _displayed_full(p, R, a_p):
    return {
        0: Fraction(p, 6) - Fraction(1, 3),
        1: Fraction(p ** 2, 6) - Fraction(p, 3) - Fraction(1, 2),
        2: (Fraction(p ** 3, 3) - Fraction(2, 3) * p ** 2 - Fraction(3, 2) * p
            - Fraction(1, 2) - Fraction(a_p, 6)),
    }[R]


def checks_moments_displayed(qmax=None):
    # moment_formula reads class-number power moments and no trace, so
    # this compares them with tau(p) and the eta coefficients directly
    eta6 = weight6_level4_form()
    def check(p):
        tau_p = ramanujan_tau(p)
        a_p = eta6.coeff(p)
        return (all(moment_formula(p, R, "all") == _displayed_all(p, R, tau_p)
                    for R in range(6))
                and all(moment_formula(p, R, "two_torsion")
                        == _displayed_two_torsion(p, R, a_p) for R in range(3))
                and all(moment_formula(p, R, "full_two_torsion")
                        == _displayed_full(p, R, a_p) for R in range(3)))
    yield from _rows("displayed prime moment polynomials", odd_primes(47), qmax,
                     check, "p")


# -- criteria 5 and 6 --------------------------------------------------------

def _census_matches(census, q: int, top: int) -> bool:
    """The census's moments equal `moment_formula` at every R <= top in
    every flavor, and its weighted counts, trace by trace, the table of
    `isogeny_profile`."""
    counts = {t: (census.weighted_count(t), census.weighted_count_full_2tors(t))
              for t in census.traces()}
    return (all(empirical_moment(census, R, flavor) == moment_formula(q, R, flavor)
                for flavor in FLAVORS for R in range(top + 1))
            and counts == isogeny_profile(q).table)


def checks_census(qmax=None):
    def check(q):
        # the budget admits the largest of the lists, 121^5 forms
        return _census_matches(quartic_census(_field(q), budget=121 ** 5), q, 5)
    yield from _rows("census moments and weighted counts match",
                     CENSUS_QS + CENSUS_SCALE_QS, qmax, check)


def checks_weierstrass_moments(qmax=None):
    def check(q):
        # the budget admits the largest of the lists, 1331^2 models
        census = weierstrass_census(_field(q), budget=1331 ** 2)
        return _census_matches(census, q, 12 if q in WEIERSTRASS_PRIMES else 8)
    yield from _rows("Weierstrass census moments and weighted counts match",
                     WEIERSTRASS_PRIMES + WEIERSTRASS_PRIME_POWERS, qmax, check)


def checks_legendre_moments(qmax=None):
    # y^2 = x(x^2 + ax + b) marks one rational 2-torsion point, so a
    # class with full 2-torsion is met three times
    def check(p):
        return all(legendre_family_sum(p, R)
                   == (p - 1) * (moment_formula(p, R, "two_torsion")
                                 + 2 * moment_formula(p, R, "full_two_torsion"))
                   for R in range(9))
    yield from _rows("Legendre family sum matches the two-torsion moments",
                     FAMILY_PRIMES, qmax, check, "p")


def checks_j_special(qmax=None):
    yield from _rows("special j-invariant classes match", JSPECIAL_QS, qmax,
                     _check_j_special)


def _check_j_special(q: int) -> bool:
    ctx = _field(q)
    p = ctx.p
    data = j_special_census(ctx)
    ok = True
    j0_square = ctx.quadratic_character(ctx.int_embed(-3)) == 1
    ok = ok and data["j0"]["class_total"] == (6 if j0_square else 2)
    j1728_square = ctx.quadratic_character(ctx.int_embed(-4)) == 1
    ok = ok and data["j1728"]["class_total"] == (4 if j1728_square else 2)
    # supersingular exactly when p = 2 mod 3 (j = 0) / p = 3 mod 4 (j = 1728)
    for label, ss in (("j0", p % 3 == 2), ("j1728", p % 4 == 3)):
        for t in data[label]["classes"]:
            ok = ok and ((t % p == 0) == ss)
    # 2-torsion shapes are forced by the group order and trace class
    for label in ("j0", "j1728"):
        for t, entry in data[label]["traces"].items():
            order = q + 1 - t
            for roots in entry["roots"]:
                if order % 2 == 1:
                    ok = ok and roots == 0
                elif (q + 1 - t) % 4 != 0:
                    ok = ok and roots == 1
    if q == 25:
        # supersingular j = 0 classes: one per extreme trace with full
        # 2-torsion, two per middle trace with no rational 2-torsion
        ok = ok and data["j0"]["classes"] == {-10: 1, -5: 2, 5: 2, 10: 1}
        shapes = {t: set(entry["roots"]) for t, entry in data["j0"]["traces"].items()}
        ok = ok and shapes == {-10: {3}, -5: {0}, 5: {0}, 10: {3}}
    if q in (5, 11):
        ok = ok and data["j0"]["classes"] == {0: 2}
    if q in (7, 11):
        ok = ok and data["j1728"]["classes"] == {0: 2}
    return ok


# -- criterion 7 -------------------------------------------------------------

def checks_c14(qmax=None):
    def check(q):
        enum = quartic_code_enumerator(q)
        brute = brute_force_enumerator(reed_solomon_code(_field(q), 4, projective=True))
        return (enum == brute and enum.total() == q ** 5
                and enum.hamming_distribution() == mds_weight_distribution(q + 1, 5, q))
    yield from _rows("degree-4 enumerator matches brute force", C14_QS, qmax, check)


# -- criterion 8 -------------------------------------------------------------

def checks_duals(qmax=None):
    def dual_and_back(q):
        primal = quartic_code_enumerator(q)
        dual = qr_macwilliams_dual(primal, q, q ** 5)
        return primal, dual, qr_macwilliams_dual(dual, q, q ** (q - 4))

    def against_brute_force(q):
        primal, dual, again = dual_and_back(q)
        code = reed_solomon_code(_field(q), q - 5, projective=True)
        return dual == brute_force_enumerator(code), again == primal

    def punctured(q):
        code = reed_solomon_code(_field(q), 4, projective=False)
        return puncture_enumerator(quartic_code_enumerator(q)) == brute_force_enumerator(code)

    def at_prime_power(q):
        primal, dual, again = dual_and_back(q)
        return again == primal, (dual.hamming_distribution()
                                 == mds_weight_distribution(q + 1, q - 4, q))

    def truncated(q):
        dual = qr_macwilliams_dual(quartic_code_enumerator(q), q, q ** 5, 12)
        return dual.is_yz_symmetric() and dual.hamming_distribution()[:13] == (
            mds_weight_distribution(q + 1, q - 4, q)[:13])
    involution = "double transform returns the enumerator"
    yield from _rows(("MacWilliams dual matches brute force", involution), DUAL_QS, qmax,
                     against_brute_force)
    yield from _rows("puncturing matches the classical brute force", PUNCTURE_QS, qmax,
                     punctured)
    yield from _rows((involution, "dual Hamming distribution is MDS"),
                     DUAL_PRIME_POWER_QS, qmax, at_prime_power)
    yield from _rows("truncated dual (j + k <= 12) is symmetric and MDS",
                     DUAL_TRUNCATED_QS, qmax, truncated)


# -- criterion 9 -------------------------------------------------------------

def checks_examples(qmax=None):
    # an ArithmeticError, a broken identity among them, is a failed row
    def projective(q):
        try:
            comparisons = dual_code_report(q, 7)["comparisons"]
        except ArithmeticError:
            return False
        return bool(comparisons) and all(item["match"] for item in comparisons)

    def classical(q):
        try:
            return classical_dual_weight7_check(q)["match"]
        except ArithmeticError:
            return False
    yield from _rows("projective dual closed forms hold",
                     EXAMPLE_PRIMES_1MOD4 + EXAMPLE_PRIMES_3MOD4, qmax, projective)
    yield from _rows("classical dual weight-7 closed form holds", CLASSICAL_PRIMES, qmax,
                     classical)


# -- criterion 10 ------------------------------------------------------------

def checks_family_sums(qmax=None):
    def check(p):
        expected = (Fraction((p - 1) * (p + 1)
                             * (5 * p ** 3 - 10 * p ** 2 - 8 * p - 2))
                    - Fraction(p - 1, 2) * trace_level4(8, p))
        return legendre_family_sum(p, 3) == expected
    yield from _rows("sixth-power family sum matches its closed form", FAMILY_PRIMES,
                     qmax, check, "p")


SUITES = {
    "classnumbers": (checks_classnumbers,),
    "traces": (checks_traces_dimension_zero, checks_traces_eta),
    "moments": (checks_moments_displayed, checks_census, checks_weierstrass_moments,
                checks_legendre_moments, checks_j_special),
    "c14": (checks_c14,),
    "duals": (checks_duals,),
    "examples": (checks_examples, checks_family_sums),
}
SUITES["all"] = tuple(fn for name in
                      ("classnumbers", "traces", "moments", "c14", "duals",
                       "examples") for fn in SUITES[name])


def run_suite(name: str, qmax=None, stream=None) -> bool:
    if name not in SUITES:
        raise KeyError("unknown suite %r" % name)
    all_ok = True
    for fn in SUITES[name]:
        for label, ok in fn(qmax=qmax):
            all_ok = all_ok and (ok is None or bool(ok))
            if stream is not None:
                status = "SKIP" if ok is None else "PASS" if ok else "FAIL"
                stream.write("%s  %s\n" % (status, label))
                stream.flush()
    return all_ok
