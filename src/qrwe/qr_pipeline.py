"""Closed-form quadratic-residue enumerators for the degree-4 codes.

Assembles the enumerator of the 5-dimensional projective Reed-Solomon
code over F_q from two pieces:

 * the contribution of quartics with a repeated root (seven explicit
   monomial families with polynomial coefficients in q), and
 * the contribution of smooth quartics, driven entirely by the weighted
   isogeny-class counts of `isogeny_profile`: a smooth quartic with
   trace t and r rational roots contributes X^r Y^((q+1-t-r)/2)
   Z^((q+1+t-r)/2), with the r split (1 for odd trace; 0/2/4 by
   2-torsion shape for even trace) weighted 1/2, 1/2 on ordinary
   2-torsion classes and 1/4, 3/4 on full 2-torsion classes, all scaled
   by (q-1)^2 q (q+1).

From there the MacWilliams machinery produces the dual (dimension q-4)
coefficients.  For prime q the low-codimension dual coefficients have
known closed forms: polynomials in q plus a multiple of the weight-6
trace on Gamma_0(4); they are transcribed in `_DUAL_TABLE` /
`_CLASSICAL_WEIGHT7` and used only in assertions, never as the
computation path.  `_DUAL_TABLE`, read through
`predicted_dual_coefficient`, is the only list of the monomials that
have a closed form: `dual_code_report` compares exactly those.
"""

from .arith import odd_prime_power_split
from .enumerators import QREnumerator, qr_dual_coefficients
from .errors import ConsistencyError
from .hecke_traces import trace_level4
from .isogeny_counts import isogeny_profile
from .rs_codes import puncture_enumerator


def _check_q(q: int) -> tuple:
    """(p, v) with q = p^v for an odd prime power q >= 5, else ValueError."""
    split = odd_prime_power_split(q)
    if q < 5:
        raise ValueError("need odd q >= 5, got %d" % q)
    return split


def singular_quartic_part(q: int) -> QREnumerator:
    """Enumerator contribution of the quartics without distinct roots
    (including the zero quartic, which contributes X^(q+1))."""
    _check_q(q)
    half = (q - 1) // 2
    terms = {}

    def bump(j, k, value):
        terms[(j, k)] = terms.get((j, k), 0) + value

    bump(0, 0, 1)
    for j, k in ((q, 0), (0, q)):
        bump(j, k, (q - 1) * (q + 1) // 2)
    bump(half, half, (q - 1) * q * (q + 1))
    for j, k in ((q - 1, 0), (0, q - 1)):
        bump(j, k, (q - 1) * q * (q + 1) // 4)
    for j, k in ((half, half - 1), (half - 1, half)):
        bump(j, k, (q - 1) ** 2 * q * (q + 1) // 4)
    for j, k in ((half + 1, half), (half, half + 1)):
        bump(j, k, (q - 1) ** 2 * q * (q + 1) // 4)
    for j, k in ((q + 1, 0), (0, q + 1)):
        bump(j, k, (q - 1) ** 2 * q // 4)
    return QREnumerator(q + 1, q, terms)


def smooth_quartic_part(q: int) -> QREnumerator:
    """Enumerator contribution of the quartics with distinct roots.  The
    isogeny weights (denominators dividing 24) are read as integers in
    units of 1/96, where the 1/2, 1/4 and 3/4 root splits stay integral;
    each (trace, root count) is its own monomial, divided by 96 once."""
    _check_q(q)
    factor = (q - 1) ** 2 * q * (q + 1)
    terms = {}

    def bump(j, k, units):
        if units:
            value, remainder = divmod(units * factor, 96)
            if remainder:
                raise ConsistencyError("non-integral count at (%d, %d)" % (j, k))
            terms[(j, k)] = value

    for t, (n_all, n_full) in isogeny_profile(q).table.items():
        if 24 % n_all.denominator or 24 % n_full.denominator:
            raise ConsistencyError("isogeny weights at t = %d are not in 1/24" % t)
        a = n_all.numerator * (96 // n_all.denominator)
        if t % 2 != 0:
            bump((q - t) // 2, (q + t) // 2, a)
            continue
        f = n_full.numerator * (96 // n_full.denominator)
        bump((q - 1 - t) // 2, (q - 1 + t) // 2, (a - f) // 2)                # 2 roots
        bump((q + 1 - t) // 2, (q + 1 + t) // 2, (a - f) // 2 + 3 * f // 4)  # 0 roots
        bump((q - 3 - t) // 2, (q - 3 + t) // 2, f // 4)                      # 4 roots
    return QREnumerator(q + 1, q, terms)


def quartic_code_enumerator(q: int) -> QREnumerator:
    """Quadratic-residue enumerator of the projective degree-4 code."""
    singular = singular_quartic_part(q)
    smooth = smooth_quartic_part(q)
    terms = dict(singular.terms)
    for key, value in smooth.terms.items():
        terms[key] = terms.get(key, 0) + value
    enum = QREnumerator(q + 1, q, terms)
    if enum.total() != q ** 5:
        raise ConsistencyError("enumerator total %d != q^5 = %d"
                               % (enum.total(), q ** 5))
    return enum


def classical_quartic_code_enumerator(q: int) -> QREnumerator:
    """Same for the classical (length q) degree-4 code, by puncturing."""
    return puncture_enumerator(quartic_code_enumerator(q))


# ---------------------------------------------------------------------------
# Known closed forms for dual coefficients at prime q
# ---------------------------------------------------------------------------

# (j, k) -> (ascending polynomial coefficients in q, trace multiplier,
# denominator); the dual coefficient is
#     (poly(q) + mult * tr_{level 4, weight 6}(q)) / denom * (q-1)^2 q (q+1).
# Monomials listed in `zero` have coefficient exactly 0 in that residue
# class.  Keys cover j >= k; mirror for the symmetric partner.
_DUAL_TABLE = {
    1: {
        "entries": {
            (6, 0): ((-159, 71, -9, 1), 0, 23040),
            (4, 2): ((-15, 23, -9, 1), 0, 1536),
            (7, 0): ((-13005, 6154, -860, 120, -20, 1), -35, 645120),
            (6, 1): ((-765, 1274, -660, 160, -20, 1), 5, 92160),
            (5, 2): ((-765, 1274, -660, 160, -20, 1), 5, 30720),
            (4, 3): ((-333, 714, -508, 152, -20, 1), -3, 18432),
        },
        "zero": ((5, 1), (3, 3)),
    },
    3: {
        "entries": {
            (5, 1): ((21, 11, -9, 1), 0, 3840),
            (3, 3): ((-51, 35, -9, 1), 0, 1152),
            (7, 0): ((-405, -566, -20, 120, -20, 1), -35, 645120),
            (6, 1): ((1035, 314, -540, 160, -20, 1), 5, 92160),
            (5, 2): ((1035, 314, -540, 160, -20, 1), 5, 30720),
            (4, 3): ((-2133, 1674, -628, 152, -20, 1), -3, 18432),
        },
        "zero": ((6, 0), (4, 2)),
    },
}
# The largest j + k with a closed form; the dual report's walk stops there.
_DUAL_MAX_CODIM = max(j + k for table in _DUAL_TABLE.values()
                      for j, k in (*table["entries"], *table["zero"]))


def _poly_at(coeffs, q: int) -> int:
    return sum(c * q ** i for i, c in enumerate(coeffs))


def predicted_dual_coefficient(q: int, j: int, k: int):
    """Closed-form dual coefficient for prime q >= 7, or None if the
    monomial has no transcribed form in q's residue class."""
    table = _DUAL_TABLE[q % 4]
    if j < k:
        j, k = k, j
    if (j, k) == (0, 0):
        return 1
    if 1 <= j + k <= 5:
        return 0  # below the minimum distance of the dual code
    if (j, k) in table["zero"]:
        return 0
    if (j, k) not in table["entries"]:
        return None
    coeffs, mult, denom = table["entries"][(j, k)]
    value, remainder = divmod((_poly_at(coeffs, q) + mult * trace_level4(6, q))
                              * (q - 1) ** 2 * q * (q + 1), denom)
    if remainder:
        raise ConsistencyError("closed form non-integral at (%d, %d)" % (j, k))
    return value


def dual_code_report(q: int, max_codim: int) -> dict:
    """Truncated dual coefficients plus, at prime q >= 7, a comparison
    at every (j, k) with j + k <= max_codim, in sorted order, for which
    `predicted_dual_coefficient` has a value.  The closed-form table is
    the only list of those monomials; no second list is kept here.

    Raises ConsistencyError naming the monomial on any mismatch.
    """
    _, v = _check_q(q)
    enum = quartic_code_enumerator(q)
    computed = qr_dual_coefficients(enum, q, q ** 5, max_codim)
    comparisons = []
    if v == 1 and q >= 7:
        limit = min(max_codim, _DUAL_MAX_CODIM)
        for j in range(limit + 1):
            for k in range(limit + 1 - j):
                predicted = predicted_dual_coefficient(q, j, k)
                if predicted is None:
                    continue
                got = computed.get((j, k), 0)
                comparisons.append({
                    "monomial": {"i": q + 1 - j - k, "j": j, "k": k},
                    "computed": str(got),
                    "predicted": str(predicted),
                    "match": got == predicted,
                })
                if got != predicted:
                    raise ConsistencyError(
                        "dual coefficient X^%d Y^%d Z^%d: computed %d, closed form %d"
                        % (q + 1 - j - k, j, k, got, predicted))
    return {"q": q, "max_codim": max_codim,
            "coefficients": {key: value for key, value in sorted(computed.items())},
            "comparisons": comparisons}


_CLASSICAL_WEIGHT7 = {
    1: ((-13005, 6154, -860, 120, -20, 1), False, 11),
    3: ((-405, -161, 141, -21, 1), True, 7),
}


def classical_dual_weight7_check(q: int) -> dict:
    """Compare the X^(q-7) Y^7 coefficient of the classical dual code's
    enumerator against its closed form (prime q only; q >= 11 when
    q = 1 mod 4, q >= 7 when q = 3 mod 4)."""
    if _check_q(q)[1] != 1:
        raise ValueError("closed form applies to prime q only, got %d" % q)
    coeffs, extra_qplus1, minimum = _CLASSICAL_WEIGHT7[q % 4]
    if q < minimum:
        raise ValueError("closed form needs q >= %d in this residue class" % minimum)
    enum = classical_quartic_code_enumerator(q)
    computed = qr_dual_coefficients(enum, q, q ** 5, 7).get((7, 0), 0)
    poly = _poly_at(coeffs, q)
    if extra_qplus1:
        poly *= (q + 1)
    # (q-6) q (q-1)^2 (poly / 645120 - tr / 18432), and 645120 = 35 * 18432
    predicted, remainder = divmod((q - 6) * q * (q - 1) ** 2
                                  * (poly - 35 * trace_level4(6, q)), 645120)
    if remainder:
        raise ConsistencyError("classical closed form non-integral at q=%d" % q)
    report = {"q": q, "computed": str(computed), "predicted": str(predicted),
              "match": computed == predicted}
    if not report["match"]:
        raise ConsistencyError(
            "classical dual X^%d Y^7 coefficient: computed %d, closed form %d"
            % (q - 7, computed, predicted))
    return report

