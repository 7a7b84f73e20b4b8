"""Plain-Python references for the library's fast engines.

Each function here walks every object its engine reduces by symmetry or
vectorizes, in scalar field arithmetic, and the tests compare the two:

 * `_quartic_census_scalar(ctx)` checks `curve_census.quartic_census`:
   it visits all q^5 binary quartics, keeps the square-free ones
   (`is_squarefree_quartic`, a gcd of the dehomogenized form and its
   derivative by `poly_gcd` and `poly_derivative`), and counts points
   and roots of each (`quartic_point_count`).  The gcd test also checks
   the census's discriminant grid (`curve_census._discriminant_grid`).
 * `_legendre_family_sum_scalar(p, R)` checks
   `curve_census.legendre_family_sum`: all (p-1)^2 pairs (a, b) instead
   of one per orbit, each point sum a loop over the p points
   (`_legendre_point_sum`) instead of a numpy row of the character window.
 * `_j_special_census_scalar(ctx)` checks `curve_census.j_special_census`:
   all q - 1 models of each special j-invariant instead of one per coset.
 * `_tally_scalar(code)` checks `rs_codes.brute_force_enumerator`: a
   mixed-radix odometer over every codeword, one basis-row addition per
   step, instead of the numpy walk by leading coefficient.
 * `trial_division_split(q)` checks `arith.prime_power_split` and
   `arith.is_prime`: trial division by every d <= isqrt(q), with no
   strong test and no integer roots.
 * `odd_prime_powers_by_split(limit)` and `odd_primes_by_test(limit)`
   check `arith.odd_prime_powers` and `arith.odd_primes`: every odd
   number up to the limit split or tested on its own, with no sieve.
 * `smooth_quartic_part_fractions(q)` checks
   `qr_pipeline.smooth_quartic_part`: the same root splits of the
   isogeny weights in `Fraction` arithmetic, one rational weight per
   monomial, instead of integers in units of 1/96.
 * `lucas_kernel(k, t, q)` and `ballot(R, j)` check
   `hecke_traces._class_number_sum` and `moment_formula`: the kernel
   P_k at one t by its three-term recurrence, summed over a Hurwitz row
   instead of power moments read by Horner's rule in q, and the ballot
   numbers that write t^(2R) in the P_k, which combine the kernels into
   a moment instead of collapsing it to the power moments.
 * `weighted_count_by_cases(q, t)` and
   `weighted_count_full_2tors_by_cases(q, t)` check
   `isogeny_counts.isogeny_profile` and the two counts that read it:
   the case analysis at one t, with the class number read off a Hurwitz
   row at the t prime to p, instead of one pass over the rows.
 * `qr_enumerator_from_json(data)` inverts
   `enumerators.QREnumerator.to_json_dict`, for the round-trip test.
 * `mul_slow(ctx, a, b)` checks `finite_field.FieldContext`'s walk of
   the generator's powers through the linear map of multiplication: a
   product in F_p[x] reduced by the modulus, by `poly_mul` and
   `poly_mod` over the context of F_p.  The square-free test runs the
   same polynomial helpers over F_q.

None of them is read by the library; they live here so that `src/`
holds only code the library runs.
"""

from fractions import Fraction
from math import comb, isqrt

from qrwe.arith import is_prime, odd_prime_power_split, prime_power_split
from qrwe.curve_census import Census, TraceBucket, _j_special_tally, _quartic_census_of
from qrwe.enumerators import QREnumerator
from qrwe.errors import ConsistencyError
from qrwe.finite_field import FieldContext, _digits, field
from qrwe.isogeny_counts import isogeny_profile
from qrwe.quadratic_forms import hurwitz_row, kronecker
from qrwe.rs_codes import LinearCode

# ---------------------------------------------------------------------------
# Polynomials over F_q (dense coefficient lists of element codes)
# ---------------------------------------------------------------------------

def poly_degree(f) -> int:
    """Degree with deg 0 = -1 for the zero polynomial."""
    for i in range(len(f) - 1, -1, -1):
        if f[i] != 0:
            return i
    return -1


def poly_mul(ctx: FieldContext, f, g) -> list:
    """Product of f and g over F_q."""
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a:
            for j, b in enumerate(g):
                out[i + j] = ctx.add(out[i + j], ctx.mul(a, b))
    return out


def poly_mod(ctx: FieldContext, f, g) -> list:
    """Remainder of f by nonzero g over F_q."""
    f = list(f)
    dg = poly_degree(g)
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = ctx.inv(g[dg])
    # Clear f's coefficients from the top down to degree dg.
    for df in range(len(f) - 1, dg - 1, -1):
        factor = ctx.neg(ctx.mul(f[df], inv_lead))
        if factor:
            shift = df - dg
            for i in range(dg + 1):
                f[shift + i] = ctx.add(f[shift + i], ctx.mul(factor, g[i]))
    return f[:poly_degree(f[:dg]) + 1]


def mul_slow(ctx: FieldContext, a: int, b: int) -> int:
    """a * b from the definition: an integer product in a prime field,
    else a product in F_p[x], over the context of F_p, reduced by the
    modulus."""
    p, v = ctx.p, ctx.v
    if v == 1:
        return a * b % p
    fp = field(p, 1)
    prod = poly_mod(fp, poly_mul(fp, _digits(a, p, v), _digits(b, p, v)), ctx.modulus)
    return sum(c * p ** i for i, c in enumerate(prod))


def poly_derivative(ctx: FieldContext, f) -> list:
    return [ctx.mul(ctx.int_embed(i), f[i]) for i in range(1, len(f))]


def poly_gcd(ctx: FieldContext, f, g) -> list:
    """Euclidean gcd with the convention gcd(f, 0) = f."""
    f, g = list(f), list(g)
    while poly_degree(g) >= 0:
        f, g = g, poly_mod(ctx, f, g)
    return f[:poly_degree(f) + 1]


# ---------------------------------------------------------------------------
# The quartic census
# ---------------------------------------------------------------------------

def quartic_point_count(ctx: FieldContext, coeffs) -> tuple:
    """(points, rational_roots) of w^2 = f4(x, y) over P^1(F_q).

    `coeffs` are (c4, c3, c2, c1, c0) with f4 = c4 x^4 + ... + c0 y^4.
    Each of the q+1 standard representatives (1, a), (0, 1) contributes
    1 point if f4 vanishes there, 2 if the value is a nonzero square,
    and 0 otherwise.  Applies to any nonzero quartic, smooth or not.
    """
    c4, c3, c2, c1, c0 = coeffs
    if not any(coeffs):
        raise ValueError("zero polynomial has no associated curve")
    points = 0
    roots = 0
    for a in ctx.elements():
        value = c0
        for c in (c1, c2, c3, c4):
            value = ctx.add(ctx.mul(value, a), c)
        chi = ctx.quadratic_character(value)
        if chi == 0:
            points += 1
            roots += 1
        elif chi == 1:
            points += 2
    chi = ctx.quadratic_character(c0)
    if chi == 0:
        points += 1
        roots += 1
    elif chi == 1:
        points += 2
    return points, roots


def is_squarefree_quartic(ctx: FieldContext, coeffs) -> bool:
    """True iff the binary quartic has 4 distinct roots over the closure.

    Dehomogenize to g(x) = f4(x, 1); the form is squarefree iff
    gcd(g, g') is a nonzero constant (with gcd(g, 0) = g, which settles
    the vanishing-derivative cases in characteristic 3) and the root at
    (1 : 0) is not repeated, i.e. not both leading coefficients vanish.
    """
    c4, c3, c2, c1, c0 = coeffs
    if c4 == 0 and c3 == 0:
        return False
    g = [c0, c1, c2, c3, c4]
    gcd = poly_gcd(ctx, g, poly_derivative(ctx, g))
    return poly_degree(gcd) == 0


def _quartic_census_scalar(ctx: FieldContext) -> Census:
    q = ctx.q
    buckets = {}
    rng = range(q)
    for c4 in rng:
        for c3 in rng:
            for c2 in rng:
                for c1 in rng:
                    for c0 in rng:
                        coeffs = (c4, c3, c2, c1, c0)
                        if not any(coeffs):
                            continue
                        if not is_squarefree_quartic(ctx, coeffs):
                            continue
                        points, roots = quartic_point_count(ctx, coeffs)
                        t = q + 1 - points
                        bucket = buckets.setdefault(t, TraceBucket(by_roots=[0] * 5))
                        bucket.by_roots[roots] += 1
    return _quartic_census_of(q, buckets)


# ---------------------------------------------------------------------------
# The two scalar oracles' full walks
# ---------------------------------------------------------------------------

def _legendre_point_sum(chi: list, a: int, b: int) -> int:
    """S(a, b) = sum over x in F_p of chi(x(x^2 + ax + b)), p = len(chi)."""
    p = len(chi)
    return sum(chi[x * (x * x + a * x + b) % p] for x in range(p))


def _legendre_family_sum_scalar(p: int, R: int) -> int:
    chi = [field(p, 1).quadratic_character(x) for x in range(p)]
    return sum(_legendre_point_sum(chi, a, b) ** (2 * R)
               for a in range(p) for b in range(1, p) if (a * a - 4 * b) % p)


def _j_special_census_scalar(ctx: FieldContext) -> dict:
    return _j_special_tally(ctx, lambda label: [(c, 1) for c in range(1, ctx.q)])


# ---------------------------------------------------------------------------
# Codeword walks
# ---------------------------------------------------------------------------

def _tally_scalar(code: LinearCode) -> dict:
    # Mixed-radix odometer over the F_p message digits: the F_p-basis of
    # the code is {x^m row_d}, and stepping one digit is a single basis-row
    # addition (p repeats of any row cancel, so wraps need no special case).
    ctx = code.ctx
    q, n, p = ctx.q, code.n, ctx.p
    basis_rows = []
    for row in code.rows:
        for m in range(ctx.v):
            beta_m = p ** m  # the element code of x^m
            basis_rows.append([ctx.mul(beta_m, entry) for entry in row])
    chi = [ctx.quadratic_character(x) for x in range(q)]
    add = ctx.add
    counts = {}
    word = [0] * n
    digits = [0] * len(basis_rows)
    while True:
        j = k = 0
        for x in word:
            c = chi[x]
            if c == 1:
                j += 1
            elif c == -1:
                k += 1
        key = (j, k)
        counts[key] = counts.get(key, 0) + 1
        d = 0
        while d < len(basis_rows):
            row = basis_rows[d]
            for i in range(n):
                word[i] = add(word[i], row[i])
            digits[d] += 1
            if digits[d] < p:
                break
            digits[d] = 0
            d += 1
        if d == len(basis_rows):
            break
    return counts


# ---------------------------------------------------------------------------
# Prime powers
# ---------------------------------------------------------------------------

def trial_division_split(q: int):
    """(p, v) with q = p^v for q >= 2, or None if q is not a prime power:
    p is the first d <= isqrt(q) that divides q, else q itself."""
    p = next((d for d in range(2, isqrt(q) + 1) if q % d == 0), q)
    v = 0
    while q % p == 0:
        q //= p
        v += 1
    return (p, v) if q == 1 else None


def odd_prime_powers_by_split(limit: int) -> list:
    powers = []
    for q in range(3, limit + 1, 2):
        try:
            prime_power_split(q)
        except ValueError:
            continue
        powers.append(q)
    return powers


def odd_primes_by_test(limit: int) -> list:
    return [p for p in range(3, limit + 1, 2) if is_prime(p)]


# ---------------------------------------------------------------------------
# The smooth quartic part of the degree-4 enumerator
# ---------------------------------------------------------------------------

def smooth_quartic_part_fractions(q: int) -> QREnumerator:
    """Enumerator contribution of the quartics with distinct roots, with
    the isogeny weights and their root splits kept as Fractions."""
    factor = (q - 1) ** 2 * q * (q + 1)
    weights = {}

    def bump(j, k, weight):
        if weight:
            weights[(j, k)] = weights.get((j, k), Fraction(0)) + weight

    for t, (n_all, n_full) in isogeny_profile(q).table.items():
        if t % 2 != 0:
            bump((q - t) // 2, (q + t) // 2, n_all)
            continue
        n_single = n_all - n_full
        bump((q - 1 - t) // 2, (q - 1 + t) // 2, n_single / 2)   # 2 roots
        bump((q + 1 - t) // 2, (q + 1 + t) // 2,
             n_single / 2 + 3 * n_full / 4)                       # 0 roots
        bump((q - 3 - t) // 2, (q - 3 + t) // 2, n_full / 4)      # 4 roots
    terms = {}
    for (j, k), weight in weights.items():
        scaled = weight * factor
        if scaled.denominator != 1:
            raise ConsistencyError("non-integral count %s at (%d, %d)"
                                   % (scaled, j, k))
        if scaled:
            terms[(j, k)] = scaled.numerator
    return QREnumerator(q + 1, q, terms)


def lucas_kernel(k: int, t: int, q: int) -> int:
    """P_k(t, q) = (alpha^(k-1) - beta^(k-1)) / (alpha - beta), alpha and
    beta the roots of X^2 - tX + q: u_1 = 1, u_2 = t,
    u_m = t u_(m-1) - q u_(m-2)."""
    prev, cur = 0, 1
    for _ in range(k - 2):
        prev, cur = cur, t * cur - q * prev
    return cur


def ballot(R: int, j: int) -> int:
    """C(2R, j) - C(2R, j-1), 0 <= j <= R: the coefficient of
    q^j P_(2R-2j+2)(t, q) in t^(2R).  1 at j = 0 and the R-th Catalan
    number at j = R."""
    return comb(2 * R, j) - (comb(2 * R, j - 1) if j else 0)


# ---------------------------------------------------------------------------
# The weighted isogeny counts, one t at a time
# ---------------------------------------------------------------------------

def _half_hurwitz(m: int, t: int) -> Fraction:
    """H(t^2 - m) / 2 for t^2 < m, read off the Hurwitz row."""
    return Fraction(hurwitz_row(m)[abs(t)], 12)


def weighted_count_by_cases(q: int, t: int) -> Fraction:
    """Classes with trace t over F_q, weighted by 1/|Aut|: the boundary
    cases t = 0, t^2 = q, 3q, 4q first, then the t prime to p."""
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


def weighted_count_full_2tors_by_cases(q: int, t: int) -> Fraction:
    """Classes with trace t and fully rational 2-torsion, weighted."""
    p, _ = odd_prime_power_split(q)
    if t % 2 or t * t > 4 * q:
        return Fraction(0)  # an odd trace never has full 2-torsion
    if t * t == 4 * q:
        return weighted_count_by_cases(q, t)
    if t == 0:
        if q % 4 == 1:
            return Fraction(0)
        return _half_hurwitz(p, 0)
    if t * t in (q, 2 * q, 3 * q):
        return Fraction(0)
    if t % p != 0 and t % 4 == (q + 1) % 4:
        return _half_hurwitz(q, t // 2)
    return Fraction(0)


# ---------------------------------------------------------------------------
# The enumerator JSON format
# ---------------------------------------------------------------------------

def qr_enumerator_from_json(data: dict) -> QREnumerator:
    """The enumerator `QREnumerator.to_json_dict` wrote."""
    terms = {}
    for item in data["terms"]:
        terms[(int(item["j"]), int(item["k"]))] = int(item["A"])
    return QREnumerator(int(data["n"]), int(data["q"]), terms)
