"""Eichler-Selberg trace formulas and moment formulas for curve counts.

For an odd prime power q = p^v and even weight k, everything here comes
from three class-number sums over the traces t with t^2 < 4q:

    K_all(k, q)  = 1/2 sum P_k(t, q) H(t^2 - 4q),
    K_two(k, q)  = 1/2 sum over even t of P_k(t, q) H(t^2 - 4q),
    K_full(k, q) = 1/2 sum over t = q + 1 (mod 4) of P_k(t, q) H((t^2 - 4q)/4),

with H the Hurwitz class number and P_k the Gegenbauer kernel, a
polynomial in u = t^2:

    P_k(t, q) = sum_{0 <= j < k/2} (-1)^j C(k-2-j, j) q^j u^(k/2-1-j).

Its coefficient list is the inverse of the ballot numbers of
`kernel_expansion_coeff`, which write t^(2R) in the P_k; each sum
builds the list once and evaluates every t by Horner's rule in u.  The
K are the moment kernels of the flavors below.  The trace of the Hecke
operator T_q on S_k(Gamma_0(N)) for N in {1, 2, 4} is an affine
function of them:

    tr_N(k, q) = [v even] psi(N) (k-1)/12 q^(k/2-1) - (class part)
                 - c(N)/2 min_power_sum(q, k) + [k = 2] sigma_1(q),

    N   psi(N)   cusps c(N)   class part
    1     1          1        K_all
    2     3          2        K_two + 2 K_full
    4     6          3        6 K_full

The psi(N) term is the boundary t^2 = 4q, the cusp term the hyperbolic
part, and sigma_1(q) makes the trace 0 at k = 2, where these spaces are
trivial.  Level 2's sum over odd conductors of even-t orders is
H(D) - H(D/4) for D = t^2 - 4q, and H(D/4) = 0 for even t off the
class t = q + 1 (mod 4), which gives its class part.

The sums are kept as the integers 12 K, and a trace is assembled as
the integer 12 tr_N.  It must be divisible by 12; a remainder raises
ConsistencyError, since it would mean the class-number bookkeeping is
broken.

The moment kernels build the closed-form weighted moment sums of the
trace of Frobenius over elliptic curves / F_q:

    flavor "all"               -> every isomorphism class,
    flavor "two_torsion"       -> classes with a rational 2-torsion point
                                  (even trace),
    flavor "full_two_torsion"  -> classes with all of E[2] rational.

The moment of order 2R is a linear combination of per-weight kernels at
weights 2, 4, ..., 2R+2; the combination coefficients are the ballot
numbers C(2R,j) - C(2R,j-1).
"""

from fractions import Fraction
from functools import lru_cache
from math import comb, isqrt

from .arith import odd_prime_power_split, prime_power_split, sigma1
from .errors import ConsistencyError
from .quadratic_forms import hurwitz_row

FLAVORS = ("all", "two_torsion", "full_two_torsion")


def _kernel_coefficients(k: int, q: int) -> list:
    """P_k(t, q) as a polynomial in u = t^2, highest power first: the
    coefficient of u^(k/2-1-j) is (-1)^j C(k-2-j, j) q^j.  Each binomial
    is the last one times (k-2j)(k-1-2j) / (j(k-1-j)), an exact division."""
    coefficients, binomial = [], 1
    for j in range(k // 2):
        if j:
            binomial = binomial * (k - 2 * j) * (k - 1 - 2 * j) // (j * (k - 1 - j))
        coefficients.append(binomial * (-q) ** j)
    return coefficients


def gegenbauer_kernel(k: int, t: int, q: int) -> int:
    """P_k(t, q) = (alpha^(k-1) - beta^(k-1)) / (alpha - beta) where
    alpha, beta are the roots of X^2 - tX + q, by Horner's rule in
    u = t^2 over `_kernel_coefficients`."""
    if k < 2 or k % 2 != 0:
        raise ValueError("weight must be even and >= 2, got %d" % k)
    u = t * t
    value = 0
    for c in _kernel_coefficients(k, q):
        value = value * u + c
    return value


def min_power_sum(q: int, k: int) -> int:
    """sum over 0 <= i <= v of min(p^i, p^(v-i))^(k-1) for q = p^v."""
    p, v = prime_power_split(q)
    return sum(min(p ** i, p ** (v - i)) ** (k - 1) for i in range(v + 1))


@lru_cache(maxsize=1 << 12)
def _class_number_sum(k: int, q: int, flavor: str) -> int:
    """12 times the moment kernel of `flavor` at weight k and odd prime
    power q, or q = 1.

    The class numbers are read, as the integers 6H, off one Hurwitz
    row: H(t^2 - 4q) at |t| in `hurwitz_row(4q)`, and H((t^2 - 4q)/4)
    = H(u^2 - q) at u = |t|/2 in `hurwitz_row(q)`.  Each t evaluates
    P_k(t, q) by Horner's rule in t^2 over one coefficient list."""
    full = flavor == "full_two_torsion"
    row = hurwitz_row(q if full else 4 * q)
    start, step = ((q + 1) % 4, 4) if full else (0, 1 if flavor == "all" else 2)
    coefficients = _kernel_coefficients(k, q)
    total = 0
    for t in range(start, isqrt(4 * q - 1) + 1, step):
        u = t * t
        value = 0
        for c in coefficients:
            value = value * u + c
        # P_k(-t, q) = P_k(t, q) for even k, so t > 0 stands for t and -t
        total += (2 if t else 1) * value * row[t // 2 if full else t]
    return total


# level N -> (index psi(N) of Gamma_0(N), cusp count, multiple of each
# moment kernel in the trace's class part)
_LEVELS = {1: (1, 1, {"all": 1}),
           2: (3, 2, {"two_torsion": 1, "full_two_torsion": 2}),
           4: (6, 3, {"full_two_torsion": 6})}


def _compute_trace(level: int, k: int, q: int) -> int:
    psi, cusps, multiples = _LEVELS[level]
    _, v = odd_prime_power_split(q)
    # total is 12 tr: every term is an integer once multiplied by 12
    total = -sum(m * _class_number_sum(k, q, flavor) for flavor, m in multiples.items())
    if v % 2 == 0:
        total += psi * (k - 1) * q ** (k // 2 - 1)
    total -= 6 * cusps * min_power_sum(q, k)
    if k == 2:
        total += 12 * sigma1(q)
    value, remainder = divmod(total, 12)
    if remainder:
        raise ConsistencyError("trace (level %d, k=%d, q=%d) evaluated to non-integer %s"
                               % (level, k, q, Fraction(total, 12)))
    return value


class TraceTable:
    """Cache of traces keyed by (level, weight, q), dumpable as CSV."""

    def __init__(self):
        self.entries = {}

    def get(self, level: int, weight: int, q: int) -> int:
        key = (level, weight, q)
        if key not in self.entries:
            if level not in _LEVELS:
                raise ValueError("level must be 1, 2 or 4, got %d" % level)
            if weight < 2 or weight % 2 != 0:
                raise ValueError("weight must be even and >= 2, got %d" % weight)
            self.entries[key] = _compute_trace(level, weight, q)
        return self.entries[key]

    def to_csv(self, stream) -> None:
        stream.write("N,k,q,trace\n")
        for (level, weight, q) in sorted(self.entries):
            stream.write("%d,%d,%d,%d\n" % (level, weight, q, self.entries[(level, weight, q)]))


DEFAULT_TABLE = TraceTable()


def trace_level1(k: int, q: int) -> int:
    """Trace of T_q on S_k(SL_2(Z)); k = 2 returns 0 via the sigma_1 correction."""
    return DEFAULT_TABLE.get(1, k, q)


def trace_level2(k: int, q: int) -> int:
    """Trace of T_q on S_k(Gamma_0(2)) for odd prime powers q."""
    return DEFAULT_TABLE.get(2, k, q)


def trace_level4(k: int, q: int) -> int:
    """Trace of T_q on S_k(Gamma_0(4)) for odd prime powers q."""
    return DEFAULT_TABLE.get(4, k, q)


def trace(level: int, k: int, q: int) -> int:
    return DEFAULT_TABLE.get(level, k, q)


# ---------------------------------------------------------------------------
# Moment formulas
# ---------------------------------------------------------------------------

def kernel_expansion_coeff(R: int, j: int) -> int:
    """Ballot number C(2R, j) - C(2R, j-1): the coefficient of
    q^j P_{2R-2j+2}(t, q) in the expansion of t^(2R).  Equals 1 at j = 0
    and the R-th Catalan number at j = R."""
    if not 0 <= j <= R:
        raise ValueError("need 0 <= j <= R, got j=%d, R=%d" % (j, R))
    return comb(2 * R, j) - (comb(2 * R, j - 1) if j >= 1 else 0)


def moment_kernel(q_arg, k: int, flavor: str = "all") -> Fraction:
    """Per-weight building block of the moment formulas.

    `q_arg` is an odd prime power, or one of the two sentinels that the
    recursion in `moment_formula` produces: 1 (two steps down from p^2)
    and 0 (two steps down from p), where the kernel vanishes, as it does
    for any value below 1.  At q = 1 the kernel is the same class-number
    sum, over t^2 < 4, where H(-4) = 1/2 and H(-3) = 1/3.  A value of
    at least 1 that is not an integer raises ValueError.
    """
    if flavor not in FLAVORS:
        raise ValueError("unknown flavor %r" % (flavor,))
    if q_arg < 1:
        return Fraction(0)
    q = int(q_arg)
    if q != q_arg:
        raise ValueError("q must be an integer, got %r" % (q_arg,))
    if q != 1:
        odd_prime_power_split(q)
    return Fraction(_class_number_sum(k, q, flavor), 12)


def moment_formula(q: int, R: int, flavor: str = "all") -> Fraction:
    """Closed form for the weighted 2R-th moment of the trace of
    Frobenius over isomorphism classes of elliptic curves / F_q,
    restricted by 2-torsion structure according to `flavor`."""
    if R < 0:
        raise ValueError("moment order R must be >= 0")
    p, v = odd_prime_power_split(q)
    sub = q // (p * p)  # 1 at v = 2, and 0, where the kernel vanishes, at v = 1
    total = Fraction(0)
    for j in range(R + 1):
        k = 2 * R - 2 * j + 2
        term = moment_kernel(q, k, flavor) - p ** (k - 1) * moment_kernel(sub, k, flavor)
        total += kernel_expansion_coeff(R, j) * q ** j * term
    if v % 2 == 0:
        total += Fraction(p - 1, 12) * (4 * q) ** R
    return total
