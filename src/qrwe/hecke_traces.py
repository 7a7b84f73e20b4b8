"""Eichler-Selberg trace formulas and moment formulas for curve counts.

For an odd prime power q = p^v, everything here is read off integer
power moments of class numbers over the traces t with t^2 < 4q:

    M_j(q, "all")              = sum over t of t^(2j) 6H(t^2 - 4q),
    M_j(q, "two_torsion")      = the same sum over even t,
    M_j(q, "full_two_torsion") = sum over t = q + 1 (mod 4) of
                                 t^(2j) 6H((t^2 - 4q)/4),

with H the Hurwitz class number.  The moment kernel K of weight k is
the sum against the Gegenbauer kernel P_k, a polynomial in u = t^2,

    P_k(t, q) = sum_{0 <= j < k/2} (-1)^j C(k-2-j, j) q^j u^(k/2-1-j),

so 12 K = sum_j (-1)^j C(k-2-j, j) q^j M_(k/2-1-j), summed by Horner's
rule in q over signed binomials cached per weight.

The moments are kept per q (the last _MOMENTS_MAX = 4096 q) as integer
lists for three classes of t, each built on first use and extended by
only the moments it lacks: even t and odd t of hurwitz_row(4q), and
t = q + 1 (mod 4) at t/2 of hurwitz_row(q).  "two_torsion" is the even
class, "all" the even plus the odd one, "full_two_torsion" the third.

The trace of the Hecke operator T_q on S_k(Gamma_0(N)) for N in
{1, 2, 4} is an affine function of the kernels:

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

The kernels are kept as the integers 12 K, and a trace is assembled as
the integer 12 tr.  It must be divisible by 12; a remainder raises
ConsistencyError, since it would mean the class-number bookkeeping is
broken.

The moment formulas are the weighted moments of the trace of Frobenius
over elliptic curves / F_q:

    flavor "all"               -> every isomorphism class,
    flavor "two_torsion"       -> classes with a rational 2-torsion point
                                  (even trace),
    flavor "full_two_torsion"  -> classes with all of E[2] rational.

The moment of order 2R combines the kernels at weights 2, ..., 2R+2
at q and q/p^2 by the ballot numbers b(R, j) = C(2R, j) - C(2R, j-1),
which write t^(2R) = sum_j b(R, j) q^j P_(2R-2j+2)(t, q), so it
collapses to the moments M_R at q and q/p^2 (`moment_formula`).
"""

from fractions import Fraction
from functools import lru_cache
from itertools import repeat
from math import isqrt
from operator import add, mul

from .arith import odd_prime_power_split, prime_power_split
from .errors import ConsistencyError
from .quadratic_forms import hurwitz_row

FLAVORS = ("all", "two_torsion", "full_two_torsion")

# q -> {class of t: [M_0, M_1, ...]} for the classes built so far, least
# recently used q first; a flavor sums the moments of its classes
_MOMENTS = {}
_MOMENTS_MAX = 1 << 12
_CLASSES = {"all": ("even", "odd"), "two_torsion": ("even",),
            "full_two_torsion": ("full",)}


def _power_moments(q: int, flavor: str, count: int) -> list:
    """(M_0, ..., M_(count-1)), or more, of `flavor` at odd prime power q,
    or at q = 1 (t^2 < 4: H(-4) = 1/2, H(-3) = 1/3), summed over its
    classes of t in the record of q."""
    record = _MOMENTS.pop(q, None) or {}
    _MOMENTS[q] = record
    if len(_MOMENTS) > _MOMENTS_MAX:
        del _MOMENTS[next(iter(_MOMENTS))]
    lists = [_class_moments(q, record, name, count) for name in _CLASSES[flavor]]
    return list(map(add, *lists)) if len(lists) > 1 else lists[0]


def _class_moments(q: int, record: dict, name: str, count: int) -> list:
    """The moments of class `name` at q in `record`, extended to at least
    `count`.  t > 0 stands for t and -t.  One pass raises the terms 6H to
    the last moment held, and each new moment is one C-level product of
    the last terms with the t^2; the record keeps only the moments."""
    moments = record.setdefault(name, [])
    have = len(moments)
    if have < count:
        if name == "full":
            start, step = (q + 1) % 4, 4
            terms = hurwitz_row(q)[start // 2::2]
        else:
            start, step = (1 if name == "odd" else 0), 2
            terms = hurwitz_row(4 * q)[start::2]
        traces = range(start, isqrt(4 * q - 1) + 1, step)
        squares = list(map(mul, traces, traces))
        if not have:
            # t = 0, present when start = 0, counts once and only in M_0
            moments.append(2 * sum(terms) - (terms[0] if start == 0 else 0))
            have = 1
        elif have > 1:
            terms = list(map(mul, terms, map(pow, traces, repeat(2 * have - 2))))
        for _ in range(have, count):
            terms = list(map(mul, terms, squares))
            moments.append(2 * sum(terms))
    return moments


@lru_cache(maxsize=128)
def _kernel_binomials(k: int) -> tuple:
    """The signed binomials (-1)^j C(k-2-j, j), 0 <= j < k/2, of P_k.  Each
    is the last one times (k-2j)(k-1-2j) / (j(k-1-j)), an exact division."""
    binomials, binomial = [], 1
    for j in range(k // 2):
        if j:
            binomial = binomial * (k - 2 * j) * (k - 1 - 2 * j) // (j * (k - 1 - j))
        binomials.append(-binomial if j % 2 else binomial)
    return tuple(binomials)


def min_power_sum(q: int, k: int) -> int:
    """sum over 0 <= i <= v of min(p^i, p^(v-i))^(k-1) for q = p^v, k >= 2:
    2 (1 + r + ... + r^(ceil(v/2) - 1)) + [v even] r^(v/2), r = p^(k-1).
    Raises ValueError for k < 2."""
    if k < 2:
        raise ValueError("weight must be >= 2, got %d" % k)
    p, v = prime_power_split(q)
    r = p ** (k - 1)
    total = 2 * (r ** ((v + 1) // 2) - 1) // (r - 1)
    return total + r ** (v // 2) if v % 2 == 0 else total


def _class_number_sum(k: int, q: int, flavor: str) -> int:
    """12 times the moment kernel of `flavor` at weight k and odd prime
    power q: sum_j b_j q^j M_(k/2-1-j) over P_k's signed
    binomials b_j, by Horner's rule in q from M_0 up."""
    binomials = _kernel_binomials(k)
    last = k // 2 - 1
    moments = _power_moments(q, flavor, last + 1)
    value = 0
    for j in range(last, -1, -1):
        value = value * q + binomials[j] * moments[last - j]
    return value


# level N -> (index psi(N) of Gamma_0(N), cusp count, multiple of each
# moment kernel in the trace's class part)
_LEVELS = {1: (1, 1, {"all": 1}),
           2: (3, 2, {"two_torsion": 1, "full_two_torsion": 2}),
           4: (6, 3, {"full_two_torsion": 6})}


def _compute_trace(level: int, k: int, q: int) -> int:
    psi, cusps, multiples = _LEVELS[level]
    p, v = odd_prime_power_split(q)
    # total is 12 tr: every term is an integer once multiplied by 12
    total = -sum(m * _class_number_sum(k, q, flavor) for flavor, m in multiples.items())
    if v % 2 == 0:
        total += psi * (k - 1) * q ** (k // 2 - 1)
    total -= 6 * cusps * min_power_sum(q, k)
    if k == 2:
        total += 12 * ((p ** (v + 1) - 1) // (p - 1))  # 12 sigma_1(p^v)
    value, remainder = divmod(total, 12)
    if remainder:
        raise ConsistencyError("trace (level %d, k=%d, q=%d) evaluated to non-integer %s"
                               % (level, k, q, Fraction(total, 12)))
    return value


_TRACES_MAX = 1 << 14


class TraceTable:
    """Cache of traces keyed by (level, weight, q), dumpable as CSV.  An
    insertion past _TRACES_MAX entries evicts the oldest one; a hit
    moves nothing."""

    def __init__(self):
        self.entries = {}

    def get(self, level: int, weight: int, q: int) -> int:
        key = (level, weight, q)
        value = self.entries.get(key)
        if value is None:
            if level not in _LEVELS:
                raise ValueError("level must be 1, 2 or 4, got %d" % level)
            if weight < 2 or weight % 2 != 0:
                raise ValueError("weight must be even and >= 2, got %d" % weight)
            value = self.entries[key] = _compute_trace(level, weight, q)
            if len(self.entries) > _TRACES_MAX:
                del self.entries[next(iter(self.entries))]
        return value

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

def moment_formula(q: int, R: int, flavor: str = "all") -> Fraction:
    """Closed form for the weighted 2R-th moment of the trace of
    Frobenius over isomorphism classes of elliptic curves / F_q,
    restricted by 2-torsion structure according to `flavor`.  The
    ballot combination of the kernels at q and q/p^2 collapses, as
    q^j p^(2R-2j+1) = p^(2R+1) (q/p^2)^j, to

        (M_R(q) - p^(2R+1) M_R(q/p^2) + [v even] (p-1) (4q)^R) / 12,

    where q/p^2 is 0 at v = 1 (the term vanishes), 1 at v = 2 and a
    prime power at v >= 3."""
    if R < 0:
        raise ValueError("moment order R must be >= 0")
    if flavor not in FLAVORS:
        raise ValueError("unknown flavor %r" % (flavor,))
    p, v = odd_prime_power_split(q)
    total = _power_moments(q, flavor, R + 1)[R]
    if v > 1:
        total -= p ** (2 * R + 1) * _power_moments(q // (p * p), flavor, R + 1)[R]
    if v % 2 == 0:
        total += (p - 1) * (4 * q) ** R
    return Fraction(total, 12)
