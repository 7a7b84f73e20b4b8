"""Trivariate weight enumerators, MDS weight distributions and the
quadratic-residue MacWilliams transform.

A quadratic-residue weight enumerator of a length-n code over F_q is the
homogeneous polynomial sum_c X^(zeros) Y^(square values) Z^(non-square
values).  It is stored sparsely as (j, k) -> coefficient with the X
degree n - j - k implied.

The MacWilliams transform for this enumerator substitutes

    X -> X + (q-1)/2 (Y + Z)
    Y -> X + aY + a*Z          a  = (-1 + s)/2
    Z -> X + a*Y + aZ          a* = (-1 - s)/2

with s^2 = q for q = 1 (mod 4) and s^2 = -q for q = 3 (mod 4).  The
uniform sign choice for s is valid only for Y/Z-symmetric enumerators
(scaling codewords by a fixed non-square is a code automorphism
exchanging the two letter classes), so asymmetric inputs are refused.

In U = Y + Z, V = Y - Z and P = 2X - U the doubled forms are
2X + (q-1)U and P +- sV.  For symmetric input the terms (j0, k0) and
(k0, j0) substitute together to (P^2 - s^2 V^2)^k0 ((P + sV)^d +
(P - sV)^d) with d = j0 - k0, in which only even powers of sV survive,
so s^2 = +-q enters as an integer and the arithmetic stays in Z.  The
coefficient of (sV)^v P^(j0+k0-v) is the binary Krawtchouk polynomial
K_v(k0; j0 + k0), the coefficient of x^v in (1 - x)^k0 (1 + x)^j0,
read off a three-term recurrence in v (MacWilliams and Sloane, *The
Theory of Error-Correcting Codes*, ch. 5).  Per X degree i0 and even V
degree v the input collapses to one integer weight w, and at X = 1 the
V^v part is the U series S_v = sum over i0 of w a^i0 b^(n - i0 - v)
with a = 2 + (q-1)U and b = 2 - U.  In U' = U/2 they are 2a' and 2b',
a' = 1 + (q-1)U' and b' = 1 - U', so the U^u V^v coefficient is
2^(n-u-v) times the U'^u one of sum w a'^i0 b'^(n - i0 - v), built by
Horner steps acc <- acc b'^gap + w a'^i0 over the i0 that occur, in
increasing order.  Each total degree m = u + v goes back to Y, Z by
Horner steps G <- G (Y - Z)^2 + c (Y + Z)^(m - v) over the even v and
is divided exactly by 2^m |C| at the end: no 2^n factor is carried.
The (U, V) degree is the (Y, Z) degree, so asked only for the monomials
of degree j + k <= max_codim, every series stops at that degree.

Every output coefficient must come out integral and nonnegative;
anything else raises ConsistencyError, which in practice means the input
was not the enumerator of a linear code of the stated size.
"""

from math import comb
from operator import mul

from .errors import ConsistencyError


class QREnumerator:
    """Sparse homogeneous trivariate enumerator of degree n."""

    def __init__(self, n: int, q: int, terms: dict):
        self.n = n
        self.q = q
        clean = {}
        for (j, k), value in terms.items():
            if value == 0:
                continue
            if j < 0 or k < 0 or j + k > n:
                raise ValueError("monomial Y^%d Z^%d out of range for degree %d" % (j, k, n))
            if value < 0 or value != int(value):
                raise ValueError("coefficient at (%d, %d) must be a nonnegative integer" % (j, k))
            clean[(j, k)] = int(value)
        self.terms = clean

    @classmethod
    def _from_checked(cls, n: int, q: int, terms: dict) -> "QREnumerator":
        """An enumerator over terms the caller has already checked: every
        key in range for degree n, every value a positive int."""
        enum = cls.__new__(cls)
        enum.n, enum.q, enum.terms = n, q, terms
        return enum

    def coeff(self, j: int, k: int) -> int:
        return self.terms.get((j, k), 0)

    def total(self) -> int:
        """Value at X = Y = Z = 1: the number of enumerated codewords."""
        return sum(self.terms.values())

    def is_yz_symmetric(self) -> bool:
        return all(self.coeff(k, j) == v for (j, k), v in self.terms.items())

    def hamming_distribution(self) -> list:
        """Collapse Y and Z: A_w = sum over j+k = w."""
        out = [0] * (self.n + 1)
        for (j, k), value in self.terms.items():
            out[j + k] += value
        return out

    def __eq__(self, other):
        return (isinstance(other, QREnumerator) and self.n == other.n
                and self.q == other.q and self.terms == other.terms)

    def __repr__(self):
        return "QREnumerator(n=%d, q=%d, %d terms, total=%d)" % (
            self.n, self.q, len(self.terms), self.total())

    def to_json_dict(self) -> dict:
        terms = []
        for (j, k) in sorted(self.terms, key=lambda jk: (jk[0] + jk[1], jk[0])):
            terms.append({"i": self.n - j - k, "j": j, "k": k,
                          "A": str(self.terms[(j, k)])})
        return {"n": self.n, "q": self.q, "terms": terms}


# ---------------------------------------------------------------------------
# Hamming enumerators
# ---------------------------------------------------------------------------

def mds_weight_distribution(n: int, dim: int, q: int) -> list:
    """Weight distribution A_0..A_n of an [n, dim] MDS code over F_q.

    A_0 = 1, A_i = 0 below the minimum distance d = n - dim + 1, and

        A_i = C(n, i) (q-1) sum_{j=0}^{i-d} (-1)^j C(i-1, j) q^(i-d-j)

    for i >= d.  The total is checked against q^dim.
    """
    if not 1 <= dim <= n:
        raise ValueError("need 1 <= dim <= n")
    if n > q + 1:
        raise ValueError("MDS codes here require n <= q + 1")
    d = n - dim + 1
    out = [0] * (n + 1)
    out[0] = 1
    for i in range(d, n + 1):
        acc = 0
        for j in range(i - d + 1):
            acc += (-1) ** j * comb(i - 1, j) * q ** (i - d - j)
        out[i] = comb(n, i) * (q - 1) * acc
    if sum(out) != q ** dim:
        raise ConsistencyError("MDS distribution total %d != q^dim = %d"
                               % (sum(out), q ** dim))
    return out


# ---------------------------------------------------------------------------
# Quadratic-residue MacWilliams transform
# ---------------------------------------------------------------------------

def _krawtchouk(k0: int, j0: int, top: int) -> list:
    """[K_0, ..., K_top] with K_v the coefficient of x^v in
    (1 - x)^k0 (1 + x)^j0: the binary Krawtchouk polynomial K_v(k0; N),
    N = j0 + k0.  From (1 - x^2) f' = (j0 - k0 - N x) f,

        (v + 1) K_(v+1) = (j0 - k0) K_v - (N - v + 1) K_(v-1),

    and the division is exact.
    """
    d, total = j0 - k0, j0 + k0
    kernels = [1, d][:top + 1]
    for v in range(1, top):
        kernels.append((d * kernels[v] - (total - v + 1) * kernels[v - 1]) // (v + 1))
    return kernels


def _pair_weights(enum: QREnumerator, q: int, limit: int) -> dict:
    """{v: {i0: w}} with the doubled substitution of the input equal to
    sum w (2X + (q-1)U)^i0 P^(n - i0 - v) V^v, for V degrees v <= limit.

    The pair (j0, k0), (k0, j0) with j0 > k0 contributes
    A (P^2 - s^2 V^2)^k0 ((P + sV)^(j0-k0) + (P - sV)^(j0-k0)), a term
    with j0 = k0 only A (P^2 - s^2 V^2)^k0.  Either way v is even and the
    V^v coefficient is s^v K_v(k0; j0 + k0), doubled for a pair.
    """
    s_sq = q if q % 4 == 1 else -q
    sums = {}  # j0 + k0 -> [sum of pair * K_v over its terms, per v]
    for (j0, k0), coefficient in enum.terms.items():
        if j0 < k0:
            continue
        pair = coefficient if j0 == k0 else 2 * coefficient
        kernels = _krawtchouk(k0, j0, min(limit, j0 + k0))
        row = sums.setdefault(j0 + k0, [0] * len(kernels))
        for v in range(0, len(kernels), 2):
            row[v] += pair * kernels[v]
    weights = {}
    for total, row in sums.items():
        for v in range(0, len(row), 2):
            if row[v]:
                weights.setdefault(v, {})[enum.n - total] = row[v] * s_sq ** (v // 2)
    return weights


def _power_series(slope: int, power: int, length: int) -> list:
    """Coefficients of (1 + slope U')^power below U'^length, zero-padded,
    each binomial stepped from the last by an exact division."""
    out, binomial, lift = [], 1, 1
    for u in range(min(power + 1, length)):
        out.append(binomial * lift)
        binomial = binomial * (power - u) // (u + 1)
        lift *= slope
    return out + [0] * (length - len(out))


def _times_b_power(acc: list, gap: int) -> list:
    """acc (1 - U')^gap, truncated to len(acc) coefficients."""
    if gap == 0:
        return acc
    if gap == 1:  # c_u <- c_u - c_(u-1)
        return [c - previous for c, previous in zip(acc, [0] + acc)]
    factor, backwards = _power_series(-1, gap, len(acc)), acc[::-1]
    return [sum(map(mul, factor[:u + 1], backwards[-1 - u:])) for u in range(len(acc))]


def _finalize(accumulator: dict, n: int, q: int, code_size: int) -> QREnumerator:
    """The dual enumerator from the accumulated numerators, keyed by (j, k)
    with m = j + k <= n: each must divide exactly by 2^m |C| and come out
    nonnegative, so the terms need no second check."""
    terms = {}
    for key, a in accumulator.items():
        denominator = code_size << (key[0] + key[1])
        value, remainder = divmod(a, denominator)
        if remainder:
            raise ConsistencyError("coefficient %d at %s not divisible by %d"
                                   % (a, key, denominator))
        if value < 0:
            raise ConsistencyError("negative dual coefficient %d at %s" % (value, key))
        if value:
            terms[key] = value
    return QREnumerator._from_checked(n, q, terms)


def qr_macwilliams_dual(enum: QREnumerator, q: int, code_size: int,
                        max_codim: int = None) -> QREnumerator:
    """Quadratic-residue MacWilliams transform of a symmetric enumerator;
    returns the dual code's enumerator (1/|C| included).

    With max_codim set, only the monomials with Y, Z degree
    j + k <= max_codim are computed and returned; None means all of them.
    q must be the enumerator's field size and code_size its total.
    """
    if q != enum.q:
        raise ValueError("enumerator is over F_%d, not F_%d" % (enum.q, q))
    if not enum.is_yz_symmetric():
        raise ValueError("transform valid only for Y/Z-symmetric enumerators")
    n = enum.n
    limit = n if max_codim is None else max_codim
    if not 0 <= limit <= n:
        raise ValueError("max_codim must lie in 0..%d, got %d" % (n, limit))
    if code_size < 1 or code_size != enum.total():
        raise ConsistencyError("code size %d is not the enumerator's total %d"
                               % (code_size, enum.total()))

    # 2^(v-n) S_v(2U') = sum over i0 of w a'^i0 b'^(n-v-i0), a' = 1 + (q-1)U',
    # b' = 1 - U', truncated at U'^(limit-v): Horner steps acc <- acc b'^gap
    # + w a'^i0 over the i0 that occur, in increasing order
    by_degree = [[0] * (m + 1) for m in range(limit + 1)]  # [u + v][v]
    for v, row in _pair_weights(enum, q, limit).items():
        acc, reached = [0] * (limit - v + 1), min(row)
        for i0 in sorted(row):
            acc, reached = _times_b_power(acc, i0 - reached), i0
            weight = row[i0]
            acc = [c + weight * a for c, a in zip(acc, _power_series(q - 1, i0, len(acc)))]
        acc = _times_b_power(acc, n - v - reached)
        for u, value in enumerate(acc):
            by_degree[u + v][v] = value
    # sum_v c_(m-v, v) (Y + Z)^(m-v) (Y - Z)^v per total degree m, v even,
    # by Horner steps G <- G (Y - Z)^2 + c (Y + Z)^(m-v); G[a] is the
    # coefficient of Y^a Z^(deg G - a) and (Y + Z)^e is Pascal's row e
    pascal = [[1]]
    for _ in range(limit):
        pascal.append([x + y for x, y in zip([0] + pascal[-1], pascal[-1] + [0])])
    accumulator = {}
    for m, coefficients in enumerate(by_degree):
        top = max((v for v, c in enumerate(coefficients) if c), default=None)
        if top is None:
            continue
        g = [coefficients[top] * x for x in pascal[m - top]]
        for v in range(top - 2, -1, -2):
            c = coefficients[v]
            g = [x - 2 * y + z + c * p
                 for x, y, z, p in zip([0, 0] + g, [0] + g + [0], g + [0, 0], pascal[m - v])]
        for a, value in enumerate(g):
            accumulator[(a, m - a)] = value
    return _finalize(accumulator, n, q, code_size)


def qr_dual_coefficients(enum: QREnumerator, q: int, code_size: int,
                         max_codim: int) -> dict:
    """Dual coefficients {(j, k): value} with j + k <= max_codim only."""
    return qr_macwilliams_dual(enum, q, code_size, max_codim).terms
