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
so s^2 = +-q enters as an integer and the arithmetic stays in Z.  Per X
degree i0 and V degree v the input collapses to one integer weight; it
multiplies the U series of (2 + (q-1)U)^i0 (2 - U)^(n - i0 - v) (at
X = 1), and U^u V^v is expanded back into Y, Z.  The halves are cleared
by a single 2^n denominator divided out exactly at the end.  The (U, V)
degree is the (Y, Z) degree, so asked only for the monomials of degree
j + k <= max_codim, every series stops at that degree.

Every output coefficient must come out integral and nonnegative;
anything else raises ConsistencyError, which in practice means the input
was not the enumerator of a linear code of the stated size.
"""

from math import comb

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

    @classmethod
    def from_json_dict(cls, data: dict) -> "QREnumerator":
        terms = {}
        for item in data["terms"]:
            terms[(int(item["j"]), int(item["k"]))] = int(item["A"])
        return cls(int(data["n"]), int(data["q"]), terms)


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

def _pair_weights(enum: QREnumerator, q: int, limit: int) -> dict:
    """{(i0, v): w} with the doubled substitution of the input equal to
    sum w (2X + (q-1)U)^i0 P^(n - i0 - v) V^v, for V degrees v <= limit.

    The pair (j0, k0), (k0, j0) with d = j0 - k0 > 0 contributes
    A (P^2 - s^2 V^2)^k0 ((P + sV)^d + (P - sV)^d), a term with j0 = k0
    only A (P^2 - s^2 V^2)^k0.  Either way v is even and the V^v
    coefficient is s^v sum_i (-1)^i C(k0, i) C(d, v - 2i), doubled for
    a pair.
    """
    s_sq = q if q % 4 == 1 else -q
    weights = {}
    for (j0, k0), coefficient in enum.terms.items():
        if j0 < k0:
            continue
        d = j0 - k0
        i0 = enum.n - j0 - k0
        pair = coefficient if d == 0 else 2 * coefficient
        for v in range(0, min(limit, j0 + k0) + 1, 2):
            kernel = sum((-1) ** i * comb(k0, i) * comb(d, v - 2 * i)
                         for i in range(min(k0, v // 2) + 1))
            if kernel:
                key = (i0, v)
                weights[key] = weights.get(key, 0) + pair * kernel * s_sq ** (v // 2)
    return weights


def _finalize(accumulator: dict, n: int, q: int, code_size: int) -> QREnumerator:
    denominator = 2 ** n * code_size
    terms = {}
    for key, a in accumulator.items():
        if a % denominator != 0:
            raise ConsistencyError("coefficient %d at %s not divisible by %d"
                                   % (a, key, denominator))
        value = a // denominator
        if value < 0:
            raise ConsistencyError("negative dual coefficient %d at %s" % (value, key))
        if value:
            terms[key] = value
    return QREnumerator(n, q, terms)


def qr_macwilliams_dual(enum: QREnumerator, q: int, code_size: int,
                        max_codim: int = None) -> QREnumerator:
    """Quadratic-residue MacWilliams transform of a symmetric enumerator;
    returns the dual code's enumerator (1/|C| included).

    With max_codim set, only the monomials with Y, Z degree
    j + k <= max_codim are computed and returned; None means all of them.
    """
    if not enum.is_yz_symmetric():
        raise ValueError("transform valid only for Y/Z-symmetric enumerators")
    n = enum.n
    limit = n if max_codim is None else max_codim
    if not 0 <= limit <= n:
        raise ValueError("max_codim must lie in 0..%d, got %d" % (n, limit))

    def series(base: int, slope: int, power: int) -> list:
        """U coefficients of (base + slope U)^power up to U^limit."""
        return [comb(power, u) * base ** (power - u) * slope ** u
                for u in range(min(power, limit) + 1)]

    # sum w (2 + (q-1)U)^i0 (2 - U)^(n-i0-v) V^v, truncated at u + v <= limit
    uv = {}
    for (i0, v), weight in _pair_weights(enum, q, limit).items():
        first = series(2, q - 1, i0)
        second = series(2, -1, n - i0 - v)
        for u in range(limit - v + 1):
            value = sum(first[a] * second[u - a]
                        for a in range(len(first)) if 0 <= u - a < len(second))
            if value:
                uv[(u, v)] = uv.get((u, v), 0) + weight * value
    # U^u V^v = (Y + Z)^u (Y - Z)^v
    accumulator = {}
    for (u, v), value in uv.items():
        for a in range(u + 1):
            for b in range(v + 1):
                key = (a + b, u - a + v - b)
                accumulator[key] = (accumulator.get(key, 0)
                                    + (-1) ** b * comb(u, a) * comb(v, b) * value)
    return _finalize(accumulator, n, q, code_size)


def qr_dual_coefficients(enum: QREnumerator, q: int, code_size: int,
                         max_codim: int) -> dict:
    """Dual coefficients {(j, k): value} with j + k <= max_codim only."""
    return qr_macwilliams_dual(enum, q, code_size, max_codim).terms
