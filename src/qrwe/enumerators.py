"""Trivariate weight-enumerator algebra and MacWilliams transforms.

A quadratic-residue weight enumerator of a length-n code over F_q is the
homogeneous polynomial sum_c X^(zeros) Y^(square values) Z^(non-square
values).  It is stored sparsely as (j, k) -> coefficient with the X
degree n - j - k implied.

The MacWilliams transform for this enumerator substitutes

    X -> X + (q-1)/2 (Y + Z)
    Y -> X + aY + a*Z          a  = (-1 + s)/2
    Z -> X + a*Y + aZ          a* = (-1 - s)/2

where s generates the ring Z[s], s^2 = q for q = 1 (mod 4) and
s^2 = -q for q = 3 (mod 4).  The transform is one sparse product of
precomputed powers of the substituted forms; it clears the halves by
working with the doubled linear forms and a single 2^n denominator that
is divided out exactly at the end.  Asked only for the monomials of Y, Z
degree j + k <= max_codim, it drops every higher-degree term from the
power tables and from each partial product, since Y, Z degrees only add
up.  The uniform sign choice for s is valid only for Y/Z-symmetric
enumerators (scaling codewords by a fixed non-square is a code
automorphism exchanging the two letter classes), so asymmetric inputs
are refused.

Every output coefficient must come out s-free, integral and
nonnegative; anything else raises ConsistencyError, which in practice
means the input was not the enumerator of a linear code of the stated
size.
"""

from math import comb

from .errors import ConsistencyError


def _trinomial(n: int, a: int, b: int) -> int:
    return comb(n, a) * comb(n - a, b)


class QuadRing:
    """Z[s] with s^2 = q (q = 1 mod 4) or -q (q = 3 mod 4); elements are
    pairs (rational part, s part)."""

    def __init__(self, q: int):
        if q % 2 == 0:
            raise ValueError("q must be odd")
        self.q = q
        self.s_squared = q if q % 4 == 1 else -q

    def mul(self, x: tuple, y: tuple) -> tuple:
        a, b = x
        c, d = y
        return (a * c + b * d * self.s_squared, a * d + b * c)

    def conj(self, x: tuple) -> tuple:
        return (x[0], -x[1])

    def powers(self, base: tuple, count: int) -> list:
        out = [(1, 0)]
        for _ in range(count):
            out.append(self.mul(out[-1], base))
        return out


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

    def scaled(self, factor: int) -> "QREnumerator":
        return QREnumerator(self.n, self.q,
                            {key: factor * value for key, value in self.terms.items()})

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


def hamming_macwilliams_dual(weights: list, q: int, code_size: int) -> list:
    """Dual weight distribution via W(X + (q-1)Y, X - Y) / |C|."""
    n = len(weights) - 1
    out = [0] * (n + 1)
    for i, a_i in enumerate(weights):
        if a_i == 0:
            continue
        # (X + (q-1)Y)^(n-i) (X - Y)^i
        for u in range(n - i + 1):
            for v in range(i + 1):
                w = u + v
                out[w] += a_i * comb(n - i, u) * (q - 1) ** u * comb(i, v) * (-1) ** v
    for w, value in enumerate(out):
        if value % code_size != 0 or value < 0:
            raise ConsistencyError("dual weight A_%d = %s is not a nonnegative "
                                   "multiple of |C| = %d" % (w, value, code_size))
        out[w] = value // code_size
    return out


# ---------------------------------------------------------------------------
# Quadratic-residue MacWilliams transform
# ---------------------------------------------------------------------------

def _doubled_power_tables(q: int, limit: int, ring: QuadRing):
    """Powers of the doubled substituted forms as sparse dicts
    {(y_deg, z_deg): Z[s] pair}, keeping only y_deg + z_deg <= limit;
    the X degree is (form degree) - y - z."""
    plus = ring.powers((-1, 1), limit)    # (-1 + s)^m
    minus = ring.powers((-1, -1), limit)  # (-1 - s)^m

    def pow1(i):
        out = {}
        for u in range(min(i, limit) + 1):
            for v in range(min(i - u, limit - u) + 1):
                out[(u, v)] = (_trinomial(i, u, v) * 2 ** (i - u - v)
                               * (q - 1) ** (u + v), 0)
        return out

    def pow2(j):
        out = {}
        for a in range(min(j, limit) + 1):
            for b in range(min(j - a, limit - a) + 1):
                scale = _trinomial(j, a, b) * 2 ** (j - a - b)
                value = ring.mul(plus[a], minus[b])
                out[(a, b)] = (scale * value[0], scale * value[1])
        return out

    def pow3(k):
        out = {}
        for a in range(min(k, limit) + 1):
            for b in range(min(k - a, limit - a) + 1):
                scale = _trinomial(k, a, b) * 2 ** (k - a - b)
                value = ring.mul(minus[a], plus[b])
                out[(a, b)] = (scale * value[0], scale * value[1])
        return out

    return pow1, pow2, pow3


def _dict_mul(ring: QuadRing, f: dict, g: dict, limit: int) -> dict:
    """Product of two sparse tables, dropping Y+Z degrees above limit."""
    out = {}
    for (y1, z1), c1 in f.items():
        room = limit - y1 - z1
        for (y2, z2), c2 in g.items():
            if y2 + z2 > room:
                continue
            key = (y1 + y2, z1 + z2)
            a, b = ring.mul(c1, c2)
            if key in out:
                oa, ob = out[key]
                out[key] = (oa + a, ob + b)
            else:
                out[key] = (a, b)
    return out


def _finalize(accumulator: dict, n: int, q: int, code_size: int) -> QREnumerator:
    denominator = 2 ** n * code_size
    terms = {}
    for key, (a, b) in accumulator.items():
        if b != 0:
            raise ConsistencyError("irrational part %d survives at %s" % (b, key))
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
    ring = QuadRing(q)
    pow1, pow2, pow3 = _doubled_power_tables(q, limit, ring)
    pow1_cache, pow2_cache, pow3_cache = {}, {}, {}
    accumulator = {}
    for (j0, k0), coefficient in enum.terms.items():
        i0 = n - j0 - k0
        if i0 not in pow1_cache:
            pow1_cache[i0] = pow1(i0)
        if j0 not in pow2_cache:
            pow2_cache[j0] = pow2(j0)
        if k0 not in pow3_cache:
            pow3_cache[k0] = pow3(k0)
        product = _dict_mul(ring, pow2_cache[j0], pow3_cache[k0], limit)
        product = _dict_mul(ring, pow1_cache[i0], product, limit)
        for key, (a, b) in product.items():
            a *= coefficient
            b *= coefficient
            if key in accumulator:
                oa, ob = accumulator[key]
                accumulator[key] = (oa + a, ob + b)
            else:
                accumulator[key] = (a, b)
    return _finalize(accumulator, n, q, code_size)


def qr_dual_coefficients(enum: QREnumerator, q: int, code_size: int,
                         max_codim: int) -> dict:
    """Dual coefficients {(j, k): value} with j + k <= max_codim only."""
    return qr_macwilliams_dual(enum, q, code_size, max_codim).terms
