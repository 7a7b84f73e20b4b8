"""Exact arithmetic in F_{p^v} for odd p.

Field elements are integer codes 0..q-1.  The code of an element with
coefficient vector (c_0, ..., c_{v-1}) over Z/p (c_i multiplying x^i in
the quotient ring F_p[x]/(modulus)) is sum(c_i * p^i).  Enumeration by
ascending code is therefore lexicographic on coefficient vectors read
from the highest power down, deterministic, and starts at 0.

The modulus defaults to the lexicographically smallest monic irreducible
polynomial of degree v, which makes every derived quantity reproducible
across runs and machines.  A different irreducible modulus may be passed
explicitly; weight enumerators and censuses do not depend on the choice.

Multiplication tables are precomputed for q <= 128 (census speed); for
larger q they are built lazily on first use of the numpy table API.
"""

from functools import lru_cache

from .arith import is_prime


# ---------------------------------------------------------------------------
# Polynomials over Z/p (dense coefficient lists, index = degree)
# ---------------------------------------------------------------------------

def _fp_trim(f):
    while f and f[-1] == 0:
        f.pop()
    return f


def _fp_mul(f, g, p):
    out = [0] * (len(f) + len(g) - 1) if f and g else []
    for i, a in enumerate(f):
        if a == 0:
            continue
        for j, b in enumerate(g):
            out[i + j] = (out[i + j] + a * b) % p
    return _fp_trim(out)


def _fp_mod(f, g, p):
    """Remainder of f by g (g monic-normalizable, nonzero)."""
    f = list(f)
    _fp_trim(f)
    dg = len(g) - 1
    inv_lead = pow(g[-1], p - 2, p)
    while len(f) - 1 >= dg and f:
        shift = len(f) - 1 - dg
        factor = (f[-1] * inv_lead) % p
        for i, c in enumerate(g):
            f[shift + i] = (f[shift + i] - factor * c) % p
        _fp_trim(f)
    return f


def _fp_is_irreducible(f, p):
    """Trial factorization against all monic polynomials of degree <= deg(f)/2."""
    degree = len(f) - 1
    if degree < 1:
        return False
    for d in range(1, degree // 2 + 1):
        for code in range(p ** d):
            trial = _digits(code, p, d) + [1]
            if not _fp_mod(f, trial, p):
                return False
    return True


def _digits(code: int, p: int, length: int) -> list:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return out


def _smallest_irreducible(p: int, v: int) -> tuple:
    if v == 1:
        return (0, 1)  # the polynomial x
    for code in range(p ** v):
        candidate = _digits(code, p, v) + [1]
        if _fp_is_irreducible(candidate, p):
            return tuple(candidate)
    raise AssertionError("no irreducible polynomial of degree %d over F_%d" % (v, p))


class FieldContext:
    """A realized finite field F_{p^v} with p odd.

    Parameters
    ----------
    p : odd prime characteristic.
    v : extension degree, >= 1.
    modulus : optional coefficient tuple (c_0, ..., c_v) of a monic
        irreducible degree-v polynomial over F_p; defaults to the
        lexicographically smallest one.
    """

    _TABLE_EAGER_LIMIT = 128

    def __init__(self, p: int, v: int, modulus=None):
        if p % 2 == 0:
            raise ValueError("characteristic must be odd, got p=%d" % p)
        if not is_prime(p):
            raise ValueError("characteristic must be prime, got p=%d" % p)
        if v < 1:
            raise ValueError("extension degree must be >= 1, got v=%d" % v)
        self.p = p
        self.v = v
        self.q = p ** v
        if modulus is None:
            modulus = _smallest_irreducible(p, v)
        else:
            modulus = tuple(c % p for c in modulus)
            if len(modulus) != v + 1 or modulus[-1] != 1:
                raise ValueError("modulus must be monic of degree v")
            if v > 1 and not _fp_is_irreducible(list(modulus), p):
                raise ValueError("modulus is reducible over F_%d" % p)
        self.modulus = modulus

        self._mul_table = None
        self._char = None
        self._generator = None
        self._np_tables = {}
        if v > 1 and self.q <= self._TABLE_EAGER_LIMIT:
            self._build_mul_table()

    # -- representation ----------------------------------------------------

    def coeffs(self, x: int) -> tuple:
        """Coefficient vector (c_0, ..., c_{v-1}) of the element code x."""
        self._check(x)
        return tuple(_digits(x, self.p, self.v))

    def element(self, coeffs) -> int:
        code = 0
        for c in reversed(list(coeffs)):
            code = code * self.p + (c % self.p)
        return code

    def elements(self) -> range:
        """All q element codes, ascending; the first element is 0."""
        return range(self.q)

    def _check(self, x: int) -> None:
        if not (0 <= x < self.q):
            raise ValueError("element code %r not reduced in F_%d" % (x, self.q))

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if self.v == 1:
            return (a + b) % self.p
        p = self.p
        out = 0
        shift = 1
        while a or b:
            out += ((a % p) + (b % p)) % p * shift
            a //= p
            b //= p
            shift *= p
        return out

    def neg(self, a: int) -> int:
        if self.v == 1:
            return (-a) % self.p
        p = self.p
        out = 0
        shift = 1
        while a:
            out += (-(a % p)) % p * shift
            a //= p
            shift *= p
        return out

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if self.v == 1:
            return (a * b) % self.p
        if self._mul_table is not None:
            return self._mul_table[a * self.q + b]
        return self._mul_slow(a, b)

    def _mul_slow(self, a: int, b: int) -> int:
        p = self.p
        fa = _digits(a, p, self.v)
        fb = _digits(b, p, self.v)
        prod = _fp_mod(_fp_mul(fa, fb, p), list(self.modulus), p)
        return self.element(prod + [0] * (self.v - len(prod)))

    def _build_mul_table(self):
        q = self.q
        table = [0] * (q * q)
        for a in range(q):
            for b in range(a, q):
                val = self._mul_slow(a, b)
                table[a * q + b] = val
                table[b * q + a] = val
        self._mul_table = table

    def pow(self, a: int, e: int) -> int:
        if e < 0:
            a, e = self.inv(a), -e
        result = 1
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return self.pow(a, self.q - 2)

    def scale_int(self, n: int, a: int) -> int:
        """The element n*a for an integer n (reduction through Z/p)."""
        return self.mul((n % self.p), a) if self.v > 1 else (n * a) % self.p

    def int_embed(self, n: int) -> int:
        """The image of the integer n in the prime subfield."""
        return n % self.p

    # -- quadratic character -------------------------------------------------

    def _build_char(self):
        q = self.q
        squares = set(self.mul(x, x) for x in range(q))
        exponent = (q - 1) // 2
        minus_one = self.p - 1
        char = [0] * q
        for x in range(1, q):
            power = self.pow(x, exponent)
            if power == 1:
                value = 1
            elif power == minus_one:
                value = -1
            else:
                raise AssertionError("x^((q-1)/2) outside {1,-1} at x=%d" % x)
            if (value == 1) != (x in squares):
                raise AssertionError("character disagrees with square set at x=%d" % x)
            char[x] = value
        self._char = char

    def quadratic_character(self, x: int) -> int:
        """0 for x = 0, +1 for a nonzero square, -1 otherwise."""
        self._check(x)
        if self._char is None:
            self._build_char()
        return self._char[x]

    # -- multiplicative generator --------------------------------------------

    @property
    def generator(self) -> int:
        """A cached element of multiplicative order q-1 (smallest code)."""
        if self._generator is None:
            order = self.q - 1
            prime_factors = _prime_factors(order)
            for g in range(1, self.q):
                if all(self.pow(g, order // ell) != 1 for ell in prime_factors):
                    self._generator = g
                    break
            else:
                raise AssertionError("no multiplicative generator found")
        return self._generator

    # -- numpy table API (census kernels) -------------------------------------

    def _table(self, name: str):
        if name not in self._np_tables:
            import numpy as np

            q = self.q
            if name == "add":
                if self.v == 1:
                    grid = (np.arange(q)[:, None] + np.arange(q)[None, :]) % q
                    arr = grid.astype(np.int16)
                else:
                    arr = np.fromiter(
                        (self.add(a, b) for a in range(q) for b in range(q)),
                        dtype=np.int16, count=q * q).reshape(q, q)
            elif name == "mul":
                if self.v == 1:
                    grid = (np.arange(q)[:, None] * np.arange(q)[None, :]) % q
                    arr = grid.astype(np.int16)
                else:
                    arr = np.fromiter(
                        (self.mul(a, b) for a in range(q) for b in range(q)),
                        dtype=np.int16, count=q * q).reshape(q, q)
            elif name == "char":
                arr = np.fromiter(
                    (self.quadratic_character(x) for x in range(q)),
                    dtype=np.int8, count=q)
            else:
                raise KeyError(name)
            self._np_tables[name] = arr
        return self._np_tables[name]

    @property
    def add_table(self):
        return self._table("add")

    @property
    def mul_table(self):
        return self._table("mul")

    @property
    def char_table(self):
        return self._table("char")

    def __repr__(self):
        return "FieldContext(p=%d, v=%d, modulus=%s)" % (self.p, self.v, self.modulus)


@lru_cache(maxsize=None)
def _prime_factors(n: int) -> tuple:
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


@lru_cache(maxsize=None)
def field(p: int, v: int) -> FieldContext:
    """Shared default-modulus context for F_{p^v}."""
    return FieldContext(p, v)


# ---------------------------------------------------------------------------
# Polynomials over F_q (dense coefficient lists of element codes)
# ---------------------------------------------------------------------------

def poly_degree(f) -> int:
    """Degree with deg 0 = -1 for the zero polynomial."""
    for i in range(len(f) - 1, -1, -1):
        if f[i] != 0:
            return i
    return -1


def poly_derivative(ctx: FieldContext, f) -> list:
    return [ctx.scale_int(i, f[i]) for i in range(1, len(f))]


def poly_mod(ctx: FieldContext, f, g) -> list:
    """Remainder of f by nonzero g over F_q."""
    f = list(f)
    dg = poly_degree(g)
    if dg < 0:
        raise ZeroDivisionError("polynomial division by zero")
    inv_lead = ctx.inv(g[dg])
    df = poly_degree(f)
    while df >= dg:
        factor = ctx.mul(f[df], inv_lead)
        shift = df - dg
        for i in range(dg + 1):
            f[shift + i] = ctx.sub(f[shift + i], ctx.mul(factor, g[i]))
        df = poly_degree(f)
    return f[:max(df + 1, 0)]


def poly_gcd(ctx: FieldContext, f, g) -> list:
    """Euclidean gcd with the convention gcd(f, 0) = f."""
    f, g = list(f), list(g)
    while poly_degree(g) >= 0:
        f, g = g, poly_mod(ctx, f, g)
    return f[:poly_degree(f) + 1]


def poly_eval(ctx: FieldContext, f, x: int) -> int:
    acc = 0
    for c in reversed(f):
        acc = ctx.add(ctx.mul(acc, x), c)
    return acc
