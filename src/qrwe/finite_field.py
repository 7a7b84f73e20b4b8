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

Every field, prime or not, uses one representation: the exp/log tables
of the generator of smallest code and its Zech logarithms
log(1 + g^k) (Lidl and Niederreiter, *Finite Fields*), built once at
construction in O(q) products.  In a prime field (modulus x) a product
is an integer product mod p, with no polynomial arithmetic.  An
extension field finds its modulus and forms its products in F_p[x]
through the F_q polynomial helpers at the end of this module, run over
F_p; there is no second polynomial arithmetic.  Each scalar operation
is a few list lookups.  The q x q int16 numpy tables of the census
kernels (q < 2^15) are vectorized from the same tables on first use.
"""

from functools import lru_cache

from .arith import is_prime


def _digits(code: int, p: int, length: int) -> list:
    out = []
    for _ in range(length):
        out.append(code % p)
        code //= p
    return out


def _is_irreducible(f, p: int) -> bool:
    """Trial division of f over F_p by every monic polynomial of degree
    1 to deg(f)/2; a degree-1 f needs no division (and no F_p)."""
    return all(poly_mod(field(p, 1), f, _digits(code, p, d) + [1])
               for d in range(1, (len(f) - 1) // 2 + 1) for code in range(p ** d))


def _smallest_irreducible(p: int, v: int) -> tuple:
    for code in range(p ** v):
        candidate = _digits(code, p, v) + [1]
        if _is_irreducible(candidate, p):
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

    Attributes
    ----------
    generator : the element of multiplicative order q-1 with the
        smallest code; its powers index the log/antilog tables.
    """

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
            if not _is_irreducible(modulus, p):
                raise ValueError("modulus is reducible over F_%d" % p)
        self.modulus = modulus

        self._np_tables = {}
        self._build_mul_table()
        self._build_char()

    # -- representation ----------------------------------------------------

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

    # -- log/antilog tables ---------------------------------------------------

    def _mul_slow(self, a: int, b: int) -> int:
        """a * b from the definition: an integer product in a prime
        field, else a product in F_p[x] reduced by the modulus."""
        p, v = self.p, self.v
        if v == 1:
            return a * b % p
        fp = field(p, 1)
        prod = poly_mod(fp, poly_mul(fp, _digits(a, p, v), _digits(b, p, v)), self.modulus)
        return self.element(prod)

    def _build_mul_table(self):
        """Exp, log and Zech tables of the generator, in O(q) products.

        exp[k] = g^k for 0 <= k < 2(q-1), stored twice over so that
        exp[log a + log b] needs no reduction; log[x] is the discrete log
        of x != 0; zech[k] = log(1 + g^k), or -1 where 1 + g^k = 0.
        """
        q, p = self.q, self.p
        # A power of a candidate of order < q - 1 has order < q - 1 too,
        # so the walk skips every element of a subgroup already seen.
        seen = bytearray(q)
        for g in range(1, q):
            if seen[g]:
                continue
            exp = [1]
            x = g
            while x != 1:
                exp.append(x)
                x = self._mul_slow(x, g)
            if len(exp) == q - 1:
                break
            for x in exp:
                seen[x] = 1
        self.generator = g
        self._exp = exp + exp
        log = [0] * q
        for k, x in enumerate(exp):
            log[x] = k
        self._log = log
        # Adding 1 changes only the constant digit of a code.
        self._zech = [log[y] if y else -1
                      for y in (x - x % p + (x + 1) % p for x in exp)]

    # -- arithmetic ---------------------------------------------------------

    def add(self, a: int, b: int) -> int:
        if not a:
            return b
        if not b:
            return a
        log = self._log
        la = log[a]
        # a + b = g^la (1 + g^(lb - la)); zech has length q - 1, so a
        # negative lb - la indexes it modulo q - 1.
        z = self._zech[log[b] - la]
        return self._exp[la + z] if z >= 0 else 0

    def neg(self, a: int) -> int:
        return self._exp[self._log[a] + (self.q - 1) // 2] if a else 0

    def sub(self, a: int, b: int) -> int:
        return self.add(a, self.neg(b))

    def mul(self, a: int, b: int) -> int:
        if not a or not b:
            return 0
        return self._exp[self._log[a] + self._log[b]]

    def pow(self, a: int, e: int) -> int:
        if not a:
            if e < 0:
                raise ZeroDivisionError("0 is not invertible")
            return 0 if e else 1
        return self._exp[self._log[a] * e % (self.q - 1)]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("0 is not invertible")
        return self._exp[self.q - 1 - self._log[a]]

    def int_embed(self, n: int) -> int:
        """The image of the integer n in the prime subfield."""
        return n % self.p

    # -- quadratic character -------------------------------------------------

    def _build_char(self):
        # The nonzero squares are the even powers of the generator.
        self._char = [0] + [-1 if k & 1 else 1 for k in self._log[1:]]

    def quadratic_character(self, x: int) -> int:
        """0 for x = 0, +1 for a nonzero square, -1 otherwise."""
        self._check(x)
        return self._char[x]

    # -- numpy table API (census kernels) -------------------------------------

    def _table(self, name: str):
        if name not in self._np_tables:
            import numpy as np

            q, p = self.q, self.p
            if name == "char":
                arr = np.array(self._char, dtype=np.int8)
            elif name not in ("add", "mul"):
                raise KeyError(name)
            elif q >= 1 << 15:
                raise ValueError("the int16 %s table needs q < 2^15, got q=%d" % (name, q))
            elif name == "add":
                # Digit-wise addition in base p, summed into the first digit's
                # grid (no second q^2 array); uint16 holds 2(p-1) and q.
                codes = np.arange(q, dtype=np.uint16)
                for i in range(self.v):
                    digit = codes // p ** i % p
                    grid = digit[:, None] + digit[None, :]
                    grid %= p
                    if i:
                        grid *= p ** i
                        arr += grid
                    else:
                        arr = grid
                arr = arr.view(np.int16)
            else:
                # exp[log a + log b] in row blocks of about 2^16 cells, so no
                # second q^2 array of indices; uint16 holds 2(q-2).
                log = np.array(self._log, dtype=np.uint16)
                exp = np.array(self._exp, dtype=np.int16)
                arr = np.empty((q, q), dtype=np.int16)
                rows = max(1, (1 << 16) // q)
                for i in range(0, q, rows):
                    arr[i:i + rows] = exp[log[i:i + rows, None] + log[None, :]]
                arr[0, :] = 0
                arr[:, 0] = 0
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
    return [ctx.mul(ctx.int_embed(i), f[i]) for i in range(1, len(f))]


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


def poly_gcd(ctx: FieldContext, f, g) -> list:
    """Euclidean gcd with the convention gcd(f, 0) = f."""
    f, g = list(f), list(g)
    while poly_degree(g) >= 0:
        f, g = g, poly_mod(ctx, f, g)
    return f[:poly_degree(f) + 1]

