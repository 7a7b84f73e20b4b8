"""Integer q-expansions of eta products and Hecke eigenvalue recursions.

The three products used as independent references for traces on
one-dimensional cusp spaces are

    delta          = eta(z)^24          (weight 12, level 1)
    eta(2z)^12                          (weight 6, level 4)
    eta(z)^8 eta(2z)^8                  (weight 8, level 2)

Each Euler factor prod_n (1 - x^(s n)) is expanded with the pentagonal
number theorem and raised to its power by J.C.P. Miller's recurrence
for powers of a power series (Knuth, TAOCP vol. 2, 4.7), which runs
over the factor's O(sqrt(N)) nonzero coefficients only; the powered
factors are then multiplied together.  Coefficients are
arbitrary-precision integers throughout.
"""

from fractions import Fraction
from functools import lru_cache

from .arith import prime_power_split
from .errors import ConsistencyError


class QSeries:
    """A truncated integer power series sum_{n < precision} c_n x^n."""

    def __init__(self, coefficients, precision=None):
        coefficients = list(coefficients)
        if precision is None:
            precision = len(coefficients)
        if len(coefficients) < precision:
            coefficients += [0] * (precision - len(coefficients))
        self.coefficients = coefficients[:precision]
        self.precision = precision

    def coeff(self, n: int) -> int:
        if not (0 <= n < self.precision):
            raise IndexError("coefficient %d beyond precision %d" % (n, self.precision))
        return self.coefficients[n]

    def __mul__(self, other):
        prec = min(self.precision, other.precision)
        out = [0] * prec
        for i, a in enumerate(self.coefficients[:prec]):
            if a == 0:
                continue
            for j, b in enumerate(other.coefficients[:prec - i]):
                if b:
                    out[i + j] += a * b
        return QSeries(out, prec)

    def __eq__(self, other):
        return (isinstance(other, QSeries)
                and self.precision == other.precision
                and self.coefficients == other.coefficients)

    def __repr__(self):
        head = ", ".join(str(c) for c in self.coefficients[:8])
        return "QSeries([%s, ...], precision=%d)" % (head, self.precision)


def _pentagonal_series(scale: int, precision: int) -> QSeries:
    """prod_{n>=1} (1 - x^(scale*n)) by the pentagonal number theorem."""
    out = [0] * precision
    out[0] = 1
    k = 1
    while True:
        e1 = scale * k * (3 * k - 1) // 2
        e2 = scale * k * (3 * k + 1) // 2
        if e1 >= precision and e2 >= precision:
            break
        sign = -1 if k % 2 else 1
        if e1 < precision:
            out[e1] += sign
        if e2 < precision:
            out[e2] += sign
        k += 1
    return QSeries(out, precision)


def _series_power(base: QSeries, power: int) -> QSeries:
    """base^power for a base with constant term 1, by Miller's
    recurrence: the coefficients a_n of the power satisfy a_0 = 1 and
    n a_n = sum_{i >= 1} ((power + 1) i - n) g_i a_(n-i), summed over
    the nonzero g_i of the base.  For an integer base every division
    by n is exact; a remainder raises ConsistencyError."""
    if base.coeff(0) != 1:
        raise ValueError("series power needs a constant term of 1, got %s" % base.coeff(0))
    terms = [(i, g) for i, g in enumerate(base.coefficients) if i and g]
    out = [1] + [0] * (base.precision - 1)
    for n in range(1, base.precision):
        total = 0
        for i, g in terms:
            if i > n:
                break
            total += ((power + 1) * i - n) * g * out[n - i]
        out[n], remainder = divmod(total, n)
        if remainder:
            raise ConsistencyError("series power: coefficient %d is %s, not an integer"
                                   % (n, Fraction(total, n)))
    return QSeries(out, base.precision)


def eta_product(factors, precision: int) -> QSeries:
    """q-expansion of prod eta(scale*z)^power for (scale, power) pairs.

    Every power must be nonnegative, and the leading exponent
    sum(scale*power)/24 must be an integer; the result carries it as an
    explicit power of x so that coefficient indices match the classical
    normalization (e.g. the discriminant form starts at x^1).
    """
    weight24 = sum(scale * power for scale, power in factors)
    if weight24 % 24 != 0:
        raise ValueError("eta product has non-integral leading exponent %s/24" % weight24)
    lead = weight24 // 24
    if lead < 0 or lead >= precision:
        raise ValueError("leading exponent %d outside [0, precision)" % lead)
    series = QSeries([1], precision)
    for scale, power in factors:
        if scale < 1:
            raise ValueError("eta argument scale must be positive")
        if power < 0:
            raise ValueError("eta power must be nonnegative, got %d" % power)
        # the running series goes on the left: it starts as [1], and
        # __mul__ skips zero coefficients of its left operand
        series = series * _series_power(_pentagonal_series(scale, precision), power)
    shifted = [0] * lead + series.coefficients[:precision - lead]
    return QSeries(shifted, precision)


def hecke_eigenvalue_prime_power(series: QSeries, weight: int, p: int, e: int) -> int:
    """a(p^e) of a normalized eigenform from its expansion.

    Uses a(p^(m+1)) = a(p) a(p^m) - p^(weight-1) a(p^(m-1)) seeded with
    a(1) = 1 and a(p) read off the series.  Whenever p^e itself is
    within precision the recursion is checked against the directly
    expanded coefficient; a mismatch raises ConsistencyError.  A
    p < 2 or an e < 0 raises ValueError.
    """
    if p < 2 or e < 0:
        raise ValueError("a(p^e) needs p >= 2 and e >= 0, got p = %d, e = %d" % (p, e))
    if series.coefficients[:2] != [0, 1]:
        raise ValueError("series is not a normalized eigenform expansion")
    if e == 0:
        return 1
    if p >= series.precision:
        raise ValueError("precision %d too small to read a(%d)" % (series.precision, p))
    a_p = series.coeff(p)
    prev, cur = 1, a_p
    for _ in range(e - 1):
        prev, cur = cur, a_p * cur - p ** (weight - 1) * prev
    if p ** e < series.precision and series.coeff(p ** e) != cur:
        raise ConsistencyError("eigenvalue recursion disagrees with expansion at %d" % p ** e)
    return cur


# The reference forms, built lazily at module-wide default precision.
_DEFAULT_PRECISION = 210


@lru_cache(maxsize=16)
def _reference_form(factors: tuple, precision: int) -> QSeries:
    return eta_product(factors, precision)


def discriminant_form(precision: int = _DEFAULT_PRECISION) -> QSeries:
    """eta(z)^24: the normalized weight-12 level-1 eigenform."""
    return _reference_form(((1, 24),), precision)


def weight6_level4_form(precision: int = _DEFAULT_PRECISION) -> QSeries:
    """eta(2z)^12: the normalized weight-6 eigenform with level 4."""
    return _reference_form(((2, 12),), precision)


def weight8_level2_form(precision: int = _DEFAULT_PRECISION) -> QSeries:
    """eta(z)^8 eta(2z)^8: the normalized weight-8 eigenform with level 2."""
    return _reference_form(((1, 8), (2, 8)), precision)


def ramanujan_tau(q: int, precision: int = _DEFAULT_PRECISION) -> int:
    """tau(q) for a prime power q, via the eigenvalue recursion."""
    p, e = prime_power_split(q)
    return hecke_eigenvalue_prime_power(discriminant_form(precision), 12, p, e)
