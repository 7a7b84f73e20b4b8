"""Brute-force censuses of genus-one curves over F_q.

Two independent enumerations, used as oracles for the closed-form
weighted class counts and moment formulas:

 * `quartic_census` counts every binary quartic form over F_q, keeps
   the ones with distinct roots over the closure, and buckets them by
   trace of Frobenius of w^2 = f4(x, y) and by the number of rational
   roots of f4 (0, 1, 2 or 4).  Works in every odd characteristic,
   including 3.

 * `weierstrass_census` counts the q^2 short Weierstrass models
   y^2 = x^3 + ax + b (p >= 5 only), bucketing by trace, plus the count
   of models whose cubic splits (fully rational 2-torsion).

Both censuses are the degree-4 codeword walk plus a smoothness mask, on
`rs_codes._form_counts`, the one numpy engine for binary forms on P^1.
A work unit fixes the leading coefficients, (c4, c3, c2) for quartics
and (0, 1, 0, a) for y^2 = x^3 + ax + b as w^2 = y (x^3 + a x y^2 + b y^3),
and the engine counts the zeros z and nonzero squares s of the codeword
of each of the q^2 (or q) forms at once: points = z + 2s, roots = z.
The Weierstrass quartic's values are the cubic's times fourth powers,
plus a zero at (1 : 0), and its discriminant is the cubic's; the
universal integer discriminant of the binary quartic vanishes exactly
on forms with a repeated projective root in every odd characteristic.
Changes of variable and scalings that keep the trace, the root count
and smoothness carry one unit onto another bijectively, so each orbit
of units is evaluated once, its counts multiplied by the orbit size: 9
slabs of q^2 forms instead of q^3, O(q^3) work, for quartics, and
1 + gcd(4, q-1) units instead of q for Weierstrass models.  The tests
check a plain-Python walk of every quartic (square-freeness by a gcd)
and of every (a, b) model against the censuses, and every unit against
its representative, exhaustively at small q.

Two scalar oracles use the same idea with one model as the unit.
`j_special_census` evaluates one model y^2 = x^3 + c (x^3 + cx) per
coset of the gcd(6, q-1)-th (gcd(4, q-1)-th) powers in F_q^*, since
(x, y) -> (u^2 x, u^3 y) moves c by u^6 (u^4): at most 10 models
instead of 2(q-1).  `legendre_family_sum` evaluates one pair (a, b) per
orbit of x -> lx, which sends (a, b) to (a/l, b/l^2): p pairs
instead of (p-1)^2.  The tests compare them with their full walks,
which live with the quartic walk in `tests/references.py`.
"""

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import gcd, isqrt

from .arith import odd_prime_power_split
from .errors import ConsistencyError, check_budget
from .finite_field import FieldContext, field
from .rs_codes import _form_counts, _monomial_rows

# Universal discriminant of a x^4 + b x^3 y + c x^2 y^2 + d x y^3 + e y^4
# as (integer coefficient, exponents of (a, b, c, d, e)).
_DISC_TERMS = (
    (256, (3, 0, 0, 0, 3)),
    (-192, (2, 1, 0, 1, 2)),
    (-128, (2, 0, 2, 0, 2)),
    (144, (2, 0, 1, 2, 1)),
    (-27, (2, 0, 0, 4, 0)),
    (144, (1, 2, 1, 0, 2)),
    (-6, (1, 2, 0, 2, 1)),
    (-80, (1, 1, 2, 1, 1)),
    (18, (1, 1, 1, 3, 0)),
    (16, (1, 0, 4, 0, 1)),
    (-4, (1, 0, 3, 2, 0)),
    (-27, (0, 4, 0, 0, 2)),
    (18, (0, 3, 1, 1, 1)),
    (-4, (0, 3, 0, 3, 0)),
    (-4, (0, 2, 3, 0, 1)),
    (1, (0, 2, 2, 2, 0)),
)


@dataclass
class TraceBucket:
    by_roots: list  # model counts indexed by rational root count

    @property
    def total(self) -> int:
        return sum(self.by_roots)


@dataclass
class Census:
    """Models bucketed by trace.  The engine that builds the census sets
    the weight of one model, 1/denominator, and how many times each model
    with every root rational (the last `by_roots` slot) counts towards
    the classes with full 2-torsion."""
    q: int
    kind: str
    buckets: dict  # trace -> TraceBucket
    denominator: int
    full_multiplier: int

    def weighted_count(self, t: int) -> Fraction:
        bucket = self.buckets.get(t)
        return Fraction(bucket.total if bucket else 0, self.denominator)

    def weighted_count_full_2tors(self, t: int) -> Fraction:
        bucket = self.buckets.get(t)
        full = self.full_multiplier * bucket.by_roots[-1] if bucket else 0
        return Fraction(full, self.denominator)

    def traces(self):
        return sorted(self.buckets)


def _quartic_census_of(q: int, buckets: dict) -> Census:
    return Census(q=q, kind="quartic", buckets=buckets,
                  denominator=(q - 1) ** 2 * q * (q + 1), full_multiplier=4)


def _weighted_buckets(units, parts) -> dict:
    """Buckets from per-unit (2 bound + 1, slots) counts indexed
    [t + bound, roots], each unit's counts multiplied by its orbit weight."""
    counts = sum(weight * part for (_, weight), part in zip(units, parts))
    buckets = {}
    for t_index, row in enumerate(counts):
        if row.any():
            buckets[t_index - len(counts) // 2] = TraceBucket(by_roots=[int(x) for x in row])
    return buckets


# ---------------------------------------------------------------------------
# The quartic census
# ---------------------------------------------------------------------------

def _discriminant_grid(ctx: FieldContext, leads, rows):
    """The discriminants of the quartics whose leading coefficients
    (c4, c3, ...) are each of `leads`, all of one length, as a
    (len(leads), q^free) array, each row flat in `_grid` order over the
    free coefficients.  `rows[e]` holds x^(4-e) y^e at the points, so c^e
    at (1, c)."""
    import numpy as np

    q, width = ctx.q, len(leads[0])
    free = 5 - width
    mul, add = ctx.mul_table, ctx.add_table
    # The terms' leading parts, in scalar arithmetic, summed per lead over
    # the terms that share one monomial in the free coefficients.
    heads = {}
    for coefficient, exponents in _DISC_TERMS:
        sums = heads.setdefault(exponents[width:], [0] * len(leads))
        for i, lead in enumerate(leads):
            head = ctx.int_embed(coefficient)
            for c, e in zip(lead, exponents):
                head = ctx.mul(head, ctx.pow(c, e))
            sums[i] = ctx.add(sums[i], head)
    total = np.zeros((len(leads),) + (q,) * free, dtype=np.int16)
    for exponents, sums in heads.items():
        if not any(sums):
            continue
        term = np.array(sums, dtype=np.int16).reshape((-1,) + (1,) * free)
        for axis, e in enumerate(exponents):
            term = mul[term, rows[e, :q].reshape((q,) + (1,) * (free - 1 - axis))]
        total = add[total, term]
    return total.reshape(len(leads), -1)


def _quartic_unit_counts(ctx: FieldContext, leads) -> list:
    """Per lead, a tuple of leading coefficients (c4, c3, ...), all leads
    of one length, the counts of its smooth quartics as a (2 bound + 1, 5)
    array indexed [t + bound, roots], bound = isqrt(4q): the walk of
    their codewords, the lead's terms as the base and the free
    coefficients' monomials as the grid, masked by smoothness."""
    import numpy as np

    q, bound, width = ctx.q, isqrt(4 * ctx.q), len(leads[0])
    add, mul = ctx.add_table, ctx.mul_table
    rows = np.array(_monomial_rows(ctx, 4)[::-1], dtype=np.int16)  # rows[e]: x^(4-e) y^e
    bases = 0
    for c, row in zip(np.array(leads).T, rows):
        bases = add[bases, mul[c[:, None], row]]
    zeros, squares = _form_counts(ctx, bases, rows[width:])
    out = []
    for smooth, z, s in zip(_discriminant_grid(ctx, leads, rows) != 0, zeros, squares):
        t = q + 1 - z[smooth] - 2 * s[smooth]
        out.append(np.bincount((t + bound) * 5 + z[smooth],
                               minlength=(2 * bound + 1) * 5).reshape(-1, 5))
    return out


def census_charge(q: int, kind: str) -> int:
    """The budget charge of a `kind` census over F_q, from q alone: the
    9 q^2 (q + 1) cells a quartic census evaluates (9 units of q^2 forms
    on q + 1 points), or the q^2 Weierstrass models, which need p >= 5."""
    if kind == "quartic":
        return 9 * q ** 2 * (q + 1)
    if odd_prime_power_split(q)[0] < 5:
        raise ValueError("short Weierstrass census needs p >= 5 "
                         "(the quartic census covers p = 3)")
    return q ** 2


def quartic_census(ctx: FieldContext, threads: int = None, budget: int = None) -> Census:
    """Census of all smooth binary quartics over F_q, bucketed by trace
    t = q + 1 - #points and by rational root count, after charging its
    `census_charge` cells to `check_budget`.  `threads` is accepted and
    ignored until the benchmark harness stops passing it (ROADMAP item 5,
    step 2)."""
    q = ctx.q
    check_budget(census_charge(q, "quartic"), budget)
    # Each unit (c4, c3, c2) stands for its orbit of slabs, on which the
    # free (c1, c0) run over the q^2 grid.  x -> x + sy moves c3 by 4sc4,
    # scaling the form by a square moves c4 within its square class, and
    # y -> ly sends (c2, c1, c0) to (l^2 c2, l^3 c1, l^4 c0).  When c4 = 0,
    # y -> y/c3 makes c3 = 1, and (x, y) -> (ax, lay) with the form scaled
    # by 1/(l a^4), a square exactly when l is, sends (c2, c1, c0) to
    # (l c2, l^2 c1, l^3 c0).  All of these keep the trace, the root count
    # and smoothness, and c2 = 0 is fixed, so in both cases c2 runs over
    # 0, 1 and nu, of weights 1, (q-1)/2 and (q-1)/2.  The (0, 0) unit is
    # skipped: y^2 divides all its forms, so none is smooth.
    square_classes = _scaling_orbits(ctx, 2)
    c2_classes = [(0, 1)] + square_classes
    orbits = [((c4, 0, c2), weight * q * w) for c4, weight in square_classes
              for c2, w in c2_classes]
    orbits += [((0, 1, c2), (q - 1) * w) for c2, w in c2_classes]
    parts = _quartic_unit_counts(ctx, [unit for unit, _ in orbits])
    return _quartic_census_of(q, _weighted_buckets(orbits, parts))


# ---------------------------------------------------------------------------
# The Weierstrass census (p >= 5)
# ---------------------------------------------------------------------------

def weierstrass_census(ctx: FieldContext, threads: int = None,
                       budget: int = None) -> Census:
    """Census of the q^2 short Weierstrass models y^2 = x^3 + ax + b,
    after charging them (`census_charge`) to `check_budget`.  `threads`
    is accepted and ignored until the benchmark harness stops passing it
    (ROADMAP item 5, step 2)."""
    q = ctx.q
    check_budget(census_charge(q, "weierstrass"), budget)
    # The model is the quartic y (x^3 + a x y^2 + b y^3) of lead (0, 1, 0, a),
    # whose roots are the cubic's plus (1 : 0): its slot 0 is empty.
    # (a, b) -> (u^4 a, u^6 b) is an isomorphism that permutes the b of
    # one a.  So a = 0 is one unit, and each class of F_q^* / (F_q^*)^4
    # is one unit of its size.
    units = [(0, 1)] + _scaling_orbits(ctx, 4)
    parts = _quartic_unit_counts(ctx, [(0, 1, 0, a) for a, _ in units])
    return Census(q=q, kind="weierstrass",
                  buckets=_weighted_buckets(units, [part[:, 1:] for part in parts]),
                  denominator=q - 1, full_multiplier=1)


# ---------------------------------------------------------------------------
# Derived statistics
# ---------------------------------------------------------------------------

def empirical_moment(census, R: int, flavor: str = "all") -> Fraction:
    """Weighted 2R-th moment of the trace read off a census, weighing
    each trace by `census.weighted_count` (`weighted_count_full_2tors`
    for the full-2-torsion flavor).  The model counts are summed as
    integers and divided by the census denominator once."""
    if flavor not in ("all", "two_torsion", "full_two_torsion"):
        raise ValueError("unknown flavor %r" % (flavor,))
    if R < 0:
        raise ValueError("moment order R must be >= 0")
    buckets = census.buckets.items()
    if flavor == "full_two_torsion":
        total = census.full_multiplier * sum(t ** (2 * R) * bucket.by_roots[-1]
                                             for t, bucket in buckets)
    else:
        total = sum(t ** (2 * R) * bucket.total for t, bucket in buckets
                    if flavor == "all" or t % 2 == 0)
    return Fraction(total, census.denominator)


def _scaling_orbits(ctx: FieldContext, n: int) -> list:
    """[(c, weight)]: one c per orbit of F_q^* under c -> c u^n, i.e. per
    coset of the d-th powers, d = gcd(n, q-1), each of weight (q-1)/d.
    Each c is the smallest code of its coset (cosets are told apart by
    c^((q-1)/d)), so the list is in the order a walk over every c meets
    the cosets."""
    q = ctx.q
    d = gcd(n, q - 1)
    first = {}
    for c in range(1, q):
        first.setdefault(ctx.pow(c, (q - 1) // d), c)
        if len(first) == d:
            break
    return [(c, (q - 1) // d) for c in first.values()]


def _legendre_point_sum(chi: list, a: int, b: int) -> int:
    """S(a, b) = sum over x in F_p of chi(x(x^2 + ax + b)), p = len(chi)."""
    p = len(chi)
    return sum(chi[x * (x * x + a * x + b) % p] for x in range(p))


def legendre_family_sum(p: int, R: int) -> int:
    """sum over smooth y^2 = x(x^2 + ax + b) of (#E - (p + 1))^(2R).

    The sum runs over (a, b) in F_p^2 with b != 0 and a^2 - 4b != 0,
    i.e. exactly the pairs where the cubic has distinct roots.  This
    enumeration is itself the oracle for the closed-form expression in
    terms of the weight-(2R+2) trace on Gamma_0(4).

    #E - (p + 1) = S(a, b), and x -> lx sends (a, b) to (a/l, b/l^2)
    and S to chi(l) S, so S^(2R) is constant on each orbit.  One model
    per orbit is summed, times the orbit size: (1, b) for each b != 0
    with 1 - 4b != 0, of weight p - 1 (the orbits with a != 0), and
    (0, 1) and (0, nu), nu a non-square, of weight (p-1)/2.  That is p^2
    point evaluations, made once per p for every R
    (`_legendre_orbit_sums`); the full walk (`tests/references.py`)
    makes all p^3.  Raises ValueError for R < 0, and charges the p^2
    points to `check_budget` at every call, cached or not.
    """
    if R < 0:
        raise ValueError("moment order R must be >= 0")
    check_budget(p ** 2)
    return sum(weight * s ** (2 * R) for s, weight in _legendre_orbit_sums(p))


@lru_cache(maxsize=32)
def _legendre_orbit_sums(p: int) -> tuple:
    """((S, orbit size), ...), one pair per orbit of `legendre_family_sum`."""
    ctx = field(p, 1)
    chi = [ctx.quadratic_character(x) for x in range(p)]
    sums = [(_legendre_point_sum(chi, 1, b), p - 1) for b in range(1, p) if (1 - 4 * b) % p]
    sums += [(_legendre_point_sum(chi, 0, b), weight) for b, weight in _scaling_orbits(ctx, 2)]
    return tuple(sums)


def _j_special_model(ctx: FieldContext, label: str, c: int) -> tuple:
    """(trace, rational roots of the cubic) of y^2 = x^3 + c (j0) or
    y^2 = x^3 + cx (j1728)."""
    s = 0
    roots = 0
    for x in ctx.elements():
        if label == "j0":
            value = ctx.add(ctx.mul(ctx.mul(x, x), x), c)
        else:
            value = ctx.mul(x, ctx.add(ctx.mul(x, x), c))
        chi = ctx.quadratic_character(value)
        s += chi
        if chi == 0:
            roots += 1
    return -s, roots


def _j_special_tally(ctx: FieldContext, models) -> dict:
    """The census from `models(label)`, a list of (c, weight) pairs whose
    weights add up to q - 1 over the models y^2 = x^3 + c (j0) or
    x^3 + cx (j1728) that each pair stands for."""
    if ctx.p < 5:
        raise ValueError("special j-invariant census needs p >= 5")
    q = ctx.q
    check_budget(2 * q ** 2)
    out = {}
    for label, aut_disc in (("j0", -3), ("j1728", -4)):
        aut_order = {1: 6 if label == "j0" else 4, -1: 2}[
            ctx.quadratic_character(ctx.int_embed(aut_disc))]
        models_per_class, rem = divmod(q - 1, aut_order)
        if rem:
            raise ConsistencyError("|Aut| = %d does not divide q - 1 = %d"
                                   % (aut_order, q - 1))
        traces = {}
        for c, weight in models(label):
            t, roots = _j_special_model(ctx, label, c)
            entry = traces.setdefault(t, {"models": 0, "roots": {}})
            entry["models"] += weight
            entry["roots"][roots] = entry["roots"].get(roots, 0) + weight
        classes = {}
        for t, entry in traces.items():
            n_classes, rem = divmod(entry["models"], models_per_class)
            if rem:
                raise ConsistencyError(
                    "model count %d at trace %d is not a multiple of %d"
                    % (entry["models"], t, models_per_class))
            classes[t] = n_classes
        out[label] = {
            "aut_order": aut_order,
            "traces": traces,
            "classes": classes,
            "class_total": sum(classes.values()),
        }
    return out


def j_special_census(ctx: FieldContext) -> dict:
    """Isomorphism-class data for the special j-invariants 0 and 1728.

    Counts the q-1 models y^2 = x^3 + c (j = 0) and y^2 = x^3 + cx
    (j = 1728), bucketing by trace and by the rational root count of the
    cubic (the 2-torsion shape: 0 roots = trivial, 1 = Z/2, 3 = full).
    Class counts divide the model counts by (q-1)/|Aut|, where |Aut| is
    6 or 2 for j = 0 (depending on whether -3 is a square) and 4 or 2
    for j = 1728 (whether -4 is a square); every bucket must divide
    exactly, which the census asserts.

    (x, y) -> (u^2 x, u^3 y) carries the model of c to that of c u^6
    (j = 0) or c u^4 (j = 1728) and keeps the trace and the root count.
    So one model per coset of the gcd(6, q-1)-th (gcd(4, q-1)-th) powers
    is evaluated and counted (q-1)/d times: at most 10 models of q
    points each.  The full walk (`tests/references.py`) evaluates every
    model.
    Refuses (BudgetExceededError) when the 2q^2 element evaluations of
    the full walk exceed the budget.
    """
    return _j_special_tally(
        ctx, lambda label: _scaling_orbits(ctx, 6 if label == "j0" else 4))


# ---------------------------------------------------------------------------
# JSON dump format
# ---------------------------------------------------------------------------

def census_json(census: Census) -> dict:
    """{"q", "kind", "buckets": [{"t", "total", "by_roots"}...]} with all
    counts as decimal strings, buckets ascending in t."""
    buckets = [{"t": t,
                "total": str(census.buckets[t].total),
                "by_roots": [str(x) for x in census.buckets[t].by_roots]}
               for t in census.traces()]
    return {"q": census.q, "kind": census.kind, "buckets": buckets}
