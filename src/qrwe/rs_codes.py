"""Projective and classical Reed-Solomon codes with brute-force
enumerators.

The projective code of order h evaluates every binary form of degree h
at the q+1 standard representatives (1, a) for a in field order, then
(0, 1); the classical code drops the final coordinate.  Codewords are
walked as F_q-linear combinations of the generator rows.  The scalar
reference (`_tally_scalar`) is a mixed-radix odometer whose single-row
delta updates make each visit O(n) field additions; it visits every
codeword, and the tests compare it with the vector engine.  The vector
engine splits the walk on the two highest message digits into blocks
evaluated with numpy gathers, and uses that scaling a codeword by a
nonzero square keeps its (squares, non-squares) counts while a
non-square swaps them: it walks the q+1 tops whose first nonzero digit
is 1 and the zero top, q+2 blocks instead of q^2.

Brute-force enumeration refuses politely (BudgetExceededError) when
q^dim exceeds the budget, which defaults to 10^8 and can be overridden
per call or with the QRWE_BUDGET environment variable.
"""

from dataclasses import dataclass, field as dataclass_field

from .enumerators import QREnumerator
from .errors import DEFAULT_BUDGET  # noqa: F401  (still read as rs_codes.DEFAULT_BUDGET)
from .errors import ConsistencyError, check_budget, map_units
from .finite_field import FieldContext


@dataclass
class ReedSolomonCode:
    ctx: FieldContext
    h: int
    projective: bool
    points: list = dataclass_field(repr=False, default=None)
    rows: list = dataclass_field(repr=False, default=None)

    @property
    def n(self) -> int:
        return len(self.points)

    @property
    def dim(self) -> int:
        return self.h + 1

    @property
    def size(self) -> int:
        return self.ctx.q ** self.dim


def reed_solomon_code(ctx: FieldContext, h: int, projective: bool = True) -> ReedSolomonCode:
    """Order-h Reed-Solomon code over F_q (projective length q+1 or
    classical length q); generator rows evaluate the monomial basis
    x^a y^(h-a), a = 0..h."""
    top = ctx.q if projective else ctx.q - 1  # rank h + 1 needs h + 1 <= n
    if not 0 <= h <= top:
        raise ValueError("need 0 <= h <= %d, got h=%d" % (top, h))
    points = [(1, a) for a in ctx.elements()]
    if projective:
        points.append((0, 1))
    rows = []
    for a in range(h + 1):
        row = [ctx.mul(ctx.pow(x, a), ctx.pow(y, h - a)) for (x, y) in points]
        rows.append(row)
    code = ReedSolomonCode(ctx=ctx, h=h, projective=projective,
                           points=points, rows=rows)
    if _rank(ctx, rows) != h + 1:
        raise ConsistencyError("generator matrix rank below %d" % (h + 1))
    return code


def _rank(ctx: FieldContext, rows) -> int:
    matrix = [list(row) for row in rows]
    n_cols = len(matrix[0]) if matrix else 0
    rank = 0
    for col in range(n_cols):
        pivot = None
        for r in range(rank, len(matrix)):
            if matrix[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        matrix[rank], matrix[pivot] = matrix[pivot], matrix[rank]
        inv = ctx.inv(matrix[rank][col])
        matrix[rank] = [ctx.mul(inv, x) for x in matrix[rank]]
        for r in range(len(matrix)):
            if r != rank and matrix[r][col]:
                factor = matrix[r][col]
                matrix[r] = [ctx.sub(x, ctx.mul(factor, y))
                             for x, y in zip(matrix[r], matrix[rank])]
        rank += 1
    return rank


# ---------------------------------------------------------------------------
# Brute-force enumeration
# ---------------------------------------------------------------------------

def brute_force_enumerator(code: ReedSolomonCode, budget: int = None,
                           threads: int = None) -> QREnumerator:
    """Exact enumerator of the code by visiting all q^dim codewords."""
    visits = code.size
    check_budget(visits, budget)
    enum = QREnumerator(code.n, code.ctx.q, _tally_vector(code, threads))
    if enum.total() != visits:
        raise ConsistencyError("enumerated %d codewords, expected %d"
                               % (enum.total(), visits))
    return enum


def _tally_scalar(code: ReedSolomonCode) -> dict:
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


def _tally_vector(code: ReedSolomonCode, threads: int = None) -> dict:
    import numpy as np

    ctx = code.ctx
    q, n, dim = ctx.q, code.n, code.dim
    add, chi = ctx.add_table, ctx.char_table
    letter = np.where(np.arange(q) == 0, 0,
                      np.where(chi == 1, 1, 2)).astype(np.int8)
    multiples = []
    for row in code.rows:
        row_arr = np.array(row, dtype=np.int16)
        mult = np.empty((q, n), dtype=np.int16)
        for s in range(q):
            mult[s] = ctx.mul_table[s][row_arr]
        multiples.append(mult)
    low = np.zeros((1, n), dtype=np.int16)
    for r in range(max(dim - 2, 0)):
        low = add[low[:, None, :], multiples[r][None, :, :]].reshape(-1, n)

    # Scaling a codeword by a nonzero square keeps (j, k) and scaling by
    # a non-square swaps them.  Every nonzero top is a unit multiple of
    # exactly one top whose first nonzero digit is 1, and the low
    # combinations are closed under scaling, so those tops (tally P) and
    # the zero top (tally Z) give (q-1)/2 (P + P^T) + Z.
    if dim == 1:
        tops = [(1, None), (0, None)]
    else:
        tops = [(1, s2) for s2 in range(q)] + [(0, 1), (0, 0)]

    def run_unit(top):
        s1, s2 = top
        if s2 is None:
            base = multiples[0][s1]
        else:
            base = add[multiples[dim - 2][s1], multiples[dim - 1][s2]]
        block = add[base[None, :], low]
        classes = letter[block]
        j = (classes == 1).sum(axis=1)
        k = (classes == 2).sum(axis=1)
        return np.bincount(j * (n + 1) + k, minlength=(n + 1) * (n + 1))

    parts = map_units(run_unit, tops, threads)
    tally = sum(parts[:-1]).reshape(n + 1, n + 1)
    counts = ((q - 1) // 2 * (tally + tally.T)).ravel() + parts[-1]
    out = {}
    for flat, value in enumerate(counts):
        if value:
            out[(flat // (n + 1), flat % (n + 1))] = int(value)
    return out


# ---------------------------------------------------------------------------
# Puncturing
# ---------------------------------------------------------------------------

def puncture_enumerator(enum: QREnumerator, q: int) -> QREnumerator:
    """Enumerator of the code punctured at one point, for codes whose
    automorphisms act transitively on the q+1 coordinates:

        A'_{q-j-k, j, k} = ((q+1-j-k) A_{q+1-j-k, j, k}
                            + (j+1) A_{q-j-k, j+1, k}
                            + (k+1) A_{q-j-k, j, k+1}) / (q+1).

    A fractional result means the input was not point-transitive.
    """
    if enum.n != q + 1:
        raise ValueError("expected a projective enumerator of length q+1")
    targets = set()
    for (j, k) in enum.terms:
        targets.update({(j, k), (j - 1, k), (j, k - 1)})
    terms = {}
    for (j, k) in targets:
        if j < 0 or k < 0 or j + k > q:
            continue
        numerator = ((q + 1 - j - k) * enum.coeff(j, k)
                     + (j + 1) * enum.coeff(j + 1, k)
                     + (k + 1) * enum.coeff(j, k + 1))
        if numerator % (q + 1) != 0:
            raise ConsistencyError(
                "puncturing non-integral at (%d, %d): input enumerator is "
                "not point-transitive" % (j, k))
        if numerator:
            terms[(j, k)] = numerator // (q + 1)
    return QREnumerator(q, q, terms)
