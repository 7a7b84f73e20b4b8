"""Projective and classical Reed-Solomon codes with brute-force
enumerators.

The projective code of order h evaluates every binary form of degree h
at the q+1 standard representatives (1, a) for a in field order, then
(0, 1); the classical code drops the final coordinate.  Codewords are
walked as F_q-linear combinations of the generator rows.  The scalar
reference (`_tally_scalar`) is a mixed-radix odometer whose single-row
delta updates make each visit O(n) field additions; it visits every
codeword, and the tests compare it with the vector walk.  The vector
walk uses that scaling a codeword by a nonzero square keeps its
(squares, non-squares) counts while a non-square swaps them: it takes
the q+1 tops (two highest message digits) whose first nonzero digit is
1 and the zero top, q+2 instead of q^2, into one tally.  Their counts
come from `_form_counts`, the one numpy engine that evaluates binary
forms on P^1, which both censuses in `curve_census` run too.

Brute-force enumeration refuses politely (BudgetExceededError) when
q^dim exceeds the budget, which defaults to 10^8 and can be overridden
per call or with the QRWE_BUDGET environment variable.
"""

from collections import Counter
from dataclasses import dataclass, field as dataclass_field

from .enumerators import QREnumerator
from .errors import DEFAULT_BUDGET  # noqa: F401  (still read as rs_codes.DEFAULT_BUDGET)
from .errors import ConsistencyError, check_budget
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
    points, rows = _monomial_rows(ctx, h, projective)
    code = ReedSolomonCode(ctx=ctx, h=h, projective=projective,
                           points=points, rows=rows)
    if _rank(ctx, rows) != h + 1:
        raise ConsistencyError("generator matrix rank below %d" % (h + 1))
    return code


def _monomial_rows(ctx: FieldContext, h: int, projective: bool = True) -> tuple:
    """(points, rows): the points (1, a), then (0, 1) if projective, and the
    rows of x^a y^(h-a), a = 0..h, at them; any h >= 0 (independent for h < n)."""
    points = [(1, a) for a in ctx.elements()]
    if projective:
        points.append((0, 1))
    # x^a y^(h-a) is s^(h-a) at (1, s) and [a = 0] at (0, 1)
    powers = [[1] * ctx.q]
    for _ in range(h):
        powers.append(list(map(ctx.mul, powers[-1], ctx.elements())))
    rows = [powers[h - a] + ([int(a == 0)] if projective else []) for a in range(h + 1)]
    return points, rows


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
    """Exact enumerator of the code by visiting all q^dim codewords.
    `threads` is accepted and ignored until the benchmark harness stops
    passing it (ROADMAP item 5, step 2)."""
    visits = code.size
    check_budget(visits, budget)
    enum = QREnumerator(code.n, code.ctx.q, _tally_vector(code))
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


def _tally_vector(code: ReedSolomonCode) -> dict:
    import numpy as np

    ctx, q, n = code.ctx, code.ctx.q, code.n
    rows = np.array(code.rows, dtype=np.int16)
    # Scaling a codeword by a nonzero square keeps (j, k) and scaling by
    # a non-square swaps them.  Every nonzero top is a unit multiple of
    # exactly one top whose first nonzero digit is 1, and the low
    # combinations are closed under scaling, so those tops (tally P) and
    # the zero top (tally Z) give (q-1)/2 (P + P^T) + Z.  The tops are
    # (1, s) for every s, (0, 1) and (0, 0); at dim 1, (1,) and (0,).
    ones = [ctx.add_table[rows[-2], _grid(ctx, rows[-1:])]] if code.dim > 1 else []
    tops = np.concatenate(ones + [rows[-1:], np.zeros((1, n), dtype=np.int16)])
    zeros, squares = _form_counts(ctx, tops, rows[:-2])
    # (zeros, squares) of each codeword as one key, in place where int16 holds it
    keys = zeros.astype(np.int16 if (n + 1) ** 2 <= 2 ** 15 else np.int32, copy=False)
    keys *= n + 1
    keys += squares

    def histogram(block):  # {(j, k): codewords} over a block of keys
        values, counts = np.unique(block, return_counts=True)
        return {(s, n - z - s): c for (z, s), c in
                zip((divmod(v, n + 1) for v in values.tolist()), counts.tolist())}

    tally = Counter(histogram(keys[-1]))
    for (j, k), c in histogram(keys[:-1]).items():
        tally[j, k] += (q - 1) // 2 * c
        tally[k, j] += (q - 1) // 2 * c
    return dict(sorted(tally.items()))


def _grid(ctx: FieldContext, rows):
    """(q^m, n) element codes of every F_q-combination of the m rows of
    `rows` (an (m, n) int16 array), the first row's coefficient slowest."""
    import numpy as np

    grid = np.zeros((1, rows.shape[1]), dtype=np.int16)
    for row in rows:  # the tables are read only when there is a row
        multiples = ctx.mul_table[:, row]
        grid = ctx.add_table[grid[:, None, :], multiples[None, :, :]].reshape(-1, rows.shape[1])
    return grid


def _form_counts(ctx: FieldContext, bases, grid_rows) -> tuple:
    """(zeros, squares): two (T, C) int16 arrays counting, for each of
    the T bases (a (T, n) array of element codes) and each g of the
    C = q^m combinations of the (m, n) `grid_rows` in `_grid` order, the
    points where base + g vanishes and where it is a nonzero square.
    Counts accumulate over blocks of points, one gather of characters per
    block and part of the bases."""
    import numpy as np

    q, (count, n) = ctx.q, bases.shape
    chi = ctx.char_table[ctx.add_table].ravel()  # the character of each of the q^2 sums
    zeros = np.zeros((count, q ** len(grid_rows)), dtype=np.int16)
    squares = np.zeros_like(zeros)
    # parts of at most 2^14 cells (unless one base has more) bound the gathers
    parts = min(count, max(1, zeros.size >> 14))
    parts = [slice(count * i // parts, count * (i + 1) // parts) for i in range(parts)]
    # the grid's values at a block of points (about 2^16 cells) are built once for all
    # parts, and each gather reads one part at as many points as fit in about 2^14 cells
    step = max(1, (1 << 16) // zeros.shape[1])
    block = max(1, (1 << 14) // (-(-count // len(parts)) * zeros.shape[1]))
    for start in range(0, n, step):
        columns = _grid(ctx, grid_rows[:, start:start + step]).T  # (points, C)
        for part in parts:  # base + g at the block's points, flat in (q, q)
            part_bases = bases[part, start:start + step]
            for i in range(0, len(columns), block):
                values = np.take(chi, part_bases[:, i:i + block, None].astype(np.intp) * q
                                 + columns[i:i + block])  # the sums die with the call
                for counts, value in ((zeros, 0), (squares, 1)):
                    hits = values == value  # a sum over one point costs more than the add
                    counts[part] += hits.sum(axis=1, dtype=np.int16) if block > 1 else hits[:, 0]
            del values, hits  # before the next part's first gather
    return zeros, squares


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
