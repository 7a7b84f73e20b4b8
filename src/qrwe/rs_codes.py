"""Linear codes over F_q, the projective and classical Reed-Solomon
codes among them, with brute-force QR enumerators.

A `LinearCode` is given by independent generator rows of element codes;
its length, dimension and size follow from the rows.  The projective RS
code of order h evaluates every binary form of degree h at the q+1
standard representatives (1, a) for a in field order, then (0, 1); the
classical code drops the final coordinate.  Codewords are walked as
F_q-linear combinations of the generator rows.  The scalar reference,
with the tests in `tests/references.py`, is a mixed-radix odometer
whose single-row delta updates make each visit O(n) field additions; it
visits every codeword, and the tests compare it with the vector walk.
The vector walk goes by leading coefficient: level k holds the messages
whose first nonzero digit is c_k.  Scaling a codeword of any linear
code by a nonzero square keeps its (squares, non-squares) counts and a
non-square swaps them, so each level walks c_k = 1 alone.  In an RS
code the translation y -> y + ax permutes the points (1, s), fixes
(0, 1) and moves c_(k+1) by (h - k) a c_k, so where p does not divide
h - k the level walks c_(k+1) = 0 alone, for all q of its values.
Every other code and level walks every c_(k+1).  A level's counts come
from one call of `_form_counts`, the numpy engine that evaluates binary
forms on P^1, which both censuses in `curve_census` run too.

Brute-force enumeration charges its q^dim codewords to `check_budget`
before the walk.
"""

from collections import Counter

from .enumerators import QREnumerator
from .errors import DEFAULT_BUDGET  # noqa: F401  (still read as rs_codes.DEFAULT_BUDGET)
from .errors import ConsistencyError, check_budget
from .finite_field import FieldContext


class LinearCode:
    """The F_q-linear code spanned by `rows`: equal-length lists of
    element codes 0..q-1, linearly independent over F_q.  Anything else
    raises ValueError."""

    def __init__(self, ctx: FieldContext, rows):
        rows = [list(row) for row in rows]
        if not rows or not rows[0]:
            raise ValueError("need at least one generator row of positive length")
        if any(len(row) != len(rows[0]) for row in rows):
            raise ValueError("generator rows have unequal lengths")
        if not all(isinstance(x, int) and 0 <= x < ctx.q for row in rows for x in row):
            raise ValueError("generator entries must be element codes 0..%d" % (ctx.q - 1))
        if _rank(ctx, rows) != len(rows):
            raise ValueError("generator rows are linearly dependent")
        self.ctx, self.rows = ctx, rows

    @property
    def n(self) -> int:
        return len(self.rows[0])

    @property
    def dim(self) -> int:
        return len(self.rows)

    @property
    def size(self) -> int:
        return self.ctx.q ** self.dim

    def __repr__(self):
        return "LinearCode(%r, n=%d, dim=%d)" % (self.ctx, self.n, self.dim)


def reed_solomon_code(ctx: FieldContext, h: int, projective: bool = True) -> LinearCode:
    """Order-h Reed-Solomon code over F_q (projective length q+1 or
    classical length q); generator rows evaluate the monomial basis
    x^a y^(h-a), a = 0..h."""
    reed_solomon_dimension(ctx.q, h, projective)
    return LinearCode(ctx, _monomial_rows(ctx, h, projective))


def reed_solomon_dimension(q: int, h: int, projective: bool = True) -> int:
    """h + 1, the dimension of the order-h code over F_q; ValueError
    unless 0 <= h < n, its length (rank h + 1 needs h + 1 <= n)."""
    top = q if projective else q - 1
    if not 0 <= h <= top:
        raise ValueError("need 0 <= h <= %d, got h=%d" % (top, h))
    return h + 1


def _monomial_rows(ctx: FieldContext, h: int, projective: bool = True) -> list:
    """The rows of x^a y^(h-a), a = 0..h, at the points (1, s) for s in
    field order, then (0, 1) if projective; any h >= 0 (independent for h < n)."""
    # x^a y^(h-a) is s^(h-a) at (1, s), 0^0 = 1, and [a = 0] at (0, 1)
    q, exp, logs = ctx.q, ctx._exp, ctx._log[1:]
    powers = [[1] * q] + [[0] + [exp[e * log % (q - 1)] for log in logs]
                          for e in range(1, h + 1)]
    return [powers[h - a] + ([int(a == 0)] if projective else []) for a in range(h + 1)]


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

def brute_force_enumerator(code: LinearCode, budget: int = None,
                           threads: int = None) -> QREnumerator:
    """Exact QR enumerator of any F_q-linear code by visiting all q^dim
    codewords.  `threads` is accepted and ignored until the benchmark
    harness stops passing it (ROADMAP item 5, step 2)."""
    visits = code.size
    check_budget(visits, budget)
    enum = QREnumerator(code.n, code.ctx.q, _tally_vector(code))
    if enum.total() != visits:
        raise ConsistencyError("enumerated %d codewords, expected %d"
                               % (enum.total(), visits))
    return enum


def _tally_vector(code: LinearCode) -> dict:
    """{(squares, non-squares): codewords}, walked by leading
    coefficient.  Level k walks the messages c with c_0 = ... = c_(k-1)
    = 0 and c_k = 1 as the bases row_k + c_(k+1) row_(k+1) over the grid
    of rows k+2, ...; its tally P stands for (q-1)/2 (P + P^T), since
    scaling by a square keeps a codeword's counts and by a non-square
    swaps them.  When the rows are the monomials x^a y^(h-a) of
    `_monomial_rows` and p does not divide h - k, y -> y + ax sends the
    level's messages with c_(k+1) = 0 onto those with c_(k+1) =
    (h - k) a and permutes the coordinates, so the base row_k alone
    counts q times.  The zero codeword is tallied apart."""
    import numpy as np

    ctx, q, n, h = code.ctx, code.ctx.q, code.n, code.dim - 1
    rows = np.array(code.rows, dtype=np.int16)
    translates = code.rows == _monomial_rows(ctx, h, n == q + 1)
    tally = Counter({(0, 0): 1})
    for k in range(h + 1):
        if k < h and not (translates and (h - k) % ctx.p):
            bases, weight = ctx.add_table[rows[k], _grid(ctx, rows[k + 1:k + 2])], 1
        else:  # c_(k+1) = 0 stands for its q values, or there is no c_(k+1)
            bases, weight = rows[k:k + 1], q if k < h else 1
        zeros, squares = _form_counts(ctx, bases, rows[k + 2:])
        # (zeros, squares) of each codeword as one key, in place where int16 holds it
        keys = zeros.astype(np.int16 if (n + 1) ** 2 <= 2 ** 15 else np.int32, copy=False)
        keys *= n + 1
        keys += squares
        values, counts = np.unique(keys, return_counts=True)
        for key, c in zip(values.tolist(), counts.tolist()):
            z, s = divmod(key, n + 1)
            tally[s, n - z - s] += (q - 1) // 2 * weight * c
            tally[n - z - s, s] += (q - 1) // 2 * weight * c
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

def puncture_enumerator(enum: QREnumerator) -> QREnumerator:
    """Enumerator of the code punctured at one point, for codes whose
    automorphisms act transitively on the q+1 coordinates:

        A'_{q-j-k, j, k} = ((q+1-j-k) A_{q+1-j-k, j, k}
                            + (j+1) A_{q-j-k, j+1, k}
                            + (k+1) A_{q-j-k, j, k+1}) / (q+1).

    A fractional result means the input was not point-transitive.
    """
    q = enum.q
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
