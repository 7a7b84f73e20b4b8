"""The benchmark workloads: their operations and the checks on them.

Each workload is a function taking a `Rep`.  It calls the library only
through attribute lookups on `qrwe` and its submodules at call time, so
the tracer's wrappers (see tracer.py) see every call.

The seed picks a few primes from narrow bands (`BANDS`); the first
entry of each band is the seed-0 default.  Fields whose structure
matters (extension fields, the RS walk's field) are fixed.

The inputs are small enough that one repetition takes 1-3 s, so a run
holds a dozen or more of them and its medians are steady on a shared
host.  The `*-baseline` entries run the ROADMAP Baseline sizes once per
traced run (see run.py); they are checked like every other op.
"""

import contextlib
import hashlib
import io
import json
import time
from fractions import Fraction

import qrwe
import qrwe.arith
import qrwe.cli
import qrwe.eta_products

BANDS = {
    "weierstrass_p": (251, 241, 257, 263, 269),
    "hecke_p": (16411, 16417, 16421, 16427, 16433),
    "dual_p": (131, 127, 137, 139),
}

FLAVORS = ("all", "two_torsion", "full_two_torsion")


def pick(band: str, seed: int) -> int:
    values = BANDS[band]
    return values[seed % len(values)]


def canonical_digest(obj) -> str:
    if not isinstance(obj, str):
        obj = json.dumps(obj, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(obj.encode()).hexdigest()


def reference_kernel():
    """A fixed piece of pure-Python work of the kind the library does
    (small-integer arithmetic, a dict, Fractions).  Its time measures how
    fast the shared host runs Python at that moment."""
    counts = {}
    total = 0
    for i in range(60000):
        total += (i * i) % 7
        counts[i % 97] = counts.get(i % 97, 0) + i
    harmonic = Fraction(0)
    for i in range(1, 400):
        harmonic += Fraction(1, i)
    return total, harmonic


class Rep:
    """One repetition of a workload: runs ops and records each one.
    Before each op it times `reference_kernel` (`ref_s`, `ref_cpu_s`,
    `ref_calls`), so the host's speed is sampled across the repetition."""

    def __init__(self, seed: int, threads: int):
        self.seed = seed
        self.threads = threads
        self.ops = []
        self.ref_s = self.ref_cpu_s = 0.0
        self.ref_calls = 0

    def op(self, key, compute, canonical=None, check=None):
        """Run `compute`, then `check(value)` (a list of problems) and
        digest `canonical(value)`.  Returns the value, or None if the op
        raised."""
        cpu_start, start = time.process_time(), time.perf_counter()
        reference_kernel()
        self.ref_s += time.perf_counter() - start
        self.ref_cpu_s += time.process_time() - cpu_start
        self.ref_calls += 1
        record = {"key": key, "problems": []}
        self.ops.append(record)
        start = time.perf_counter()
        try:
            value = compute()
            record["compute_s"] = time.perf_counter() - start
            if check is not None:
                record["problems"] = list(check(value))
            if canonical is not None:
                record["digest"] = canonical_digest(canonical(value))
        except Exception as exc:  # every failure is counted, none stops the rep
            record.setdefault("compute_s", time.perf_counter() - start)
            record["problems"] = ["%s: %s" % (type(exc).__name__, exc)]
            return None
        return value


# ---------------------------------------------------------------------------
# Shared checks
# ---------------------------------------------------------------------------

def census_problems(census, q: int):
    """The census against the closed forms: weighted counts at every t
    and the moments of every flavor for R <= 5."""
    bound = int((4 * q) ** 0.5) + 2
    for t in range(-bound, bound + 1):
        if census.weighted_count(t) != qrwe.weighted_count(q, t):
            yield "weighted count differs at q=%d, t=%d" % (q, t)
        if census.weighted_count_full_2tors(t) != qrwe.weighted_count_full_2tors(q, t):
            yield "full 2-torsion count differs at q=%d, t=%d" % (q, t)
    for flavor in FLAVORS:
        for R in range(6):
            if qrwe.empirical_moment(census, R, flavor) != qrwe.moment_formula(q, R, flavor):
                yield "moment R=%d (%s) differs at q=%d" % (R, flavor, q)


def enumerator_json(enum):
    return enum.to_json_dict()


def dual_problems(dual, n: int, q: int):
    """A dual of an MDS code is MDS: its Hamming collapse is known."""
    if not dual.is_yz_symmetric():
        yield "dual not Y/Z-symmetric at q=%d" % q
    if dual.hamming_distribution() != qrwe.mds_weight_distribution(n, n - 5, q):
        yield "dual Hamming distribution is not MDS at q=%d" % q


# ---------------------------------------------------------------------------
# oracles
# ---------------------------------------------------------------------------

def quartic_op(rep: Rep, p: int, v: int):
    q = p ** v
    rep.op("quartic_census q=%d" % q,
           lambda: qrwe.quartic_census(qrwe.field(p, v), threads=rep.threads),
           qrwe.census_json, lambda c: census_problems(c, q))


def walk_op(rep: Rep, p: int, v: int, h: int, expected):
    """Walk the order-h projective RS code over F_{p^v}; its enumerator
    must equal `expected()` and have the MDS Hamming distribution."""
    q = p ** v

    def walk_problems(enum):
        if enum != expected():
            yield "RS walk differs from the MacWilliams dual of its dual code"
        if enum.hamming_distribution() != qrwe.mds_weight_distribution(q + 1, h + 1, q):
            yield "RS walk Hamming distribution is not MDS"

    rep.op("brute_force_enumerator q=%d h=%d" % (q, h),
           lambda: qrwe.brute_force_enumerator(
               qrwe.reed_solomon_code(qrwe.field(p, v), h), threads=rep.threads),
           enumerator_json, walk_problems)


def j_special_op(rep: Rep, p: int, v: int):
    q = p ** v
    rep.op("j_special_census q=%d" % q, lambda: qrwe.j_special_census(qrwe.field(p, v)),
           lambda data: data, lambda data: j_special_problems(qrwe.field(p, v), data))


def oracles(rep: Rep):
    quartic_op(rep, 3, 2)
    quartic_op(rep, 17, 1)
    p = pick("weierstrass_p", rep.seed)
    rep.op("weierstrass_census q=%d" % p,
           lambda: qrwe.weierstrass_census(qrwe.field(p, 1), threads=rep.threads),
           qrwe.census_json, lambda c: census_problems(c, p))
    # The dual of the order-6 code over F_7 is the order-0 code (7
    # codewords), walked here as the independent side of the identity.
    walk_op(rep, 7, 1, 6, lambda: qrwe.qr_macwilliams_dual(
        qrwe.brute_force_enumerator(qrwe.reed_solomon_code(qrwe.field(7, 1), 0)), 7, 7))
    # F_169 is above the eager-table limit and builds no table here, so
    # this census runs the per-element digit-loop arithmetic.
    j_special_op(rep, 13, 2)


def oracles_baseline(rep: Rep):
    """The ROADMAP Baseline rows of this workload: quartic census at
    q = 27 and the RS walk at q = 11 (its dual is the quartic code)."""
    quartic_op(rep, 3, 3)
    walk_op(rep, 11, 1, 6, lambda: qrwe.qr_macwilliams_dual(
        qrwe.quartic_code_enumerator(11), 11, 11 ** 5))


# ---------------------------------------------------------------------------
# hecke
# ---------------------------------------------------------------------------

def _displayed_moment(flavor, p, R, tau_p, a_p):
    """The prime-moment polynomials printed in the paper (R <= 5 for all
    classes, R <= 2 for the 2-torsion flavors)."""
    if flavor == "all":
        return {
            0: Fraction(p),
            1: Fraction(p ** 2 - 1),
            2: Fraction(2 * p ** 3 - 3 * p - 1),
            3: Fraction(5 * p ** 4 - 9 * p ** 2 - 5 * p - 1),
            4: Fraction(14 * p ** 5 - 28 * p ** 3 - 20 * p ** 2 - 7 * p - 1),
            5: Fraction(42 * p ** 6 - 90 * p ** 4 - 75 * p ** 3 - 35 * p ** 2
                        - 9 * p - 1 - tau_p),
        }.get(R)
    if flavor == "two_torsion":
        return {
            0: Fraction(2 * p - 1, 3),
            1: Fraction(p * (2 * p - 1), 3) - 1,
            2: (Fraction(4, 3) * p ** 3 - Fraction(2, 3) * p ** 2 - 3 * p - 1
                + Fraction(a_p, 3)),
        }.get(R)
    return {
        0: Fraction(p, 6) - Fraction(1, 3),
        1: Fraction(p ** 2, 6) - Fraction(p, 3) - Fraction(1, 2),
        2: (Fraction(p ** 3, 3) - Fraction(2, 3) * p ** 2 - Fraction(3, 2) * p
            - Fraction(1, 2) - Fraction(a_p, 6)),
    }.get(R)


ETA_LIMIT = 300
HIT_LIMIT = 1000
ZERO_DIM_WEIGHTS = {1: (4, 6, 8, 10, 14), 2: (2, 4, 6), 4: (2, 4)}


def hecke(rep: Rep):
    P = pick("hecke_p", rep.seed)

    def tau_problems(tau):
        if (tau - 1 - P ** 11) % 691:  # sigma_11(P) = 1 + P^11, P prime
            yield "tau(%d) breaks Ramanujan's congruence mod 691" % P
        if tau * tau > 4 * P ** 11:
            yield "tau(%d) breaks the Deligne bound" % P

    tau = rep.op("trace_level1 k=12 q=%d" % P,
                 lambda: qrwe.trace_level1(12, P), str, tau_problems)

    def deligne(weight):
        return lambda a: (["trace breaks the Deligne bound"]
                          if a * a > 4 * P ** (weight - 1) else [])

    rep.op("trace_level2 k=8 q=%d" % P, lambda: qrwe.trace_level2(8, P), str, deligne(8))
    a_p = rep.op("trace_level4 k=6 q=%d" % P, lambda: qrwe.trace_level4(6, P),
                 str, deligne(6))

    def moments():
        return {(flavor, R): qrwe.moment_formula(P, R, flavor)
                for flavor in FLAVORS for R in range(6)}

    def moment_problems(values):
        for (flavor, R), value in values.items():
            displayed = _displayed_moment(flavor, P, R, tau, a_p)
            if displayed is not None and value != displayed:
                yield "moment R=%d (%s) differs from the displayed polynomial" % (R, flavor)

    rep.op("moment_formula R<=5 q=%d" % P, moments,
           lambda values: {"%s/%d" % key: str(v) for key, v in values.items()},
           moment_problems)

    def profile_problems(profile):
        totals = [sum(pair[i] for pair in profile.table.values()) for i in (0, 1)]
        if totals[0] != P:
            yield "weighted class total %s != q" % totals[0]
        if totals[1] != Fraction(P, 6) - Fraction(1, 3):
            yield "full 2-torsion class total %s != p/6 - 1/3" % totals[1]

    rep.op("isogeny_profile q=%d" % P, lambda: qrwe.isogeny_profile(P),
           lambda profile: {str(t): [str(a), str(b)] for t, (a, b) in profile.table.items()},
           profile_problems)

    rep.op("traces levels 1,2,4 q<=%d" % HIT_LIMIT,
           lambda: {q: (qrwe.trace_level1(12, q), qrwe.trace_level2(8, q),
                        qrwe.trace_level4(6, q))
                    for q in qrwe.arith.odd_prime_powers(HIT_LIMIT)},
           lambda table: {str(q): [str(x) for x in row] for q, row in table.items()})

    def eta_check():
        eta = qrwe.eta_products
        forms = ((1, 12, eta.discriminant_form(ETA_LIMIT)),
                 (2, 8, eta.weight8_level2_form(ETA_LIMIT)),
                 (4, 6, eta.weight6_level4_form(ETA_LIMIT)))
        bad = []
        for q in qrwe.arith.odd_prime_powers(ETA_LIMIT - 1):
            p, v = qrwe.arith.prime_power_split(q)
            for level, weight, form in forms:
                expected = eta.hecke_eigenvalue_prime_power(form, weight, p, v)
                if qrwe.trace(level, weight, q) != expected:
                    bad.append("level %d weight %d trace differs from the eta "
                               "eigenvalue at q=%d" % (level, weight, q))
        return bad

    rep.op("eta eigenvalues q<%d" % ETA_LIMIT, eta_check, check=lambda bad: bad)

    def zero_dim_check():
        return ["level %d weight %d trace nonzero at q=%d" % (level, k, q)
                for level, weights in ZERO_DIM_WEIGHTS.items()
                for k in weights for q in qrwe.arith.odd_prime_powers(ETA_LIMIT - 1)
                if qrwe.trace(level, k, q) != 0]

    rep.op("zero-dimensional traces q<%d" % ETA_LIMIT, zero_dim_check,
           check=lambda bad: bad)


# ---------------------------------------------------------------------------
# duals
# ---------------------------------------------------------------------------

def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = qrwe.cli.main(argv)
    return code, out.getvalue()


def cli_op(rep: Rep, q: int):
    def cli_problems(result):
        code, stdout = result
        if code != 0:
            yield "exit code %r" % code
            return
        comparisons = json.loads(stdout)["comparisons"]
        if not comparisons or not all(c["match"] for c in comparisons):
            yield "a closed-form comparison does not match"

    rep.op("qrwe dual --q %d --max-codim 7" % q,
           lambda: run_cli(["dual", "--q", str(q), "--max-codim", "7"]),
           lambda result: result[1], cli_problems)


def transform_ops(rep: Rep, q: int, back: bool):
    """The full transform of the quartic code's enumerator (sparse in,
    dense out), optionally its back-transform (dense in), and the
    truncated transform at M = n, which must equal the full one."""
    n = q + 1

    def primal_problems(enum):
        if enum.hamming_distribution() != qrwe.mds_weight_distribution(n, 5, q):
            yield "primal Hamming distribution is not MDS at q=%d" % q

    primal = rep.op("quartic_code_enumerator q=%d" % q,
                    lambda: qrwe.quartic_code_enumerator(q), enumerator_json, primal_problems)
    dual = rep.op("qr_macwilliams_dual q=%d" % q,
                  lambda: qrwe.qr_macwilliams_dual(primal, q, q ** 5),
                  enumerator_json, lambda dual: dual_problems(dual, n, q))
    if back:
        rep.op("qr_macwilliams_dual back q=%d" % q,
               lambda: qrwe.qr_macwilliams_dual(dual, q, q ** (n - 5)), enumerator_json,
               lambda enum: [] if enum == primal else ["back-transform is not the primal"])
    rep.op("qr_dual_coefficients M=n q=%d" % q,
           lambda: qrwe.qr_dual_coefficients(primal, q, q ** 5, n),
           lambda coeffs: {"%d,%d" % key: str(v) for key, v in coeffs.items()},
           lambda coeffs: [] if coeffs == dual.terms else ["M=n differs from the full transform"])


def duals(rep: Rep):
    Q = pick("dual_p", rep.seed)
    cli_op(rep, Q)
    transform_ops(rep, 17, back=True)
    rep.op("classical_dual_weight7_check q=%d" % Q,
           lambda: qrwe.classical_dual_weight7_check(Q), lambda report: report,
           lambda report: [] if report["match"] else ["weight-7 closed form mismatch"])


def duals_baseline(rep: Rep):
    """The ROADMAP Baseline rows of this workload: the CLI at q = 1009
    and M = n against the full transform at q = 23."""
    cli_op(rep, 1009)
    transform_ops(rep, 23, back=False)


# ---------------------------------------------------------------------------
# extension
# ---------------------------------------------------------------------------

def table_problems(ctx):
    """Field axioms on the tables, exhaustively where that is O(q^2) and
    on a fixed sample of triples for distributivity."""
    import numpy as np

    add, mul, chi = ctx.add_table, ctx.mul_table, ctx.char_table
    q = ctx.q
    codes = np.arange(q)
    if not ((add == add.T).all() and (mul == mul.T).all()):
        yield "tables not commutative"
    if not (add[0] == codes).all() or not (mul[1] == codes).all():
        yield "identities wrong"
    if not all((np.sort(add[a]) == codes).all() for a in range(q)):
        yield "an addition row is not a permutation"
    if not all((np.sort(mul[a]) == codes).all() for a in range(1, q)):
        yield "a nonzero multiplication row is not a permutation"
    if int((chi == 1).sum()) != (q - 1) // 2:
        yield "wrong number of nonzero squares"
    if not (chi[mul] == chi[:, None] * chi[None, :]).all():
        yield "quadratic character not multiplicative"
    a, b, c = np.random.default_rng(0).integers(0, q, size=(3, 100000))
    if not (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all():
        yield "multiplication does not distribute"


def table_digests(ctx):
    return {name: hashlib.sha256(table.astype("<i2").tobytes()).hexdigest()
            for name, table in (("add", ctx.add_table), ("mul", ctx.mul_table),
                                ("char", ctx.char_table))}


def j_special_problems(ctx, data):
    """Class totals and 2-torsion shapes forced by |Aut| and the group order."""
    p, q = ctx.p, ctx.q
    for label, disc, square_total, ss in (("j0", -3, 6, p % 3 == 2),
                                           ("j1728", -4, 4, p % 4 == 3)):
        square = ctx.quadratic_character(ctx.int_embed(disc)) == 1
        if data[label]["class_total"] != (square_total if square else 2):
            yield "%s class total %d" % (label, data[label]["class_total"])
        if any((t % p == 0) != ss for t in data[label]["classes"]):
            yield "%s supersingular traces wrong" % label
        for t, entry in data[label]["traces"].items():
            order = q + 1 - t
            for roots in entry["roots"]:
                if (order % 2 == 1 and roots != 0) or (order % 2 == 0 and order % 4 != 0
                                                       and roots != 1):
                    yield "%s 2-torsion shape wrong at t=%d" % (label, t)


def extension(rep: Rep):
    def build():
        ctx = qrwe.field(17, 2)
        for name in ("add_table", "mul_table", "char_table"):
            getattr(ctx, name)  # the first access builds the table
        return ctx

    ctx = rep.op("field tables q=289", build, table_digests, table_problems)
    rep.op("weierstrass_census q=289",
           lambda: qrwe.weierstrass_census(ctx, threads=rep.threads),
           qrwe.census_json, lambda c: census_problems(c, 289))
    j_special_op(rep, 13, 2)


WORKLOADS = {"oracles": oracles, "hecke": hecke, "duals": duals, "extension": extension,
             "oracles-baseline": oracles_baseline, "duals-baseline": duals_baseline}
