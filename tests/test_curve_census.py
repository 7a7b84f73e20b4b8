import hashlib
import json
from fractions import Fraction
from itertools import product
from math import gcd

import numpy as np
import pytest

from qrwe import curve_census
from qrwe.arith import is_prime, odd_prime_power_split
from qrwe.curve_census import (_discriminant_grid, _j_special_model,
                               _quartic_unit_counts, census_charge, census_json,
                               empirical_moment, j_special_census, legendre_family_sum,
                               quartic_census, weierstrass_census)
from qrwe.errors import BudgetExceededError
from qrwe.finite_field import _scaling_orbits, field
from qrwe.hecke_traces import moment_formula
from qrwe.isogeny_counts import weighted_count, weighted_count_full_2tors
from qrwe.rs_codes import _monomial_rows
from qrwe.verify import FAMILY_PRIMES
from references import (_j_special_census_scalar, _legendre_family_sum_scalar,
                        _quartic_census_scalar, is_squarefree_quartic,
                        quartic_point_count)


def test_point_count_fourth_power_example():
    # f = y^4 over F_5: one root at (1, 0), square values elsewhere
    assert quartic_point_count(field(5, 1), (0, 0, 0, 0, 1)) == (11, 1)


def test_point_count_rejects_zero_polynomial():
    with pytest.raises(ValueError):
        quartic_point_count(field(5, 1), (0, 0, 0, 0, 0))


def test_point_count_parity():
    ctx = field(7, 1)
    for coeffs in [(1, 2, 3, 4, 5), (0, 1, 0, 6, 2), (3, 0, 0, 0, 1),
                   (1, 1, 1, 1, 1), (0, 0, 2, 0, 0)]:
        points, roots = quartic_point_count(ctx, coeffs)
        assert points % 2 == roots % 2


def test_point_count_works_on_singular_quartics():
    ctx = field(5, 1)
    # (x y)^2 has double roots at both (1, 0) and (0, 1)
    coeffs = (0, 0, 1, 0, 0)
    assert not is_squarefree_quartic(ctx, coeffs)
    points, roots = quartic_point_count(ctx, coeffs)
    assert roots == 2


@pytest.mark.parametrize("p,v", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_gcd_and_discriminant_smoothness_agree(p, v):
    # the engine's discriminant on every (c4, c3) pair and every (c4, c3, c2)
    # slab, not only those it evaluates, and on every Weierstrass unit
    # (0, 1, 0, a), against the gcd test on every form
    ctx = field(p, v)
    rows = np.array(_monomial_rows(ctx, 4)[::-1], dtype=np.int16)
    forms = list(product(range(ctx.q), repeat=5))
    squarefree = dict(zip(forms, (is_squarefree_quartic(ctx, f) for f in forms)))
    leads = (list(product(range(ctx.q), repeat=2)) + list(product(range(ctx.q), repeat=3))
             + [(0, 1, 0, a) for a in ctx.elements()])
    for width in (2, 3, 4):
        batch = [lead for lead in leads if len(lead) == width]
        grid = _discriminant_grid(ctx, batch, rows)
        assert grid.shape == (len(batch), ctx.q ** (5 - width))
        for lead, disc in zip(batch, grid.tolist(), strict=True):
            free = product(range(ctx.q), repeat=5 - len(lead))
            for value, rest in zip(disc, free, strict=True):
                coeffs = lead + rest
                assert squarefree[coeffs] == (value != 0), coeffs


@pytest.mark.parametrize("p,v", [(3, 1), (5, 1), (7, 1), (3, 2)])
def test_scalar_and_vector_census_agree(p, v):
    ctx = field(p, v)
    scalar = _quartic_census_scalar(ctx)
    vector = quartic_census(ctx)
    assert set(scalar.buckets) == set(vector.buckets)
    for t in scalar.traces():
        assert scalar.buckets[t].total == vector.buckets[t].total
        assert scalar.buckets[t].by_roots == vector.buckets[t].by_roots


def _slab_representative(ctx, c4, c3, c2):
    """The unit (c4, 0, c2') or (0, 1, c2') that `quartic_census`
    evaluates for the slab (c4, c3, c2), c2' in {0, 1, nu}, derived here
    from the changes of variable: for c4 != 0, x -> x + sy with
    s = -c3/(4 c4) clears c3 and sends c2 to c2 - 3 c3^2/(8 c4); for
    c4 = 0, y -> y/c3 makes c3 = 1.  Then c4 and c2 go to the least code
    of their square classes."""
    nonsquare = min(x for x in ctx.elements() if ctx.quadratic_character(x) == -1)

    def square_class(c):
        return {0: 0, 1: 1, -1: nonsquare}[ctx.quadratic_character(c)]

    if c4:
        shift = ctx.mul(ctx.mul(ctx.int_embed(3), ctx.mul(c3, c3)),
                        ctx.inv(ctx.mul(ctx.int_embed(8), c4)))
        return square_class(c4), 0, square_class(ctx.sub(c2, shift))
    c2 = ctx.mul(c2, ctx.inv(ctx.mul(c3, c3)))  # y -> y/c3 scales c3 by 1/c3, c2 by 1/c3^2
    return 0, 1, square_class(c2)


@pytest.mark.parametrize("p,v", [(3, 1), (5, 1), (7, 1), (3, 2), (11, 1), (13, 1)])
def test_every_quartic_unit_matches_its_orbit_representative(p, v):
    # the census evaluates 9 units (c4, c3, c2); every other slab must
    # carry the counts of the representative the changes of variable give
    ctx = field(p, v)
    slabs = list(product(range(ctx.q), repeat=3))
    counts = dict(zip(slabs, _quartic_unit_counts(ctx, slabs)))
    for c4, c3, c2 in slabs:
        if (c4, c3) == (0, 0):
            assert not counts[c4, c3, c2].any()  # y^2 divides every form
            continue
        rep = _slab_representative(ctx, c4, c3, c2)
        assert (counts[c4, c3, c2] == counts[rep]).all(), ((c4, c3, c2), rep)


@pytest.mark.parametrize("p,v", [(5, 2), (31, 1)])
def test_every_reduced_quartic_unit_matches_its_orbit_representative(p, v):
    # at larger q, the slabs (c4, 0, c2) and (0, 1, c2) the orbits of
    # y -> ly and (x, y) -> (ax, lay) move among
    ctx = field(p, v)
    slabs = [(c4, 0, c2) for c4 in range(1, ctx.q) for c2 in ctx.elements()]
    slabs += [(0, 1, c2) for c2 in ctx.elements()]
    counts = dict(zip(slabs, _quartic_unit_counts(ctx, slabs)))
    for slab in slabs:
        rep = _slab_representative(ctx, *slab)
        assert (counts[slab] == counts[rep]).all(), (slab, rep)


@pytest.mark.parametrize("p,v", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2), (29, 1)])
def test_every_weierstrass_unit_matches_its_orbit_representative(p, v):
    # the census evaluates a = 0 and one a per class of F_q^* / (F_q^*)^4;
    # (a, b) -> (u^4 a, u^6 b) permutes the b of one a
    ctx = field(p, v)
    q = ctx.q
    counts = _quartic_unit_counts(ctx, [(0, 1, 0, a) for a in ctx.elements()])
    orbits = _scaling_orbits(ctx, 4)
    d = len(orbits)
    representative = {ctx.pow(a, (q - 1) // d): a for a, _ in orbits}
    for a in range(1, q):
        rep = representative[ctx.pow(a, (q - 1) // d)]
        assert (counts[a] == counts[rep]).all(), (a, rep)
    assert not counts[0][:, 0].any()  # every model vanishes at (1 : 0)


def test_census_threads_deterministic(quartic_census_for):
    ctx = field(7, 1)
    for census in (quartic_census, weierstrass_census):
        serial = census(ctx)
        threaded = census(ctx, threads=3)
        assert {t: (b.total, b.by_roots) for t, b in serial.buckets.items()} \
            == {t: (b.total, b.by_roots) for t, b in threaded.buckets.items()}


def test_census_bucket_weights_match_closed_form(quartic_census_for):
    for q in (3, 5, 7, 9, 11, 13):
        census = quartic_census_for(q)
        for t in range(-8, 9):
            assert census.weighted_count(t) == weighted_count(q, t), (q, t)
            assert (census.weighted_count_full_2tors(t)
                    == weighted_count_full_2tors(q, t)), (q, t)


def test_two_torsion_bucket_proportions(quartic_census_for):
    # for even group order: 2-root and 4-root counts split along the
    # ordinary / full 2-torsion class weights
    for q in (5, 7, 9, 11, 13):
        census = quartic_census_for(q)
        scale = (q - 1) ** 2 * q * (q + 1)
        for t, bucket in census.buckets.items():
            if (q + 1 - t) % 2 != 0:
                continue
            n_all = weighted_count(q, t)
            n_full = weighted_count_full_2tors(q, t)
            assert bucket.by_roots[2] == (n_all - n_full) * scale / 2, (q, t)
            assert bucket.by_roots[4] == n_full * scale / 4, (q, t)


def test_weierstrass_census_totals_and_agreement(quartic_census_for):
    for q, (p, v) in {5: (5, 1), 7: (7, 1), 11: (11, 1), 13: (13, 1),
                      25: (5, 2)}.items():
        ctx = field(p, v)
        wcensus = weierstrass_census(ctx)
        singular_pairs = q  # 4a^3 = -27b^2 is a rational curve with q points
        assert sum(b.total for b in wcensus.buckets.values()) == q * q - singular_pairs
        qcensus = quartic_census_for(q)
        for t in set(wcensus.traces()) | set(qcensus.traces()):
            assert wcensus.weighted_count(t) == qcensus.weighted_count(t)
            assert (wcensus.weighted_count_full_2tors(t)
                    == qcensus.weighted_count_full_2tors(t))


@pytest.mark.parametrize("p,v", [(5, 1), (7, 1), (11, 1), (13, 1), (5, 2)])
def test_weierstrass_census_matches_full_walk(p, v):
    # every model (a, b), where the census evaluates 1 + gcd(4, q-1) values of a
    ctx = field(p, v)
    four, twenty_seven = ctx.int_embed(4), ctx.int_embed(27)
    expected = {}
    for a, b in product(ctx.elements(), repeat=2):
        disc = ctx.add(ctx.mul(four, ctx.pow(a, 3)),
                       ctx.mul(twenty_seven, ctx.mul(b, b)))
        if disc == 0:
            continue
        values = [ctx.add(ctx.add(ctx.pow(x, 3), ctx.mul(a, x)), b)
                  for x in ctx.elements()]
        t = -sum(ctx.quadratic_character(value) for value in values)
        roots = values.count(0)
        models, full, by_roots = expected.get(t, (0, 0, (0, 0, 0, 0)))
        by_roots = tuple(n + (r == roots) for r, n in enumerate(by_roots))
        expected[t] = (models + 1, full + (roots == 3), by_roots)
    census = weierstrass_census(ctx)
    assert {t: (b.total, b.by_roots[3], tuple(b.by_roots))
            for t, b in census.buckets.items()} == expected


def test_weierstrass_rejects_char_3():
    with pytest.raises(ValueError, match="p >= 5"):
        weierstrass_census(field(3, 2))


def test_weierstrass_odd_traces_have_no_2_torsion():
    census = weierstrass_census(field(7, 1))
    for t, bucket in census.buckets.items():
        if t % 2 != 0:
            assert bucket.by_roots[3] == 0


def test_empirical_moment_examples(quartic_census_for):
    census5 = quartic_census_for(5)
    assert empirical_moment(census5, 0, "all") == 5
    assert empirical_moment(census5, 1, "all") == 24
    census7 = quartic_census_for(7)
    assert empirical_moment(census7, 0, "two_torsion") == Fraction(13, 3)
    with pytest.raises(ValueError, match="R must be >= 0"):
        empirical_moment(census7, -1)


def _fraction_moment(census, R, flavor):
    """Reference: one Fraction per trace bucket, as the weighted counts
    give them."""
    total = Fraction(0)
    for t in census.traces():
        if flavor == "two_torsion" and t % 2 != 0:
            continue
        if flavor == "full_two_torsion":
            weight = census.weighted_count_full_2tors(t)
        else:
            weight = census.weighted_count(t)
        total += t ** (2 * R) * weight
    return total


def test_integer_moments_match_the_per_bucket_fraction_sum(quartic_census_for):
    censuses = [quartic_census_for(q) for q in (3, 5, 7, 9, 11, 13)]
    censuses += [weierstrass_census(field(p, 1)) for p in (5, 7, 11, 13, 251)]
    for census in censuses:
        for flavor in ("all", "two_torsion", "full_two_torsion"):
            for R in range(8):
                value = empirical_moment(census, R, flavor)
                assert isinstance(value, Fraction)
                assert value == _fraction_moment(census, R, flavor), (
                    census.kind, census.q, flavor, R)
        with pytest.raises(ValueError, match="unknown flavor"):
            empirical_moment(census, 1, "three_torsion")
        with pytest.raises(ValueError, match="R must be >= 0"):
            empirical_moment(census, -1, "full_two_torsion")


def test_empirical_matches_formula_small(quartic_census_for):
    for q in (3, 5, 7, 9):
        census = quartic_census_for(q)
        for flavor in ("all", "two_torsion", "full_two_torsion"):
            for R in range(3):
                assert (empirical_moment(census, R, flavor)
                        == moment_formula(q, R, flavor)), (q, R, flavor)


def test_legendre_family_sum_count_and_regression():
    for p in (3, 5, 7, 11):
        assert legendre_family_sum(p, 0) == (p - 1) ** 2
    assert legendre_family_sum(5, 1) == 72
    with pytest.raises(ValueError, match="R must be >= 0"):
        legendre_family_sum(5, -1)


def test_reduced_legendre_sum_matches_full_walk():
    # the window rows against the loop over the points, at every family prime up to 61
    for p in [p for p in FAMILY_PRIMES if p <= 61]:
        for R in range(9):
            assert legendre_family_sum(p, R) == _legendre_family_sum_scalar(p, R), (p, R)


def _spy_point_sums(monkeypatch, sums):
    """Record the S(a, b) each call of `_legendre_point_sums` evaluates."""
    point_sums = curve_census._legendre_point_sums
    monkeypatch.setattr(curve_census, "_legendre_point_sums",
                        lambda chi, a, bs: sums.extend((a, b) for b in bs)
                        or point_sums(chi, a, bs))
    curve_census._legendre_orbit_sums.cache_clear()


def test_legendre_family_sum_walks_each_p_once(monkeypatch):
    # the nine orders of a moment row evaluate the p orbit sums once
    sums, p = [], 23
    _spy_point_sums(monkeypatch, sums)
    for R in range(9):
        assert legendre_family_sum(p, R) == _legendre_family_sum_scalar(p, R), R
    assert len(sums) == len(set(sums)) == p


def test_reduced_j_special_census_matches_full_walk():
    # every q = p^v <= 200 with p >= 5, 25, 49, 121, 125 and 169 included
    for p in filter(is_prime, range(5, 201)):
        for v in range(1, 4):
            if p ** v <= 200:
                reduced = j_special_census(field(p, v))
                scalar = _j_special_census_scalar(field(p, v))
                # equal as dicts, and built in the same order
                assert reduced == scalar, (p, v)
                assert repr(reduced) == repr(scalar), (p, v)


@pytest.mark.parametrize("p,v", [(7, 1), (13, 1), (5, 2)])
def test_every_j_special_model_matches_its_orbit_representative(p, v):
    ctx = field(p, v)
    q = ctx.q
    for label, n in (("j0", 6), ("j1728", 4)):
        orbits = _scaling_orbits(ctx, n)
        d = len(orbits)
        assert d == gcd(n, q - 1)
        assert sum(weight for _, weight in orbits) == q - 1
        representative = {ctx.pow(c, (q - 1) // d): c for c, _ in orbits}
        assert len(representative) == d
        for c in range(1, q):
            rep = representative[ctx.pow(c, (q - 1) // d)]
            assert (_j_special_model(ctx, label, c)
                    == _j_special_model(ctx, label, rep)), (label, c, rep)


def test_j_special_census_small():
    data5 = j_special_census(field(5, 1))
    assert data5["j0"]["class_total"] == 2
    assert data5["j0"]["classes"] == {0: 2}
    assert data5["j1728"]["class_total"] == 4
    assert all(t % 5 != 0 for t in data5["j1728"]["classes"])
    data7 = j_special_census(field(7, 1))
    assert data7["j0"]["class_total"] == 6
    assert data7["j1728"]["classes"] == {0: 2}


def test_family_sum_and_j_special_census_refuse_beyond_budget(monkeypatch):
    monkeypatch.setenv("QRWE_BUDGET", "24")
    with pytest.raises(BudgetExceededError) as info:
        legendre_family_sum(5, 1)
    assert info.value.required == 5 ** 2
    with pytest.raises(BudgetExceededError) as info:
        j_special_census(field(7, 1))
    assert info.value.required == 2 * 7 ** 2
    monkeypatch.setenv("QRWE_BUDGET", "25")
    assert legendre_family_sum(5, 1) == 72


@pytest.mark.parametrize("p", [3, 5, 23, 97])
def test_the_legendre_charge_is_the_points_it_evaluates(monkeypatch, p):
    sums = []  # each S(a, b) is a sum over the p points
    _spy_point_sums(monkeypatch, sums)
    legendre_family_sum(p, 1)
    monkeypatch.setenv("QRWE_BUDGET", "0")
    with pytest.raises(BudgetExceededError) as info:
        legendre_family_sum(p, 1)  # charged again, though the sums are cached
    assert info.value.required == len(sums) * p == p ** 2


def test_j_special_rejects_char_3():
    with pytest.raises(ValueError):
        j_special_census(field(3, 3))


def test_census_json_shape(quartic_census_for):
    payload = census_json(quartic_census_for(5))
    assert payload["q"] == 5 and payload["kind"] == "quartic"
    assert payload["buckets"][0]["t"] == -4
    assert all(isinstance(b["total"], str) for b in payload["buckets"])
    json.dumps(payload)  # must be serializable as-is
    wpayload = census_json(weierstrass_census(field(5, 1)))
    assert wpayload["kind"] == "weierstrass"
    assert all(len(b["by_roots"]) == 4 for b in wpayload["buckets"])


# sha256 of the compact, key-sorted `census_json` of the quartic and the
# Weierstrass census (None at p = 3) at every odd prime power q <= 37, as
# the census gave them when it walked 3 units of q^3 forms
CENSUS_DIGESTS = {
    3: ("d3aaf74b7c66c58a49639c1a9b970db1d71d36d9a7bb593cb2387d9d08a71672",
        None),
    5: ("87576d9afa0b08e3b398028b8ed1f5d7da81f0253b4afac3410559c4c80340d5",
        "6df1aa4c25a447777b791a82257c8f1863b7c638cadb5b1efa5adeb0864f33d4"),
    7: ("5f916a86e79007416c170fbdb19fc005a9b92e174c6b508e41b5a1a6029eca81",
        "3a92f0114a7041ae1ea94848424100357fe69b0077fe276fee85cdac9e3fcfe9"),
    9: ("1d955d18a90abf1bb373cee02a21a0d44cd89539b9353d50caf21688256d2036",
        None),
    11: ("98e2b2fcf221f6c539eadeccd37aac958e51f7c16b85123ea2c2fee20151e5a3",
         "b15d11e67bf327fc27a727f4e5524922fe2c25b76af40975c84af0f482f23a6c"),
    13: ("6ddcbc25dc54b2a476729f5e5f219f686a2a86646acb52b60ecba783eef63095",
         "71157b9797505dd8fa7f8d07ec8dff3a08947d3b92f4ea49c540097a9bebdde8"),
    17: ("182aae80f866160918c63f2aec28a5a22caebae232b84c398f0e60c159d0d8c8",
         "5794c4b0e0cd473e0c02b5ce84ab8c70ebb0a4198b2e728ef81f173b3b0f38d4"),
    19: ("727dcf9b20d1657ba2573e8454444193fd32dc5d0c819d85e7984e4d5b41e790",
         "1dbe4bf0ec8b994fbf2b1a74888b2a4027c62c60ec2d6023410886817f309ff1"),
    23: ("d9f93c147542e8467537315250516ee12d010c8d429efe6b917301103cf1ceb0",
         "536d0d3176a712c93e0998afb98f435eb9bcbc5954ec00fcc87d9a95a64359ce"),
    25: ("0137f9d4b7d3840bc8e43701d9ce939c7d97fc3a327487ad2109a025fec28e7a",
         "d9e65f1cbd15a288b6a9d54b157f197453dbd044dd27844cb4f5030e8d9e5e1e"),
    27: ("3b1523b66b5eec62cf647fab26074d0d2df3aa483f53ad12f0a85b9752db74a1",
         None),
    29: ("eea19e7d16346e3885d9c34c8dd5c6d977b99a433e2521dd1738caf7d902e79f",
         "b90538442ba59156ced4e401b6cf488074a6505fc25c6f6acd681f721253a3e4"),
    31: ("e0edc1d77c2b72686ee9a46c98881b6bccda4b62ffdc69a3a9c7f3ec8a322e6e",
         "776af69df790a323b2b742e02c57eb774641a848f8f92eeea91da39ca2716979"),
    37: ("a6c22e16f4637baac5fca82b3790ca77cecda730aabf029813392704d7cf7357",
         "dfc0c65494a2c1126e76f50509ae78a88fe7cd695cde75c3566ec7a07210a79c"),
}


def _census_digest(census) -> str:
    blob = json.dumps(census_json(census), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode()).hexdigest()


@pytest.mark.parametrize("q", sorted(CENSUS_DIGESTS))
def test_census_json_is_bit_identical(q, quartic_census_for):
    quartic, weierstrass = CENSUS_DIGESTS[q]
    assert _census_digest(quartic_census_for(q)) == quartic
    ctx = field(*odd_prime_power_split(q))
    if weierstrass is not None:
        assert _census_digest(weierstrass_census(ctx)) == weierstrass


def test_census_budget_is_explicit_then_environment(monkeypatch):
    ctx = field(5, 1)
    monkeypatch.setenv("QRWE_BUDGET", "100")
    # 9 * 5^2 * 6 quartic cells, 5^2 Weierstrass models
    for census, required in ((quartic_census, 1350), (weierstrass_census, 25)):
        with pytest.raises(BudgetExceededError) as info:
            census(ctx, budget=required - 1)
        assert (info.value.required, info.value.budget) == (required, required - 1)
        with pytest.raises(ValueError, match="nonnegative"):
            census(ctx, budget=-1)
        assert census_json(census(ctx, budget=required)) == census_json(
            census(ctx, budget=10 ** 8))
    with pytest.raises(BudgetExceededError) as info:
        quartic_census(ctx)  # the environment's 100 < 1350
    assert info.value.budget == 100
    assert weierstrass_census(ctx).q == 5  # 25 <= 100
    monkeypatch.delenv("QRWE_BUDGET")
    ctx = field(223, 1)
    with pytest.raises(BudgetExceededError) as info:
        quartic_census(ctx)  # 9 * 223^2 * 224 > 10^8, the default
    assert (info.value.required, info.value.budget) == (100253664, 10 ** 8)
    with pytest.raises(BudgetExceededError):
        quartic_census(ctx, budget=100253663)
    assert quartic_census(ctx, budget=100253664).q == 223


@pytest.mark.parametrize("q", [3, 5, 9, 25, 27])
def test_the_quartic_charge_is_the_cells_it_evaluates(monkeypatch, q):
    cells, form_counts = [], curve_census._form_counts

    def spy(ctx, chi, bases, grid_rows):
        cells.append(bases.shape[0] * ctx.q ** len(grid_rows) * bases.shape[1])
        return form_counts(ctx, chi, bases, grid_rows)
    monkeypatch.setattr(curve_census, "_form_counts", spy)
    ctx = field(*odd_prime_power_split(q))
    quartic_census(ctx)
    with pytest.raises(BudgetExceededError) as info:
        quartic_census(ctx, budget=0)
    assert info.value.required == census_charge(q, "quartic") == sum(cells)
