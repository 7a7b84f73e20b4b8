import hashlib
import random
import tracemalloc

import pytest

import references
from qrwe import finite_field
from qrwe.arith import odd_primes
from qrwe.finite_field import FieldContext, field
from references import mul_slow, poly_degree, poly_gcd


def test_construction_errors_name_the_condition():
    with pytest.raises(ValueError, match="odd"):
        FieldContext(2, 3)
    with pytest.raises(ValueError, match="prime"):
        FieldContext(9, 1)
    with pytest.raises(ValueError, match="degree"):
        FieldContext(5, 0)


def test_prime_field_modulus_is_x():
    assert field(7, 1).modulus == (0, 1)


def test_default_moduli_are_smallest_irreducible():
    assert field(3, 2).modulus == (1, 0, 1)        # x^2 + 1
    assert field(3, 3).modulus == (1, 2, 0, 1)     # x^3 + 2x + 1
    with pytest.raises(ValueError, match="reducible"):
        FieldContext(3, 2, modulus=(0, 0, 1))      # x^2


@pytest.mark.parametrize("p,v,modulus,generator", [
    pytest.param(p, v, modulus, generator, id="q=%d" % p ** v)
    for p, v, modulus, generator in [
        (3, 2, (1, 0, 1), 4),
        (3, 3, (1, 2, 0, 1), 3),
        (13, 2, (2, 0, 1), 15),
        (3, 5, (1, 2, 0, 0, 0, 1), 3),
        (251, 1, (0, 1), 6),
        (7, 3, (2, 0, 0, 1), 22),
        (9973, 1, (0, 1), 11),
        (32771, 1, (0, 1), 2),
    ]])
def test_default_modulus_and_generator_are_pinned(p, v, modulus, generator):
    # every element code, and so every output, depends on both choices
    ctx = field(p, v)
    assert (ctx.modulus, ctx.generator) == (modulus, generator)


def test_prime_field_needs_no_polynomial_arithmetic(monkeypatch):
    def forbidden(*args):
        raise AssertionError("polynomial arithmetic while building F_p")

    for name in ("poly_mul", "poly_mod", "field"):
        monkeypatch.setattr(references, name, forbidden)
    monkeypatch.setattr(finite_field, "field", forbidden)
    for p in (3, 251, 9973):
        ctx = FieldContext(p, 1)
        rng = random.Random(p)
        for _ in range(500):
            a, b = rng.randrange(p), rng.randrange(p)
            assert mul_slow(ctx, a, b) == ctx.mul(a, b) == a * b % p
    assert FieldContext(7, 1, modulus=(3, 1)).modulus == (3, 1)


def test_extension_field_needs_no_prime_field_context(monkeypatch):
    # the modulus is found and checked, and the powers walked, in integer
    # arithmetic mod p: no context of F_p and no scalar field operation
    def forbidden(*args):
        raise AssertionError("field arithmetic while building F_{p^v}")

    monkeypatch.setattr(finite_field, "field", forbidden)
    for name in ("add", "neg", "mul", "inv"):
        monkeypatch.setattr(FieldContext, name, forbidden)
    assert FieldContext(13, 2).modulus == (2, 0, 1)
    assert FieldContext(3, 5).generator == 3
    assert FieldContext(3, 2, modulus=(1, 0, 1)).generator == 4
    with pytest.raises(ValueError, match="reducible"):
        FieldContext(3, 2, modulus=(0, 0, 1))


def test_field_tables_are_bit_identical_to_the_pinned_digest():
    # modulus, generator, exp, log, Zech and character tables of 41 fields
    fields = [(p, v) for p in odd_primes(50) for v in range(1, 8) if p ** v <= 2500]
    fields += [(3, 7), (101, 2)]
    assert len(fields) == 41
    digest = hashlib.sha256()
    for p, v in fields:
        c = FieldContext(p, v)
        digest.update(("%d,%d,%r,%d,%r,%r,%r,%r;" % (p, v, c.modulus, c.generator, c._exp,
                                                     c._log, c._zech, c._char)).encode())
    assert digest.hexdigest() == (
        "13085a5138a75eea27c71ed5d157c1a46935a8ce87abdc3114271133636758b6")


@pytest.mark.parametrize("p,v", [(3, 2), (13, 2), (3, 5)])
def test_the_power_walk_matches_the_polynomial_reference(p, v):
    ctx = FieldContext(p, v)
    exp = ctx._exp
    assert all(exp[k + 1] == mul_slow(ctx, exp[k], ctx.generator) for k in range(len(exp) - 1))


def test_element_enumeration():
    assert list(field(3, 1).elements()) == [0, 1, 2]
    ctx = field(3, 2)
    elems = list(ctx.elements())
    assert len(elems) == 9 and len(set(elems)) == 9 and elems[0] == 0


def test_square_count_is_half():
    for p, v in ((5, 1), (3, 2), (5, 2), (3, 3)):
        ctx = field(p, v)
        squares = sum(1 for x in ctx.elements() if ctx.quadratic_character(x) == 1)
        assert squares == (ctx.q - 1) // 2


def test_f25_has_twelve_squares():
    ctx = field(5, 2)
    assert sum(1 for x in ctx.elements()
               if ctx.quadratic_character(x) == 1) == 12


def test_quadratic_character_basics():
    ctx = field(7, 1)
    assert ctx.quadratic_character(2) == 1   # 2 = 3^2 mod 7
    assert ctx.quadratic_character(0) == 0
    ctx9 = field(3, 2)
    assert ctx9.quadratic_character(ctx9.generator) == -1


def test_quadratic_character_rejects_unreduced():
    with pytest.raises(ValueError, match="not reduced"):
        field(7, 1).quadratic_character(7)


def test_generator_order_is_q_minus_1():
    ctx = field(3, 3)
    g = ctx.generator
    power, order = g, 1
    while power != 1:
        power = ctx.mul(power, g)
        order += 1
    assert order == 26


@pytest.mark.parametrize("p,v", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3)])
def test_field_axioms_exhaustive(p, v):
    ctx = field(p, v)
    elems = list(ctx.elements())
    for a in elems:
        for b in elems:
            assert ctx.add(a, b) == ctx.add(b, a)
            assert ctx.mul(a, b) == ctx.mul(b, a)
            assert ctx.add(a, ctx.neg(a)) == 0
            if a != 0:
                assert ctx.mul(a, ctx.inv(a)) == 1
    rng = random.Random(41)
    for _ in range(2000):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))
        assert ctx.mul(ctx.mul(a, b), c) == ctx.mul(a, ctx.mul(b, c))
        assert ctx.add(ctx.add(a, b), c) == ctx.add(a, ctx.add(b, c))


def test_field_axioms_random_large():
    ctx = field(7, 2)  # q = 49, beyond the exhaustive tier
    rng = random.Random(271828)
    elems = list(ctx.elements())
    for _ in range(10_000):
        a, b, c = rng.choice(elems), rng.choice(elems), rng.choice(elems)
        assert ctx.mul(a, ctx.add(b, c)) == ctx.add(ctx.mul(a, b), ctx.mul(a, c))


@pytest.mark.parametrize("p,v", [(3, 1), (7, 1), (3, 2), (5, 2), (3, 4)])
def test_character_multiplicative(p, v):
    ctx = field(p, v)
    for a in range(1, ctx.q):
        for b in range(1, ctx.q):
            assert (ctx.quadratic_character(ctx.mul(a, b))
                    == ctx.quadratic_character(a) * ctx.quadratic_character(b))


def test_character_matches_square_powers():
    ctx = field(5, 1)
    for a in ctx.elements():
        sq = ctx.mul(a, a)
        if a:
            assert ctx.quadratic_character(sq) == 1


def test_poly_gcd_convention():
    ctx = field(3, 1)
    f = [1, 0, 1]
    assert poly_gcd(ctx, f, []) == f
    assert poly_degree([]) == -1


@pytest.mark.parametrize("p,v", [(3, 1), (5, 1), (3, 2), (5, 2), (3, 3), (7, 2)])
def test_encoding_matches_polynomial_reference(p, v):
    """The field axioms hold for any consistent encoding; this pins the
    codes themselves: products are polynomial products mod the modulus
    and sums are digit-wise sums of the base-p codes."""
    ctx = field(p, v)
    for a in ctx.elements():
        for b in ctx.elements():
            assert ctx.mul(a, b) == mul_slow(ctx, a, b)
            digit_sum = sum((a // p ** i + b // p ** i) % p * p ** i for i in range(v))
            assert ctx.add(a, b) == digit_sum


def test_numpy_tables_agree_with_ops():
    for p, v in [(3, 1), (17, 1), (3, 2), (13, 2), (5, 3), (3, 5)]:
        ctx = field(p, v)
        add, mul, char = ctx.add_table, ctx.mul_table, ctx.char_table
        for a in ctx.elements():
            assert int(char[a]) == ctx.quadratic_character(a)
            for b in ctx.elements():
                assert int(add[a, b]) == ctx.add(a, b)
                assert int(mul[a, b]) == ctx.mul(a, b)


def test_mul_table_builds_without_a_second_q2_array():
    ctx = FieldContext(3001, 1)  # not the cached field: its table is built here
    tracemalloc.start()
    try:
        mul = ctx.mul_table
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.25 * mul.nbytes
    rows = max(1, (1 << 16) // ctx.q)
    for a in (0, 1, rows - 1, rows, rows + 1, ctx.q - 1):  # both sides of a block edge
        assert mul[a].tolist() == [ctx.mul(a, b) for b in ctx.elements()], a


def test_field_cache_is_bounded_and_rebuilds_evicted_fields():
    bound = field.cache_info().maxsize
    assert bound == 64
    evicted = field(3, 2)
    tables = [t.tobytes() for t in (evicted.add_table, evicted.mul_table, evicted.char_table)]
    for p in list(odd_primes(1000))[:bound]:  # as many other fields as the bound
        field(p, 1)
    assert field.cache_info().currsize == bound
    rebuilt = field(3, 2)
    assert rebuilt is not evicted
    assert [t.tobytes() for t in (rebuilt.add_table, rebuilt.mul_table, rebuilt.char_table)] == tables
    assert field.cache_info().currsize == bound


def test_int16_tables_refuse_large_q():
    ctx = FieldContext(32771, 1)
    assert ctx.mul(ctx.generator, ctx.inv(ctx.generator)) == 1
    with pytest.raises(ValueError, match="q < 2\\^15"):
        ctx.add_table
    with pytest.raises(ValueError, match="q < 2\\^15"):
        ctx.mul_table
