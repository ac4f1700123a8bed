import random

import pytest

from asw_slopes import gf
from asw_slopes.errors import ConfigError, NotPrime


def test_is_prime_small():
    primes = [n for n in range(2, 60) if gf.is_prime(n)]
    assert primes == [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47, 53, 59]


def test_factorize_distinct_primes():
    assert gf.factorize(1) == []
    assert gf.factorize(2**5 * 3 * 49) == [2, 3, 7]
    for n in [101, 1024, 3**7, 2 * 3 * 5 * 7 * 11]:
        fs = gf.factorize(n)
        assert fs == sorted(set(fs))
        assert all(gf.is_prime(f) and n % f == 0 for f in fs)
        rem = n
        for f in fs:
            while rem % f == 0:
                rem //= f
        assert rem == 1


def test_field_rejects_bad_p():
    with pytest.raises(NotPrime):
        gf.FieldCtx(4, 1)


def test_find_irreducible_defines_a_field():
    for p, n in [(2, 3), (3, 2), (5, 2), (2, 6)]:
        h = gf.find_irreducible(p, n)
        assert len(h) == n + 1 and h[-1] == 1
        ctx = gf.FieldCtx(p, n, h)
        assert ctx.order == p**n


def test_element_index_round_trip():
    ctx = gf.FieldCtx(3, 2)
    seen = set()
    for i in range(ctx.order):
        x = ctx.element(i)
        assert x.index == i
        seen.add(tuple(x.coeffs))
    assert len(seen) == 9


def test_multiplicative_generator_order():
    for p, n in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        ctx = gf.FieldCtx(p, n)
        g = ctx.multiplicative_generator()
        q = ctx.order
        acc = ctx.one()
        orbit = set()
        for _ in range(q - 1):
            acc = acc * g
            orbit.add(acc.index)
        assert acc.is_one()
        assert len(orbit) == q - 1  # genuinely primitive


def test_ring_axioms_seeded():
    rng = random.Random(7)
    for p, n in [(2, 4), (3, 2), (5, 2)]:
        ctx = gf.FieldCtx(p, n)
        for _ in range(40):
            a, b, c = (ctx.element(rng.randrange(ctx.order)) for _ in range(3))
            assert (a + b) * c == a * c + b * c
            assert a * b == b * a
            assert (a + b) + c == a + (b + c)
            if not a.is_zero():
                assert (a * a.inverse()).is_one()


def test_frobenius_is_pth_power_and_fixes_base():
    ctx = gf.FieldCtx(3, 2)
    for i in range(ctx.order):
        x = ctx.element(i)
        assert x.frobenius() == x * x * x
    # prime field elements are fixed
    for r in range(3):
        x = ctx.from_coeffs([r] + [0])
        assert x.frobenius() == x


def test_embed_base_respects_arithmetic():
    base = gf.FieldCtx(2, 2)
    big = gf.FieldCtx(2, 4)
    img = gf.embed_base(big, base.h)
    # the image generates a copy of F_4: check its multiplicative order divides 3
    assert not img.is_zero()
    cube = img * img * img
    assert cube.is_one() or img.is_one()
    for i in range(base.order):
        for j in range(base.order):
            x, y = base.element(i), base.element(j)
            ex = gf.embed_element(base, x, big)
            ey = gf.embed_element(base, y, big)
            assert gf.embed_element(base, x * y, big) == ex * ey
            assert gf.embed_element(base, x + y, big) == ex + ey


def scan_for_root(ctx, base_h):
    """The first root of base_h in the enumeration order of all of ctx."""
    for x in ctx.elements():
        acc = ctx.zero()
        xp = ctx.one()
        for c in base_h:
            if c:
                acc = acc + ctx.from_coeffs([c]) * xp
            xp = xp * x
        if acc.is_zero():
            return x
    return None


def test_embed_base_finds_the_first_root_in_enumeration_order():
    cases = [
        (p, a, k)
        for p in (2, 3, 5, 7, 11, 13)
        for a in range(1, 13)
        for k in range(1, 13)
        if p ** (a * k) <= 2**12
    ]
    for p, a, k in cases:
        h = gf.FieldCtx(p, a).h
        ctx = gf.FieldCtx(p, a * k)
        assert gf.embed_base(ctx, h) == scan_for_root(ctx, h), (p, a, k)
    # u^2 + u + 2 is irreducible over F_3 but not the default modulus
    h = (2, 1, 1)
    assert gf.find_irreducible(3, 2) != h
    base = gf.FieldCtx(3, 2, h)
    for k in (1, 2, 3):
        ctx = gf.FieldCtx(3, 2 * k)
        assert gf.embed_base(ctx, base.h) == scan_for_root(ctx, base.h)


def test_field_is_built_once_per_process():
    for p, n in [(2, 5), (3, 2), (5, 1)]:
        ctx = gf.field(p, n)
        assert gf.field(p, n) is ctx
        assert ctx == gf.FieldCtx(p, n)


def test_degree_must_be_positive():
    with pytest.raises(ConfigError):
        gf.FieldCtx(3, 0)
