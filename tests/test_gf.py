import random

import pytest

from asw_slopes import gf
from asw_slopes.errors import ConfigError, NotPrime
from asw_slopes.expsum import TowerSpec
from asw_slopes.padic import CycInt, ZqCtx
from oracles import (
    field_elements,
    field_sub,
    reference_cyc_mul,
    reference_find_irreducible,
    reference_polymod,
    reference_polymul,
    reference_polypowmod,
    reference_zq_mul,
)


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


def test_root_sieve_keeps_the_first_irreducible_of_the_plain_scan():
    cases = [
        (p, n) for p in range(2, 2**14) if gf.is_prime(p) for n in range(1, 15) if p**n <= 2**14
    ]
    for p, n in cases + [(2, 19), (3, 20), (5, 9)]:
        assert gf.find_irreducible(p, n) == reference_find_irreducible(p, n), (p, n)


def test_element_index_round_trip():
    ctx = gf.FieldCtx(3, 2)
    seen = set()
    for i in range(ctx.order):
        x = ctx.element(i)
        assert ctx.index(x) == i
        seen.add(x)
    assert len(seen) == 9


def test_multiplicative_generator_order():
    for p, n in [(2, 3), (3, 2), (5, 1), (7, 1)]:
        ctx = gf.FieldCtx(p, n)
        g = ctx.multiplicative_generator()
        q = ctx.order
        one = acc = ctx.element(1)
        orbit = set()
        for _ in range(q - 1):
            acc = ctx.mul(acc, g)
            orbit.add(ctx.index(acc))
        assert acc == one
        assert len(orbit) == q - 1  # genuinely primitive


def test_ring_axioms_seeded():
    rng = random.Random(7)
    for p, n in [(2, 4), (3, 2), (5, 2)]:
        ctx = gf.FieldCtx(p, n)
        for _ in range(40):
            a, b, c = (ctx.element(rng.randrange(ctx.order)) for _ in range(3))
            add, mul = ctx.add, ctx.mul
            assert mul(add(a, b), c) == add(mul(a, c), mul(b, c))
            assert mul(a, b) == mul(b, a)
            assert add(add(a, b), c) == add(a, add(b, c))
            assert field_sub(ctx, add(a, b), b) == a
            if any(a):
                assert mul(a, ctx.pow(a, ctx.order - 2)) == ctx.element(1)


def test_frobenius_is_pth_power_and_fixes_base():
    ctx = gf.FieldCtx(3, 2)
    for i in range(ctx.order):
        x = ctx.element(i)
        assert ctx.pow(x, 3) == ctx.mul(ctx.mul(x, x), x)
    # prime field elements are fixed
    for r in range(3):
        x = ctx.element(r)
        assert ctx.pow(x, 3) == x


def test_embed_base_respects_arithmetic():
    base = gf.FieldCtx(2, 2)
    big = gf.FieldCtx(2, 4)
    img = gf.embed_base(big, base.h)
    # the image generates a copy of F_4: check its multiplicative order divides 3
    one = big.element(1)
    assert any(img)
    assert big.pow(img, 3) == one or img == one
    for i in range(base.order):
        for j in range(base.order):
            x, y = base.element(i), base.element(j)
            ex = gf.embed_element(base, x, big)
            ey = gf.embed_element(base, y, big)
            assert gf.embed_element(base, base.mul(x, y), big) == big.mul(ex, ey)
            assert gf.embed_element(base, base.add(x, y), big) == big.add(ex, ey)
        # into the base field itself the embedding is the identity
        assert gf.embed_element(base, base.element(i), base) == base.element(i)


def scan_for_root(ctx, base_h):
    """The first root of base_h in the enumeration order of all of ctx."""
    for x in field_elements(ctx):
        acc = ctx.element(0)
        xp = ctx.element(1)
        for c in base_h:
            if c:
                acc = ctx.add(acc, ctx.mul(ctx.element(c), xp))
            xp = ctx.mul(xp, x)
        if not any(acc):
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
    # an explicit modulus is a key of its own, and a tower takes the shared field
    h = (2, 2, 1)  # u^2 + 2u + 2, not the default u^2 + 1
    assert gf.field(3, 2, h) is gf.field(3, 2, h)
    assert gf.field(3, 2, h) != gf.field(3, 2)
    assert TowerSpec(3, 2, [0, 1], list(h)).ctx is gf.field(3, 2, h)


def test_degree_must_be_positive():
    with pytest.raises(ConfigError):
        gf.FieldCtx(3, 0)


# ---------------------------------------------------------------------------
# the integer polynomial kernel against the loops it replaced


def _vec(rng, length, bound):
    """A random vector with some zero entries, entries in (-bound, bound)."""
    return [rng.randrange(-bound + 1, bound) if rng.random() < 0.8 else 0 for _ in range(length)]


def _schoolbook(a, b):
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


def test_convolve_truncates_the_exact_product_seeded():
    rng = random.Random(11)
    for _ in range(300):
        a = _vec(rng, rng.randrange(1, 10), 10**6)
        b = _vec(rng, rng.randrange(1, 10), 10**6)
        full = _schoolbook(a, b)
        assert gf.convolve(a, b) == full
        for n in range(len(full) + 4):  # below, at and above the full length
            assert gf.convolve(a, b, n) == (full + [0] * 4)[:n]
    assert gf.convolve([0, 0], [5, 7], 3) == [0, 0, 0]
    assert gf.convolve([1], [5, 7]) == [5, 7]


def test_kernel_matches_the_replaced_loops_seeded():
    rng = random.Random(5)
    for p in (2, 3, 5, 7):
        for n in range(1, 9):
            h = list(gf.find_irreducible(p, n))
            for N in (1, 2, 5):
                mod = p**N
                zero, one = [0] * n, [1] + [0] * (n - 1)
                for _ in range(6):
                    # unreduced inputs, up to twice the degree
                    a = _vec(rng, rng.randrange(1, 2 * n + 2), 3 * mod)
                    b = _vec(rng, rng.randrange(1, 2 * n + 2), 3 * mod)
                    ra = reference_polymod([x % mod for x in a], h, mod)
                    rb = reference_polymod([x % mod for x in b], h, mod)
                    assert gf.reduce_mod(a, h, mod) == ra
                    want = reference_polymod(reference_polymul(ra, rb, mod), h, mod)
                    assert gf.mulmod(a, b, h, mod) == want
                    for x in (zero, one):
                        assert gf.mulmod(a, x, h, mod) == gf.mulmod(x, a, h, mod)
                        assert gf.mulmod(x, a, h, mod) == (ra if x is one else zero)
                    e = rng.randrange(0, p ** (n + 1))
                    assert gf.powmod(a, e, h, mod) == reference_polypowmod(ra, e, h, mod)
                    assert gf.powmod(zero, 0, h, mod) == one
                    assert gf.powmod(zero, e + 1, h, mod) == zero
                    if N > 1:
                        z = ZqCtx(gf.field(p, n), N)
                        assert z.mul(ra, rb) == reference_zq_mul(z, ra, rb) == tuple(want)


def test_cyclotomic_product_matches_the_replaced_loop_seeded():
    rng = random.Random(3)
    for p, m in [(2, 1), (2, 3), (3, 1), (3, 2), (5, 1), (7, 1)]:
        e = (p - 1) * p ** (m - 1)
        zero = CycInt.zero(p, m)
        for _ in range(25):
            x = CycInt(p, m, _vec(rng, e, 50))
            y = CycInt(p, m, _vec(rng, e, 50))
            assert x * y == reference_cyc_mul(x, y)
            assert x * zero == zero and x * CycInt.from_int(p, m, 1) == x


def test_field_arithmetic_in_f27():
    # independent of the reference loops: Lagrange in F_27^x, and Frobenius
    # is a ring map
    ctx = gf.FieldCtx(3, 3)
    elts = field_elements(ctx)
    for x in elts[1:]:
        assert ctx.pow(x, ctx.order - 1) == ctx.element(1)
    for x in elts:
        for y in elts[::4]:
            fx, fy = ctx.pow(x, 3), ctx.pow(y, 3)
            assert ctx.pow(ctx.add(x, y), 3) == ctx.add(fx, fy)
            assert ctx.pow(ctx.mul(x, y), 3) == ctx.mul(fx, fy)


def test_packed_product_matches_the_schoolbook_loops_seeded():
    # random monic moduli (the fold needs no irreducible), n from 1 to 20,
    # moduli p, p^2, p^24 and one whose packed fields pass 64 bits; zero
    # operands, operands shorter than n and entries outside [0, mod)
    rng = random.Random(29)
    for p in (2, 3, 5, 7):
        wide = next(N for N in range(24, 64) if gf.fold_rows([0, 1], p**N)[0] > 64)
        for n in range(1, 21):
            h = [rng.randrange(p) for _ in range(n)] + [1]
            q = p**n
            for N in sorted({1, 2, 24, wide}):
                mod = p**N
                fold = gf.fold_rows(h, mod)
                short = _vec(rng, rng.randrange(n), 3 * mod)
                full = _vec(rng, n, 3 * mod)
                operands = [[0] * n, short, full, [rng.randrange(mod) for _ in range(n)]]
                reduced = [reference_polymod([x % mod for x in a], h, mod) for a in operands]
                for a, ra in zip(operands, reduced):
                    for b, rb in zip(operands[1:3], reduced[1:3]):
                        want = reference_polymod(reference_polymul(ra, rb, mod), h, mod)
                        assert gf.mulmod(a, b, h, mod) == want, (p, n, N)
                        assert gf.mulmod(b, a, h, mod, fold) == want
                # the reference power costs n^2 steps a bit: q^N (up to 2^1400)
                # at the wide moduli for n <= 6 only
                for e in (0, 1, 2, q - 1) + ((q**N,) if N < 24 or n <= 6 else ()):
                    for a, ra in zip(operands[:3], reduced[:3]):
                        want = reference_polypowmod(ra, e, h, mod)
                        assert gf.powmod(a, e, h, mod, fold) == want, (p, n, N, e)
