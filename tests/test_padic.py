import random

import pytest

from asw_slopes import gf
from asw_slopes.errors import InsufficientGuard, NonIntegralResult
from asw_slopes.padic import (
    CycInt,
    PadicInt,
    Valuation,
    ZqCtx,
    binom_pow,
    cyc_valuation,
    teich_trace,
    teichmuller,
    vp,
    vp_factorial,
)


def test_vp():
    with pytest.raises(ZeroDivisionError):
        vp(0, 5)
    assert vp(48, 2) == 4
    assert vp(45, 3) == 2
    assert vp(7, 7) == 1


def test_vp_factorial_matches_direct():
    for p in (2, 3, 5):
        for n in range(0, 40):
            direct = sum(vp(k, p) for k in range(1, n + 1))
            assert vp_factorial(n, p) == direct


def test_padic_basics():
    a = PadicInt(3, 10, 5)
    b = PadicInt(3, 8, 5)
    assert (a + b).value % 3**5 == 18
    assert (a * b).value % 3**5 == 80
    assert (a - a).is_zero()
    assert a.reduce(2).prec == 2


def test_padic_precision_is_min():
    a = PadicInt(2, 7, 6)
    b = PadicInt(2, 1, 3)
    assert (a + b).prec == 3
    assert (a * b).prec == 3


def test_exact_div_int():
    a = PadicInt(2, 12, 6)
    half = a.exact_div_int(4)
    assert half.value % 2**half.prec == 3 % 2**half.prec
    with pytest.raises(NonIntegralResult):
        PadicInt(2, 3, 6).exact_div_int(2)


def test_unit_inverse():
    for p, v in [(2, 7), (3, 5), (5, 12)]:
        x = PadicInt(p, v, 8)
        assert (x * x.unit_inverse()).value % p**8 == 1


def test_valuation_kinds():
    e = Valuation.exact(3)
    fl = Valuation.at_least(5)
    inf = Valuation.infinite()
    assert e.is_exact() and not fl.is_exact() and not inf.is_exact()
    assert e.scaled(2).value == 6


def test_teichmuller_fixed_point():
    # omega^q = omega and omega = x mod p, for every x in the field
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        ctx = gf.FieldCtx(p, n)
        z = ZqCtx(ctx, 6)
        q = p**n
        for i in range(ctx.order):
            w = teichmuller(z, ctx.element(i))
            assert z.pow(w, q) == w
            assert tuple(c % p for c in w) == tuple(ctx.element(i).coeffs)


def test_teich_trace_against_trace_form():
    # orbit-sum algorithm vs the linear trace form on the same lifts
    for p, n in [(2, 2), (3, 2)]:
        ctx = gf.FieldCtx(p, n)
        z = ZqCtx(ctx, 5)
        f = [ctx.zero(), ctx.zero(), ctx.one()]  # x^2
        for i in range(ctx.order):
            x = ctx.element(i)
            got = teich_trace(ctx, x, f, 5)
            w = teichmuller(z, x)
            expect = z.trace(z.mul(w, w))
            assert got.value % p**5 == expect % p**5


def test_cyc_zeta_relations():
    z = CycInt.zeta_power(3, 2, 1)
    acc = CycInt.from_int(3, 2, 1)
    for _ in range(9):
        acc = acc * z
    assert acc.coeffs == CycInt.from_int(3, 2, 1).coeffs  # zeta^9 = 1
    # 1 + zeta^3 + zeta^6 = 0 (the level-1 relation pushed up)
    s = (
        CycInt.from_int(3, 2, 1)
        + CycInt.zeta_power(3, 2, 3)
        + CycInt.zeta_power(3, 2, 6)
    )
    assert s.is_zero()


def test_cyc_valuation_normalization():
    # v(pi) = 1 and v(p) = (p-1) p^{m-1}, the ramification degree
    for p, m in [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1)]:
        pi = CycInt.zeta_power(p, m, 1) - CycInt.from_int(p, m, 1)
        assert cyc_valuation(pi).value == 1
        assert cyc_valuation(CycInt.from_int(p, m, p)).value == (p - 1) * p ** (m - 1)


def test_cyc_valuation_multiplicative_seeded():
    rng = random.Random(23)
    p, m = 3, 2
    for _ in range(25):
        a = CycInt.zero(p, m)
        b = CycInt.zero(p, m)
        for e in range(6):
            a = a + CycInt.zeta_power(p, m, e).scale(rng.randrange(-4, 5))
            b = b + CycInt.zeta_power(p, m, e).scale(rng.randrange(-4, 5))
        if a.is_zero() or b.is_zero():
            continue
        assert (
            cyc_valuation(a * b).value
            == cyc_valuation(a).value + cyc_valuation(b).value
        )


def test_cyc_conjugate_is_ring_map():
    p, m, c = 3, 2, 4
    a = CycInt.zeta_power(p, m, 1) + CycInt.from_int(p, m, 2)
    b = CycInt.zeta_power(p, m, 5).scale(3) - CycInt.from_int(p, m, 1)
    assert (a * b).conjugate(c).coeffs == (a.conjugate(c) * b.conjugate(c)).coeffs
    assert (a + b).conjugate(c).coeffs == (a.conjugate(c) + b.conjugate(c)).coeffs
    # conjugation preserves valuation (Galois acts on the single prime)
    assert cyc_valuation(a.conjugate(c)).value == cyc_valuation(a).value


def test_cyc_embed_compatible_with_valuation():
    # Q(zeta_3) -> Q(zeta_9) multiplies valuations by p
    a = CycInt.zeta_power(3, 1, 1) - CycInt.from_int(3, 1, 1)
    up = a.embed(2)
    assert cyc_valuation(up).value == 3 * cyc_valuation(a).value


# ---------------------------------------------------------------------------
# reference oracle: v_pi(z) = v_p(Res(Phi_{p^m}, z)) by Sylvester determinant


def _det_bareiss(rows) -> int:
    """Fraction-free determinant of an integer matrix."""
    n = len(rows)
    if n == 0:
        return 1
    M = [list(r) for r in rows]
    sign = 1
    prev = 1
    for k in range(n - 1):
        if M[k][k] == 0:
            for i in range(k + 1, n):
                if M[i][k]:
                    M[k], M[i] = M[i], M[k]
                    sign = -sign
                    break
            else:
                return 0
        pivot = M[k][k]
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                M[i][j] = (M[i][j] * pivot - M[i][k] * M[k][j]) // prev
            M[i][k] = 0
        prev = pivot
    return sign * M[n - 1][n - 1]


def _resultant(a, b) -> int:
    """Res(a, b) of ascending integer coefficient lists, nonzero leading terms."""
    da, db = len(a) - 1, len(b) - 1
    size = da + db
    rows = [[0] * i + a[::-1] + [0] * (db - 1 - i) for i in range(db)]
    rows += [[0] * i + b[::-1] + [0] * (da - 1 - i) for i in range(da)]
    return _det_bareiss(rows) if size else 1


def _resultant_with_cyclotomic(g, p: int, m: int) -> int:
    """Res(Phi_{p^m}, g) = Norm(g(zeta)) since Phi is monic.

    For monic g of low degree the Sylvester matrix is shrunk first:
    Res(Phi, g) = (-1)^{deg Phi deg g} Res(g, Phi mod g).
    """
    step = p ** (m - 1)
    Phi = [0] * ((p - 1) * step + 1)
    for j in range(p):
        Phi[j * step] = 1
    g = list(g)
    while g and g[-1] == 0:
        g.pop()
    if not g:
        return 0
    dg = len(g) - 1
    if g[-1] != 1 or 2 * dg >= len(Phi):
        return _resultant(Phi, g)
    r = list(Phi)
    for i in range(len(r) - 1, dg - 1, -1):
        c = r[i]
        for j in range(dg + 1):
            r[i - dg + j] -= c * g[j]
    r = r[:dg]
    while r and r[-1] == 0:
        r.pop()
    return (-1) ** ((len(Phi) - 1) * dg) * _resultant(g, r) if r else 0


@pytest.mark.parametrize("p,m", [(p, m) for p in (2, 3, 5, 7) for m in (1, 2, 3)])
def test_cyc_valuation_matches_resultant_oracle(p, m):
    rng = random.Random(f"cyc:{p}:{m}")
    e = (p - 1) * p ** (m - 1)
    pi = CycInt.zeta_power(p, m, 1) - CycInt.from_int(p, m, 1)
    v_res_pi = vp(_resultant_with_cyclotomic([-1, 1], p, m), p)
    assert cyc_valuation(pi) == Valuation.exact(v_res_pi) == Valuation.exact(1)
    # a full-degree Sylvester determinant costs O(e^3) big-integer steps, so
    # past e = 42 the elements are monic cubics in zeta and the pi^k factor
    # is charged through Res(Phi, g h) = Res(Phi, g) Res(Phi, h)
    direct = e <= 42
    for _ in range(8 if direct else 4):
        if direct:
            g = [rng.randrange(-9, 10) for _ in range(e)]
        else:
            g = [rng.randrange(-9, 10) for _ in range(3)] + [1]
        z = CycInt(p, m, g + [0] * (e - len(g)))
        if z.is_zero():
            continue
        v_res_z = vp(_resultant_with_cyclotomic(g, p, m), p)
        for k in sorted({0, 1, rng.randrange(2 * e + 1), 2 * e}):
            w = z
            sq, j = pi, k  # w = z * pi^k by repeated squaring
            while j:
                if j & 1:
                    w = w * sq
                sq, j = sq * sq, j >> 1
            if direct:
                want = vp(_resultant_with_cyclotomic(list(w.coeffs), p, m), p)
                assert want == v_res_z + k * v_res_pi
            else:
                want = v_res_z + k * v_res_pi
            assert cyc_valuation(w) == Valuation.exact(want)
            # a reading at or above the cap only certifies the cap
            assert cyc_valuation(w, cap=want) == Valuation.at_least(want)
            assert cyc_valuation(w, cap=want + 1) == Valuation.exact(want)
    assert cyc_valuation(CycInt.zero(p, m), cap=e) == Valuation.at_least(e)


def test_binom_pow_homomorphism_seeded():
    rng = random.Random(5)
    p, D, N = 3, 8, 6
    for _ in range(10):
        t1 = PadicInt(p, rng.randrange(0, 3**6), N + vp_factorial(D - 1, p))
        t2 = PadicInt(p, rng.randrange(0, 3**6), N + vp_factorial(D - 1, p))
        lhs = binom_pow(t1 + t2, D, N)
        rhs = binom_pow(t1, D, N) * binom_pow(t2, D, N)
        for x, y in zip(lhs.coeffs, rhs.coeffs):
            k = min(x.prec, y.prec, N)
            assert x.value % p**k == y.value % p**k


def test_truncation_cannot_extend():
    s = binom_pow(PadicInt(2, 3, 8), 5, 4)
    with pytest.raises(InsufficientGuard):
        s.truncate(7)
