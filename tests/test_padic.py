import random

import pytest

from asw_slopes import gf
from asw_slopes.errors import ConfigError, InsufficientGuard, NonIntegralResult
from asw_slopes.padic import (
    CycInt,
    Valuation,
    ZqCtx,
    binom_pow,
    cyc_valuation,
    eisenstein,
    phi_pm,
    pi_valuation,
    teichmuller,
    vp,
    vp_factorial,
)
from oracles import (
    PadicInt,
    field_elements,
    padic_coeffs,
    reference_teich_trace,
    reference_teichmuller,
    reference_trace_form,
    truncate,
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


def test_teichmuller_fixed_point():
    # omega^q = omega and omega = x mod p, for every x in the field
    for p, n in [(2, 3), (3, 2), (5, 1)]:
        ctx = gf.FieldCtx(p, n)
        z = ZqCtx(ctx, 6)
        q = p**n
        for i in range(ctx.order):
            w = teichmuller(z, ctx.element(i))
            assert z.pow(w, q) == w
            assert tuple(c % p for c in w) == ctx.element(i)


def test_teich_trace_against_trace_form():
    # orbit-sum algorithm vs the linear trace form on the same lifts
    for p, n in [(2, 2), (3, 2)]:
        ctx = gf.FieldCtx(p, n)
        z = ZqCtx(ctx, 5)
        f = [ctx.element(0), ctx.element(0), ctx.element(1)]  # x^2
        for i in range(ctx.order):
            x = ctx.element(i)
            got = reference_teich_trace(ctx, x, f, 5)
            w = teichmuller(z, x)
            expect = z.trace(z.mul(w, w))
            assert got % p**5 == expect % p**5


def test_trace_form_matches_newtons_identities_seeded():
    # the trace of multiplication by u^m against the power sums of the roots
    # of H, on default and random irreducible moduli, from N = 1 (every
    # coordinate mod p) to wide N (Python ints well past 2^64)
    rng = random.Random(20261018)
    for _ in range(60):
        p = rng.choice([2, 3, 5, 7])
        n = rng.randrange(1, 13)
        ctx = gf.field(p, n)
        if rng.random() < 0.5:
            while True:
                try:
                    ctx = gf.FieldCtx(p, n, [rng.randrange(p) for _ in range(n)] + [1])
                    break
                except ConfigError:
                    continue
        z = ZqCtx(ctx, rng.choice([1, 2, 3, rng.randrange(4, 60)]))
        assert z.trace_form == reference_trace_form(z), (p, ctx.h, z.N)


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


def test_pi_valuation_reads_zero_and_capped_digits():
    # 3 + 2 pi + 9 pi^2 at e = 4: terms of weight 4, 1 and 10
    assert pi_valuation([3, 2, 9], 3, 4) == Valuation.exact(1)
    assert pi_valuation([3, 3, 9], 3, 4) == Valuation.exact(4)
    assert pi_valuation([9, 9, 9, 1], 3, 4) == Valuation.exact(3)
    # a reading at the cap is a floor at the cap, one below it is exact
    assert pi_valuation([3, 3, 9], 3, 4, cap=4) == Valuation.at_least(4)
    assert pi_valuation([3, 3, 9], 3, 4, cap=5) == Valuation.exact(4)
    # all-zero digits: infinite, or a floor at the cap when there is one
    assert pi_valuation([0, 0, 0], 3, 4) == Valuation.infinite()
    assert pi_valuation([], 3, 4) == Valuation.infinite()
    assert pi_valuation([0, 0], 3, 4, cap=7) == Valuation.at_least(7)
    assert cyc_valuation(CycInt.zero(3, 2)) == Valuation.infinite()


@pytest.mark.parametrize("p, m", [(2, 1), (2, 3), (3, 1), (3, 2), (5, 2), (7, 1)])
def test_eisenstein_is_the_minimal_polynomial_of_pi(p, m):
    mod = p**12
    E = eisenstein(p, m, mod)
    e = phi_pm(p, m)
    assert len(E) == e + 1 and E[-1] == 1 and E[0] == p
    assert all(c % p == 0 for c in E[:-1]) and E[0] % p**2
    # E(zeta - 1) = 0 in Z[zeta]
    pi = CycInt.zeta_power(p, m, 1) - CycInt.from_int(p, m, 1)
    acc, power = CycInt.zero(p, m), CycInt.from_int(p, m, 1)
    for c in E:
        acc, power = acc + power.scale(c), power * pi
    assert all(c % mod == 0 for c in acc.coeffs)


def test_binom_pow_homomorphism_seeded():
    rng = random.Random(5)
    p, D, N = 3, 8, 6
    prec = N + vp_factorial(D - 1, p)
    for _ in range(10):
        t1, t2 = rng.randrange(0, 3**6), rng.randrange(0, 3**6)
        lhs = binom_pow(p, t1 + t2, prec, D)
        rhs = padic_coeffs(binom_pow(p, t1, prec, D)) * padic_coeffs(binom_pow(p, t2, prec, D))
        assert lhs.prec == N
        assert lhs.coeffs == [y.value % p**N for y in rhs.coeffs]


def test_truncation_cannot_extend():
    s = binom_pow(2, 3, 8, 5)
    assert s.prec == 8 - vp_factorial(4, 2)
    with pytest.raises(InsufficientGuard):
        truncate(s, 7)
    with pytest.raises(InsufficientGuard):
        binom_pow(2, 3, 3, 5)  # v_2(4!) = 3 guard digits leave none


def test_teichmuller_newton_matches_the_power_iteration_seeded():
    # residue 0, N = 1, every degree n <= 6, and tuples that are not reduced
    # mod p (including nonzero multiples of p, which lift to 0)
    rng = random.Random(83)
    for p in (2, 3, 5, 7):
        for n in range(1, 7):
            ctx = gf.field(p, n)
            for N in sorted({1, 2, 3, rng.randrange(4, 12)}):
                z = ZqCtx(ctx, N)
                xs = [ctx.element(0), ctx.element(1)]
                xs += [ctx.element(rng.randrange(ctx.order)) for _ in range(3)]
                for x in xs:
                    assert teichmuller(z, x) == reference_teichmuller(z, x), (p, n, N)
                for _ in range(2):
                    t = tuple(rng.randrange(p ** (N + 1)) for _ in range(n))
                    zero = tuple(p * rng.randrange(p**N) for _ in range(n))
                    assert teichmuller(z, t) == reference_teichmuller(z, t)
                    assert teichmuller(z, zero) == reference_teichmuller(z, zero)


def test_teichmuller_of_a_subfield_element_needs_only_the_subfield_exponent():
    # with q = p^a, omega^q runs while it outruns Newton (one power from 1
    # digit to 1 + a), then Newton doubles: N from a power alone up to
    # N > 2a, where Newton steps follow the power
    for p in (2, 3, 5):
        for a in (1, 2, 3) if p < 5 else (1, 2):
            base = gf.field(p, a)
            for k in (2, 3):
                ext = gf.field(p, a * k)
                for N in sorted({2, a + 1, 5, 2 * a + 1, 2 * a + 3}):
                    z = ZqCtx(ext, N)
                    for b in field_elements(base):
                        bk = gf.embed_element(base, b, ext)
                        want = reference_teichmuller(z, bk)
                        assert teichmuller(z, bk, p**a) == want, (p, a, k, N, b)
                        assert teichmuller(z, bk) == want, (p, a, k, N, b)
