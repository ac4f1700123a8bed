import random

import pytest

from asw_slopes.errors import CtxMismatch, InsufficientGuard, NonIntegralResult
from asw_slopes.padic import vp, vp_factorial
from asw_slopes.series import TruncSeries, compose, exp_from_power_sums, reversion
from oracles import (
    PadicInt,
    padic_coeffs,
    reference_compose,
    reference_exp,
    reference_inverse,
    reference_log,
)

P = 3
PREC = 24


def S(vals, var="s"):
    return TruncSeries(var, [PadicInt(P, v, PREC) for v in vals])


def vals(F, k=None):
    out = [c.value % P ** (c.prec if k is None else k) for c in F.coeffs]
    return out


def test_mul_truncates_to_min_order():
    a = S([1, 2, 3])
    b = S([1, 1, 1, 1, 1])
    assert (a * b).order == 3
    assert vals(a * b, 4) == [1, 3, 6]


def test_var_mismatch_rejected():
    with pytest.raises(CtxMismatch):
        S([1, 2]) + S([1, 2], var="T")


def test_shift_and_scale():
    a = S([1, 2, 7, 0])
    assert vals(a.scale(PadicInt(P, 5, PREC)), 4) == [5, 10, 35, 0]
    b = TruncSeries("s", [1, 2, 7, 0], 3, P).scale(5)
    assert (b.coeffs, b.prec) == ([5, 10, 8, 0], 3)


def test_geometric_series_from_power_sums():
    # all power sums 1: exp(sum s^k/k) = 1/(1-s)
    sums = [PadicInt(P, 1, PREC) for _ in range(7)]
    F = exp_from_power_sums(sums, "s")
    assert all(c.value % P ** c.prec == 1 for c in F.coeffs)


def test_exp_log_round_trip_seeded():
    # exp stays integral for sums in p*k*Z (order <= 7) and log gives S_k/k
    rng = random.Random(17)
    for _ in range(8):
        base = [rng.randrange(0, 3**5) for _ in range(7)]
        sums = [PadicInt(P, P * k * b, PREC) for k, b in enumerate(base, start=1)]
        F = exp_from_power_sums(sums, "s")
        L = reference_log(F)
        for k in range(1, L.order):
            got = L.coeffs[k]
            n = got.prec
            assert got.value % P**n == (P * base[k - 1]) % P**n


def test_inverse():
    F = S([1, 4, 7, 2, 9])
    G = reference_inverse(F)
    H = F * G
    assert H.coeffs[0].value % P ** H.coeffs[0].prec == 1
    assert all(c.is_zero() for c in H.coeffs[1:])


def test_compose_with_reversion_is_identity():
    # F = s + 2s^2 + 5s^3 ...; F(rev(F)) = s to the shared order
    F = TruncSeries("s", [0, 1, 2, 5, 1, 3], PREC, P)
    I = compose([F], reversion(F))[0]
    assert I.coeffs == [0, 1, 0, 0, 0, 0] and I.prec == PREC


def test_padic_series_holds_one_precision():
    # coefficients are reduced mod p^prec, and a sum is known to the least
    # precision of its terms
    a = TruncSeries("s", [1, -1, 3**5], 4, P)
    b = TruncSeries("s", [1, 1], 9, P)
    assert (a.coeffs, a.prec) == ([1, 80, 0], 4)
    assert ((a + b).coeffs, (a + b).prec) == ([2, 0], 4)
    assert (-b).coeffs == [3**9 - 1, 3**9 - 1]


def reference_reversion(F):
    """The fixed-point reversion G <- f_1^{-1}(var - R(G)), R = F - f_1 var:
    [var^n] R(G) needs only g_1..g_{n-1}, so pass n, a full Horner
    composition mod var^(n+1), fixes g_n.  The oracle for reversion."""
    f = F.coeffs
    f1_inv = f[1].unit_inverse()
    zero, one = f[0].zero_like(), f[0].one_like()
    g = [zero, f1_inv]
    for n in range(2, F.order):
        var_series = TruncSeries(F.var, [zero, one] + [zero] * (n - 1))
        R = TruncSeries(F.var, [zero, zero] + f[2 : n + 1])
        G = TruncSeries(F.var, g + [zero])
        g = (var_series - reference_compose(R, G)).scale(f1_inv).coeffs
    return TruncSeries(F.var, g)


def test_reversion_matches_the_fixed_point_oracle_seeded():
    # random unit f_1, sparse coefficients and one precision e: every
    # coefficient of the oracle, run on PadicInt, is known mod p^e too
    rng = random.Random(41)
    orders = [2, 3, 5, 8, 13, 21, 40]
    for case in range(28):
        p = (2, 3, 5, 7)[case % 4]
        L = orders[case % len(orders)]
        e = rng.randrange(1, 10)
        coeffs = [0, rng.randrange(1, p) + p * rng.randrange(p**9)]
        coeffs += [0 if rng.random() < 0.3 else rng.randrange(p**e) for _ in range(2, L)]
        F = TruncSeries("x", coeffs, e, p)
        got, want = reversion(F), reference_reversion(padic_coeffs(F))
        assert got.prec == e and {c.prec for c in want.coeffs} == {e}, (p, L, e)
        assert got.coeffs == [c.value for c in want.coeffs], (p, L, e)


def _random_series(rng, p, L, var, e, zero_rate=0.3):
    coeffs = [0 if rng.random() < zero_rate else rng.randrange(p**e) for _ in range(L)]
    return TruncSeries(var, coeffs, e, p)


def _agrees_below(got, want):
    """want, a series of PadicInt, declares at least got's precision and
    agrees with got's values mod p^prec."""
    mod = got.p**got.prec
    return all(c.prec >= got.prec for c in want.coeffs) and got.coeffs == [
        c.value % mod for c in want.coeffs
    ]


def test_compose_matches_horner_seeded():
    # columns with zero coefficients, some longer and some shorter than G,
    # against Horner on PadicInt: compose declares min(prec G, prec F) and
    # agrees with Horner's values to that precision
    rng = random.Random(61)
    for case in range(32):
        p = (2, 3, 5, 7)[case % 4]
        L = rng.choice([1, 2, 3, 6, 11, 20, 28])
        g = rng.randrange(1, 12)
        G = _random_series(rng, p, L, "T", g, zero_rate=rng.choice([0, 0.3]))
        G.coeffs[0] = 0
        cols = [
            _random_series(rng, p, rng.randrange(1, L + 4), "pi", rng.randrange(0, 14),
                           rng.choice([0, 0.4, 1]))
            for _ in range(rng.randrange(1, 5))
        ]
        for F, got in zip(cols, compose(cols, G)):
            assert got.prec == min(g, F.prec) and got.order == L, (p, L, g)
            assert _agrees_below(got, reference_compose(padic_coeffs(F), padic_coeffs(G)))


def test_compose_never_claims_more_than_horner():
    # Horner on PadicInt declares at least min(prec G, prec F) everywhere;
    # compose declares exactly that minimum
    rng = random.Random(67)
    for case in range(16):
        p = (2, 3, 5, 7)[case % 4]
        L = rng.choice([3, 7, 12])
        G = _random_series(rng, p, L, "T", rng.randrange(1, 9))
        G.coeffs[0] = 0
        F = _random_series(rng, p, L, "pi", rng.randrange(1, 9))
        (got,), want = compose([F], G), reference_compose(padic_coeffs(F), padic_coeffs(G))
        assert got.prec == min(G.prec, F.prec)
        assert _agrees_below(got, want)


def _power_sums(rng, p, L, K, lo):
    """c_k = sum_i a_i^k over random T-series roots a_i, plus pairs (b, -b)
    whose odd power sums cancel, so exp(sum c_k s^k/k) = prod 1/(1 - a_i s)
    is integral and odd-k sums can be all zero.  The roots are series of
    PadicInt; the sums come back as p-adic series, each at its least
    declared precision."""
    def root():
        return padic_coeffs(_random_series(rng, p, L, "T", rng.randrange(lo, 16)))

    roots = [root() for _ in range(rng.randrange(0, 3))]
    for _ in range(rng.randrange(0, 2)):
        b = root()
        roots += [b, -b]
    zero = padic_coeffs(TruncSeries("T", [0] * L, rng.randrange(lo, 16), p))
    sums, powers = [], list(roots)
    for _ in range(K):
        acc = zero
        for x in powers:
            acc = acc + x
        e = min(c.prec for c in acc.coeffs)
        sums.append(TruncSeries("T", [c.value for c in acc.coeffs], e, p))
        powers = [x * r for x, r in zip(powers, roots)]
    return sums


def _running_min_precisions(sums):
    """The declared precision e_n of each exp column, or None where the
    guard runs out: e_0 = prec c_1, and step n works at
    w = min(e_{n-1}, prec c_n) and declares e_n = w - v_p(n)."""
    p = sums[0].p
    e = [sums[0].prec]
    for n, c in enumerate(sums, start=1):
        w = min(e[-1], c.prec)
        if w < vp(n, p):
            return None
        e.append(w - vp(n, p))
    return e


def test_flat_exp_matches_the_padic_recurrence_seeded():
    # column n declares exactly e_n of the running-minimum rule, which for
    # one uniform precision e is e - v_p(n!); the zero-skipping oracle never
    # declares less and agrees to that precision.  The guard runs out
    # exactly when some step's working precision is below v_p(n), and a
    # remainder in a division is NonIntegralResult on both sides.
    rng = random.Random(71)
    cases = []
    for case in range(60):
        p = (2, 3, 5, 7)[case % 4]
        lo = rng.choice([1, 4, 4])
        L, K = rng.choice([1, 4, 9, 16]), rng.randrange(1, 9)
        if K < p and case % 3:
            # every n <= K < p is a unit, so any sums are integral: random
            # values, precisions and zeros, all-zero sums included
            sums = [_random_series(rng, p, L, "T", rng.randrange(lo, 16),
                                   rng.choice([0.2, 0.6, 1])) for _ in range(K)]
        else:
            sums = _power_sums(rng, p, L, K, lo)
            if case % 2:
                # graded as char_series reads them: c_k keeps only the
                # digits the divisions by k, ..., K spend, over a target t
                t = rng.randrange(0, 4)
                sums = [TruncSeries("T", c.coeffs, min(c.prec, t + vp_factorial(K, p)
                                                       - vp_factorial(k, p)), p)
                        for k, c in enumerate(sums)]
        cases.append(sums)
    # a_2 = (c_2 + c_1 a_1)/2 is 1/2 for c = (1, 0), and needs a digit that
    # precision 0 does not have
    cases += [[TruncSeries("T", [1, 0], 5, 2), TruncSeries("T", [0, 0], 5, 2)],
              [TruncSeries("T", [0, 2], 0, 2), TruncSeries("T", [0, 0], 5, 2)]]
    raised, more, graded = set(), 0, 0
    for sums in cases:
        p, K = sums[0].p, len(sums)
        e0 = min(c.prec for c in sums)
        declared = _running_min_precisions(sums)
        oracle = [padic_coeffs(c) for c in sums]
        try:
            got = exp_from_power_sums(sums, "s")
        except InsufficientGuard:
            raised.add("InsufficientGuard")
            assert declared is None
            continue
        except NonIntegralResult:
            raised.add("NonIntegralResult")
            with pytest.raises(NonIntegralResult):
                reference_exp(oracle, "s")
            continue
        want = reference_exp(oracle, "s")
        assert [col.prec for col in got.coeffs] == declared
        for n, (col, ref) in enumerate(zip(got.coeffs, want.coeffs)):
            assert col.prec >= e0 - vp_factorial(n, p)
            assert _agrees_below(col, ref)
            more += any(c.prec > col.prec for c in ref.coeffs)
        graded += declared[-1] > e0 - vp_factorial(K, p)
    assert any(not any(s.coeffs) for sums in cases for s in sums)
    assert raised == {"InsufficientGuard", "NonIntegralResult"}
    assert more and graded
