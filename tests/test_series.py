import random

import pytest

from asw_slopes.errors import CtxMismatch
from asw_slopes.padic import PadicInt
from asw_slopes.series import TruncSeries, compose, exp_from_power_sums, reversion
from oracles import reference_compose, reference_exp, reference_inverse, reference_log

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
    # shift keeps the truncation window, so top coefficients fall off
    assert vals(a.shift(2), 4) == [0, 0, 1, 2]
    assert vals(a.scale(PadicInt(P, 5, PREC)), 4) == [5, 10, 35, 0]


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
    F = S([0, 1, 2, 5, 1, 3])
    R = reversion(F)
    I = compose([F], R)[0]
    got = vals(I, 6)
    assert got[0] == 0 and got[1] == 1 and all(v == 0 for v in got[2:])


def test_exact_div_int_serieswise():
    F = S([3, 6, 9])
    G = F.exact_div_int(3)
    assert vals(G, 6) == [1, 2, 3]


def test_min_prec_tracks_worst_coefficient():
    a = TruncSeries("s", [PadicInt(P, 1, 9), PadicInt(P, 1, 4)])
    assert a.min_prec() == 4


def test_degree_ignores_trailing_zeros():
    a = S([2, 1, 0, 0])
    assert a.degree() == 1


def reference_reversion(F):
    """The fixed-point reversion G <- f_1^{-1}(var - R(G)), one order per
    pass, each pass a full Horner composition: the oracle for reversion."""
    f = F.coeffs
    f1_inv = f[1].unit_inverse()
    L = F.order
    zero = f[0].zero_like()
    R = TruncSeries(F.var, [zero, zero] + f[2:])
    var_series = TruncSeries(F.var, [zero, f[0].one_like()] + [zero] * (L - 2))
    G = var_series.scale(f1_inv)
    for _ in range(L - 1):
        G = (var_series - reference_compose(R, G)).scale(f1_inv)
    return G


def test_reversion_matches_the_fixed_point_oracle_seeded():
    # random unit f_1, sparse coefficients and a precision per coefficient;
    # == compares every value and every PadicInt.prec
    rng = random.Random(41)
    orders = [2, 3, 5, 8, 13, 21, 40]
    for case in range(28):
        p = (2, 3, 5, 7)[case % 4]
        L = orders[case % len(orders)]
        precs = [rng.randrange(1, 10) for _ in range(L)]
        coeffs = [PadicInt(p, 0, precs[0])]
        coeffs.append(PadicInt(p, rng.randrange(1, p) + p * rng.randrange(p**9), precs[1]))
        for k in range(2, L):
            v = 0 if rng.random() < 0.3 else rng.randrange(p ** precs[k])
            coeffs.append(PadicInt(p, v, precs[k]))
        F = TruncSeries("x", coeffs)
        assert reversion(F) == reference_reversion(F), (p, L, precs)


def _random_series(rng, p, L, var, precs, zero_rate=0.3):
    coeffs = []
    for e in precs[:L]:
        v = 0 if rng.random() < zero_rate else rng.randrange(p**e)
        coeffs.append(PadicInt(p, v, e))
    return TruncSeries(var, coeffs)


def test_compose_matches_horner_seeded():
    # columns with a precision per coefficient and zero coefficients, some
    # longer and some shorter than G, against Horner on PadicInt; == compares
    # every value and every PadicInt.prec
    rng = random.Random(61)
    for case in range(32):
        p = (2, 3, 5, 7)[case % 4]
        L = rng.choice([1, 2, 3, 6, 11, 20, 28])
        g = rng.randrange(1, 12)
        G = _random_series(rng, p, L, "T", [g] * L, zero_rate=rng.choice([0, 0.3]))
        G.coeffs[0] = PadicInt(p, 0, g)
        cols = []
        for _ in range(rng.randrange(1, 5)):
            n = rng.randrange(1, L + 4)
            precs = [rng.randrange(0, 14) for _ in range(n)]
            cols.append(_random_series(rng, p, n, "pi", precs, rng.choice([0, 0.4, 1])))
        got = compose(cols, G)
        assert got == [reference_compose(F, G) for F in cols], (p, L, g)


def test_compose_never_claims_more_than_horner():
    # when G's coefficients carry different precisions, compose declares the
    # least of them; Horner can claim more where it skips zero products,
    # never less, and the values agree to the declared precision
    rng = random.Random(67)
    for case in range(16):
        p = (2, 3, 5, 7)[case % 4]
        L = rng.choice([3, 7, 12])
        G = _random_series(rng, p, L, "T", [rng.randrange(1, 9) for _ in range(L)])
        G.coeffs[0] = G.coeffs[0].zero_like()
        F = _random_series(rng, p, L, "pi", [rng.randrange(1, 9) for _ in range(L)])
        (got,), want = compose([F], G), reference_compose(F, G)
        for a, b in zip(got.coeffs, want.coeffs):
            assert a.prec <= b.prec
            assert (a.value - b.value) % p**a.prec == 0


def _power_sums(rng, p, L, K, lo):
    """c_k = sum_i a_i^k over random T-series roots a_i, plus pairs (b, -b)
    whose odd power sums cancel, so exp(sum c_k s^k/k) = prod 1/(1 - a_i s)
    is integral and odd-k sums can be all zero."""
    roots = [_random_series(rng, p, L, "T", [rng.randrange(lo, 16) for _ in range(L)])
             for _ in range(rng.randrange(0, 3))]
    for _ in range(rng.randrange(0, 2)):
        b = _random_series(rng, p, L, "T", [rng.randrange(lo, 16) for _ in range(L)])
        roots += [b, -b]
    zero = TruncSeries("T", [PadicInt(p, 0, rng.randrange(lo, 16)) for _ in range(L)])
    sums, powers = [], list(roots)
    for _ in range(K):
        acc = zero
        for x in powers:
            acc = acc + x
        sums.append(acc)
        powers = [x * r for x, r in zip(powers, roots)]
    return sums


def test_flat_exp_matches_the_padic_recurrence_seeded():
    # same values, the same precision per coefficient, the same series
    # precisions, or the same exception type when the guard runs out
    rng = random.Random(71)
    cases = []
    for case in range(60):
        p = (2, 3, 5, 7)[case % 4]
        lo = rng.choice([1, 4, 4])
        L, K = rng.choice([1, 4, 9, 16]), rng.randrange(1, 9)
        if K < p and case % 3:
            # every n <= K < p is a unit, so any sums are integral: random
            # values, precisions and zeros, all-zero sums included
            sums = [_random_series(rng, p, L, "T", [rng.randrange(lo, 16) for _ in range(L)],
                                   rng.choice([0.2, 0.6, 1])) for _ in range(K)]
            for c in sums:
                if rng.random() < 0.3:  # a zero constant term of low precision
                    c.coeffs[0] = PadicInt(p, 0, rng.randrange(1, 5))
        else:
            sums = _power_sums(rng, p, L, K, lo)
        cases.append(sums)
    # a_2 = (c_2 + c_1 a_1)/2 is 1/2 for c = (1, 0), and needs a digit that
    # precision 0 does not have
    T = lambda *vs: TruncSeries("T", [PadicInt(2, v, e) for v, e in vs])
    cases += [[T((1, 5), (0, 5)), T((0, 5), (0, 5))], [T((0, 0), (2, 5)), T((0, 0), (0, 5))]]
    raised = set()
    for sums in cases:
        try:
            want = reference_exp(sums, "s")
        except Exception as exc:
            raised.add(type(exc).__name__)
            with pytest.raises(type(exc)):
                exp_from_power_sums(sums, "s")
            continue
        got = exp_from_power_sums(sums, "s")
        assert got == want
        assert got.prec == want.prec
        assert [c.prec for c in got.coeffs] == [c.prec for c in want.coeffs]
    assert any(s.is_zero() for sums in cases for s in sums)
    assert raised == {"InsufficientGuard", "NonIntegralResult"}
