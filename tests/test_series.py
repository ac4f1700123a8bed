import random

import pytest

from asw_slopes.errors import CtxMismatch
from asw_slopes.padic import PadicInt
from asw_slopes.series import (
    TruncSeries,
    compose,
    exp_from_power_sums,
    inverse,
    log_series,
    reversion,
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
        L = log_series(F)
        for k in range(1, L.order):
            got = L.coeffs[k]
            n = got.prec
            assert got.value % P**n == (P * base[k - 1]) % P**n


def test_inverse():
    F = S([1, 4, 7, 2, 9])
    G = inverse(F)
    H = F * G
    assert H.coeffs[0].value % P ** H.coeffs[0].prec == 1
    assert all(c.is_zero() for c in H.coeffs[1:])


def test_compose_with_reversion_is_identity():
    # F = s + 2s^2 + 5s^3 ...; F(rev(F)) = s to the shared order
    F = S([0, 1, 2, 5, 1, 3])
    R = reversion(F)
    I = compose(F, R)
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
        G = (var_series - compose(R, G)).scale(f1_inv)
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
