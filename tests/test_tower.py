import random
from collections import Counter
from fractions import Fraction

import pytest

from asw_slopes import gf
from asw_slopes.errors import ConfigError
from asw_slopes.expsum import TowerSpec, l_degree
from asw_slopes.tower import (
    base_slopes,
    count_points_witt,
    cross_check_counts,
    genus_double,
    l_hodge_polygon,
    l_newton,
    periodicity_csv,
    predicted_slopes,
    stable_level,
    verify_hodge,
    verify_periodicity,
    witt_add,
    witt_frobenius,
    witt_neg,
    witt_sub,
    zeta_numerator,
)

SPEC2 = TowerSpec(2, 1, [0, 0, 0, 1])
SPEC3 = TowerSpec(3, 1, [0, 0, 1])
SPEC5 = TowerSpec(5, 1, [0, 0, 1])


def _random_pairs(ctx, rng, n):
    els = list(ctx.elements())
    return [(rng.choice(els), rng.choice(els)) for _ in range(n)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witt_ring_axioms_seeded(p):
    ctx = gf.FieldCtx(p, 2)
    rng = random.Random(7 * p)
    vecs = _random_pairs(ctx, rng, 12)
    zero = (ctx.zero(), ctx.zero())
    for u, v in zip(vecs, vecs[1:]):
        assert witt_add(p, u, v) == witt_add(p, v, u)
        assert witt_add(p, u, witt_neg(p, u)) == zero
        assert witt_add(p, witt_sub(p, u, v), v) == u
    for u, v, w in zip(vecs, vecs[1:], vecs[2:]):
        lhs = witt_add(p, witt_add(p, u, v), w)
        rhs = witt_add(p, u, witt_add(p, v, w))
        assert lhs == rhs


def test_witt_frobenius_is_additive():
    ctx = gf.FieldCtx(3, 2)
    rng = random.Random(11)
    vecs = _random_pairs(ctx, rng, 8)
    for u, v in zip(vecs, vecs[1:]):
        assert witt_frobenius(witt_add(3, u, v)) == witt_add(
            3, witt_frobenius(u), witt_frobenius(v)
        )


def test_witt_length_guard():
    ctx = gf.FieldCtx(2, 1)
    z = ctx.zero()
    with pytest.raises(ConfigError):
        witt_add(2, (z, z, z), (z, z, z))
    with pytest.raises(ConfigError):
        witt_add(2, (z,), (z, z))


def test_witt_enumeration_guards():
    with pytest.raises(ConfigError):
        count_points_witt(SPEC2, 3, 1)
    with pytest.raises(ConfigError):
        count_points_witt(SPEC2, 2, 8)  # (2^8)^3 combos


@pytest.mark.parametrize("spec", [SPEC2, SPEC3])
def test_point_counts_three_ways(spec):
    for m in (1, 2):
        for k in (1, 2):
            out = cross_check_counts(spec, m, k)
            assert out["ok"]
            assert "witt" in out  # small fields: brute force must run
            assert out["trace"] == out["character"] == out["witt"]


@pytest.mark.parametrize(
    "p,a,f",
    [
        (2, 1, [1, 0, 0, 1]),  # x^3 + 1
        (2, 1, [1, 1, 0, 1]),  # x^3 + x + 1
        (3, 1, [1, 1, 2]),  # 2x^2 + x + 1
        (3, 1, [2, 0, 1]),  # x^2 + 2
        (5, 1, [1, 2, 1]),  # x^2 + 2x + 1
        (2, 2, [1, 0, 0, 1]),  # x^3 + 1 over F_4
    ],
)
def test_witt_counts_sum_the_monomial_lifts(p, a, f):
    # with two or more monomials the Witt side must solve F(y) - y = the Witt
    # sum of the monomials' Teichmuller lifts, not the lift of the value f(x)
    spec = TowerSpec(p, a, f)
    for m in (1, 2):
        k = 1
        while spec.q ** (k * (m + 1)) <= 2**15:
            out = cross_check_counts(spec, m, k)
            assert out["ok"] and "witt" in out
            k += 1


def test_genus_double_values():
    assert genus_double(SPEC2, 1) == 2
    assert genus_double(SPEC2, 2) == 12
    assert genus_double(SPEC3, 1) == 2
    assert genus_double(SPEC3, 2) == 32


@pytest.mark.parametrize("spec,m", [(SPEC2, 1), (SPEC2, 2), (SPEC3, 2)])
def test_zeta_numerator_degree_and_leading(spec, m):
    num = zeta_numerator(spec, m)
    g2 = genus_double(spec, m)
    assert len(num) - 1 == g2
    assert num[0] == 1
    assert all(isinstance(c, int) for c in num)
    assert abs(num[-1]) == spec.q ** (g2 // 2)


def test_stable_level():
    assert stable_level(SPEC2) == 1
    assert stable_level(SPEC3) == 1
    tall = TowerSpec(2, 1, [0] * 11 + [1])
    assert stable_level(tall) == 2
    wide = TowerSpec(2, 2, [0, 1, 0, 1])
    assert stable_level(wide) == 1


def test_base_slopes_known():
    assert base_slopes(SPEC2) == [Fraction(1, 2), Fraction(1, 2)]
    assert base_slopes(SPEC3) == [Fraction(1, 2)]
    assert base_slopes(SPEC5) == [Fraction(1, 2)]


def test_predicted_slopes_exact():
    assert predicted_slopes(SPEC2, 2) == Counter(
        {Fraction(1, 4): 2, Fraction(1, 2): 1, Fraction(3, 4): 2}
    )
    assert predicted_slopes(SPEC3, 2) == Counter(
        {Fraction(k, 6): 1 for k in (1, 2, 3, 4, 5)}
    )
    assert sum(predicted_slopes(SPEC2, 3).values()) == l_degree(SPEC2, 3)
    with pytest.raises(ConfigError):
        predicted_slopes(TowerSpec(2, 1, [0] * 11 + [1]), 1)


def test_verify_periodicity_report():
    report = verify_periodicity(SPEC2, 3)
    assert report["ok"] and report["stable_level"] == 1
    assert [lvl["m"] for lvl in report["levels"]] == [1, 2, 3]
    for lvl in report["levels"]:
        assert all(row["ok"] for row in lvl["slopes"])


def test_periodicity_csv_layout():
    report = verify_periodicity(SPEC3, 2)
    csv = periodicity_csv(report)
    lines = csv.strip().split("\n")
    assert lines[0] == "m,slope_num,slope_den,predicted,computed,ok"
    assert lines[1] == "1,1,2,1,1,true"
    assert len(lines) == 1 + sum(len(lvl["slopes"]) for lvl in report["levels"])


def test_verify_hodge_touches():
    rep = verify_hodge(SPEC2, 1)
    assert rep["ok"] and rep["touch"] == [0, 2]
    assert verify_hodge(SPEC2, 2)["ok"]
    assert verify_hodge(SPEC3, 2)["ok"]


def test_l_hodge_polygon_slopes():
    hp = l_hodge_polygon(3, 4)
    assert hp.slopes() == [Fraction(k, 3) for k in (1, 2, 3, 4)]
    assert l_newton(SPEC2, 1).dominates(hp)
