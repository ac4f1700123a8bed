import itertools
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from asw_slopes import gf, tower
from asw_slopes.errors import ConfigError
from asw_slopes.expsum import TowerSpec, character_sum, l_degree, trace_histogram
from asw_slopes.padic import CycInt
from asw_slopes.tower import (
    base_slopes,
    count_points_char,
    count_points_trace,
    count_points_witt,
    cross_check_counts,
    genus_double,
    l_hodge_polygon,
    l_newton,
    predicted_slopes,
    stable_level,
    verify_hodge,
    verify_periodicity,
    verify_turning,
    witt_add,
    witt_feasible,
    witt_sub,
    zeta_numerator,
)
from oracles import (
    field_elements,
    reference_count_points_witt,
    reference_witt_add,
    reference_witt_frobenius,
    reference_witt_neg,
    reference_witt_sub,
)

SPEC2 = TowerSpec(2, 1, [0, 0, 0, 1])
SPEC3 = TowerSpec(3, 1, [0, 0, 1])
SPEC5 = TowerSpec(5, 1, [0, 0, 1])


def _random_pairs(ctx, rng, n):
    els = field_elements(ctx)
    return [(rng.choice(els), rng.choice(els)) for _ in range(n)]


@pytest.mark.parametrize("p", [2, 3, 5])
def test_witt_ring_axioms_seeded(p):
    ctx = gf.FieldCtx(p, 2)
    rng = random.Random(7 * p)
    vecs = _random_pairs(ctx, rng, 12)
    zero = (ctx.element(0), ctx.element(0))
    for u, v in zip(vecs, vecs[1:]):
        assert reference_witt_add(ctx, u, v) == reference_witt_add(ctx, v, u)
        assert reference_witt_add(ctx, u, reference_witt_neg(ctx, u)) == zero
        assert reference_witt_add(ctx, reference_witt_sub(ctx, u, v), v) == u
    for u, v, w in zip(vecs, vecs[1:], vecs[2:]):
        lhs = reference_witt_add(ctx, reference_witt_add(ctx, u, v), w)
        rhs = reference_witt_add(ctx, u, reference_witt_add(ctx, v, w))
        assert lhs == rhs


@pytest.mark.parametrize("p,n", [(2, 1), (2, 2), (3, 1), (3, 2), (5, 1), (7, 1)])
def test_witt_sub_is_adding_the_negative_exhaustive(p, n):
    # the one-carry subtraction against u + (-v), over all of W_2(F_q)
    ctx = gf.field(p, n)
    vecs = list(itertools.product(field_elements(ctx), repeat=2))
    for u in vecs:
        for v in vecs:
            want = reference_witt_add(ctx, u, reference_witt_neg(ctx, v))
            assert reference_witt_sub(ctx, u, v) == want, (u, v)
    for u in field_elements(ctx):
        assert reference_witt_sub(ctx, (u,), (u,)) == (ctx.element(0),)


def test_witt_frobenius_is_additive():
    ctx = gf.FieldCtx(3, 2)
    rng = random.Random(11)
    vecs = _random_pairs(ctx, rng, 8)
    F, add = reference_witt_frobenius, reference_witt_add
    for u, v in zip(vecs, vecs[1:]):
        assert F(ctx, add(ctx, u, v)) == add(ctx, F(ctx, u), F(ctx, v))


def test_witt_length_guard():
    ctx = gf.FieldCtx(2, 1)
    z = ctx.element(0)
    for op in (reference_witt_add, reference_witt_sub):
        with pytest.raises(ConfigError):
            op(ctx, (z, z, z), (z, z, z))
        with pytest.raises(ConfigError):
            op(ctx, (z,), (z, z))


def _witt_pairs(ctx):
    """Pairs (u, v) of W_2(F_q): all of them for q <= 9; past that every pair
    (u_0, v_0) of the j-th and i-th elements, with u_1 = v_0 and v_1 the
    element of index i + j, so every value meets every carry argument."""
    elts = field_elements(ctx)
    q = len(elts)
    if q <= 9:
        return list(itertools.product(itertools.product(elts, repeat=2), repeat=2))
    return [
        ((elts[j], elts[i]), (elts[i], elts[(i + j) % q]))
        for i, j in itertools.product(range(q), repeat=2)
    ]


@pytest.mark.parametrize(
    "p,n",
    [(2, 1), (2, 2), (2, 3), (2, 4), (2, 5), (3, 1), (3, 2), (3, 3), (5, 1), (5, 2), (7, 1), (7, 2)],
)
def test_the_array_witt_kernel_equals_the_reference_exhaustive(p, n):
    # every field with p^n <= 49: the production add and sub, row for row
    # against the scalar references, and the group law on the kernel itself
    ctx = gf.field(p, n)
    pairs = _witt_pairs(ctx)
    u = tuple(np.array([uv[0][i] for uv in pairs]) for i in range(2))
    v = tuple(np.array([uv[1][i] for uv in pairs]) for i in range(2))

    def rows(w):
        return [tuple(tuple(map(int, c[r])) for c in w) for r in range(len(pairs))]

    s, d = witt_add(ctx, u, v), witt_sub(ctx, u, v)
    assert rows(s) == [reference_witt_add(ctx, a, b) for a, b in pairs]
    assert rows(d) == [reference_witt_sub(ctx, a, b) for a, b in pairs]
    zero = tuple(np.zeros_like(c) for c in u)
    neg = witt_sub(ctx, zero, v)
    assert rows(neg) == [reference_witt_neg(ctx, b) for _, b in pairs]
    w = tuple(np.roll(c, 1, axis=0) for c in v)
    laws = [
        (witt_add(ctx, v, u), s),  # commutative
        (witt_add(ctx, u, neg), d),  # sub is adding the negative
        (witt_add(ctx, d, v), u),
        (witt_add(ctx, s, w), witt_add(ctx, u, witt_add(ctx, v, w))),  # associative
    ]
    for got, want in laws:
        assert all(np.array_equal(a, b) for a, b in zip(got, want))
    frob = [reference_witt_frobenius(ctx, b) for _, b in pairs]
    assert rows(tuple(tower._pow(ctx, c, p) for c in v)) == frob


def test_witt_enumeration_guards():
    with pytest.raises(ConfigError):
        count_points_witt(SPEC2, 3, 1)
    with pytest.raises(ConfigError):
        count_points_witt(SPEC2, 2, 8)  # (2^8)^3 combos


@pytest.mark.parametrize("spec,m,k", [(SPEC2, 1, 10), (SPEC2, 2, 7), (SPEC3, 1, 6), (SPEC3, 2, 4)])
def test_one_witt_gate_on_each_side_of_the_boundary(spec, m, k):
    # (q^k)^(m+1) <= 4*10^6 at k, past it at k + 1: the gate that
    # cross_check_counts consults is the one count_points_witt enforces
    assert spec.q ** (k * (m + 1)) <= 4 * 10**6 < spec.q ** ((k + 1) * (m + 1))
    assert witt_feasible(spec, m, k) and not witt_feasible(spec, m, k + 1)
    assert not witt_feasible(spec, 0, 1) and not witt_feasible(spec, 3, 1)
    with pytest.raises(ConfigError):
        count_points_witt(spec, m, k + 1)
    if m == 1:
        inside, past = cross_check_counts(spec, m, k), cross_check_counts(spec, m, k + 1)
        assert inside["ok"] and inside["witt"] == inside["trace"]
        assert past["ok"] and "witt" not in past


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


# the seeded three-count battery runs the scalar reference count on the cells
# with (q^k)^(m+1) up to this cap
REFERENCE_CAP = 2**16


def _seeded_towers(p, a, count=2):
    """`count` towers over F_(p^a) with two or more monomials and p not
    dividing the degree d <= 5."""
    rng = random.Random(f"three-counts:{p}:{a}")
    q, out = p**a, []
    while len(out) < count:
        d = rng.choice([d for d in range(2, 6) if d % p])
        f = [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
        if sum(1 for b in f if b) >= 2:
            out.append(TowerSpec(p, a, f))
    return out


@pytest.mark.parametrize("a", [1, 2])
@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_three_counts_agree_on_seeded_towers(p, a):
    # every (m, k) the Witt gate admits, whose (q^k)^(m+1) <= 4*10^6 is the
    # size cap: Witt = trace = character, and the array kernel = the scalar
    # reference where that is cheap
    cells = 0
    for spec in _seeded_towers(p, a):
        for m in (1, 2):
            k = 1
            while witt_feasible(spec, m, k):
                out = cross_check_counts(spec, m, k)
                assert out["ok"] and out["witt"] == out["trace"] == out["character"]
                if spec.q ** (k * (m + 1)) <= REFERENCE_CAP:
                    assert out["witt"] == reference_count_points_witt(spec, m, k), (spec.coeffs, m, k)
                cells += 1
                k += 1
    assert cells >= 4


@pytest.mark.parametrize(
    "spec,m,k,past,count",
    [
        (TowerSpec(157, 1, [1, 0, 1]), 2, 1, (163, 1), 49298),  # largest p at m = 2
        (TowerSpec(1999, 1, [1998, 3, 1]), 1, 1, (2003, 1), None),  # largest p at m = 1
        (TowerSpec(2, 1, [1, 1, 0, 1]), 2, 7, (2, 8), None),  # largest n for p = 2
        (TowerSpec(2, 1, [1, 1, 0, 1]), 1, 10, (2, 11), None),
    ],
)
def test_the_witt_kernel_stays_on_int64_at_the_gates_corners(spec, m, k, past, count):
    # one step past each corner (the next prime, or the next k) the gate
    # closes; inside, the kernel's proven bound keeps it on int64 and its
    # count meets the trace count
    ctx = spec.ctx if k == 1 else gf.field(spec.p, spec.a * k)
    assert witt_feasible(spec, m, k) and tower._fold(ctx).dtype == np.int64
    assert not witt_feasible(TowerSpec(past[0], 1, [0, 1]), m, past[1])
    witt = count_points_witt(spec, m, k)
    assert witt == count_points_trace(spec, m, k) and witt > 0
    assert count is None or witt == count


def test_the_three_counts_meet_on_the_f157_cell():
    # F_157 x^2 + 1 at m = 2, k = 1: p^m = 24,649 characters of phi(157^2) =
    # 24,492 coordinates each, summed as one exponent vector
    out = cross_check_counts(TowerSpec(157, 1, [1, 0, 1]), 2, 1)
    assert out == {"m": 2, "k": 1, "trace": 49298, "character": 49298, "witt": 49298, "ok": True}


def test_the_character_count_is_the_sum_of_the_character_sums():
    # every character value, the c = 0 and non-unit ones included, summed in
    # Z[zeta] one CycInt at a time, is the count read from one exponent vector
    for spec in (SPEC2, SPEC3, TowerSpec(5, 1, [2, 1, 0, 3])):
        for m, k in ((1, 1), (1, 3), (2, 2), (3, 1)):
            hist = trace_histogram(spec, k, m)
            total = CycInt.zero(spec.p, m)
            for c in range(spec.p**m):
                total = total + character_sum(hist, m, c, include_zero=True)
            assert count_points_char(spec, m, k, hist) == total.rational_value(), (spec, m, k)


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_character_count_equals_trace_count(p):
    # every cell with q^k <= 2^10 and m <= 3 on a seeded tower: the sum over
    # all p^m characters, c = 0 and non-units included, lands on the trace count
    rng = random.Random(f"char-count:{p}")
    d = rng.choice([d for d in range(2, 6) if d % p])
    spec = TowerSpec(p, 1, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
    for m in (1, 2, 3):
        k = 1
        while p**k <= 2**10:
            assert count_points_char(spec, m, k) == count_points_trace(spec, m, k)
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


def test_verify_hodge_touches():
    rep = verify_hodge(SPEC2, 1)
    assert rep["ok"] and rep["touch"] == [0, 2]
    assert verify_hodge(SPEC2, 2)["ok"]
    assert verify_hodge(SPEC3, 2)["ok"]


def test_l_hodge_polygon_slopes():
    # D = p^(m-1) d: slopes k/D for 0 < k < D, over the degree D - 1
    hp = l_hodge_polygon(SPEC2, 1)
    assert hp.slopes() == [Fraction(k, 3) for k in (1, 2)]
    assert l_newton(SPEC2, 1).dominates(hp)
    hp = l_hodge_polygon(SPEC2, 2)
    assert hp.slopes() == [Fraction(k, 6) for k in (1, 2, 3, 4, 5)]
    assert l_newton(SPEC2, 2).dominates(hp)


def test_verify_turning_reports_the_contact_points():
    rep = verify_turning(SPEC2, 4)
    assert sorted(rep) == ["ok", "polygon", "touch"] and rep["ok"]
    # the planned s-order 2d + 1 = 7 takes in x = nd, nd + 1 for n <= 2
    assert [r["x"] for r in rep["touch"]] == [0, 1, 3, 4, 6, 7]
    assert all(r["ok"] for r in rep["touch"])
