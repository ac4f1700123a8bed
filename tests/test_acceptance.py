"""Top-level verification gate: one test per headline guarantee.

Each criterion is checked end to end with exact integer/rational
comparisons -- no tolerances anywhere.  The numbered tests double as the
release checklist: a PASSED line per criterion is the deliverable, and
any drift in the underlying arithmetic fails the corresponding test
loudly rather than degrading silently.
"""

import math
import random
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from asw_slopes import gf
from asw_slopes.dwork import char_series_via_operator
from asw_slopes.eigencurve import (
    nested_block_factors,
    observed_polygon,
    predicted_block_slopes,
    verify_weight_slope_law,
)
from asw_slopes.expsum import (
    TowerSpec,
    char_series,
    l_degree,
    l_newton,
    l_series,
    q_normalization,
    trace_histogram,
)
from asw_slopes.newton import hodge_polygon, lower_hull
from asw_slopes.padic import Valuation, ZqCtx, binom_pow, teichmuller, vp_factorial
from asw_slopes.series import exp_from_power_sums
from asw_slopes.tower import (
    assemble_block,
    cross_check_counts,
    genus_double,
    verify_periodicity,
    zeta_numerator,
)
from oracles import (
    PadicInt,
    char_series_at_character,
    field_elements,
    max_gap,
    newton_from_cyclotomic,
    padic_coeffs,
    reference_log,
    reference_witt_add,
    structural_floor,
    upper_bound_polygon,
)

SPEC2 = TowerSpec(2, 1, [0, 0, 0, 1])  # p=2, f = x^3
SPEC3 = TowerSpec(3, 1, [0, 0, 1])  # p=3, f = x^2
SPEC5 = TowerSpec(5, 1, [0, 0, 1])  # p=5, f = x^2


@lru_cache(maxsize=None)
def _pathway_pair(p):
    # shared by criteria 3 and 4: both engines at the same deep-T window
    spec = SPEC2 if p == 2 else SPEC3
    return (
        spec,
        char_series(spec, t_order=40, s_order=6, digits=6),
        char_series_via_operator(spec, s_order=6, t_order=40, digits=6),
    )


def _s_mul(X, Y, mod):
    """Product of two series in s with T-series coefficients (int lists mod
    mod), truncated in s to the shorter; a T-product keeps the shorter
    T-order and zero T-series terms are skipped."""
    out = []
    for n in range(min(len(X), len(Y))):
        acc = [0] * len(X[0])
        for j in range(n + 1):
            a, b = X[j], Y[n - j]
            if any(a) and any(b):
                L = min(len(a), len(b), len(acc))
                acc = [
                    acc[t] + sum(a[i] * b[t - i] for i in range(t + 1)) for t in range(L)
                ]
        out.append([c % mod for c in acc])
    return out


def _s_inverse(F, mod):
    """1/F for F with constant term 1: g_n = -sum_{k>=1} f_k g_{n-k}."""
    g = [F[0]]
    for n in range(1, len(F)):
        acc = [0] * len(F[0])
        for k in range(1, n + 1):
            a, b = F[k], g[n - k]
            if any(a) and any(b):
                L = min(len(a), len(b), len(acc))
                acc = [
                    acc[t] + sum(a[i] * b[t - i] for i in range(t + 1)) for t in range(L)
                ]
        g.append([-c % mod for c in acc])
    return g


@lru_cache(maxsize=None)
def _block_data():
    # shared by every criterion-8 clause: four peeled blocks per engine
    A = char_series(SPEC2, t_order=28, s_order=13, digits=6)
    B = char_series_via_operator(SPEC2, s_order=13, t_order=28, digits=6)
    fa, stats_a = nested_block_factors(A, 3, 4)
    fb, stats_b = nested_block_factors(B, 3, 4)
    return A, B, fa, fb, stats_a, stats_b


def test_criterion_1_ordinary_tower_is_exactly_ordinary():
    # quadratic tower over F_5: every slope sits on the lower bound
    assert l_degree(SPEC5, 1) == 1
    assert l_newton(SPEC5, 1).slope_multiset() == Counter({Fraction(1, 2): 1})
    assert l_degree(SPEC5, 2) == 9
    assert l_newton(SPEC5, 2).slope_multiset() == Counter(
        {Fraction(k, 10): 1 for k in range(1, 10)}
    )


def test_criterion_2_slope_periodicity_from_base_level():
    rep = verify_periodicity(SPEC2, 3)
    assert rep["stable_level"] == 1
    assert rep["ok"] and all(lvl["ok"] for lvl in rep["levels"])
    degrees = {
        lvl["m"]: sum(r["computed"] for r in lvl["slopes"]) for lvl in rep["levels"]
    }
    assert degrees == {1: 2, 2: 5, 3: 11}

    rep3 = verify_periodicity(SPEC3, 2)
    assert rep3["stable_level"] == 1
    assert rep3["ok"] and all(lvl["ok"] for lvl in rep3["levels"])
    assert {lvl["m"] for lvl in rep3["levels"]} == {1, 2}


def test_criterion_3_pathways_agree_coefficientwise():
    for p in (2, 3):
        spec, A, B = _pathway_pair(p)
        mod = p**6
        assert len(A.coeffs) == len(B.coeffs) == 7
        for k in range(7):
            ca, cb = A.coeffs[k], B.coeffs[k]
            assert min(ca.order, cb.order) >= 40
            assert [c % mod for c in ca.coeffs[:40]] == [c % mod for c in cb.coeffs[:40]]


def test_criterion_4_hodge_floor_and_unit_contact():
    for p in (2, 3):
        spec, A, B = _pathway_pair(p)
        d = spec.d
        contact = {0, 1, d, d + 1, 2 * d, 2 * d + 1} & set(range(7))
        for C in (A, B):
            for k, col in enumerate(C.coeffs):
                floor = Fraction(structural_floor(spec, k), d)  # k(k-1)(p-1)/2d
                lead = next((t for t, c in enumerate(col.coeffs) if c), None)
                if lead is None:
                    assert col.order >= floor
                else:
                    assert lead >= floor
                if k in contact:
                    assert lead is not None and Fraction(lead) == floor
                    assert col.coeffs[lead] % p != 0


GAP_TOWERS = {
    2: SPEC3,
    3: SPEC2,
    4: TowerSpec(3, 1, [0, 0, 0, 0, 1]),
    5: TowerSpec(2, 1, [0, 0, 0, 0, 0, 1]),
    7: TowerSpec(2, 1, [0, 0, 0, 0, 0, 0, 0, 1]),
}


def test_criterion_5_upper_bound_and_peak_gap():
    for d, spec in GAP_TOWERS.items():
        gap, at = max_gap(d)
        assert gap == Fraction((d - 1) ** 2, 8 * d)
        assert at == Fraction(d + 1, 2)
        width = 2 * d + 1
        up = upper_bound_polygon(d, width)
        lo = hodge_polygon(d, width)
        # the peak gap is measured against the smooth chord x(x-1)/2d
        assert up.y_at(at) - at * (at - 1) / (2 * d) == gap

        C = char_series_at_character(spec, 1, width, 4)
        poly = newton_from_cyclotomic(
            C.coeffs,
            cap_exp=4,
            scale=q_normalization(spec.p, spec.a, 1),
            source=f"d={d}",
        )
        assert poly.dominates(lo)
        touch = poly.touch_points(lo)
        assert touch[:2] == [0, 1]
        # the prefix hull is certain only up to its last bound-touching
        # vertex; beyond that a longer prefix could still bend it down
        for x in range(touch[-1] + 1):
            assert up.y_at(x) >= poly.y_at(x)


def test_criterion_6_polygon_independent_of_conductor():
    polys = []
    for m in (1, 2, 3):
        C = char_series_at_character(SPEC2, m, 6, 8)
        polys.append(newton_from_cyclotomic(C.coeffs, cap_exp=8, source=f"m={m}"))
    assert polys[0].vertices == [(0, 0), (1, 0), (3, 1), (4, 2), (6, 5)]
    assert polys[1].vertices == polys[0].vertices
    assert polys[2].vertices == polys[0].vertices


def test_criterion_7_zeta_assembly_matches_point_counts():
    witt_cells = 0
    for spec in (SPEC2, SPEC3):
        for m in (1, 2):
            for k in range(1, 7):
                out = cross_check_counts(spec, m, k)
                assert out["ok"] and out["trace"] == out["character"]
                witt_cells += "witt" in out
            blk = assemble_block(spec, m)
            d_blk = (spec.p - 1) * spec.p ** (m - 1) * (spec.p ** (m - 1) * spec.d - 1)
            assert len(blk) - 1 == d_blk and blk[-1] != 0
            num = zeta_numerator(spec, m)
            assert len(num) - 1 == genus_double(spec, m)
            assert all(isinstance(c, int) for c in num)
    # triple enumeration is budget-gated; these cells fit under MAX_POINTS
    assert witt_cells == 22
    assert genus_double(SPEC2, 2) == 12 and genus_double(SPEC3, 2) == 32


def test_criterion_8_block_decomposition_and_weight_slope_law():
    A, B, fa, fb, stats_a, stats_b = _block_data()
    mod = 2**6
    for k in range(14):
        ca, cb = A.coeffs[k], B.coeffs[k]
        n = min(ca.order, cb.order)
        assert [c % mod for c in ca.coeffs[:n]] == [c % mod for c in cb.coeffs[:n]]
    assert stats_a["verified_digits"] > 0 and stats_b["verified_digits"] > 0

    # both engines peel the identical chain of four cubic factors
    assert len(fa) == len(fb) == 4
    for i, (f, g) in enumerate(zip(fa, fb), start=1):
        assert f.vertex == g.vertex == 3
        assert len(f.coeffs) == len(g.coeffs) == 4
        assert f.coeffs == g.coeffs
        # top coefficient leads with a unit at T^(3i-2)
        lead = next(t for t, c in enumerate(f.coeffs[3]) if c)
        assert lead == 3 * i - 2
        assert f.coeffs[3][lead] % 2 == 1

    # specializing T to any uniformizer in the annulus reads off the same
    # slopes the block index predicts
    for i, f in enumerate(fa, start=1):
        rep = verify_weight_slope_law(SPEC2, f, [i], [2, 3])
        assert rep["ok"] and [lvl["m"] for lvl in rep["levels"]] == [2, 3]
        want = predicted_block_slopes(SPEC2, i)
        assert rep["predicted"] == sorted(
            [s.numerator, s.denominator, mult] for s, mult in want.items()
        )

    # cofactor of the peeled product is 1 + terms at or above the hull
    # extrapolated past the fourth corner
    width = len(A.coeffs)
    zero = [0] * A.coeffs[0].order
    P = [list(A.coeffs[0].coeffs)] + [zero] * (width - 1)  # 1
    for f in fa:
        P = _s_mul(P, f.coeffs + [zero] * (width - len(f.coeffs)), mod)
    R = _s_mul([col.coeffs for col in A.coeffs], _s_inverse(P, mod), mod)
    poly = observed_polygon(A)
    assert R[0] == [1] + [0] * (len(R[0]) - 1)
    (x0, y0), (x1, y1) = poly.vertices[-2], poly.vertices[-1]
    corner = poly.y_at(12)
    last_slope = Fraction(y1 - y0, x1 - x0)
    for n in range(1, len(R)):
        x = 12 + n
        tail = poly.y_at(x) if x <= x1 else y1 + last_slope * (x - x1)
        floor = math.ceil(tail - corner)
        lead = next((t for t, c in enumerate(R[n]) if c), None)
        assert lead is None or lead >= min(floor, len(R[n]))

    # character-side check: every finite-conductor specialization carries
    # exactly the union of the four blocks' predicted slopes
    want = Counter()
    for i in range(1, 5):
        want += predicted_block_slopes(SPEC2, i)
    for m, digits in ((2, 12), (3, 7)):
        Cm = char_series_at_character(SPEC2, m, 12, digits)
        pm = newton_from_cyclotomic(Cm.coeffs, cap_exp=digits, source=f"m={m}")
        assert pm.slope_multiset() == want
        assert pm.vertices[-1] == (12, 22)


def test_criterion_9_property_battery():
    problems = []
    rng = random.Random(20260815)

    # punctured-line mass: q^k - 1 traces per extension
    for k in (1, 2, 3):
        if trace_histogram(SPEC3, k, 2).total != 3**k - 1:
            problems.append(f"histogram mass k={k}")

    # Teichmuller lifts of units are (q-1)-st roots of unity
    ctx = gf.FieldCtx(3, 2)
    z = ZqCtx(ctx, 6)
    one = teichmuller(z, ctx.element(1))
    for i in range(1, ctx.order):
        w = teichmuller(z, ctx.element(i))
        if z.pow(w, ctx.order - 1) != one:
            problems.append(f"teichmuller unit index={i}")

    # exp/log round-trip on integral power sums
    p, prec = 3, 9
    base = [rng.randrange(0, 3**5) for _ in range(6)]
    sums = [PadicInt(p, p * k * b, prec) for k, b in enumerate(base, start=1)]
    L = reference_log(exp_from_power_sums(sums, "s"))
    for k in range(1, L.order):
        got = L.coeffs[k]
        if got.value % p**got.prec != (p * base[k - 1]) % p**got.prec:
            problems.append(f"exp/log k={k}")

    # binomial power: (1+T)^(t1+t2) = (1+T)^t1 (1+T)^t2
    D, N = 8, 6
    prec = N + vp_factorial(D - 1, 3)
    for trial in range(4):
        t1, t2 = rng.randrange(0, 3**6), rng.randrange(0, 3**6)
        lhs = binom_pow(3, t1 + t2, prec, D)
        rhs = padic_coeffs(binom_pow(3, t1, prec, D)) * padic_coeffs(binom_pow(3, t2, prec, D))
        if lhs.coeffs != [y.value % 3**N for y in rhs.coeffs]:
            problems.append(f"binomial trial={trial}")

    # Galois conjugation permutes the character's L-series coefficients
    L1 = l_series(SPEC3, 2, c=1)
    L4 = l_series(SPEC3, 2, c=4)
    for z1, z4 in zip(L1.coeffs, L4.coeffs):
        if z1.conjugate(4).coeffs != z4.coeffs:
            problems.append("galois covariance")
            break

    # hull convexity, domination of the data, and rescale involution
    for trial in range(8):
        pts = [
            (i, Valuation.exact(Fraction(rng.randrange(0, 40), rng.randrange(1, 5))))
            for i in range(12)
        ]
        poly = lower_hull(pts, source=f"trial {trial}")
        vs = poly.vertices
        for a, b, c in zip(vs, vs[1:], vs[2:]):
            if (b[1] - a[1]) * (c[0] - b[0]) > (c[1] - b[1]) * (b[0] - a[0]):
                problems.append(f"hull convexity trial={trial}")
        if any(poly.y_at(x) > v.value for x, v in pts):
            problems.append(f"hull domination trial={trial}")
        f = Fraction(rng.randrange(1, 9), rng.randrange(1, 9))
        if poly.rescale(f).rescale(1 / f).vertices != vs:
            problems.append(f"rescale involution trial={trial}")

    # Witt addition is a commutative, associative group law
    wctx = gf.FieldCtx(2, 2)
    els = field_elements(wctx)
    vecs = [(rng.choice(els), rng.choice(els)) for _ in range(9)]
    for u, v, w in zip(vecs, vecs[1:], vecs[2:]):
        if reference_witt_add(wctx, u, v) != reference_witt_add(wctx, v, u):
            problems.append("witt commutativity")
        lhs = reference_witt_add(wctx, reference_witt_add(wctx, u, v), w)
        if lhs != reference_witt_add(wctx, u, reference_witt_add(wctx, v, w)):
            problems.append("witt associativity")

    assert not problems, problems
