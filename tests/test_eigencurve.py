import ast
import pathlib
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from asw_slopes import eigencurve
from asw_slopes.dwork import ELIMINATION_BYTES
from asw_slopes.eigencurve import (
    BlockFactor,
    block_product,
    block_window,
    corner_y,
    elimination_bytes,
    nested_block_factors,
    observed_polygon,
    pick_levels,
    predicted_block_slopes,
    specialize_block,
    verify_weight_slope_law,
)
from asw_slopes.errors import (
    BudgetExceeded,
    ConfigError,
    InsufficientPrecision,
    NoGapAtVertex,
    VerificationError,
    WeightOutsideAnnulus,
)
from asw_slopes.expsum import TowerSpec, char_series
from asw_slopes.gf import int_dtype
from asw_slopes.padic import cyc_valuation, phi_pm, pi_valuation
from asw_slopes.series import TruncSeries
from asw_slopes.tower import turning_window
from oracles import reference_eliminate, reference_specialize_block

SPEC2 = TowerSpec(2, 1, [0, 0, 0, 1])
SPEC3 = TowerSpec(3, 1, [0, 0, 1])


@lru_cache(maxsize=None)
def peel_series():
    return char_series(SPEC2, 9, 7, 4)


@lru_cache(maxsize=None)
def peel_factors():
    return nested_block_factors(peel_series(), 3, 2)


def _vals(factor):
    mod = factor.p**factor.digits
    return [[c % mod for c in row] for row in factor.coeffs]


def test_observed_polygon_vertices():
    poly = observed_polygon(peel_series())
    assert poly.vertices == [
        (0, Fraction(0)),
        (1, Fraction(0)),
        (3, Fraction(1)),
        (4, Fraction(2)),
        (6, Fraction(5)),
        (7, Fraction(7)),
    ]


def test_slope_factor_first_vertex():
    # the lower factor through x = 3 on the window the planner picks for it
    C = char_series(SPEC2, *block_window(SPEC2, 1), 4)
    F = block_product(nested_block_factors(C, 3, 1)[0])
    assert F.vertex == 3
    assert F.t_digits >= 2
    mod = 2**F.digits
    vals = _vals(F)
    assert vals[0][0] == 1 and all(v == 0 for v in vals[0][1:])
    # 1 - s - T s^2 + T s^3 up to the certified windows
    assert vals[1][0] == mod - 1
    assert vals[2][:2] == [0, mod - 1]
    assert vals[3][:2] == [0, 1]


def test_nested_factors_values():
    facs, stats = peel_factors()
    assert [f.vertex for f in facs] == [3, 3]
    assert all(f.t_digits >= 3 for f in facs)
    v0, v1 = _vals(facs[0]), _vals(facs[1])
    mod = 2 ** facs[0].digits
    assert v0[1][0] == mod - 1  # block 0: 1 - s - T s^2 + T s^3
    assert v0[2][:2] == [0, mod - 1]
    assert v0[3][:2] == [0, 1]
    assert v1[1][:2] == [0, mod - 1]  # block 1 starts one T deeper
    assert v1[3][4] % 2 == 1  # leading coefficient at T^4 is a unit
    assert stats["solved_digits"] > 0 and stats["verified_digits"] > 0
    assert stats["orders"]["0,3"] == 4 and stats["orders"]["1,3"] == 5


# The rescaled Wiener-Hopf split that vertex mode used to run, at vertex 3
# of char_series(SPEC2, 7, 19, 4): its certified output mod 16, 3 T-digits.
RESCALED_SPLIT_VERTEX_3 = [[1, 0, 0, 0, 0, 0, 0], [15, 0, 0], [0, 15, 0, 0], [0, 1, 0, 0]]


def test_nested_agrees_with_rescaled_split():
    G = block_product(peel_factors()[0][:1])
    assert G.vertex == 3
    for got, want in zip(_vals(G), RESCALED_SPLIT_VERTEX_3):
        n = min(len(got), len(want))
        assert n >= 3
        assert [v % 16 for v in got[:n]] == want[:n]


def _elimination_cases():
    rng = random.Random(1310)
    cases = [
        pytest.param(TowerSpec(2, 1, [c, 0, 0, 1]), count, 6, id=f"p2-x3+{c}-{count}")
        for c in (0, 1)
        for count in (1, 2, 3, 4)
    ]
    for p in (3, 5):
        for count in (1, 2, 3):
            u, c = rng.randrange(1, p), rng.randrange(p)
            cases.append(pytest.param(TowerSpec(p, 1, [c, 0, u]), count, 4, id=f"p{p}-{u}x2+{c}-{count}"))
    # four blocks: the widest terms, with the deepest complements
    cases.append(pytest.param(TowerSpec(3, 1, [2, 0, 1]), 4, 4, id="p3-x2+2-4"))
    # (3^21 - 1)^2 passes 2^63, so every product leaves int64
    cases.append(pytest.param(TowerSpec(3, 1, [2, 0, 1]), 2, 21, id="p3-wide-digits"))
    return cases


@pytest.mark.parametrize("spec, count, digits", _elimination_cases())
def test_elimination_matches_the_scalar_oracle(monkeypatch, spec, count, digits):
    if digits == 21:
        assert int_dtype((3**digits - 1) ** 2) is object
    C = char_series(spec, *block_window(spec, count), digits)

    def run():
        facs, stats = nested_block_factors(C, spec.d, count)
        return [(f.t_digits, f.coeffs) for f in facs], stats

    got = run()
    monkeypatch.setattr(eigencurve, "_eliminate", reference_eliminate)
    assert got == run()
    assert got[1]["solved_digits"] > 0 and got[1]["verified_digits"] > 0


def test_nested_validates_input():
    C = peel_series()
    with pytest.raises(ConfigError):
        nested_block_factors(C, 3, 3)  # s-order 7 < 10
    with pytest.raises(NoGapAtVertex):
        nested_block_factors(C, 2, 1)  # x = 2 is not a vertex
    with pytest.raises(ConfigError):
        nested_block_factors(C, 3, 0)


def _traced_peak(fn, *args):
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


@pytest.mark.parametrize(
    "spec, count, digits",
    [(TowerSpec(2, 1, [1, 0, 0, 1]), 4, 6), (TowerSpec(2, 1, [1, 1]), 9, 4)],
    ids=["p2-x3+1-4-blocks", "p2-x+1-9-blocks"],
)
def test_elimination_bytes_bound_the_peak(spec, count, digits):
    # the estimate nested_block_factors checks against ELIMINATION_BYTES
    # holds the traced peak, within a factor of 2 of it
    C = char_series(spec, *block_window(spec, count), digits)
    K, N = len(C.coeffs) - 1, max(len(c.coeffs) for c in C.coeffs)
    peak = _traced_peak(nested_block_factors, C, spec.d, count)
    assert peak <= elimination_bytes(spec.d, count, K, N, spec.p**digits) <= 2 * peak


def test_the_elimination_budget_admits_the_layouts_that_finish():
    # (d, count, s-order, T-order) as eigencurve plans them: 7 blocks of
    # x^3 + 1 at 6 digits and 12 of x + 1 at 4 finish in a 3 GiB address
    # space, 13 of x + 1 asked numpy for more than that
    assert elimination_bytes(3, 7, 22, 79, 2**6) <= ELIMINATION_BYTES
    assert elimination_bytes(1, 12, 13, 80, 2**4) <= ELIMINATION_BYTES
    assert elimination_bytes(1, 13, 14, 93, 2**4) > ELIMINATION_BYTES


def test_a_layout_past_the_budget_is_refused_before_any_term():
    # 14 blocks of x + 1 would build 58,842,495 splits and a (69632, 16384)
    # index intermediate
    spec = TowerSpec(2, 1, [1, 1])
    C = char_series(spec, *block_window(spec, 14), 4)

    def refused():
        with pytest.raises(BudgetExceeded, match=f"over the budget of {ELIMINATION_BYTES}$"):
            nested_block_factors(C, 1, 14)

    assert _traced_peak(refused) < 2**20


def _corrupt(C, n, t):
    col = C.coeffs[n]
    vals = list(col.coeffs)
    vals[t] ^= 1
    bad = TruncSeries("T", vals, col.prec, col.p)
    return TruncSeries("s", [*C.coeffs[:n], bad, *C.coeffs[n + 1 :]])


def test_nested_rejects_corrupted_series():
    C = peel_series()
    bad = TruncSeries("s", list(C.coeffs))
    bad.coeffs[0] = TruncSeries("T", [3] + C.coeffs[0].coeffs[1:], 5, 2)
    with pytest.raises(VerificationError):
        nested_block_factors(bad, 3, 2)  # constant term not 1
    with pytest.raises(VerificationError):
        nested_block_factors(_corrupt(C, 1, 0), 3, 2)  # unit leading digit gone
    with pytest.raises(VerificationError):
        nested_block_factors(_corrupt(C, 2, 0), 3, 2)  # polygon loses its vertex


def test_block_product_fabricated():
    # lo x quotient = hi: (1 + T s)(1 + 3 T^2 s) = 1 + (T + 3T^2) s + 3 T^3 s^2
    lo = BlockFactor(1, 2, 6, 5, [[1, 0, 0, 0, 0], [0, 1, 0, 0, 0]])
    quo = BlockFactor(1, 2, 6, 5, [[1, 0, 0, 0, 0], [0, 0, 3, 0, 0]])
    hi = block_product([lo, quo])
    assert (hi.vertex, hi.p, hi.digits, hi.t_digits) == (2, 2, 6, 5)
    # s^2 is known mod T^min(5 + 2, 5 + 1): one digit past both inputs
    assert _vals(hi) == [[1, 0, 0, 0, 0], [0, 1, 3, 0, 0], [0, 0, 0, 3, 0, 0]]
    # a coefficient known to be zero mod T^3 has valuation 3 in the rule
    short = BlockFactor(1, 2, 6, 3, [[1, 0, 0, 0, 0], [0, 0, 0]])
    assert _vals(block_product([short, quo])) == [
        [1, 0, 0, 0, 0], [0, 0, 3], [0, 0, 0, 0, 0]
    ]


def test_predicted_block_slopes_values():
    assert predicted_block_slopes(SPEC2, 1) == Counter({Fraction(0): 1, Fraction(1, 2): 2})
    assert predicted_block_slopes(SPEC2, 2) == Counter({Fraction(1): 1, Fraction(3, 2): 2})
    assert predicted_block_slopes(SPEC3, 2) == Counter({Fraction(2): 1, Fraction(3): 1})


def test_specialize_block_caps():
    facs, _ = peel_factors()
    rows, caps = specialize_block(facs[0], 2)
    e = 2  # (p-1) p^{m-1} at p = 2, m = 2
    assert caps == [min(facs[0].digits * e, len(row)) for row in facs[0].coeffs]
    assert rows[0] == [1, 0]  # the constant row [1, 0, ...] reduced mod E_2


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pi_digits_read_as_the_cyclotomic_route_seeded(p):
    # random T-digit rows, shorter and longer than e, read in the pi-basis
    # and by the exact Z[zeta] route, at their caps and at random caps below
    rng = random.Random(1310 + p)
    for m in (1, 2, 3):
        e = phi_pm(p, m)
        # the reference's pi-power table costs e^2 per power: one draw at 7^3
        for _ in range(3 if e < 100 else 1):
            digits = rng.randint(1, 8)
            mod = p**digits
            rows = [[0] * rng.randint(1, e + 12)]
            for _ in range(5):
                n = rng.choice([rng.randint(1, e), e, e + 1, rng.randint(e + 2, e + 12)])
                row = [p ** rng.randrange(digits + 1) * rng.randrange(mod) % mod for _ in range(n)]
                rows.append([x if rng.random() < 0.7 else 0 for x in row])
            factor = BlockFactor(len(rows) - 1, p, digits, 1, rows)
            got, caps = specialize_block(factor, m)
            want, want_caps = reference_specialize_block(factor, m)
            assert caps == want_caps
            for b, z, cap in zip(got, want, caps):
                assert len(b) <= e and all(0 <= x < mod for x in b)
                for c in (cap, rng.randint(0, cap)):
                    assert pi_valuation(b, p, e, c) == cyc_valuation(z, c)


def test_weight_slope_law_per_block():
    # at 4 digits the level-1 readings of block 2 are capped before s^3
    facs, _ = nested_block_factors(char_series(SPEC2, 9, 7, 5), 3, 2)
    rep1 = verify_weight_slope_law(SPEC2, facs[0], [1], [1, 2])
    assert rep1["ok"] and rep1["blocks"] == [1]
    assert rep1["predicted"] == [[0, 1, 1], [1, 2, 2]]
    assert all(r["slopes"] == rep1["predicted"] for r in rep1["levels"])
    rep2 = verify_weight_slope_law(SPEC2, facs[1], [2], [1, 3])
    assert rep2["ok"]
    assert rep2["predicted"] == [[1, 1, 1], [3, 2, 2]]


def test_weight_slope_law_guards():
    facs, _ = peel_factors()
    with pytest.raises(ConfigError):
        verify_weight_slope_law(SPEC2, facs[0], [1, 2], [1])  # degree 3 != 2 blocks
    with pytest.raises(WeightOutsideAnnulus):
        verify_weight_slope_law(SPEC2, facs[0], [1], [0])
    f = facs[1]
    shallow = BlockFactor(f.vertex, f.p, 1, f.t_digits, f.coeffs)
    with pytest.raises(InsufficientPrecision):
        # one p-digit cannot pin the T^4 leading reading at level 1
        verify_weight_slope_law(SPEC2, shallow, [2], [1])
    with pytest.raises(ConfigError):
        verify_weight_slope_law(SPEC2, facs[0], [1], [])  # a law at no level is vacuous


def test_window_planners_are_pinned():
    # the windows and levels eigencurve and verify plan for x^3 over F_2
    # and x^2 over F_3 (base slopes 1/2, 1/2 and 1/2; slope step e0 = 1, 2)
    assert [corner_y(SPEC2, i) for i in range(4)] == [0, 1, 5, 12]
    assert [corner_y(SPEC3, i) for i in range(4)] == [0, 1, 6, 15]
    assert [block_window(SPEC2, c) for c in (1, 2, 3)] == [(4, 4), (9, 7), (17, 10)]
    assert [block_window(SPEC3, c) for c in (1, 2, 3)] == [(5, 3), (12, 5), (23, 7)]
    assert block_window(SPEC2, 2, t_order=5) == (5, 7)
    assert block_window(SPEC2, 2, s_order=9) == (9, 9)
    assert [pick_levels(SPEC2, [c], 4) for c in (1, 2, 3)] == [[1, 2], [2, 3], [2, 3]]
    assert pick_levels(SPEC2, [1, 2, 3], 4) == [3, 4]
    assert pick_levels(SPEC3, [3], 4) == [2, 3] and pick_levels(SPEC3, [3], 6) == [1, 2]
    assert pick_levels(SPEC2, [3], 4, [5]) == [5]
    assert turning_window(SPEC2) == (8, 7) and turning_window(SPEC3) == (11, 5)
    assert turning_window(SPEC2, s_order=5) == (4, 5)
    assert turning_window(SPEC2, t_order=3) == (3, 7)


def test_eigencurve_calls_no_sorting_routine():
    """The first call of a numpy routine maps its code pages, and the bench
    counts them in peak RSS.  Added peak RSS at first use, measured after
    the `operator` queries had run: np.unique 640 KiB, np.sort 320 KiB,
    np.argsort 128 KiB, np.searchsorted 64 KiB (integer //, np.full of a
    bool into intp, a cumsum of bools and a Python bool added to an int64
    array also 64 KiB each).  The elimination numbers and groups its splits
    with bincount, integer cumsum, flatnonzero, diff and reduceat instead,
    which cost nothing new, so eigencurve.py calls none of the sorting
    routines, as a function or as a method."""
    banned = {"unique", "sort", "argsort", "lexsort", "searchsorted", "partition"}
    tree = ast.parse(pathlib.Path(eigencurve.__file__).read_text())
    calls = [
        (node.lineno, node.func.attr)
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
        and node.func.attr in banned
    ]
    imported = [
        alias.name for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in banned
    ]
    assert calls == [] and imported == []
