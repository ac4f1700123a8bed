import json
import os
from fractions import Fraction

import pytest

from asw_slopes import expsum
from asw_slopes.errors import (
    BudgetExceeded,
    ConfigError,
    InsufficientPrecision,
)
from asw_slopes.expsum import (
    TowerSpec,
    TraceHistogram,
    cache_dir,
    char_series,
    char_series_at_character,
    character_sum,
    l_degree,
    l_series,
    newton_from_cyclotomic,
    q_normalization,
    t_adic_sum,
    t_valuation_points,
    trace_histogram,
)
from asw_slopes.padic import CycInt, PadicInt, Valuation

SPEC2 = TowerSpec(2, 1, [0, 0, 0, 1])  # x^3 over F_2
SPEC3 = TowerSpec(3, 1, [0, 0, 1])  # x^2 over F_3


def test_tower_spec_validation():
    assert SPEC2.d == 3 and SPEC2.q == 2
    with pytest.raises(ConfigError):
        TowerSpec(2, 1, [1, 0])  # degree 0 after trimming
    with pytest.raises(ConfigError):
        TowerSpec(2, 1, [0, 0, 1])  # degree 2 = p
    with pytest.raises(ConfigError):
        TowerSpec(5, 0, [0, 1])


def test_histogram_mass():
    for k in range(1, 5):
        h = trace_histogram(SPEC2, k, 3)
        assert h.total == 2**k - 1


def test_zero_cell():
    assert trace_histogram(SPEC2, 1, 3).zero_cell == 0  # f(0) = 0
    bumped = TowerSpec(2, 1, [1, 0, 0, 1])  # x^3 + 1
    assert trace_histogram(bumped, 1, 3).zero_cell == 1


def test_histogram_reduce_and_json_roundtrip():
    h = trace_histogram(SPEC3, 2, 3)
    back = TraceHistogram.from_json(json.loads(json.dumps(h.to_json(SPEC3))))
    assert back.counts == h.counts
    assert (back.k, back.digits, back.zero_cell) == (h.k, h.digits, h.zero_cell)
    r = h.reduce(1)
    assert r.total == h.total
    assert set(r.counts) <= set(range(3))
    with pytest.raises(InsufficientPrecision):
        h.reduce(5)


def test_trace_histogram_budget_and_args():
    with pytest.raises(ConfigError):
        trace_histogram(SPEC2, 0, 3)
    with pytest.raises(BudgetExceeded):
        trace_histogram(SPEC2, 25, 1)  # 2^25 - 1 points


@pytest.mark.parametrize(
    "build",
    [
        lambda: l_series(SPEC2, 1, s_order=10),
        lambda: char_series(SPEC2, t_order=3, s_order=10, digits=2),
        lambda: char_series_at_character(SPEC2, 1, 10, 2, method="exp"),
    ],
    ids=["l_series", "char_series", "char_series_at_character"],
)
def test_budget_is_checked_before_any_histogram(build, monkeypatch, tmp_path):
    # F_{2^10} is past the lowered budget: refuse before enumerating (and
    # caching) the smaller fields
    monkeypatch.setattr(expsum, "MAX_POINTS", 2**9)
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    with pytest.raises(BudgetExceeded):
        build()
    assert list(tmp_path.iterdir()) == []


def test_cache_dir_env(monkeypatch):
    monkeypatch.setenv("ASW_CACHE_DIR", "/tmp/elsewhere")
    assert cache_dir() == "/tmp/elsewhere"
    monkeypatch.delenv("ASW_CACHE_DIR")
    assert cache_dir().endswith(os.path.join(".cache", "asw-slopes"))


def test_cache_roundtrip_and_downgrade(monkeypatch, tmp_path):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    cold = trace_histogram(SPEC3, 2, 5)
    assert (tmp_path / f"hist_{SPEC3.key()}_k2_N5.json").exists()
    warm = trace_histogram(SPEC3, 2, 5)
    assert warm.counts == cold.counts
    # a lower-precision request folds the stored higher-precision file
    folded = trace_histogram(SPEC3, 2, 3)
    direct = trace_histogram(SPEC3, 2, 3, use_cache=False)
    assert folded.counts == direct.counts
    assert folded.zero_cell == direct.zero_cell


def test_t_adic_sum_hand_checks():
    # F_2* = {1}: single trace 1, so the sum is (1+T)
    s1 = t_adic_sum(SPEC2, 1, 5, 4)
    assert [c.value % 2**4 for c in s1.coeffs] == [1, 1, 0, 0, 0]
    # F_4*: x^3 = 1 at all three points and Tr(1) = 2, so 3(1+T)^2
    s2 = t_adic_sum(SPEC2, 2, 4, 4)
    assert [c.value % 2**4 for c in s2.coeffs] == [3, 6, 3, 0]
    # F_3*: both squares lift to 1, trace 1: 2(1+T)
    s3 = t_adic_sum(SPEC3, 1, 4, 4)
    assert [c.value % 3**4 for c in s3.coeffs] == [2, 2, 0, 0]


def test_character_sum_exact_values():
    h1 = trace_histogram(SPEC2, 1, 1)
    assert character_sum(h1, 1).coeffs == (-1,)  # zeta_2 = -1
    assert character_sum(h1, 1, include_zero=True).coeffs == (0,)
    with pytest.raises(InsufficientPrecision):
        character_sum(trace_histogram(SPEC3, 1, 1), 2)


def test_l_series_worked_example():
    L = l_series(SPEC2, 1)
    assert l_degree(SPEC2, 1) == 2
    assert [z.coeffs for z in L.coeffs] == [(1,), (0,), (2,)]


def test_l_series_degree_self_check():
    # computing past the degree asserts the tail vanishes
    L = l_series(SPEC2, 1, s_order=5)
    assert all(z.is_zero() for z in L.coeffs[3:])
    Lp = l_series(SPEC2, 1, punctured=True)
    assert len(Lp.coeffs) == 4 and not Lp.coeffs[3].is_zero()


def test_l_series_rejects_bad_character():
    with pytest.raises(ConfigError):
        l_series(SPEC2, 0)
    with pytest.raises(ConfigError):
        l_series(SPEC3, 2, c=3)


def test_l_series_galois_covariance():
    L1 = l_series(SPEC3, 2, c=1)
    L4 = l_series(SPEC3, 2, c=4)
    assert len(L1.coeffs) == len(L4.coeffs) == 6
    for z1, z4 in zip(L1.coeffs, L4.coeffs):
        assert z1.conjugate(4).coeffs == z4.coeffs


def test_char_series_shape():
    C = char_series(SPEC2, t_order=8, s_order=4, digits=4)
    assert len(C.coeffs) == 5
    assert all(col.order == 8 for col in C.coeffs)
    assert C.min_prec() >= 4
    const = C.coeffs[0]
    assert const.coeffs[0].value % 2**4 == 1
    assert all(c.is_zero() for c in const.coeffs[1:])


def test_char_series_at_character_pathways_agree():
    a = char_series_at_character(SPEC3, 1, 4, 6, method="product")
    b = char_series_at_character(SPEC3, 1, 4, 6, method="exp")
    assert [z.coeffs for z in a.coeffs] == [z.coeffs for z in b.coeffs]
    char_series_at_character(SPEC3, 1, 4, 6, method="both")
    with pytest.raises(ConfigError):
        char_series_at_character(SPEC3, 1, 4, 6, method="fast")


def test_q_normalization():
    assert q_normalization(2, 1, 2) == Fraction(1, 2)
    assert q_normalization(3, 1, 1) == Fraction(1, 2)
    assert q_normalization(3, 2, 2) == Fraction(1, 12)


def test_newton_from_cyclotomic_caps():
    zs = [CycInt.from_int(2, 1, n) for n in (1, 0, 4)]
    poly = newton_from_cyclotomic(zs, cap_exp=3)
    assert poly.vertices == [(0, 0), (2, 2)]
    # a tighter cap demotes the v=2 reading to a floor: hull stops at x=0
    assert newton_from_cyclotomic(zs, cap_exp=2).vertices == [(0, 0)]


def test_t_valuation_points():
    from asw_slopes.series import TruncSeries

    def col(vals):
        return TruncSeries("T", [PadicInt(2, v, 4) for v in vals])

    C = TruncSeries("s", [col([1, 0, 0]), col([0, 0, 0]), col([0, 2, 5])])
    pts = t_valuation_points(C)
    assert pts[0][1].is_exact() and pts[0][1].value == 0
    assert pts[1][1].kind == Valuation.ATLEAST and pts[1][1].value == 3
    assert pts[2][1].is_exact() and pts[2][1].value == 1
