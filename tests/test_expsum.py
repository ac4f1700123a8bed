import errno
import hashlib
import json
import math
import os
import random
from fractions import Fraction

import pytest

from asw_slopes import expsum, gf
from asw_slopes.dwork import char_series_via_operator
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
    character_sum,
    l_degree,
    l_series,
    q_normalization,
    t_adic_sum,
    t_valuation_points,
    trace_histogram,
)
from asw_slopes.padic import CycInt, Valuation, ZqCtx, teichmuller, vp_factorial
from asw_slopes.series import exp_from_power_sums
from oracles import (
    char_series_at_character,
    newton_from_cyclotomic,
    reference_char_series_at_character,
    reference_character_sum,
    reference_factorial_t_adic_sum,
    reference_t_adic_sum,
)

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


@pytest.mark.parametrize(
    "p, a, coeffs, bad", [(3, 1, [5, 0, 1], 5), (3, 1, [0, 0, 0, -1], -1), (2, 2, [0, 4, 1], 4)]
)
def test_coefficients_outside_the_base_field_are_config_errors(p, a, coeffs, bad):
    message = rf"^coefficient {bad} of f out of range \[0, {p**a}\)$"
    with pytest.raises(ConfigError, match=message) as err:
        TowerSpec(p, a, coeffs)
    assert type(err.value) is ConfigError


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


def reference_histogram(spec, k, digits):
    """Point-by-point twin of the histogram kernel: (counts, zero_cell).

    Walks x = g^j for every j < q^k - 1, keeping each monomial's power x^i
    as a Z_q/p^N vector multiplied up one step at a time, and reads each
    trace Tr(b-hat * x^i) through the vectors t[m] = Tr(b-hat * u^m).
    """
    ctx = spec.ctx if k == 1 else gf.field(spec.p, spec.a * k)
    zctx = ZqCtx(ctx, digits)
    n, mod = zctx.n, zctx.mod
    basis = [tuple(int(l == m) for l in range(n)) for m in range(n)]
    tvecs = {}
    for i, b in spec.monomials():
        bk = gf.embed_element(spec.ctx, spec.ctx.element(b), ctx)
        bh = teichmuller(zctx, bk)
        tvecs[i] = [zctx.trace(zctx.mul(bh, e)) for e in basis]
    const = tvecs[0][0] if 0 in tvecs else 0
    ghat = teichmuller(zctx, ctx.multiplicative_generator())
    steps = {i: zctx.pow(ghat, i) for i in tvecs if i > 0}
    walkers = {i: basis[0] for i in steps}
    counts = {}
    for _ in range(spec.q**k - 1):
        tot = const
        for i, w in walkers.items():
            tot += sum(wm * tm for wm, tm in zip(w, tvecs[i]))
        tot %= mod
        counts[tot] = counts.get(tot, 0) + 1
        for i, st in steps.items():
            walkers[i] = zctx.mul(walkers[i], st)
    return counts, const


# (p, a, k, digits): fields on both sides of 4096 points, counted by bins
# or, past 4 bins a point, by a Counter
INT64_CASES = [
    (2, 1, 5, 3),
    (2, 2, 5, 4),
    (3, 1, 7, 3),
    (3, 2, 2, 2),
    (5, 1, 3, 2),
    (5, 2, 1, 5),
    (7, 2, 1, 2),
    (2, 1, 13, 3),
    (3, 2, 4, 2),
    (5, 1, 6, 2),
    (7, 1, 5, 2),
]
# digit depths with n (p^N - 1)^2 >= 2^62, where the kernel uses exact ints
EXACT_INT_CASES = [(2, 1, 3, 32), (3, 2, 1, 20)]


@pytest.mark.parametrize("p, a, k, digits", INT64_CASES + EXACT_INT_CASES)
def test_histogram_kernel_matches_the_point_walk(p, a, k, digits, monkeypatch, tmp_path):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))  # computed, never read
    rng = random.Random(1000 * p + 100 * a + k)
    d = rng.choice([e for e in range(1, 6) if e % p])
    q = p**a
    coeffs = [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
    spec = TowerSpec(p, a, coeffs)
    wide = a * k * (p**digits - 1) ** 2 >= 2**62
    assert wide == ((p, a, k, digits) in EXACT_INT_CASES)
    hist = trace_histogram(spec, k, digits)
    counts, zero_cell = reference_histogram(spec, k, digits)
    assert hist.counts == counts
    assert hist.zero_cell == zero_cell


# (p, a, f coefficients ascending, k, G): towers whose trace sum repeats
# with period (q^k - 1)/G in the generator's exponent
PERIOD_CASES = [
    (2, 2, [0, 0, 0, 1], 1, 3),  # x^3 over F_4: period 1
    (5, 1, [0, 0, 3], 1, 2),  # u x^2 over F_5, F_25, F_125
    (5, 1, [0, 0, 2], 2, 2),
    (5, 1, [0, 0, 4], 3, 2),
    (2, 1, [0, 0, 0, 0, 0, 1], 4, 5),  # x^5 over F_16, from F_2 and from F_4
    (2, 2, [0, 0, 0, 0, 0, 3], 2, 5),
    (3, 2, [7, 0, 1, 0, 1], 1, 2),  # x^4 + x^2 + c over F_9
    (3, 1, [2, 0, 1, 0, 1], 2, 2),
    (2, 1, [0, 1, 0, 1], 5, 1),  # x^3 + x over F_32: no period below q^k - 1
]


@pytest.mark.parametrize("p, a, coeffs, k, G", PERIOD_CASES)
def test_one_period_of_the_trace_sum_counts_every_point(p, a, coeffs, k, G, monkeypatch, tmp_path):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))  # computed, never read
    spec = TowerSpec(p, a, coeffs)
    Q = spec.q**k
    assert math.gcd(Q - 1, *(i for i, _ in spec.monomials() if i)) == G
    for digits in (1, 3):
        hist = trace_histogram(spec, k, digits)
        counts, zero_cell = reference_histogram(spec, k, digits)
        assert hist.counts == counts
        assert hist.zero_cell == zero_cell


def test_cache_entries_that_are_not_sound_are_misses(monkeypatch, tmp_path):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path / "fresh"))
    fresh = trace_histogram(SPEC3, 2, 3)
    cdir = tmp_path / "cache"
    cdir.mkdir()
    monkeypatch.setenv("ASW_CACHE_DIR", str(cdir))
    path = cdir / f"hist_{SPEC3.key()}_k2_N3.json"
    good = fresh.to_json(SPEC3)
    bad = [
        json.dumps(good, sort_keys=True),  # no digest line
        "0" * 64 + "\n" + json.dumps(good, sort_keys=True),  # a wrong digest
        json.dumps(good)[:40],
        "[]",
        json.dumps(dict(good, counts={"0": 1})),  # covers one point, not 80
        json.dumps(dict(good, f=[0, 0, 2])),
        json.dumps(dict(good, k=3)),
        json.dumps(dict(good, digits=4)),
    ]
    for text in bad:
        path.write_text(text)
        assert expsum._load_cached(SPEC3, 2, 3) is None
        hist = trace_histogram(SPEC3, 2, 3)
        assert (hist.counts, hist.zero_cell) == (fresh.counts, fresh.zero_cell)
        # the recomputed entry replaced the unsound one
        assert json.loads(path.read_text().partition("\n")[2]) == good
    assert [n.name for n in cdir.iterdir()] == [path.name]


def test_digits_must_be_positive():
    for digits in (0, -1):
        with pytest.raises(ConfigError):
            t_adic_sum(SPEC2, 1, 3, digits)
        with pytest.raises(ConfigError):
            char_series(SPEC2, t_order=3, s_order=2, digits=digits)


def test_trace_histogram_budget_and_args():
    with pytest.raises(ConfigError):
        trace_histogram(SPEC2, 0, 3)
    with pytest.raises(BudgetExceeded):
        trace_histogram(SPEC2, 25, 1)  # 2^25 - 1 points


@pytest.mark.parametrize(
    "build",
    [
        lambda: expsum._enumerate(SPEC2, 1, 1, 10),
        lambda: char_series(SPEC2, t_order=3, s_order=10, digits=2),
    ],
    ids=["l_series", "char_series"],
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
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path / "fresh"))
    direct = trace_histogram(SPEC3, 2, 3)
    assert folded.counts == direct.counts
    assert folded.zero_cell == direct.zero_cell


def test_a_store_that_fails_is_skipped_and_leaves_no_temp_file(monkeypatch, tmp_path):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path / "fresh"))
    fresh = trace_histogram(SPEC3, 2, 3)
    cdir = tmp_path / "cache"
    monkeypatch.setenv("ASW_CACHE_DIR", str(cdir))

    def full(*args, **kwargs):
        raise OSError(errno.ENOSPC, "No space left on device")

    monkeypatch.setattr(expsum.os, "replace", full)
    hist = trace_histogram(SPEC3, 2, 3)
    assert (hist.counts, hist.zero_cell) == (fresh.counts, fresh.zero_cell)
    assert list(cdir.iterdir()) == []


def test_a_cache_directory_that_cannot_be_listed_reads_as_empty(monkeypatch, tmp_path):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path / "fresh"))
    fresh = trace_histogram(SPEC3, 2, 3)
    cdir = tmp_path / "cache"
    cdir.mkdir()
    monkeypatch.setenv("ASW_CACHE_DIR", str(cdir))

    def denied(path):
        raise PermissionError(errno.EACCES, "Permission denied", path)

    monkeypatch.setattr(expsum.os, "listdir", denied)
    assert expsum._load_cached(SPEC3, 2, 3) is None
    hist = trace_histogram(SPEC3, 2, 3)
    assert (hist.counts, hist.zero_cell) == (fresh.counts, fresh.zero_cell)


def test_t_adic_sum_hand_checks():
    # F_2* = {1}: single trace 1, so the sum is (1+T)
    s1 = t_adic_sum(SPEC2, 1, 5, 4)
    assert [c % 2**4 for c in s1.coeffs] == [1, 1, 0, 0, 0]
    # F_4*: x^3 = 1 at all three points and Tr(1) = 2, so 3(1+T)^2
    s2 = t_adic_sum(SPEC2, 2, 4, 4)
    assert [c % 2**4 for c in s2.coeffs] == [3, 6, 3, 0]
    # F_3*: both squares lift to 1, trace 1: 2(1+T)
    s3 = t_adic_sum(SPEC3, 1, 4, 4)
    assert [c % 3**4 for c in s3.coeffs] == [2, 2, 0, 0]


def test_character_sum_exact_values():
    h1 = trace_histogram(SPEC2, 1, 1)
    # x = 1 has trace 1 and x = 0 trace 0: zeta_2 + 1 = 0
    assert (h1.counts, h1.zero_cell) == ({1: 1}, 0)
    assert character_sum(h1, 1, 1).coeffs == (0,)
    assert character_sum(h1, 1, 0).coeffs == (2,)
    with pytest.raises(InsufficientPrecision):
        character_sum(trace_histogram(SPEC3, 1, 1), 2, 1)


def _random_tower(rng, p):
    d = rng.choice([d for d in range(2, 6) if d % p])
    return TowerSpec(p, 1, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_character_sum_folds_like_the_per_bin_sum(p):
    # every c mod p^m, units, non-units and 0 alike, on histograms computed
    # at m digits and deeper, and on a synthetic one with sparse deep bins
    rng = random.Random(f"character-sum:{p}")
    spec = _random_tower(rng, p)
    for m in (1, 2, 3):
        digits = m + rng.randrange(3)
        k = rng.choice([k for k in (1, 2) if p**k <= 25])
        hists = [
            trace_histogram(spec, k, digits),
            TraceHistogram(
                p, 1, m + 2,
                {rng.randrange(p ** (m + 2)): rng.randrange(1, 9) for _ in range(8)},
                rng.randrange(p ** (m + 2)),
            ),
        ]
        for hist in hists:
            assert hist.digits >= m
            for c in range(p**m):
                got = character_sum(hist, m, c)
                want = reference_character_sum(hist, m, c)
                assert (got.p, got.m, got.coeffs) == (want.p, want.m, want.coeffs)


def test_l_series_worked_example():
    L = l_series(SPEC2, 1)
    assert l_degree(SPEC2, 1) == 2
    assert [z.coeffs for z in L.coeffs] == [(1,), (0,), (2,)]


def test_l_series_degree_self_check():
    # the punctured series has degree D + 1 = 3 (the tail past D of a full
    # read is checked in test_functional_equation.py)
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
    assert min(col.prec for col in C.coeffs) == 4
    const = C.coeffs[0]
    assert const.coeffs == [1] + [0] * 7


def test_char_series_at_character_pathways_agree():
    # the product of dilated L-series against exp of the power sums
    for spec, m, s_order, digits in ((SPEC3, 1, 4, 6), (SPEC2, 2, 5, 5), (SPEC3, 2, 3, 3)):
        a = char_series_at_character(spec, m, s_order, digits)
        b = reference_char_series_at_character(spec, m, s_order, digits)
        assert [z.coeffs for z in a.coeffs] == [z.coeffs for z in b.coeffs]


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
        return TruncSeries("T", vals, 4, 2)

    C = TruncSeries("s", [col([1, 0, 0]), col([0, 0, 0]), col([0, 2, 5])])
    pts = t_valuation_points(C)
    assert pts[0][1].is_exact() and pts[0][1].value == 0
    assert pts[1][1].kind == Valuation.ATLEAST and pts[1][1].value == 3
    assert pts[2][1].is_exact() and pts[2][1].value == 1


def test_t_adic_sum_matches_the_binomial_sum_seeded(monkeypatch):
    # random histograms (counts past p^need included) against one binomial
    # series per bin; == compares every value and the precision.  The
    # cases past the int64 bound take odd p, since wrapped int64 products
    # keep their residues mod 2^k and p = 2 could not show a wrong dtype.
    rng = random.Random(89)
    cases = [(p, t, d) for p in (2, 3, 5, 7) for t, d in ((1, 1), (2, 3), (5, 2), (9, 4))]
    cases += [(p, rng.randrange(10, 41), rng.randrange(1, 6)) for p in (2, 3, 5, 7) for _ in range(3)]
    cases += [(3, 40, 4), (5, 40, 10), (7, 40, 12)]
    wide = 0
    for p, t_order, digits in cases:
        need = digits + (vp_factorial(t_order - 1, p) if t_order > 1 else 0)
        M = p**need
        extra = rng.randrange(3)
        bins = rng.randrange(1, 60)
        counts = {rng.randrange(M * p**extra): rng.randrange(1, 3 * M) for _ in range(bins)}
        wide += max(M - 1, len(counts)) * (M - 1) >= 2**62 and p > 2
        hist = TraceHistogram(p, 1, need + extra, counts, 0)
        spec = TowerSpec(p, 1, [0, 1])
        monkeypatch.setattr(expsum, "trace_histogram", lambda spec, k, read: hist.reduce(read))
        got = t_adic_sum(spec, 1, t_order, digits)
        want = reference_t_adic_sum(p, hist.reduce(need).counts, t_order, digits)
        assert got == want and got.prec == want.prec == digits, (p, t_order, digits)
    assert wide >= 3


def test_t_adic_sum_matches_the_factorial_formula_past_p_cubed(monkeypatch):
    # t_adic_sum keeps the prime-to-p part of n! as a running product; the
    # reference divides by a fresh n! at every n, on T-orders past p^3
    rng = random.Random(97)
    for p in (2, 3, 5):
        for _ in range(3):
            t_order, digits = p**3 + rng.randrange(1, p**3), rng.randrange(1, 5)
            need = digits + vp_factorial(t_order - 1, p)
            M = p**need
            counts = {rng.randrange(M): rng.randrange(1, 3 * M) for _ in range(rng.randrange(1, 30))}
            hist = TraceHistogram(p, 1, need, counts, 0)
            monkeypatch.setattr(expsum, "trace_histogram", lambda spec, k, read: hist.reduce(read))
            got = t_adic_sum(TowerSpec(p, 1, [0, 1]), 1, t_order, digits)
            assert got == reference_factorial_t_adic_sum(p, counts, t_order, digits), (p, t_order)


def test_binomials_mod_p_to_the_d_depend_on_y_mod_p_to_the_d_plus_e():
    # the lemma behind t_adic_sum's histogram read: for n < p^(e+1),
    # C(y, n) mod p^D depends only on y mod p^(D+e).  Exhaustive over y below
    # p^(D+e) and every such n for small p, D, e; seeded beyond that
    cases = 0
    for p in (2, 3, 5, 7):
        for D in (1, 2, 3, 4):
            for e in (0, 1, 2):
                period, mod = p ** (D + e), p**D
                if period * p ** (e + 1) > 20_000:
                    continue
                cases += 1
                for n in range(p ** (e + 1)):
                    for y in range(period):
                        want = math.comb(y, n) % mod
                        for z in (1, p - 1, p + 2):
                            assert math.comb(y + z * period, n) % mod == want, (p, D, e, n, y, z)
    assert cases == 38
    rng = random.Random(31)
    for _ in range(300):
        p = rng.choice((2, 3, 5, 7, 11, 13))
        e = rng.choice([e for e in range(6) if p ** (e + 1) <= 400])
        D = rng.randrange(1, 13)
        n = rng.randrange(p ** (e + 1))
        y, z = rng.randrange(p ** (D + e + 3)), rng.randrange(1, 10**6)
        shifted = math.comb(y + z * p ** (D + e), n)
        assert shifted % p**D == math.comb(y, n) % p**D, (p, D, e, n, y, z)


def test_the_binomial_period_is_sharp():
    # at n = p^e one digit less breaks it: some y has C(y + p^(D+e-1), n) and
    # C(y, n) apart mod p^D (y = 0, as v_p C(p^(D+e-1), p^e) = D - 1)
    for p in (2, 3, 5, 7):
        for D in range(1, 5):
            for e in range(4):
                n, period = p**e, p ** (D + e - 1)
                assert any(
                    math.comb(y + period, n) % p**D != math.comb(y, n) % p**D
                    for y in range(min(period, 50))
                ), (p, D, e)


def test_t_adic_sum_reads_its_histogram_at_digits_plus_the_log_guard(monkeypatch):
    # e = floor(log_p(t_order - 1)) guard digits, never v_p((t_order - 1)!)
    asked = []
    real = expsum.trace_histogram

    def spy(spec, k, digits):
        asked.append(digits)
        return real(spec, k, digits)

    monkeypatch.setattr(expsum, "trace_histogram", spy)
    for spec in (SPEC2, SPEC3, TowerSpec(5, 1, [0, 0, 1])):
        p = spec.p
        for t_order in sorted({1, 2, p, p + 1, p * p, p * p + 1, p**3, p**3 + 1, 40}):
            e = max(e for e in range(8) if p**e <= max(t_order - 1, 1))
            for digits in (1, 3):
                asked.clear()
                t_adic_sum(spec, 2, t_order, digits)
                assert asked == [digits + e], (p, t_order, digits)


def test_a_stored_entry_is_the_sorted_json_dump(monkeypatch, tmp_path):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    for spec, k, digits in ((SPEC3, 2, 5), (SPEC2, 4, 6), (TowerSpec(3, 2, [1, 0, 4]), 1, 3)):
        hist = trace_histogram(spec, k, digits)
        path = tmp_path / f"hist_{spec.key()}_k{k}_N{digits}.json"
        want = json.dumps(hist.to_json(spec), sort_keys=True).encode()
        digest = hashlib.sha256(want).hexdigest().encode()
        assert path.read_bytes() == digest + b"\n" + want, (spec, k, digits)


def test_a_cold_deep_charfn_caches_each_field_at_its_graded_digits(monkeypatch, tmp_path):
    # the deep query of the benchmark, x^3 + 1 over F_2 at (t, s, digits) =
    # (7, 15, 4): F_{2^k} is read to 4 + v_2(15!) + floor(log_2 6) -
    # v_2((k-1)!) digits, where the uniform read took 4 + 11 + v_2(6!) = 19
    # for every k
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    spec = TowerSpec(2, 1, [1, 0, 0, 1])
    char_series(spec, 7, 15, 4)
    graded = [17, 17, 16, 16, 14, 14, 13, 13, 10, 10, 9, 9, 7, 7, 6]
    assert graded == [4 + 11 + 2 - vp_factorial(k - 1, 2) for k in range(1, 16)]
    want = {f"hist_{spec.key()}_k{k}_N{n}.json" for k, n in enumerate(graded, start=1)}
    assert {x.name for x in tmp_path.iterdir()} == want


def _uniform_char_series(spec, t_order, s_order, digits):
    """exp of the unit-normalized sums, every F_{q^k} read to the same
    digits + v_p(s_order!)."""
    p = spec.p
    inner = digits + vp_factorial(s_order, p)
    sums = [t_adic_sum(spec, k, t_order, inner).scale(pow(1 - spec.q**k, -1, p**inner))
            for k in range(1, s_order + 1)]
    return exp_from_power_sums(sums, "s")


def test_graded_char_series_equals_the_uniform_exp_seeded(monkeypatch, tmp_path):
    # random f with p prime to d; == compares every column's values and
    # declared precision, digits + v_p(s!) - v_p(n!); for a = 1 the
    # operator pathway agrees mod p^digits as well
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    rng = random.Random(101)
    graded = 0
    for p in (2, 3, 5, 7):
        for a in (1, 2):
            q = p**a
            s_order = min(8, int(math.log(2**16, q) + 1e-9))
            d = rng.choice([d for d in (2, 3, 4, 5) if d % p])
            f = [rng.randrange(q) for _ in range(d)] + [rng.randrange(1, q)]
            spec = TowerSpec(p, a, f)
            t_order, digits = rng.randrange(2, 7), rng.randrange(1, 5)
            got = char_series(spec, t_order, s_order, digits)
            want = _uniform_char_series(spec, t_order, s_order, digits)
            inner = digits + vp_factorial(s_order, p)
            assert [col.prec for col in got.coeffs] == [
                inner - vp_factorial(n, p) for n in range(s_order + 1)
            ], (p, a, f)
            assert got == want, (p, a, f, t_order, digits)
            graded += vp_factorial(s_order - 1, p) > 0
            if a == 1:
                mod = p**digits
                ops = char_series_via_operator(spec, t_order, s_order, digits)
                assert [[c % mod for c in col.coeffs] for col in ops.coeffs] == [
                    [c % mod for c in col.coeffs] for col in got.coeffs
                ], (p, f, t_order, digits)
    assert graded >= 4
