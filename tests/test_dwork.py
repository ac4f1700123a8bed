import random
import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from asw_slopes import dwork
from asw_slopes.dwork import (
    _matmul,
    _read_lanes,
    _teich_zp,
    _trace,
    _trace_pair,
    _write_lanes,
    artin_hasse,
    char_series_via_operator,
    nuclear_matrix,
    nuclear_traces,
    operator_bytes,
    pi_of_T,
    splitting_coefficients,
    t_adic_sum_via_operator,
)
from asw_slopes.errors import ConfigError
from asw_slopes.expsum import (
    TowerSpec,
    char_series,
    t_adic_sum,
    t_valuation_points,
)
from asw_slopes.series import TruncSeries, compose
from oracles import (
    densify,
    reference_matmul,
    reference_pack,
    reference_repack,
    reference_teich_zp,
    reference_trace_pair,
    reference_unpack,
    structural_floor,
)

SPEC2 = TowerSpec(2, 1, [0, 0, 0, 1])
SPEC3 = TowerSpec(3, 1, [0, 0, 1])


def _rational_artin_hasse(p, order):
    """exp(sum x^{p^i}/p^i) with Fractions, an independent oracle."""
    sums = [Fraction(0)] * (order - 1)
    e = 0
    while p**e < order:
        # power-sum convention: coefficient of x^k is S_k / k
        sums[p**e - 1] = Fraction(p**e, p**e)
        e += 1
    out = [Fraction(1)]
    for n in range(1, order):
        acc = Fraction(0)
        for k in range(1, n + 1):
            if sums[k - 1]:
                acc += sums[k - 1] * out[n - k]
        out.append(acc / n)
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_artin_hasse_matches_rational_oracle(p):
    # order 130 needs v_p(129!) guard digits (127 for p = 2), so a guard
    # even one digit short leaves a wrong top coefficient at some digits
    for order in (1, 2, 12, 130):
        want = _rational_artin_hasse(p, order)
        assert all(frac.denominator % p for frac in want)
        for digits in range(1, 21):
            E = artin_hasse(p, order, digits)
            mod = p**digits
            assert E.prec == digits and E.order == order
            assert E.coeffs == [f.numerator * pow(f.denominator, -1, mod) % mod for f in want]


def test_pi_of_T_inverts_the_exponential():
    p, order, digits = 3, 9, 5
    E = artin_hasse(p, order, digits)
    piT = pi_of_T(p, order, digits)
    back = compose([E], piT)[0]  # should be exactly 1 + T
    vals = back.coeffs
    assert vals[0] == 1 and vals[1] == 1
    assert all(v == 0 for v in vals[2:])


def test_splitting_coefficients_grid():
    # only the d-grid columns come back: c[J][g] is the w^(g d) digit, zero
    # below the w-floor J; the off-grid digits of the w-grid oracle are zero
    d = SPEC2.d
    c = splitting_coefficients(SPEC2, x_max=8, t_order=12 // d, digits=5).tolist()
    full = reference_splitting_coefficients(SPEC2, 8, 12, 5)
    assert c[0][0] == 1 and len(c) == 8
    assert all(len(row) == 12 // d for row in c)
    assert c == [row[::d] for row in full]
    for J in range(8):
        for g in range(12 // d):
            if g * d < J:
                assert c[J][g] == 0
        assert not any(full[J][r] for r in range(12) if r % d)


def reference_splitting_coefficients(spec, x_max, w_order, digits):
    """Pure-Python product of the monomials' splitting series: the oracle
    for the numpy kernel, on plain ints with a reduction after every add."""
    p, d = spec.p, spec.d
    mod = p**digits
    n_max = 1 + (w_order - 1) // d
    e = artin_hasse(p, n_max, digits).coeffs
    rows = [[0] * w_order for _ in range(x_max)]
    rows[0][0] = 1
    for i, b in spec.monomials():
        bh = _teich_zp(p, b, digits)
        prev = rows
        rows = [[0] * w_order for _ in range(x_max)]
        bpow = 1
        for n in range(n_max):
            if i * n >= x_max or d * n >= w_order:
                break
            g = (e[n] * bpow) % mod
            if g:
                for x in range(x_max - i * n):
                    src = prev[x]
                    dst = rows[x + i * n]
                    for r in range(w_order - d * n):
                        if src[r]:
                            dst[r + d * n] = (dst[r + d * n] + g * src[r]) % mod
            bpow = (bpow * bh) % mod
    return rows


def test_splitting_coefficients_paths_agree():
    # digits 31 pushes the accumulator past the int64 bound: dtype=object.
    # Wrapped int64 sums would keep their residues mod 2^31, so only the
    # odd prime shows a wrong dtype.
    for spec in (SPEC2, TowerSpec(3, 1, [1, 1, 1])):
        d = spec.d
        t = -(-9 // d)  # the pi-columns of a w-window of 9
        wide = splitting_coefficients(spec, 6, t, 31)
        fast = splitting_coefficients(spec, 6, t, 4)
        assert wide.dtype == object and fast.dtype == np.int64
        wide, fast = wide.tolist(), fast.tolist()
        assert wide == [row[::d] for row in reference_splitting_coefficients(spec, 6, 9, 31)]
        assert fast == [row[::d] for row in reference_splitting_coefficients(spec, 6, 9, 4)]
        assert all(type(x) is int for row in wide for x in row)
        for rw, rf in zip(wide, fast):
            assert [x % spec.p**4 for x in rw] == rf


def reference_nuclear_traces(spec, s_order, t_order, digits):
    """tr(M^k), k <= s_order, from the unconjugated operator: entry (i, j) is
    w^{i-j} c_{pj-i} kept as W = d t_order w-lanes, so it reads W + R
    splitting columns.  Returns w-coefficient lists of length W."""
    p, d = spec.p, spec.d
    W = d * t_order
    R = s_order + -(-W // (p - 1))
    w_c = W + R
    c = reference_splitting_coefficients(spec, p * R, w_c, digits)
    mod = p**digits
    stride = (2 * (mod - 1).bit_length() + (R * R * W).bit_length() + 8) // 8
    M = [[0] * R for _ in range(R)]
    for i in range(R):
        for j in range(R):
            J, shift = p * j - i, i - j
            if J >= 0:
                entry = [c[J][r - shift] if 0 <= r - shift < w_c else 0 for r in range(W)]
                M[i][j] = reference_pack(entry, stride)

    def reduce(v):
        return reference_pack(reference_unpack(v, W, stride, mod), stride)

    power = M
    out = []
    for k in range(1, s_order + 1):
        if k > 1:
            power = [
                [reduce(sum(power[i][u] * M[u][j] for u in range(R))) for j in range(R)]
                for i in range(R)
            ]
        out.append(reference_unpack(sum(power[i][i] for i in range(R)), W, stride, mod))
    return out


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_pi_lane_traces_match_the_w_lane_operator(p):
    # the deeper windows drive lane sums well past 2 bits(p^digits - 1) + 1
    # bits, so a lane width short of its bound shows as a wrong trace
    rng = random.Random(p)
    for d in (2, 3, 4, 5):
        if d % p == 0:
            continue
        f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        spec = TowerSpec(p, 1, f)
        for s_order, t_order, digits in ((3, 4, 5), (5, 6, 4), (6, 8, 7)):
            M = nuclear_matrix(spec, s_order, t_order, digits)
            assert M.lanes == t_order
            got = nuclear_traces(spec, s_order, t_order, digits)
            want = reference_nuclear_traces(spec, s_order, t_order, digits)
            for g, w in zip(got, want):
                assert g == w[::d], (p, d, s_order)
                assert not any(w[r] for r in range(len(w)) if r % d), (p, d)


def _repack(row, lanes, stride, mod):
    return _write_lanes(_read_lanes(row, lanes, stride, mod), stride)


def _moduli(p, stride, rng):
    """A random power of p, the powers on both sides of the lane fold's
    int64 bound (m^2 < 2^62) and the first past 2^64."""
    e = 1
    while p ** (2 * e + 2) < 2**62:
        e += 1
    past = 1
    while p**past <= 2**64:
        past += 1
    return [p ** rng.randrange(1, 8 * stride // p.bit_length() + 1), p**e, p ** (e + 1), p**past]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_packed_rows_match_the_per_entry_repack(p):
    rng = random.Random(p)
    # random packed sums: lanes of 1 to 24 bytes, the high half past the
    # kept lanes as a product leaves it, some entries zero; a residue is
    # packed again only where it fits its lane
    for stride in range(1, 25):
        for mod in _moduli(p, stride, rng):
            for lanes in (1, 2, 5):
                row = [
                    rng.getrandbits(8 * stride * (2 * lanes - 1)) * rng.randrange(2)
                    for _ in range(rng.randrange(1, 9))
                ]
                got = _read_lanes(row, lanes, stride, mod)
                assert got.tolist() == [reference_unpack(v, lanes, stride, mod) for v in row]
                if mod <= 2 ** (8 * stride):
                    want = reference_repack(row, lanes, stride, mod)
                    assert _repack(row, lanes, stride, mod) == want
    # and the products of a nuclear matrix, at a stride of 8 bytes or less
    # and at one above
    f = [rng.randrange(p) for _ in range(3 if p == 2 else 2)] + [1]
    for digits in (4, 64 // p.bit_length()):
        M = nuclear_matrix(TowerSpec(p, 1, f), 3, 8, digits)
        assert (M.stride <= 8) == (digits == 4)
        dense = densify(M)
        raw = [
            [sum(a * dense[j][k] for j, a in enumerate(row)) for k in range(M.size)]
            for row in dense
        ]
        want = [reference_repack(r, M.lanes, M.stride, M.mod) for r in raw]
        assert densify(_matmul(M, M)) == want


def _check_rows(M):
    """Each row lists distinct columns by ascending v, each entry with a
    nonzero lowest lane and nothing past the window."""
    bits = 8 * M.stride
    low = (1 << bits) - 1
    for row in M.rows:
        assert [v for v, _, _ in row] == sorted(v for v, _, _ in row)
        assert len({j for _, j, _ in row}) == len(row)
        assert all(0 <= v < M.lanes and e & low for v, _, e in row)
        assert all(e >> bits * (M.lanes - v) == 0 for v, _, e in row)


def _wide_windows(spec, s_order, t_order, strides):
    """(s_order, t_order, digits) at the fewest digits giving each stride."""
    found, digits = {}, 1
    while len(found) < len(strides):
        stride = nuclear_matrix(spec, s_order, t_order, digits).stride
        if stride in strides:
            found.setdefault(stride, digits)
        digits += 1
    return [(s_order, t_order, found[stride]) for stride in strides]


@pytest.mark.parametrize("p", [2, 3, 5, 7])
def test_sparse_products_match_the_dense_oracle(p):
    # windows: one pi-lane, shallow and deep, and lanes of 9 to 16 bytes
    rng = random.Random(100 + p)
    strides = set()
    for d in (2, 3, 4, 5):
        if d % p == 0:
            continue
        f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
        spec = TowerSpec(p, 1, f)
        windows = [(4, 1, 5), (5, 6, 4), (5, 9, 7), (3, 5, 64 // p.bit_length())]
        for s_order, t_order, digits in windows + _wide_windows(spec, 3, 5, range(9, 17)):
            M = nuclear_matrix(spec, s_order, t_order, digits)
            assert (M.stride > 8) == (digits > 7), (p, d, M.stride)
            strides.add(M.stride)
            args = (M.lanes, M.stride, M.mod)
            _check_rows(M)
            dense = [None, densify(M)]
            powers = [None, M]
            for k in range(2, s_order + 1):
                powers.append(_matmul(powers[k - 1], M))
                _check_rows(powers[k])
                dense.append(reference_matmul(dense[k - 1], dense[1], *args))
                assert densify(powers[k]) == dense[k], (p, d, t_order, k)
            want = [reference_unpack(sum(dense[1][i][i] for i in range(M.size)), *args)]
            assert _trace(M) == want[0]
            for k in range(2, s_order + 1):
                lo, hi = k // 2, k - k // 2
                want.append(reference_trace_pair(dense[lo], dense[hi], *args))
                assert _trace_pair(powers[lo], powers[hi]) == want[-1], (p, d, t_order, k)
            assert nuclear_traces(spec, s_order, t_order, digits) == want
    assert set(range(9, 17)) <= strides


def _shape_of_size(size):
    """dwork._shape with R = size(p, d, t_order), the lane width as before."""

    def shape(p, d, t_order, digits):
        R = size(p, d, t_order)
        lane_bits = 2 * (p**digits - 1).bit_length() + (R * R * t_order).bit_length() + 1
        return R, (lane_bits + 7) // 8

    return shape


def test_traces_at_the_true_size_equal_the_old_size(monkeypatch):
    # nuclear_matrix takes R = ceil(W/(p-1)); the size it took before,
    # s_order + ceil(W/(p-1)), is the reference.  One index short of R
    # changes a trace somewhere in the battery, so the battery sees a size
    # that is too small.
    short = 0
    for p in (2, 3, 5, 7):
        rng = random.Random(200 + p)
        for _ in range(4):
            d = rng.choice([e for e in (2, 3, 4, 5) if e % p])
            spec = TowerSpec(p, 1, [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)])
            window = rng.randrange(1, 8), rng.randrange(1, 13), rng.randrange(1, 9)
            s_order, t_order, _ = window
            R = -(-d * t_order // (p - 1))
            assert nuclear_matrix(spec, *window).size == R
            got = nuclear_traces(spec, *window)
            with monkeypatch.context() as mp:
                mp.setattr(dwork, "_shape", _shape_of_size(lambda p, d, t: s_order + R))
                assert nuclear_traces(spec, *window) == got, (p, d, window)
                mp.setattr(dwork, "_shape", _shape_of_size(lambda p, d, t: R - 1))
                short += R > 1 and nuclear_traces(spec, *window) != got
    assert short


@pytest.mark.parametrize(
    "spec, window", [(SPEC2, (6, 28, 6)), (SPEC3, (16, 40, 8))], ids=["p2-x3", "p3-x2"]
)
def test_operator_bytes_bound_the_traces_peak(spec, window):
    # the estimate nuclear_matrix checks against OPERATOR_BYTES holds the
    # traced peak, within a factor of 10 of it
    tracemalloc.start()
    try:
        nuclear_traces(spec, *window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= operator_bytes(spec.p, spec.d, *window) <= 10 * peak


def test_operator_requires_prime_base():
    spec = TowerSpec(2, 2, [0, 1, 0, 1])
    with pytest.raises(ConfigError):
        t_adic_sum_via_operator(spec, 1, 4, 3)


@pytest.mark.parametrize("spec,kmax", [(SPEC2, 3), (SPEC3, 2)])
def test_power_sums_match_point_counts(spec, kmax):
    mod = spec.p**4
    for t_order in (6, 1):
        for k in range(1, kmax + 1):
            via_op = t_adic_sum_via_operator(spec, k, t_order, 4)
            via_pts = t_adic_sum(spec, k, t_order, 4)
            assert [c % mod for c in via_op.coeffs] == [c % mod for c in via_pts.coeffs]


def test_char_series_pathways_small():
    mod = 2**4
    for t_order in (10, 1):
        A = char_series(SPEC2, t_order=t_order, s_order=4, digits=4)
        B = char_series_via_operator(SPEC2, t_order=t_order, s_order=4, digits=4)
        assert len(A.coeffs) == len(B.coeffs)
        for ca, cb in zip(A.coeffs, B.coeffs):
            assert [x % mod for x in ca.coeffs] == [x % mod for x in cb.coeffs]


def test_structural_floor_bounds_series():
    assert [structural_floor(SPEC2, k) for k in range(5)] == [0, 0, 1, 3, 6]
    C = char_series(SPEC2, t_order=10, s_order=4, digits=4)
    for k, val in t_valuation_points(C):
        bound = Fraction(structural_floor(SPEC2, k), SPEC2.d)
        if val.is_exact():
            assert val.value >= bound


def test_teich_zp_one_pow_matches_the_loop():
    for p in (2, 3, 5, 7):
        for digits in range(1, 13):
            for residue in range(p):
                assert _teich_zp(p, residue, digits) == reference_teich_zp(p, residue, digits)
