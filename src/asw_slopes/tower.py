"""Tower-level arithmetic: point counts, zeta pieces, slope periodicity.

Point counts over each cover come three independent ways -- brute-force
Witt-vector enumeration, the lifted-trace histogram, and a full character
sum -- and the slope verdicts compare exact Newton-polygon multisets, so a
single wrong digit anywhere upstream shows up as a mismatch here.
"""

from __future__ import annotations

import functools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from . import gf
from .errors import ConfigError, DegreeViolation, VerificationError
from .expsum import (
    TowerSpec,
    char_series,
    l_degree,
    l_series,
    observed_polygon,
    q_normalization,
    trace_histogram,
)
from .newton import NewtonPolygon, hodge_polygon, lower_hull, turning_points
from .padic import CycInt, Valuation, cyc_valuation, phi_pm
from .series import TruncSeries

# ---------------------------------------------------------------------------
# length-2 Witt arithmetic on arrays: an element of F_Q = F_p[u]/(h) is a last
# axis of n coefficients in [0, p), little-endian; leading axes broadcast

@functools.cache
def _fold(ctx: gf.FieldCtx):
    """The (2n - 1, n) matrix of u^e mod h, in the dtype of every array of
    the Witt count.  A product of two elements has 2n - 1 coefficients below
    n (p - 1)^2, so folding keeps them below (2n - 1) n (p - 1)^3; sums before
    a reduction stay below p^2 <= Q^2, and Witt codes below Q^2."""
    n, p = ctx.n, ctx.p
    dtype = gf.int_dtype(max((2 * n - 1) * n * (p - 1) ** 3, ctx.order**2))
    return np.array(gf.shifts([1] + [0] * (n - 1), 2 * n - 1, ctx.h, p), dtype=dtype)


def _mul(ctx: gf.FieldCtx, a, b):
    """a * b elementwise: one shifted-add convolution into 2n - 1 columns,
    one product with the fold matrix, one reduction mod p."""
    fold, n = _fold(ctx), ctx.n
    wide = np.zeros(np.broadcast_shapes(a.shape, b.shape)[:-1] + (2 * n - 1,), fold.dtype)
    for j in range(n):
        wide[..., j : j + n] += a[..., j, None] * b
    return wide @ fold % ctx.p


def _pow(ctx: gf.FieldCtx, a, e: int):
    """a^e elementwise, left to right (a^0 = 1)."""
    out = a if e else np.broadcast_to(_fold(ctx)[0], a.shape)
    for bit in bin(e)[3:]:
        out = _mul(ctx, out, out)
        if bit == "1":
            out = _mul(ctx, out, a)
    return out


def _carry(ctx: gf.FieldCtx, a, b):
    """sum_{0<i<p} C(p,i)/p a^i b^(p-i) by Horner's rule in a, each C(p,i)/p
    reduced mod p to meet the arrays: the second Witt coordinate of a + b is
    a_1 + b_1 less this carry."""
    p = ctx.p
    acc, bpow = 0, b
    for i in range(p - 1, 0, -1):
        if i < p - 1:
            bpow = _mul(ctx, bpow, b)
        acc = _mul(ctx, (acc + math.comb(p, i) // p % p * bpow) % p, a)
    return acc


def witt_add(ctx: gf.FieldCtx, u, v):
    """u + v for Witt vectors of length 1 or 2, each a tuple of arrays."""
    s = [(u[0] + v[0]) % ctx.p]
    if len(u) == 2:
        s.append((u[1] + v[1] - _carry(ctx, u[0], v[0])) % ctx.p)
    return tuple(s)


def witt_sub(ctx: gf.FieldCtx, u, v):
    """u - v with one carry: (u - v) + v = u fixes the second coordinate."""
    d = [(u[0] - v[0]) % ctx.p]
    if len(u) == 2:
        d.append((u[1] - v[1] + _carry(ctx, d[0], v[0])) % ctx.p)
    return tuple(d)


# ---------------------------------------------------------------------------
# counting rational points on the m-th cover, three ways

def witt_feasible(spec: TowerSpec, m: int, k: int) -> bool:
    """Whether count_points_witt enumerates the m-th cover over F_{q^k}:
    levels 1 and 2, with (q^k)^m values of y times q^k points x <= 4*10^6."""
    return m in (1, 2) and spec.q ** (k * (m + 1)) <= 4 * 10**6


def count_points_witt(spec: TowerSpec, m: int, k: int) -> int:
    """Brute force: #{(x, y) : F(y) - y = sum_i (b_i x^i, 0)} over F_{q^k}.

    The right side is the Witt sum of the monomials' Teichmuller lifts, the
    image of f-hat(x-hat) in W_m.  F(y) - y is found for every y in W_m at
    once (y_0 down axis 0, y_1 across axis 1), coded as d_0 Q + d_1 and
    binned; each x's target then reads its bin.
    """
    if not witt_feasible(spec, m, k):
        raise ConfigError(f"no brute-force Witt count for m = {m} over F_(q^{k})")
    ctx = spec.ctx if k == 1 else gf.field(spec.p, spec.a * k)
    p, Q = ctx.p, ctx.order
    digits = p ** np.arange(ctx.n, dtype=_fold(ctx).dtype)
    elts = np.arange(Q, dtype=digits.dtype)[:, None] // digits % p

    def code(w):  # d_0 Q + d_1 for length 2, the index of d_0 for length 1
        return sum(c @ digits * Q**e for e, c in enumerate(reversed(w)))

    y = (elts[:, None], elts[None, :])[:m]
    fy_less_y = witt_sub(ctx, tuple(_pow(ctx, c, p) for c in y), y)
    bins = np.bincount(code(fy_less_y).ravel(), minlength=Q**m)
    zero = np.zeros_like(elts)
    target = (zero,) * m
    for i, b in spec.monomials():
        lift = np.array(gf.embed_element(spec.ctx, spec.ctx.element(b), ctx), digits.dtype)
        target = witt_add(ctx, target, (_mul(ctx, lift, _pow(ctx, elts, i)), zero)[:m])
    return int(bins[code(target)].sum())


def count_points_trace(spec: TowerSpec, m: int, k: int, hist=None) -> int:
    """p^m * #{x : lifted trace vanishes mod p^m}, zero fiber included; `hist`
    is trace_histogram(spec, k, m) when already read."""
    hist = trace_histogram(spec, k, m) if hist is None else hist
    zeros = hist.counts.get(0, 0)
    if hist.zero_cell == 0:
        zeros += 1
    return spec.p**m * zeros


def count_points_char(spec: TowerSpec, m: int, k: int, hist=None) -> int:
    """Same count as the sum of the character sums over every c mod p^m
    (c = 0 gives q^k), each in Z[zeta_{p^m}]; the total must land in Z.
    `hist` is trace_histogram(spec, k, m) when already read.

    All p^m sums go into one exponent vector, n at c t mod p^m for every c
    and every cell (t, n), the zero cell included, reduced once in Z[zeta].
    Its entries sum to p^m q^k, and the exponents c t stay below p^(2m).
    """
    hist = (trace_histogram(spec, k, m) if hist is None else hist).reduce(m)
    pm = spec.p**m
    dtype = gf.int_dtype(pm * max(pm, spec.q**k))
    c = np.arange(pm, dtype=dtype)
    vec = np.zeros(pm, dtype=dtype)
    for t, n in [*hist.counts.items(), (hist.zero_cell, 1)]:
        tally = np.bincount((c * t % pm).astype(np.intp, copy=False), minlength=pm)
        vec += tally.astype(dtype, copy=False) * n
    return CycInt(spec.p, m, vec.tolist()).rational_value()


# ---------------------------------------------------------------------------
# zeta numerator assembly and genus

def genus_double(spec: TowerSpec, m: int) -> int:
    """2g of the m-th cover (smooth projective model)."""
    p = spec.p
    t1 = spec.d * ((p ** (2 * m) - 1) // (p * p - 1))
    val = (p - 1) * t1 - (p**m - 1)
    assert val >= 0
    return val


def assemble_block(spec: TowerSpec, m: int) -> list[int]:
    """Product over primitive characters of level m: an integer polynomial."""
    L = l_series(spec, m)
    deg = l_degree(spec, m)
    target = phi_pm(spec.p, m) * deg
    zero = CycInt.zero(spec.p, m)
    padded = list(L.coeffs) + [zero] * (target + 1 - len(L.coeffs))
    prod = None
    for c in range(1, spec.p**m):
        if c % spec.p == 0:
            continue
        factor = TruncSeries("s", [a.conjugate(c) for a in padded])
        prod = factor if prod is None else prod * factor
    out = [a.rational_value() for a in prod.coeffs]
    if out[target] == 0:
        raise DegreeViolation(f"level-{m} block degenerates below degree {target}")
    return out


def zeta_numerator(spec: TowerSpec, m: int) -> list[int]:
    """Numerator of the zeta function of the m-th cover: product of blocks.

    Degree must equal 2g; that single integer ties the L-series, the Witt
    point counts, and the ramification bookkeeping together.
    """
    if m < 0:
        raise ConfigError(f"cover level m must be >= 0, got {m}")
    acc = [1]
    for level in range(1, m + 1):
        acc = gf.convolve(acc, assemble_block(spec, level))
    if len(acc) - 1 != genus_double(spec, m):
        raise DegreeViolation(
            f"zeta numerator degree {len(acc) - 1} != 2g = {genus_double(spec, m)}"
        )
    return acc


# ---------------------------------------------------------------------------
# slope periodicity

def stable_level(spec: TowerSpec) -> int:
    """Smallest level at which the slope recursion locks in:
    minimal m with p^{m-1} >= a (d-1)^2 / (8d)."""
    p = spec.p
    bound = Fraction(spec.a * (spec.d - 1) ** 2, 8 * spec.d)
    m = 1
    while p ** (m - 1) < bound:
        m += 1
    return m


def l_newton(spec: TowerSpec, m: int, c: int = 1) -> NewtonPolygon:
    """q-adic Newton polygon of the level-m L-series, from its coefficients
    up to floor(D/2) (enumerating F_{q^k} for k <= floor(D/2) only)."""
    return series_newton(spec, m, l_series(spec, m, c, s_order=l_degree(spec, m) // 2))


def series_newton(spec: TowerSpec, m: int, L: TruncSeries) -> NewtonPolygon:
    """q-adic Newton polygon of a level-m L-series of degree D, exactly.

    Each coefficient a_n that L holds gives the point (n, v_pi(a_n)).  The
    one prime over p is totally ramified, so valuations are Galois-invariant,
    and the functional equation a_D conj(a_{D-n}) = q^{D-n} a_n (see
    expsum._rebuild_upper) gives v(a_{D-n}) = v(a_n) + (D - 2n) a phi(p^m)/2
    for every a_{D-n} past L's end; a zero a_n mirrors to a zero.
    """
    D = l_degree(spec, m)
    pts = [(n, cyc_valuation(z)) for n, z in enumerate(L.coeffs)]
    half = Fraction(spec.a * phi_pm(spec.p, m), 2)
    for n in range(D + 1 - len(pts)):
        v = pts[n][1]
        pts.append((D - n, Valuation.exact(v.value + (D - 2 * n) * half) if v.is_exact() else v))
    source = f"q-adic level {m}"
    return lower_hull(pts, source).rescale(q_normalization(spec.p, spec.a, m), source)


def base_slopes(spec: TowerSpec) -> list[Fraction]:
    """q-adic slopes at the stable level; everything higher is predicted
    from these by rescaled translation."""
    return l_newton(spec, stable_level(spec)).slopes()


def predicted_slopes(spec: TowerSpec, m: int, base=None) -> Counter:
    m0 = stable_level(spec)
    if m < m0:
        raise ConfigError(f"prediction applies from level {m0} on, got {m}")
    if base is None:
        base = base_slopes(spec)
    P = spec.p ** (m - m0)
    out: Counter = Counter()
    for i in range(P):
        out[Fraction(i, P)] += 1
        for aj in base:
            out[Fraction(aj + i, P)] += 1
    out[Fraction(0)] -= 1
    if out[Fraction(0)] == 0:
        del out[Fraction(0)]
    return out


def verify_periodicity(spec: TowerSpec, m_max: int, polygons=None) -> dict:
    """Exact multiset comparison of predicted vs computed slopes per level.
    `polygons` maps levels to q-adic polygons already read, and gains those
    read here."""
    m0 = stable_level(spec)
    if m_max < m0:
        raise ConfigError(f"periodicity starts at the stable level {m0}, got m_max = {m_max}")
    polygons = {} if polygons is None else polygons
    for m in range(m0, m_max + 1):
        if m not in polygons:
            polygons[m] = l_newton(spec, m)
    base = polygons[m0].slopes()
    levels = []
    all_ok = True
    for m in range(m0, m_max + 1):
        pred = predicted_slopes(spec, m, base)
        act = polygons[m].slope_multiset()
        ok = pred == act
        all_ok = all_ok and ok
        rows = []
        for s in sorted(set(pred) | set(act)):
            rows.append(
                {
                    "slope": [s.numerator, s.denominator],
                    "predicted": pred.get(s, 0),
                    "computed": act.get(s, 0),
                    "ok": pred.get(s, 0) == act.get(s, 0),
                }
            )
        levels.append({"m": m, "ok": ok, "slopes": rows})
    return {"stable_level": m0, "ok": all_ok, "levels": levels}


def l_hodge_polygon(spec: TowerSpec, m: int) -> NewtonPolygon:
    """Lower bound polygon for the level-m L-series: slopes k/D for
    0 < k < D, over its degree D - 1, where D = p^(m-1) d."""
    D = spec.p ** (m - 1) * spec.d
    return NewtonPolygon(
        [(k, Fraction(k * (k + 1), 2 * D)) for k in range(D)],
        source="hodge",
    )


def verify_hodge(spec: TowerSpec, m: int, poly=None) -> dict:
    """q-adic polygon of the level-m L-series (`poly`, when already read)
    against its lower bound."""
    if poly is None:
        poly = l_newton(spec, m)
    bound = l_hodge_polygon(spec, m)
    ok = poly.dominates(bound)
    if not ok:
        raise VerificationError("computed polygon dips below the Hodge bound")
    return {
        "m": m,
        "ok": ok,
        "touch": poly.touch_points(bound),
        "vertices": poly.to_json()["vertices"],
    }


def turning_window(spec: TowerSpec, t_order=None, s_order=None) -> tuple[int, int]:
    """(T-order, s-order) for the turning-point check; None plans it.

    The planned s-order 2d + 1 takes in the forced contact points x = nd and
    nd + 1 for n <= 2; the T-order reaches one past the scaled lower bound
    (p-1)x(x-1)/(2d) at the last column.
    """
    if s_order is None:
        s_order = 2 * spec.d + 1
    if t_order is None:
        t_order = 1 + (spec.p - 1) * (s_order * (s_order - 1)) // (2 * spec.d)
    return t_order, s_order


def turning_bound(spec: TowerSpec, width: int) -> NewtonPolygon:
    """The T-adic lower bound: the Hodge polygon of d scaled by p - 1."""
    return hodge_polygon(spec.d, width).rescale(spec.p - 1, source="scaled lower bound")


def verify_turning(spec: TowerSpec, digits: int, t_order=None, s_order=None) -> dict:
    """The T-adic polygon of C(T, s) on the turning window against its lower
    bound: it must dominate the bound and meet it at every forced contact
    point (x, (p-1) y) of newton.turning_points."""
    t_order, s_order = turning_window(spec, t_order, s_order)
    poly = observed_polygon(char_series(spec, t_order, s_order, digits))
    ok = poly.dominates(turning_bound(spec, poly.width))
    rows = []
    for x, y in turning_points(spec.d, poly.width):
        want = (spec.p - 1) * y
        hit = poly.y_at(x) == want
        ok = ok and hit
        rows.append({"x": x, "expected": [want.numerator, want.denominator], "ok": hit})
    return {"ok": ok, "touch": rows, "polygon": poly.to_json()}


def cross_check_counts(spec: TowerSpec, m: int, k: int) -> dict:
    """All three point counts for the m-th cover over the k-th extension."""
    hist = trace_histogram(spec, k, m)
    via_trace = count_points_trace(spec, m, k, hist)
    via_char = count_points_char(spec, m, k, hist)
    out = {"m": m, "k": k, "trace": via_trace, "character": via_char}
    if witt_feasible(spec, m, k):
        out["witt"] = count_points_witt(spec, m, k)
    values = {v for key, v in out.items() if key not in ("m", "k")}
    if len(values) != 1:
        raise VerificationError(f"point counts disagree: {out}")
    out["ok"] = True
    return out
