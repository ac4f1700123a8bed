"""Slope-block factorization of the characteristic series and weight laws.

The bivariate characteristic series factors over Z_p[[T]] into blocks, one
per polygon segment between consecutive touching vertices.  The split is a
two-sided multiplicative (Wiener-Hopf style) iteration after a rescaling
s -> sigma T'^{-g} that turns the chosen vertex into the unique valuation
minimum: everything left of it goes into a polynomial factor, everything
right into a unit power series, and the corrector shrinks quadratically.
No step divides by p, so p-adic precision rides through untouched; the
T-adic window bookkeeping is the whole game and is spelled out inline.

Specializing the parameter at a finite character's uniformizer then turns
each block into a polynomial over a cyclotomic ring whose Newton polygon
must reproduce the level-independent slope law -- verified by exact
multiset comparison.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .errors import (
    ConfigError,
    InsufficientPrecision,
    NoGapAtVertex,
    NonConvergence,
    VerificationError,
    WeightOutsideAnnulus,
)
from .expsum import t_valuation_points
from .newton import NewtonPolygon, lower_hull
from .padic import CycInt, PadicInt, cyc_valuation, vp
from .series import TruncSeries
from .tower import base_slopes, stable_level


def observed_polygon(C: TruncSeries) -> NewtonPolygon:
    """T-adic polygon of a bivariate series from its nonzero-digit anchors."""
    return lower_hull(t_valuation_points(C), source="T-adic")


# ---------------------------------------------------------------------------
# sigma-window panels: lanes = sigma exponents, columns = T'-digits

class _Panel:
    __slots__ = ("lo", "digits", "mod", "data")

    def __init__(self, lo: int, digits: int, mod: int, data):
        self.lo = lo
        self.digits = digits
        self.mod = mod
        self.data = data  # int64 array, shape (lanes, digits)

    @classmethod
    def zeros(cls, lo: int, hi: int, digits: int, mod: int) -> "_Panel":
        return cls(lo, digits, mod, np.zeros((hi - lo + 1, digits), dtype=np.int64))

    def one(self) -> "_Panel":
        out = _Panel(self.lo, self.digits, self.mod, np.zeros_like(self.data))
        out.data[-self.lo][0] = 1
        return out

    def copy(self) -> "_Panel":
        return _Panel(self.lo, self.digits, self.mod, self.data.copy())

    @property
    def hi(self) -> int:
        return self.lo + self.data.shape[0] - 1

    def row(self, lane: int):
        return self.data[lane - self.lo]

    def is_zero(self) -> bool:
        return not self.data.any()

    def val(self):
        """Minimum T'-valuation over all lanes (None if identically zero)."""
        nz = np.nonzero(self.data.any(axis=0))[0]
        return None if len(nz) == 0 else int(nz[0])

    def add(self, other: "_Panel") -> "_Panel":
        return _Panel(self.lo, self.digits, self.mod, (self.data + other.data) % self.mod)

    def sub(self, other: "_Panel") -> "_Panel":
        return _Panel(self.lo, self.digits, self.mod, (self.data - other.data) % self.mod)

    def mul(self, other: "_Panel") -> "_Panel":
        """Windowed product; lanes falling outside the window are dropped,
        which is sound exactly because every operand obeys the cone bound."""
        D = self.digits
        out = np.zeros_like(self.data)
        lanes = self.data.shape[0]
        nza = [lane for lane in range(lanes) if self.data[lane].any()]
        nzb = [lane for lane in range(lanes) if other.data[lane].any()]
        for ia in nza:
            ra = self.data[ia]
            for ib in nzb:
                lane = ia + ib + self.lo  # (ia+lo)+(ib+lo)-lo
                if 0 <= lane < lanes:
                    conv = np.convolve(ra, other.data[ib])[:D]
                    out[lane, : len(conv)] = (out[lane, : len(conv)] + conv) % self.mod
        return _Panel(self.lo, D, self.mod, out)

    def proj_neg(self) -> "_Panel":
        out = np.zeros_like(self.data)
        out[: -self.lo] = self.data[: -self.lo]
        return _Panel(self.lo, self.digits, self.mod, out)

    def proj_nonneg(self) -> "_Panel":
        out = np.zeros_like(self.data)
        out[-self.lo :] = self.data[-self.lo :]
        return _Panel(self.lo, self.digits, self.mod, out)


def _panel_inverse(X: _Panel) -> _Panel:
    """(1 + N)^{-1} by Newton doubling; N must have positive T'-valuation."""
    N = X.sub(X.one())
    g = N.val()
    if N.is_zero():
        return X.one()
    if g == 0:
        raise ConfigError("panel inverse needs a 1 + O(T') argument")
    Y = X.one()
    reached = 0
    while reached < X.digits:
        err = X.one().sub(X.mul(Y))
        Y = Y.add(Y.mul(err))
        reached = max(reached * 2, g)
    return Y


# ---------------------------------------------------------------------------
# the block split

class BlockFactor:
    """Lower factor of the characteristic series at one polygon vertex.

    coeffs[k] is the T-expansion of the s^k coefficient (constant term 1);
    t_digits says how far the expansions are certified.
    """

    __slots__ = ("vertex", "gamma", "rescale_order", "p", "digits", "t_digits", "coeffs")

    def __init__(self, vertex, gamma, rescale_order, p, digits, t_digits, coeffs):
        self.vertex = vertex
        self.gamma = gamma
        self.rescale_order = rescale_order
        self.p = p
        self.digits = digits
        self.t_digits = t_digits
        self.coeffs = coeffs


def _vertex_slopes(poly: NewtonPolygon, v: int):
    xs = [x for x, _ in poly.vertices]
    if v not in xs or v == xs[0] or v == xs[-1]:
        raise NoGapAtVertex(f"x = {v} is not an interior vertex of {xs}")
    i = xs.index(v)
    (x0, y0), (x1, y1), (x2, y2) = poly.vertices[i - 1], poly.vertices[i], poly.vertices[i + 1]
    return Fraction(y1 - y0, x1 - x0), Fraction(y2 - y1, x2 - x1)


def _choose_gamma(beta_lo: Fraction, beta_hi: Fraction, lanes_hi: int, d_prime_of_r):
    """Pick gamma in (beta_lo, beta_hi) so the data window suffices.

    Pushing gamma toward the lower slope costs only array lanes on the left
    but buys the steeper right cone that the limited s-order needs.
    """
    gap = beta_hi - beta_lo
    for k in range(1, 7):
        gamma = beta_lo + gap / 2**k
        r = gamma.denominator
        Dp = d_prime_of_r(r)
        lam_hi = r * (beta_hi - gamma)
        need_hi = int(-(Fraction(-Dp) / lam_hi // 1))
        lam_lo = r * (gamma - beta_lo)
        need_lo = int(-(Fraction(-Dp) / lam_lo // 1))
        if need_hi <= lanes_hi and need_lo <= 4000 and Dp <= 4000:
            return gamma, r, need_lo, need_hi
    raise InsufficientPrecision(
        f"s-order leaves only {lanes_hi} lanes above the vertex; "
        "raise the s-truncation of the characteristic series"
    )


def slope_factor(C: TruncSeries, vertex: int, t_digits_out: int) -> BlockFactor:
    """Split off the polygon's lower part through the given vertex.

    Certifies along the way: the vertex is interior with a genuine slope
    gap, its coefficient is unit-leading, the left factor truncates to a
    degree-`vertex` polynomial, and the returned coefficients live in
    Z_p[[T]] (no fractional T'-digits survive the unscaling).
    """
    cols = C.coeffs
    K = len(cols) - 1
    p = cols[0].coeffs[0].p
    digits = C.min_prec()
    mod = p**digits
    D_T = cols[0].order
    poly = observed_polygon(C)
    beta_lo, beta_hi = _vertex_slopes(poly, vertex)

    y_v = poly.y_at(vertex)
    assert y_v.denominator == 1
    lead = cols[vertex].coeffs[int(y_v)]
    if lead.value % p == 0:
        raise VerificationError(
            f"vertex coefficient at x = {vertex} is not unit-leading"
        )

    gamma, r, need_lo, need_hi = _choose_gamma(
        beta_lo, beta_hi, K - vertex, lambda r_: r_ * D_T
    )
    g = int(gamma * r)
    Dp = r * D_T
    c = int(r * y_v) - g * vertex
    lo, hi = -need_lo, need_hi
    if (Dp + g * vertex) * (mod - 1) ** 2 >= 2**62:
        raise InsufficientPrecision("panel modulus too wide for exact int64 convolution")

    # build the rescaled panel: T-digit t of s^k lands in T'-digit rt - gk - c
    G = _Panel.zeros(lo, hi, Dp, mod)
    for k in range(max(0, vertex + lo), min(K, vertex + hi) + 1):
        row = G.data[k - vertex - lo]
        for t, cf in enumerate(cols[k].coeffs):
            if cf.is_zero():
                continue
            e = r * t - g * k - c
            assert e >= 0, "rescaled exponent fell below zero: not above the hull"
            if e < Dp:
                row[e] = cf.value % mod
    # normalize the pivot lane to exactly 1
    pivot = G.data[-lo].copy()
    inv0 = pow(int(pivot[0]), -1, mod)
    pivot_inv = np.zeros(Dp, dtype=np.int64)
    pivot_inv[0] = inv0
    # series inverse of the pivot row, digit by digit
    for t in range(1, Dp):
        acc = 0
        for u in range(1, t + 1):
            acc += int(pivot[u]) * int(pivot_inv[t - u])
        pivot_inv[t] = (-acc * inv0) % mod
    for lane in range(G.data.shape[0]):
        if G.data[lane].any():
            G.data[lane] = np.convolve(G.data[lane], pivot_inv)[:Dp] % mod

    one = G.one()
    R = G.sub(one)
    U_minus = one.copy()
    U_plus = one.copy()
    rounds = 0
    last_val = 0
    while not R.is_zero():
        rounds += 1
        if rounds > int(math.log2(Dp)) + 6:
            raise NonConvergence("splitting corrector stopped shrinking")
        vR = R.val()
        if vR is not None and vR <= last_val and rounds > 1:
            raise NonConvergence(f"corrector valuation stuck at {vR}")
        last_val = vR if vR is not None else Dp
        A = R.proj_neg()
        B = R.proj_nonneg()
        oneA = one.add(A)
        oneB = one.add(B)
        U_minus = U_minus.mul(oneA)
        U_plus = oneB.mul(U_plus)
        R = _panel_inverse(oneA).mul(one.add(R)).mul(_panel_inverse(oneB)).sub(one)

    # lower factor: pivot * sigma^vertex * U_minus, support must close up
    for lane in range(lo, -vertex):
        if U_minus.row(lane).any():
            raise VerificationError(
                "left factor has sigma-support below the vertex degree: "
                "the polygon segment does not split off a polynomial"
            )
    ptilde = []
    for k in range(vertex + 1):
        rowU = U_minus.row(k - vertex)
        ptilde.append(np.convolve(rowU, pivot)[:Dp] % mod)

    v0 = g * vertex - int(r * y_v)  # T'-valuation of ptilde[0], by exactness
    q0 = ptilde[0]
    if int(q0[v0]) % p == 0 or q0[:v0].any():
        raise VerificationError("left factor constant term has unexpected valuation")
    inv_q0 = np.zeros(Dp, dtype=np.int64)
    inv_q0[0] = pow(int(q0[v0]), -1, mod)
    unit0 = q0[v0:].copy()
    for t in range(1, Dp - v0):
        acc = 0
        for u in range(1, t + 1):
            acc += int(unit0[u]) * int(inv_q0[t - u])
        inv_q0[t] = (-acc * int(inv_q0[0])) % mod

    # Input rows are only certified to T'-depth Dp - r*y_v - g*lane, while
    # rows past the cone crossing are pinned by the polygon instead; errors
    # from the worst lane ride down into the factor picking up lambda_minus
    # per step.  That caps the usable panel depth below the raw window Dp.
    dip = (beta_hi - beta_lo) * (Dp - int(r * y_v)) / beta_hi
    D_eff = min(Dp, int(dip))

    # Per-coefficient certified depth.  P_k = ptilde_k T'^{gk - v0} / unit:
    # the unknown tail of ptilde_k sits past D_eff + gk - v0, the unknown
    # tail of the inverted unit past (D_eff - v0) + v(numerator).
    coeffs = []
    t_digits = None
    for k in range(vertex + 1):
        src = ptilde[k]
        off = g * k - v0
        nz = np.nonzero(src)[0]
        v_n = (int(nz[0]) + off) if len(nz) else None
        if k == 0:
            # identically 1 after the normalization by construction
            order_0 = (Dp - 1) // r + 1
            tc = [PadicInt(p, 1 if e == 0 else 0, digits) for e in range(order_0)]
            coeffs.append(TruncSeries("T", tc, prec=digits))
            t_digits = order_0
            continue
        E_k = D_eff + off
        if v_n is not None:
            E_k = min(E_k, (D_eff - v0) + max(v_n, 0))
        if E_k < r:
            raise InsufficientPrecision(f"no certified T-digits at s^{k}")
        shifted = np.zeros(E_k, dtype=np.int64)
        if off < 0:
            assert not src[:-off].any(), "block coefficient not divisible as claimed"
            shifted[:] = src[-off : -off + E_k]
        else:
            upto = min(Dp, E_k - off)
            shifted[off : off + upto] = src[:upto]
        pad = np.zeros(E_k, dtype=np.int64)
        pad[: min(E_k, Dp)] = inv_q0[: min(E_k, Dp)]
        quot = np.convolve(shifted, pad)[:E_k] % mod
        for e in range(E_k):
            if e % r and quot[e]:
                raise VerificationError(
                    "block coefficient has fractional T-exponent "
                    f"{Fraction(e, r)} at s^{k}: not defined over the base ring"
                )
        order_k = (E_k - 1) // r + 1
        tc = [PadicInt(p, int(quot[e * r]), digits) for e in range(order_k)]
        coeffs.append(TruncSeries("T", tc, prec=digits))
        t_digits = order_k if t_digits is None else min(t_digits, order_k)
    if t_digits < t_digits_out:
        raise InsufficientPrecision(
            f"only {t_digits} certified T-digits in the block, need {t_digits_out}"
        )
    return BlockFactor(vertex, gamma, r, p, digits, t_digits, coeffs)


def block_ratio(hi_factor: BlockFactor, lo_factor: BlockFactor, width: int):
    """Quotient of nested lower factors: the single block between vertices.

    Exact series division (lower constant terms are 1); s-degrees past
    `width` must vanish, which certifies the block structure itself.
    """
    if hi_factor.p != lo_factor.p:
        raise ConfigError("mixed primes in block ratio")
    a = hi_factor.coeffs
    b = lo_factor.coeffs
    n_out = hi_factor.vertex + 1
    quo = []
    for j in range(n_out):
        acc = a[j]
        for u in range(1, min(j, len(b) - 1) + 1):
            acc = acc - b[u] * quo[j - u]
        quo.append(acc)  # b[0] = 1, so no division happens
    for j in range(width + 1, n_out):
        if not quo[j].is_zero():
            raise VerificationError(
                f"block ratio has s-degree {j} > {width}: vertices not nested"
            )
    quo = quo[: width + 1]
    return BlockFactor(
        vertex=width,
        gamma=None,
        rescale_order=None,
        p=hi_factor.p,
        digits=min(hi_factor.digits, lo_factor.digits),
        t_digits=min(len(ts.coeffs) for ts in quo),
        coeffs=quo,
    )


# ---------------------------------------------------------------------------
# graded elimination: all leading blocks at once from deep-T data
#
# The rescaled split above trades T-depth for s-width, which is the right
# shape near the first vertex but starves for the deeper blocks: their
# defining digits sit at large T-valuation in coefficients of *small*
# s-degree.  Working directly with the product equations
#     C_n = sum  b[0,j0] b[1,j1] ... b[count-1,j_{count-1}] m[jm]
# in the T-digit grading recovers exactly the digits the data determines.
# Each unknown T-digit is solved only when some equation digit pins it with
# a p-unit cofactor and no other unknown in reach; equation digits with no
# unknown left are checked against C, so the run doubles as a digit-level
# verification of the factorization and of the polygon floors.

def _hull_eval(poly: NewtonPolygon, x: int) -> Fraction:
    """Hull height, extended past the data range at the last slope."""
    xs = [v[0] for v in poly.vertices]
    if x <= xs[-1]:
        return poly.y_at(x)
    (x0, y0), (x1, y1) = poly.vertices[-2], poly.vertices[-1]
    return Fraction(y1) + Fraction(y1 - y0, x1 - x0) * (x - x1)


def nested_block_factors(C: TruncSeries, block_size: int, count: int):
    """Factor the first `count` polygon blocks out of C simultaneously.

    Returns (factors, stats): one degree-`block_size` BlockFactor per block,
    each coefficient stamped with the digit window the elimination actually
    certified, plus counters (solved digits, verified equation digits,
    sweeps).  Raises if a block corner is not an interior vertex, if a
    hull-touching coefficient is not unit-leading, or if the data ran out
    before the leading digit of some b[i, block_size].
    """
    d = block_size
    cols = C.coeffs
    K = len(cols) - 1
    if count < 1 or d < 1:
        raise ConfigError("need block_size >= 1 and count >= 1")
    if K < count * d + 1:
        raise ConfigError(
            f"s-order {K} cannot pin {count} blocks of degree {d}: "
            f"need at least {count * d + 1}"
        )
    if (d + 1) ** count > 100_000:
        raise ConfigError("block layout too wide for term enumeration")
    p = cols[0].coeffs[0].p
    digits = C.min_prec()
    mod = p**digits
    W = [len(c.coeffs) for c in cols]
    N = max(W)
    if cols[0].coeffs[0].value % mod != 1 or any(
        not cf.is_zero() for cf in cols[0].coeffs[1:]
    ):
        raise VerificationError("constant term of the series is not 1")

    poly = observed_polygon(C)
    for i in range(1, count + 1):
        _vertex_slopes(poly, i * d)  # interior vertex with a slope gap
    corner = [_hull_eval(poly, i * d) for i in range(count + 1)]
    if any(y.denominator != 1 for y in corner):
        raise VerificationError("block corner heights are not integral")

    def ceil_frac(fr: Fraction) -> int:
        return -((-fr.numerator) // fr.denominator)

    # slots: (i, j) = coefficient j of block i; i == count is the tail
    mark: dict = {}
    for i in range(count):
        for j in range(1, d + 1):
            mark[(i, j)] = ceil_frac(_hull_eval(poly, i * d + j) - corner[i])
    for n in range(1, K + 1):
        mark[(count, n)] = ceil_frac(_hull_eval(poly, count * d + n) - corner[count])
    floors = dict(mark)

    # terms list their slots in block order, so a slot tuple is canonical
    terms: list = [[] for _ in range(K + 1)]
    slot_eqs: dict = {s: set() for s in mark}
    for jv in itertools.product(range(d + 1), repeat=count):
        s_deg = sum(jv)
        if s_deg > K:
            continue
        base_fs = tuple((i, j) for i, j in enumerate(jv) if j)
        for n in range(max(s_deg, 1), K + 1):
            jm = n - s_deg
            fs = base_fs + (((count, jm),) if jm else ())
            terms[n].append(fs)
            for f in fs:
                slot_eqs[f].add(n)

    # Each known-part product (a slot tuple) gets one id; slot_comps[f]
    # lists the products that read slot f.  Every term's (unknown subset,
    # known complement) splits are built once.
    comp_id: dict = {}
    slot_comps: dict = {s: [] for s in mark}

    def name(comp) -> int:
        c = comp_id.get(comp)
        if c is None:
            c = comp_id[comp] = len(comp_id)
            for f in comp:
                slot_comps[f].append(c)
        return c

    splits = [
        [
            [
                (
                    tuple(f for u, f in enumerate(fs) if bits >> u & 1),
                    name(tuple(f for u, f in enumerate(fs) if not bits >> u & 1)),
                )
                for bits in range(1, 1 << len(fs))
            ]
            for fs in terms[n]
        ]
        for n in range(K + 1)
    ]
    term_ids = [[name(fs) for fs in terms[n]] for n in range(K + 1)]
    comps = list(comp_id)

    # A convolution entry sums at most N products of two residues and an
    # acc_row entry at most len(terms[n]) residues, so int64 is exact under
    # max(N, terms) (mod - 1)^2 < 2^62; past that, Python ints in numpy.
    widest = max(N, max(len(t) for t in terms))
    dtype = np.int64 if widest * (mod - 1) ** 2 < 2**62 else object
    vals = {f: np.zeros(N, dtype=dtype) for f in mark}
    unit = np.zeros(N, dtype=dtype)
    unit[0] = 1

    # known-part products with their first nonzero index (N if zero),
    # dropped whenever one of their slots gains a digit
    known: list = [None] * len(comps)

    def conv_known(c: int):
        hit = known[c]
        if hit is None:
            out = unit
            for f in comps[c]:
                out = np.convolve(out, vals[f])[:N] % mod
            nz = np.flatnonzero(out)
            hit = known[c] = (out, int(nz[0]) if len(nz) else N)
        return hit

    def row_sum(n: int):
        return sum((conv_known(c)[0] for c in term_ids[n]), np.zeros(N, dtype=dtype)) % mod

    acc_row = [row_sum(n) for n in range(K + 1)]

    rhs = [
        np.array([cf.value % mod for cf in cols[n].coeffs], dtype=dtype)
        for n in range(K + 1)
    ]

    # The verdict of an equation digit that solved nothing (skipped, or a
    # verified check) holds until some slot of its terms gains a digit,
    # which bumps the equation's version.
    version = [0] * (K + 1)
    verdict: dict = {}
    solved_digits = 0
    checks = 0
    sweeps = 0
    progress = True
    while progress:
        progress = False
        sweeps += 1
        checks = 0
        for w in range(N):
            for n in range(1, K + 1):
                if w >= W[n]:
                    continue
                seen = verdict.get((n, w))
                if seen is not None and seen[0] == version[n]:
                    checks += seen[1]
                    continue
                verdict[(n, w)] = (version[n], 0)
                usable = True
                pivots: dict = {}
                for fs, pairs in zip(terms[n], splits[n]):
                    if min(mark[f] for f in fs) > w:
                        continue
                    for sel, comp in pairs:
                        base = sum(map(mark.__getitem__, sel))
                        if base > w:
                            continue
                        rest, v = conv_known(comp)
                        if len(sel) == 1:
                            f = sel[0]
                            idx = w - base
                            cof = int(rest[idx])
                            if cof:
                                pivots[f] = (pivots.get(f, 0) + cof) % mod
                            if v < idx:
                                usable = False
                                break
                        elif v <= w - base:
                            usable = False
                            break
                    if not usable:
                        break
                if not usable:
                    continue
                live = {f: c for f, c in pivots.items() if c}
                if any(c % p == 0 for c in live.values()):
                    continue
                acc = int(acc_row[n][w]) % mod
                target = int(rhs[n][w])
                if not live:
                    if (target - acc) % mod:
                        raise VerificationError(
                            f"factor product disagrees with the series at "
                            f"s^{n} T^{w}"
                        )
                    checks += 1
                    verdict[(n, w)] = (version[n], 1)
                    continue
                if len(live) > 1:
                    continue
                ((f, cof),) = live.items()
                x = (target - acc) * pow(cof, -1, mod) % mod
                vals[f][mark[f]] = x
                mark[f] += 1
                solved_digits += 1
                progress = True
                for c in slot_comps[f]:
                    known[c] = None
                for tn in slot_eqs[f]:
                    acc_row[tn] = row_sum(tn)
                    version[tn] += 1

    factors = []
    for i in range(count):
        coeffs = [
            TruncSeries(
                "T", [PadicInt(p, 1 if t == 0 else 0, digits) for t in range(N)],
                prec=digits,
            )
        ]
        for j in range(1, d + 1):
            phi = floors[(i, j)]
            got = mark[(i, j)]
            touch = _hull_eval(poly, i * d + j) - corner[i]
            on_hull = touch.denominator == 1 and touch == phi
            if j == d and got <= phi:
                raise InsufficientPrecision(
                    f"block {i}: leading digit of the s^{d} coefficient "
                    f"(T^{phi}) was not reachable; raise the T-order"
                )
            if on_hull and got > phi and int(vals[(i, j)][phi]) % p == 0:
                raise VerificationError(
                    f"block {i}: hull-touching coefficient at s^{j} is not "
                    "unit-leading"
                )
            coeffs.append(
                TruncSeries(
                    "T",
                    [PadicInt(p, int(v), digits) for v in vals[(i, j)][:got]],
                    prec=digits,
                )
            )
        factors.append(
            BlockFactor(
                vertex=d,
                gamma=None,
                rescale_order=None,
                p=p,
                digits=digits,
                t_digits=min(mark[(i, j)] for j in range(1, d + 1)),
                coeffs=coeffs,
            )
        )
    stats = {
        "solved_digits": solved_digits,
        "verified_digits": checks,
        "sweeps": sweeps,
        "orders": {f"{i},{j}": mark[(i, j)] for i in range(count) for j in range(1, d + 1)},
        "tail_orders": [mark[(count, n)] for n in range(1, K + 1)],
    }
    return factors, stats


# ---------------------------------------------------------------------------
# weight specialization and the slope law

def specialize_block(factor: BlockFactor, m: int):
    """Evaluate the block at the level-m uniformizer, exactly in Z[zeta].

    Returns (coefficients, caps), parallel lists.  A reading at or above its
    cap is a floor only: the p-precision contributes digits*e, and a dropped
    T-tail O(T^n) specializes to O(pi^n), so each coefficient carries its own
    certified depth min(digits*e, known T-digits).
    """
    p = factor.p
    pi = CycInt.zeta_power(p, m, 1) - CycInt.from_int(p, m, 1)
    n_max = max(len(ts.coeffs) for ts in factor.coeffs)
    pi_pows = [CycInt.from_int(p, m, 1)]
    for _ in range(n_max - 1):
        pi_pows.append(pi_pows[-1] * pi)
    e = (p - 1) * p ** (m - 1)
    out = []
    caps = []
    for ts in factor.coeffs:
        acc = CycInt.zero(p, m)
        for t, cf in enumerate(ts.coeffs):
            if not cf.is_zero():
                acc = acc + pi_pows[t].scale(cf.value)
        out.append(acc)
        caps.append(min(factor.digits * e, len(ts.coeffs)))
    return out, caps


def predicted_block_slopes(spec, block_index: int, base=None) -> Counter:
    """Level-independent pi-adic slopes of block i: a(p-1)p^{m0-1}(i-1+alpha)."""
    if base is None:
        base = base_slopes(spec)
    e0 = spec.a * (spec.p - 1) * spec.p ** (stable_level(spec) - 1)
    out: Counter = Counter()
    out[Fraction(e0 * (block_index - 1))] += 1
    for alpha in base:
        out[e0 * (block_index - 1) + e0 * alpha] += 1
    return out


def verify_weight_slope_law(spec, factor: BlockFactor, blocks, levels) -> dict:
    """Exact slope multisets of the specialized factor across character levels.

    The law: the pi-adic polygon of the factor is one and the same at every
    level in the annulus.  `blocks` names the polygon blocks the factor is
    claimed to span (a single index for a peeled block, 1..i for a lower
    factor split at vertex i*d); the prediction is their union.  Levels below
    the annulus floor are refused, and a hull that the p-precision cannot pin
    all the way to s^degree is a precision error, not a law failure.
    """
    if isinstance(blocks, int):
        blocks = [blocks]
    if factor.vertex != spec.d * len(blocks):
        raise ConfigError(
            f"degree-{factor.vertex} factor cannot span {len(blocks)} blocks "
            f"of width {spec.d}"
        )
    floor = stable_level(spec)
    base = base_slopes(spec)
    predicted: Counter = Counter()
    for b in blocks:
        predicted += predicted_block_slopes(spec, b, base)
    results = []
    all_ok = True
    for m in levels:
        if m < floor:
            raise WeightOutsideAnnulus(
                f"level {m} lies outside the annulus (floor {floor})"
            )
        coeffs, caps = specialize_block(factor, m)
        pts = [(k, cyc_valuation(z, c)) for k, (z, c) in enumerate(zip(coeffs, caps))]
        poly = lower_hull(pts, source=f"pi-adic level {m}")
        if poly.vertices[-1][0] != factor.vertex:
            raise InsufficientPrecision(
                f"level {m}: readings are capped before s^{factor.vertex}; "
                "raise the p-digit precision"
            )
        got = poly.slope_multiset()
        ok = got == predicted
        all_ok = all_ok and ok
        results.append(
            {
                "m": m,
                "ok": ok,
                "slopes": sorted(
                    [s.numerator, s.denominator, mult] for s, mult in got.items()
                ),
            }
        )
    return {
        "blocks": list(blocks),
        "predicted": sorted(
            [s.numerator, s.denominator, mult] for s, mult in predicted.items()
        ),
        "levels": results,
        "ok": all_ok,
    }
