"""Reference implementations the production kernels replaced or are checked against.

Series oracles compute in PadicInt, a p-adic scalar ring that declares a
precision per element, and skip zero products as the ring arithmetic of
earlier versions did.  That bookkeeping can declare more digits than a
computation certifies, so tests compare the kernels' values mod the
kernels' own (budgeted) precision and require the oracle never to declare
less.
"""

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from asw_slopes import gf
from asw_slopes.errors import (
    ConfigError,
    InsufficientGuard,
    NonIntegralResult,
    VerificationError,
)
from asw_slopes.gf import int_dtype
from asw_slopes.newton import lower_hull
from asw_slopes.padic import (
    CycInt,
    Valuation,
    ZqCtx,
    _cyc_reduce,
    binom_pow,
    cyc_valuation,
    phi_pm,
    teichmuller,
    vp,
    vp_factorial,
)
from asw_slopes.series import TruncSeries


def field_elements(ctx):
    """Every element of a gf.FieldCtx, in enumeration order."""
    return [ctx.element(j) for j in range(ctx.order)]


def field_sub(ctx, a, b):
    """a - b in F_{p^n}, coordinate by coordinate mod p."""
    return tuple((x - y) % ctx.p for x, y in zip(a, b))


class PadicInt:
    """Z/p^N with a declared precision: sums and products take the least
    precision of their operands, exact division by n drops it by v_p(n)."""

    __slots__ = ("p", "prec", "value")

    def __init__(self, p, value, prec):
        if prec < 0:
            raise InsufficientGuard("negative working precision")
        self.p, self.prec = p, prec
        self.value = value % p**prec

    def __add__(self, other):
        return PadicInt(self.p, self.value + other.value, min(self.prec, other.prec))

    def __sub__(self, other):
        return PadicInt(self.p, self.value - other.value, min(self.prec, other.prec))

    def __mul__(self, other):
        return PadicInt(self.p, self.value * other.value, min(self.prec, other.prec))

    def __neg__(self):
        return PadicInt(self.p, -self.value, self.prec)

    def exact_div_int(self, n):
        v = vp(n, self.p)
        if self.prec < v:
            raise InsufficientGuard("division by p^v below working precision")
        if self.value % self.p**v:
            raise NonIntegralResult(f"{self.value} not divisible by {self.p}^{v}")
        prec = self.prec - v
        unit = pow(n // self.p**v, -1, self.p**prec)
        return PadicInt(self.p, self.value // self.p**v * unit, prec)

    def unit_inverse(self):
        if self.value % self.p == 0:
            raise NonIntegralResult("not a unit")
        return PadicInt(self.p, pow(self.value, -1, self.p**self.prec), self.prec)

    def zero_like(self):
        return PadicInt(self.p, 0, self.prec)

    def one_like(self):
        return PadicInt(self.p, 1, self.prec)

    def is_zero(self):
        return self.value == 0

    def __eq__(self, other):
        return isinstance(other, PadicInt) and (self.p, self.prec, self.value) == (
            other.p, other.prec, other.value
        )

    def __repr__(self):
        return f"PadicInt({self.value} mod {self.p}^{self.prec})"


def padic_coeffs(F):
    """A p-adic series (ints mod p^prec) as a series of PadicInt."""
    return TruncSeries(F.var, [PadicInt(F.p, c, F.prec) for c in F.coeffs])


def reference_compose(F, G):
    """F(G) by Horner; G may live in a different variable, G(0) = 0."""
    if not G.coeffs[0].is_zero():
        raise ConfigError("composition needs G(0) = 0")
    L = G.order
    zero = G.coeffs[0].zero_like()
    acc = TruncSeries(G.var, [zero] * L)
    for k in range(F.order - 1, -1, -1):
        acc = acc * G
        ck = F.coeffs[k]
        acc.coeffs[0] = acc.coeffs[0] + ck
    return acc


def reference_exp(power_sums, var="s"):
    """The Newton recurrence a_n = (1/n) sum_k c_k a_{n-k} on series of
    PadicInt, skipping zero power sums."""
    cs = list(power_sums)
    c0 = cs[0].coeffs[0]
    out = [TruncSeries(cs[0].var, [c0.one_like()] + [c0.zero_like()] * (cs[0].order - 1))]
    for n in range(1, len(cs) + 1):
        acc = cs[n - 1] * out[0]
        for k in range(1, n):
            if not all(c.is_zero() for c in cs[k - 1].coeffs):
                acc = acc + cs[k - 1] * out[n - k]
        out.append(TruncSeries(acc.var, [c.exact_div_int(n) for c in acc.coeffs]))
    return TruncSeries(var, out)


def _int_scale(c, k):
    acc = c.zero_like()
    add = c
    m = k
    while m:
        if m & 1:
            acc = acc + add
        add = add + add
        m >>= 1
    return acc


def reference_log(F):
    """log F for F = 1 + higher terms, same truncation order."""
    f = F.coeffs
    if not (f[0] - f[0].one_like()).is_zero():
        raise ConfigError("log needs constant term 1")
    zero = f[0].zero_like()
    L = [zero]
    for n in range(1, F.order):
        if n == 1:
            L.append(f[1])
            continue
        acc = zero
        for k in range(1, n):
            if not (L[k].is_zero() or f[n - k].is_zero()):
                acc = acc + _int_scale(L[k] * f[n - k], k)
        L.append(f[n] - acc.exact_div_int(n))
    return TruncSeries(F.var, L)


def reference_inverse(F):
    """1/F for F with constant term 1."""
    f = F.coeffs
    if not (f[0] - f[0].one_like()).is_zero():
        raise ConfigError("series inverse needs constant term 1")
    g = [f[0].one_like()]
    for n in range(1, F.order):
        acc = f[0].zero_like()
        for k in range(1, n + 1):
            if not (f[k].is_zero() or g[n - k].is_zero()):
                acc = acc + f[k] * g[n - k]
        g.append(-acc)
    return TruncSeries(F.var, g)


def reference_t_adic_sum(p, counts, t_order, digits):
    """sum_t c_t (1+T)^t with one binomial series per histogram bin; counts
    maps each trace t (a residue mod p^need) to its number of points."""
    need = digits + vp_factorial(t_order - 1, p)
    acc = None
    for t in sorted(counts):
        term = binom_pow(p, t, need, t_order).scale(counts[t])
        acc = term if acc is None else acc + term
    return acc


def reference_factorial_t_adic_sum(p, counts, t_order, digits):
    """[T^n] = S_n / n! for n < t_order, the falling-factorial moment S_n
    taken in exact integers and n! built afresh at each n; counts maps each
    trace t (a residue mod p^need) to its number of points."""
    need = digits + vp_factorial(t_order - 1, p)
    M, out_mod = p**need, p**digits
    ff = dict.fromkeys(counts, 1)
    coeffs = []
    for n in range(t_order):
        if n:
            ff = {t: w * (t - n + 1) for t, w in ff.items()}
        S = sum(counts[t] * w for t, w in ff.items()) % M
        pv = p ** vp_factorial(n, p)
        coeffs.append(S // pv * pow(math.factorial(n) // pv, -1, out_mod))
    return TruncSeries("T", coeffs, digits, p)


def reference_character_sum(hist, m, c):
    """Sum of zeta^{c t} over the histogram and its zero cell with one CycInt
    per bin, the histogram first reduced to m digits."""
    h = hist.reduce(m)
    acc = CycInt.zeta_power(h.p, m, c * h.zero_cell)
    for t in sorted(h.counts):
        acc = acc + CycInt.zeta_power(h.p, m, c * t).scale(h.counts[t])
    return acc


def punctured_character_sum(hist, m, c):
    """The character sum over the nonzero points: expsum.character_sum less
    the term zeta^{c t} of the point x = 0."""
    from asw_slopes.expsum import character_sum

    return character_sum(hist, m, c) - CycInt.zeta_power(hist.p, m, c * hist.zero_cell)


def reference_char_series_at_character(spec, m, s_order, digits, c=1):
    """C at one character as exp of the unit-normalized power sums
    sum_k S_k/(1 - q^k) s^k/k, on CycInt mod p^(digits + v_p(s_order!)):
    the unit part of each n divides by a modular inverse, the p-part
    exactly, and the trusted modulus drops by v_p(n)."""
    from asw_slopes.expsum import trace_histogram

    p = spec.p
    work = p ** (digits + vp_factorial(s_order, p))
    sums = []
    for k in range(1, s_order + 1):
        sk = punctured_character_sum(trace_histogram(spec, k, m), m, c)
        sums.append(cyc_reduce_mod(sk.scale(pow(1 - spec.q**k, -1, work)), work))
    coeffs = [CycInt.from_int(p, m, 1)]
    for n in range(1, s_order + 1):
        acc = sums[n - 1]
        for k in range(1, n):
            acc = acc + sums[k - 1] * coeffs[n - k]
        v = vp(n, p)
        acc = cyc_reduce_mod(acc.scale(pow(n // p**v, -1, work)), work)
        coeffs.append(cyc_reduce_mod(acc.exact_div_int(p**v), work // p**v))
    return TruncSeries("s", [cyc_reduce_mod(a, p**digits) for a in coeffs])


def cyc_reduce_mod(z, modulus):
    """The representative of z in Z[zeta] with coefficients in [0, modulus)."""
    return CycInt(z.p, z.m, [a % modulus for a in z.coeffs])


def truncate(F, order):
    """F mod x^order; a truncation can only shrink."""
    if order > F.order:
        raise InsufficientGuard(f"cannot extend truncation {F.order} -> {order}")
    return TruncSeries(F.var, F.coeffs[:order], F.prec, F.p)


def _dilate(L, factor):
    """s -> factor * s on an exact cyclotomic series."""
    out = []
    fn = 1
    for cn in L.coeffs:
        out.append(cn.scale(fn))
        fn *= factor
    return TruncSeries(L.var, out)


def char_series_at_character(spec, m, s_order, digits, c=1):
    """Characteristic series at a fixed character, mod (p^digits, s^{s_order+1}),
    as the finite product of q-power dilates of the punctured L-series:
    factor j is 1 + O(q^j), so j < ceil(digits/a) terms suffice.  The
    L-series is a polynomial, so zeros carry it past its degree."""
    from asw_slopes.expsum import l_series

    L = l_series(spec, m, c, punctured=True)
    zero = L.coeffs[0].zero_like()
    L = TruncSeries("s", L.coeffs + [zero] * (s_order + 1 - len(L.coeffs)))
    acc = None
    for j in range(-(-digits // spec.a)):
        factor = truncate(_dilate(L, spec.q**j), s_order + 1)
        acc = factor if acc is None else (acc * factor)
    return TruncSeries("s", [cyc_reduce_mod(a, spec.p**digits) for a in acc.coeffs])


def newton_from_cyclotomic(coeffs, cap_exp=None, scale=Fraction(1), source="pi-adic"):
    """Newton polygon of a polynomial with Z[zeta_{p^m}] coefficients.

    cap_exp: if the coefficients are only representatives mod p^cap_exp,
    valuation readings at or above cap_exp * e are demoted to floors so the
    hull never overstates what the data certifies.
    """
    first = coeffs[0]
    cap = None if cap_exp is None else cap_exp * phi_pm(first.p, first.m)
    pts = [(i, cyc_valuation(z, cap)) for i, z in enumerate(coeffs)]
    poly = lower_hull(pts, source)
    return poly.rescale(scale, source) if scale != 1 else poly


def reference_teichmuller(zctx, x):
    """N rounds of omega <- omega^q from the naive lift."""
    omega = tuple(int(c) % zctx.mod for c in x)
    q = zctx.p**zctx.n
    for _ in range(zctx.N):
        omega = zctx.pow(omega, q)
    return omega


def reference_teich_zp(p, residue, digits):
    """digits rounds of w <- w^p mod p^digits."""
    mod = p**digits
    w = residue % mod
    for _ in range(digits):
        w = pow(w, p, mod)
    return w


def reference_trace_form(zctx):
    """Power sums s_m = Tr(u^m) mod p^N, m < n, by Newton's identities on
    the elementary symmetric functions e_i = (-1)^i H_{n-i} of the roots."""
    n, mod = zctx.n, zctx.mod
    e = [0] + [(-1) ** i * zctx.H[n - i] % mod for i in range(1, n + 1)]
    s = [n % mod]
    for m in range(1, n):
        acc = (-1) ** (m - 1) * m * e[m]
        for i in range(1, m):
            acc += (-1) ** (i - 1) * e[i] * s[m - i]
        s.append(acc % mod)
    return tuple(s)


def reference_teich_trace(ctx, x, f_coeffs, N):
    """Tr_{Q_{q^k}/Q_p} of f-hat at the Teichmuller lift of x, mod p^N, as
    Frobenius orbit sums: each monomial m_i = omega(b_i) * omega(x)^i is a
    Teichmuller element, so sum_j m_i^{p^j} must land in Z_p."""
    zctx = ZqCtx(ctx, N)
    wx = teichmuller(zctx, x)
    n = ctx.n
    total = [0] * n
    xpow = (1,) + (0,) * (n - 1)
    for i, b in enumerate(f_coeffs):
        if i > 0:
            xpow = zctx.mul(xpow, wx)
        if not any(b):
            continue
        y = zctx.mul(teichmuller(zctx, b), xpow)
        for _ in range(n):
            total = [a + c for a, c in zip(total, y)]
            y = zctx.pow(y, ctx.p)
    total = [c % zctx.mod for c in total]
    assert not any(total[1:]), f"non-constant trace coordinates {total[1:]}"
    return total[0]


def reference_carry(ctx, a, b):
    """sum_{0<i<p} C(p,i)/p a^i b^(p-i) on FieldCtx tuples, by Horner's rule
    in a."""
    p = ctx.p
    acc, bpow = (0,) * ctx.n, b
    for j, i in enumerate(range(p - 1, 0, -1)):
        if j:
            bpow = ctx.mul(bpow, b)
        acc = ctx.mul([x + math.comb(p, i) // p * y for x, y in zip(acc, bpow)], a)
    return acc


def _reference_length(u, v):
    if len(u) != len(v) or len(u) not in (1, 2):
        raise ConfigError("witt vectors must both have length 1 or 2")
    return len(u)


def reference_witt_add(ctx, u, v):
    """u + v in W_1 or W_2 of ctx, one Witt vector of FieldCtx tuples."""
    if _reference_length(u, v) == 1:
        return (ctx.add(u[0], v[0]),)
    s1 = field_sub(ctx, ctx.add(u[1], v[1]), reference_carry(ctx, u[0], v[0]))
    return (ctx.add(u[0], v[0]), s1)


def reference_witt_neg(ctx, u):
    n0 = field_sub(ctx, (0,) * ctx.n, u[0])
    if len(u) == 1:
        return (n0,)
    return (n0, field_sub(ctx, reference_carry(ctx, u[0], n0), u[1]))


def reference_witt_sub(ctx, u, v):
    """u - v with one carry: (u - v) + v = u fixes the second coordinate."""
    if _reference_length(u, v) == 1:
        return (field_sub(ctx, u[0], v[0]),)
    d0 = field_sub(ctx, u[0], v[0])
    return (d0, ctx.add(field_sub(ctx, u[1], v[1]), reference_carry(ctx, d0, v[0])))


def reference_witt_frobenius(ctx, u):
    return tuple(ctx.pow(c, ctx.p) for c in u)


def reference_count_points_witt(spec, m, k):
    """#{(x, y) : F(y) - y = sum_i (b_i x^i, 0)} over F_{q^k}, one Witt
    vector at a time: every y in W_m bucketed by F(y) - y in a Counter, then
    one lookup per x."""
    ctx = spec.ctx if k == 1 else gf.field(spec.p, spec.a * k)
    monos = [
        (i, gf.embed_element(spec.ctx, spec.ctx.element(b), ctx))
        for i, b in spec.monomials()
    ]
    elts = field_elements(ctx)
    wp = Counter(
        reference_witt_sub(ctx, reference_witt_frobenius(ctx, y), y)
        for y in itertools.product(elts, repeat=m)
    )
    zero = (0,) * ctx.n
    count = 0
    for x in elts:
        target = (zero,) * m
        for i, b in monos:
            target = reference_witt_add(ctx, target, (ctx.mul(b, ctx.pow(x, i)), zero)[:m])
        count += wp[target]
    return count


def reference_polymul(a, b, p):
    """Product of two integer polynomials with every partial sum reduced mod p."""
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def reference_polymod(a, h, p):
    """a modulo the monic h, reducing each touched coefficient mod p; a's
    coefficients must already lie in [0, p)."""
    a = list(a)
    dh = len(h) - 1
    for i in range(len(a) - 1, dh - 1, -1):
        c = a[i] % p
        if c:
            a[i] = 0
            for j in range(dh):
                a[i - dh + j] = (a[i - dh + j] - c * h[j]) % p
    del a[dh:]
    while len(a) < dh:
        a.append(0)
    return a


def reference_polypowmod(a, e, h, p):
    """a^e modulo (h, p) by square-and-multiply on the two loops above."""
    result = [1] + [0] * (len(h) - 2)
    base = reference_polymod(a, h, p)
    while e:
        if e & 1:
            result = reference_polymod(reference_polymul(result, base, p), h, p)
        base = reference_polymod(reference_polymul(base, base, p), h, p)
        e >>= 1
    return result


def _reference_is_irreducible(h, p):
    """Rabin test on the loops above: u^(p^n) = u mod h, and
    gcd(u^(p^(n/r)) - u, h) = 1 for every prime r | n."""
    n = len(h) - 1
    u = reference_polymod([0, 1], h, p)

    def frobenius_less_u(e):
        v = [(a - b) % p for a, b in zip(reference_polypowmod(u, p**e, h, p), u)]
        while v and not v[-1]:
            v.pop()
        return v

    def gcd_degree(a, b):
        while b:
            inv = pow(b[-1], -1, p)
            a, b = b, reference_polymod(a, [c * inv % p for c in b], p)
            while b and not b[-1]:
                b.pop()
        return len(a) - 1

    primes = [r for r in range(2, n + 1) if n % r == 0 and all(r % s for s in range(2, r))]
    return not frobenius_less_u(n) and all(
        gcd_degree(list(h), frobenius_less_u(n // r)) == 0 for r in primes
    )


def reference_find_irreducible(p, n):
    """The first monic irreducible of degree n by a plain lexicographic
    Rabin scan: the constant term varies fastest, no candidate skipped."""
    for j in range(p**n):
        h = [j // p**i % p for i in range(n)] + [1]
        if _reference_is_irreducible(h, p):
            return tuple(h)
    raise AssertionError("irreducibles exist in every degree")


def reference_zq_mul(zctx, a, b):
    """Product in Z_q/p^N of two length-n coordinate vectors: exact
    schoolbook product, reduction by the monic H, then mod p^N."""
    p2 = zctx.mod
    n = zctx.n
    out = [0] * (2 * n - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    H = zctx.H
    for i in range(2 * n - 2, n - 1, -1):
        c = out[i] % p2
        if c:
            out[i] = 0
            for j in range(n):
                out[i - n + j] -= c * H[j]
    return tuple(c % p2 for c in out[:n])


def reference_cyc_mul(x, y):
    """Product in Z[zeta_{p^m}]: exact schoolbook product, then one
    reduction by the p^m-th cyclotomic polynomial."""
    a, b = x.coeffs, y.coeffs
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return CycInt(x.p, x.m, _cyc_reduce(out, x.p, x.m))


def reference_specialize_block(factor, m):
    """The block at the level-m uniformizer, exactly in Z[zeta]: each T-row
    summed against a table of pi-power CycInt products, with the caps
    min(digits*e, len(row)).  Read with cyc_valuation, it is the oracle for
    eigencurve.specialize_block's pi-digits."""
    p = factor.p
    pi = CycInt.zeta_power(p, m, 1) - CycInt.from_int(p, m, 1)
    pi_pows = [CycInt.from_int(p, m, 1)]
    for _ in range(max(map(len, factor.coeffs)) - 1):
        pi_pows.append(pi_pows[-1] * pi)
    e = phi_pm(p, m)
    out = []
    for row in factor.coeffs:
        acc = CycInt.zero(p, m)
        for t, cf in enumerate(row):
            if cf:
                acc = acc + pi_pows[t].scale(cf)
        out.append(acc)
    return out, [min(factor.digits * e, len(row)) for row in factor.coeffs]


def reference_pack(coeffs, stride):
    """One packed entry, byte by byte: coefficient r in lane r."""
    return int.from_bytes(
        b"".join(int(c).to_bytes(stride, "little") for c in coeffs), "little"
    )


def reference_unpack(value, lanes, stride, mod):
    """Lanes 0 to lanes - 1 of one packed entry, byte by byte, each mod `mod`."""
    data = value.to_bytes(max((value.bit_length() + 7) // 8, lanes * stride), "little")
    return [
        int.from_bytes(data[r * stride : (r + 1) * stride], "little") % mod
        for r in range(lanes)
    ]


def reference_repack(row, lanes, stride, mod):
    """A packed product row repacked entry by entry: unpack every lane,
    reduce it mod `mod`, pack again."""
    return [reference_pack(reference_unpack(v, lanes, stride, mod), stride) for v in row]


def densify(M):
    """The dense packed rows of a dwork.PackedMatrix: entry (i, j) is the
    listed entry shifted back up by its v lanes, 0 where row i lists none."""
    bits = 8 * M.stride
    dense = [[0] * M.size for _ in range(M.size)]
    for i, row in enumerate(M.rows):
        for v, j, e in row:
            dense[i][j] = e << bits * v
    return dense


def reference_matmul(A, B, lanes, stride, mod):
    """The dense packed product the sparse one replaced: every pair of
    nonzero entries multiplied in full, each row repacked entry by entry.
    A and B are dense packed rows; so is the result."""
    R = len(A)
    out = [[0] * R for _ in range(R)]
    for i in range(R):
        Ai = A[i]
        oi = out[i]
        for j in range(R):
            a = Ai[j]
            if not a:
                continue
            Bj = B[j]
            for k in range(R):
                b = Bj[k]
                if b:
                    oi[k] += a * b
    return [reference_repack(row, lanes, stride, mod) for row in out]


def reference_trace_pair(A, B, lanes, stride, mod):
    """pi-coefficients of tr(A B) from dense packed rows, every pair of
    nonzero entries multiplied in full."""
    acc = 0
    for i in range(len(A)):
        Ai = A[i]
        for j in range(len(A)):
            a = Ai[j]
            if a:
                b = B[j][i]
                if b:
                    acc += a * b
    return reference_unpack(acc, lanes, stride, mod)


def reference_eliminate(rows, terms, floors, p, mod):
    """The graded elimination of eigencurve._eliminate as a scalar loop over
    every split of every term, known-part products recomputed by
    convolution after each solved digit.  Same arguments and results."""
    K = len(rows) - 1
    W = [len(r) for r in rows]
    N = max(W)
    mark = dict(floors)
    slot_eqs = {s: set() for s in mark}
    for n in range(K + 1):
        for fs in terms[n]:
            for f in fs:
                slot_eqs[f].add(n)

    # each known-part product (a slot tuple) gets one id; slot_comps[f]
    # lists the products that read slot f
    comp_id = {}
    slot_comps = {s: [] for s in mark}

    def name(comp):
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

    dtype = int_dtype(max(N, max(len(t) for t in terms)) * (mod - 1) ** 2)
    vals = {f: np.zeros(N, dtype=dtype) for f in mark}
    unit = np.zeros(N, dtype=dtype)
    unit[0] = 1
    # known-part products with their first nonzero index (N if zero),
    # dropped whenever one of their slots gains a digit
    known = [None] * len(comps)

    def conv_known(c):
        hit = known[c]
        if hit is None:
            out = unit
            for f in comps[c]:
                out = np.convolve(out, vals[f])[:N] % mod
            nz = np.flatnonzero(out)
            hit = known[c] = (out, int(nz[0]) if len(nz) else N)
        return hit

    def row_sum(n):
        return sum((conv_known(c)[0] for c in term_ids[n]), np.zeros(N, dtype=dtype)) % mod

    acc_row = [row_sum(n) for n in range(K + 1)]
    version = [0] * (K + 1)
    verdict = {}
    solved_digits = checks = sweeps = 0
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
                pivots = {}
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
                target = rows[n][w]
                if not live:
                    if (target - acc) % mod:
                        raise VerificationError(f"factor product disagrees at s^{n} T^{w}")
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
    return vals, mark, solved_digits, checks, sweeps


def upper_bound_polygon(d, width, source="upper"):
    """Slope pattern per block of width d: one slope n, then d-1 slopes n+1/2.

    The slopes never decrease, so the hull keeps every corner of the pattern.
    """
    y = Fraction(0)
    pts = [(0, y)]
    for k in range(width):
        n = k // d
        y += n if k % d == 0 else n + Fraction(1, 2)
        pts.append((k + 1, y))
    return lower_hull([(x, Valuation.exact(y)) for x, y in pts], source)


def max_gap(d):
    """Peak vertical gap between the two model polygons (continuous max).

    Attained at x = (d+1)/2 with value (d-1)^2/(8d); for even d the best
    integer abscissa gives the slightly smaller (d-2)/8.
    """
    return Fraction((d - 1) ** 2, 8 * d), Fraction(d + 1, 2)


def structural_floor(spec, k):
    """Certified lower bound (in w-lanes) for the k-th coefficient of the
    operator series: the column divisibility gives v_w >= (p-1) k(k-1)/2
    before any computation."""
    return (spec.p - 1) * k * (k - 1) // 2
