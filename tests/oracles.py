"""Reference implementations the flat series kernels replaced.

Each is the straightforward PadicInt / TruncSeries version of a production
kernel, kept here so the tests can require the kernel to give the same
values and the same declared precisions (`==` on PadicInt compares both).
"""

from asw_slopes.errors import ConfigError
from asw_slopes.padic import PadicInt, ZqCtx, binom_pow, teichmuller, vp_factorial
from asw_slopes.series import TruncSeries


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
    """The Newton recurrence a_n = (1/n) sum_k c_k a_{n-k} on ring elements,
    whatever their type: for series coefficients, TruncSeries of PadicInt."""
    cs = list(power_sums)
    one = cs[0].one_like()
    out = [one]
    for n in range(1, len(cs) + 1):
        acc = cs[n - 1] * out[0]
        for k in range(1, n):
            if not cs[k - 1].is_zero():
                acc = acc + cs[k - 1] * out[n - k]
        out.append(acc.exact_div_int(n))
    ts = TruncSeries(var, out)
    ts.prec = ts.min_prec()
    return ts


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
    ts = TruncSeries(F.var, L)
    ts.prec = ts.min_prec()
    return ts


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
    need = digits + (vp_factorial(t_order - 1, p) if t_order > 1 else 0)
    acc = None
    for t in sorted(counts):
        term = binom_pow(PadicInt(p, t, need), t_order, digits)
        term = term.scale(term.coeffs[0].from_int_like(counts[t]))
        acc = term if acc is None else acc + term
    acc.prec = digits
    return acc


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
        if b.is_zero():
            continue
        y = zctx.mul(teichmuller(zctx, b), xpow)
        for _ in range(n):
            total = [a + c for a, c in zip(total, y)]
            y = zctx.pow(y, ctx.p)
    total = [c % zctx.mod for c in total]
    assert not any(total[1:]), f"non-constant trace coordinates {total[1:]}"
    return PadicInt(ctx.p, total[0], N)
