"""Truncated power series: exact ring series and p-adic series.

A TruncSeries of length L represents a series modulo var^L, in one of two
kinds:

* exact (prec None): coefficients are exact ring elements such as CycInt,
  which need +, -, *, exact_div_int, one_like/zero_like and is_zero;
* p-adic: coefficients are Python ints reduced mod p^prec, with one
  precision prec for the whole series.

The p-adic kernels here -- the exp recurrence, composition and reversion --
work on those int vectors, and each output's precision follows from its
inputs' precisions alone, so it is the guard budget a caller spent up front
and never depends on which values happen to vanish.  A bivariate series
such as C(T, s) is a series in s whose coefficients are p-adic T-series.
"""

from __future__ import annotations

from .errors import ConfigError, CtxMismatch, InsufficientGuard, NonIntegralResult
from .gf import convolve
from .padic import vp


class TruncSeries:
    __slots__ = ("var", "coeffs", "prec", "p")

    def __init__(self, var: str, coeffs, prec=None, p=None):
        self.var = var
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ConfigError("empty truncation")
        if prec is not None:
            if prec < 0:
                raise InsufficientGuard("negative working precision")
            mod = p**prec
            self.coeffs = [c % mod for c in self.coeffs]
        self.prec = prec
        self.p = p

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def _check(self, other):
        if not isinstance(other, TruncSeries):
            raise CtxMismatch(f"cannot mix TruncSeries with {type(other).__name__}")
        if self.var != other.var:
            raise CtxMismatch(f"variable mismatch {self.var!r} vs {other.var!r}")

    def _zip(self, other, op) -> "TruncSeries":
        self._check(other)
        prec = None if self.prec is None else min(self.prec, other.prec)
        coeffs = [op(a, b) for a, b in zip(self.coeffs, other.coeffs)]
        return TruncSeries(self.var, coeffs, prec, self.p)

    def __add__(self, other):
        return self._zip(other, lambda a, b: a + b)

    def __sub__(self, other):
        return self._zip(other, lambda a, b: a - b)

    def __neg__(self):
        return TruncSeries(self.var, [-a for a in self.coeffs], self.prec, self.p)

    def __mul__(self, other):
        """Product of exact series, truncated to the shorter order."""
        self._check(other)
        L = min(self.order, other.order)
        out = [self.coeffs[0].zero_like()] * L
        for i, ai in enumerate(self.coeffs[:L]):
            if ai.is_zero():
                continue
            for j, bj in enumerate(other.coeffs[: L - i]):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return TruncSeries(self.var, out)

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(self.var, [a * c for a in self.coeffs], self.prec, self.p)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and (self.var, self.prec, self.p, self.coeffs)
            == (other.var, other.prec, other.p, other.coeffs)
        )

    def __repr__(self):
        if self.prec is None:
            return f"TruncSeries({self.var!r}, {self.coeffs!r})"
        return f"TruncSeries({self.var!r}, {self.coeffs!r} mod {self.p}^{self.prec})"


def exp_from_power_sums(power_sums, var: str = "s") -> TruncSeries:
    """exp(sum_k c_k var^k / k) for c_1..c_K, truncated mod var^{K+1}.

    Newton recurrence a_n = (1/n) sum_{k=1}^{n} c_k a_{n-k}.  For exact ring
    elements every division is an exact_div_int that asserts integrality;
    p-adic series power sums go through _exp_padic.
    """
    cs = list(power_sums)
    if not cs:
        raise ConfigError("need at least one power sum")
    if isinstance(cs[0], TruncSeries):
        return _exp_padic(cs, var)
    out = [cs[0].one_like()]
    for n in range(1, len(cs) + 1):
        acc = cs[n - 1] * out[0]
        for k in range(1, n):
            if not cs[k - 1].is_zero():
                acc = acc + cs[k - 1] * out[n - k]
        out.append(acc.exact_div_int(n))
    return TruncSeries(var, out)


def _exp_padic(cs, var):
    """The exp recurrence for p-adic series power sums, on int vectors.

    With e_0 = prec c_1, step n works mod p^w, w = min(e_{n-1}, prec c_n),
    a running minimum: w is at most every prec c_k, k <= n, and every
    e_{n-k}, so it bounds each term c_k a_{n-k}.  It divides the p-part of n
    exactly (a remainder is NonIntegralResult) and the unit part by its
    inverse, and declares e_n = w - v_p(n).  With one precision e for all
    c_k, a_n carries e - v_p(n!) digits.  A caller may instead give c_k
    only the digits the divisions by k, ..., K spend,
    target + v_p(K!) - v_p((k-1)!); a_n then carries
    target + v_p(K!) - v_p(n!) all the same.
    """
    inner, p = cs[0].var, cs[0].p
    if any(not isinstance(c, TruncSeries) or c.prec is None or (c.var, c.p) != (inner, p)
           for c in cs):
        raise CtxMismatch("power sums must be p-adic series in one variable")
    L = min(c.order for c in cs)
    e = cs[0].prec
    sums = [c.coeffs[:L] for c in cs]
    cols = [TruncSeries(inner, [1] + [0] * (L - 1), e, p)]
    for n in range(1, len(cs) + 1):
        e = min(e, cs[n - 1].prec)
        acc = [0] * L
        for k in range(1, n + 1):
            for i, x in enumerate(convolve(cols[n - k].coeffs, sums[k - 1], L)):
                acc[i] += x
        v = vp(n, p)
        if e < v:
            raise InsufficientGuard(f"division by {p}^{v} below working precision {e}")
        mod, pv = p**e, p**v
        e -= v
        unit_inv = pow(n // pv, -1, p**e)
        quo = []
        for x in acc:
            x %= mod
            if x % pv:
                raise NonIntegralResult(f"{x} not divisible by {p}^{v}")
            quo.append(x // pv * unit_inv)
        cols.append(TruncSeries(inner, quo, e, p))
    return TruncSeries(var, cols)


def compose(columns, G: TruncSeries) -> list:
    """F(G) for every p-adic series F in columns, G(0) = 0, sharing the
    powers of G.

    G^j is built once as ints mod p^g, g = prec G, and each column is
    sum_j f_j G^j in G's variable and truncation, declared mod
    p^min(g, prec F).
    """
    g = G.coeffs
    if g[0]:
        raise ConfigError("composition needs G(0) = 0")
    L, mod = len(g), G.p**G.prec
    powers = [None, g]
    for _ in range(2, min(L, max(F.order for F in columns))):
        powers.append([c % mod for c in convolve(powers[-1], g, L)])
    out = []
    for F in columns:
        f = F.coeffs
        J = min(len(f), L)
        vals = [f[0]] + [
            sum(f[j] * powers[j][n] for j in range(1, min(J, n + 1))) for n in range(1, L)
        ]
        out.append(TruncSeries(G.var, vals, min(G.prec, F.prec), G.p))
    return out


def reversion(F: TruncSeries) -> TruncSeries:
    """Compositional inverse G with F(G) = var, for a p-adic series
    F = f_1 var + ..., f_1 a unit (any f_1 at order 1, where G = 0).

    Solved one coefficient at a time mod p^e, e = prec F: with
    P[j][n] = [var^n] G^j, which for j >= 2 involves only g_1..g_{n-1},
    F(G) = var reads g_n = -f_1^{-1} sum_{j>=2} f_j P[j][n] and
    g_1 = f_1^{-1}.  That is O(L^3/6) multiplications and one unit inverse,
    and no division by p, so G keeps precision e.
    """
    f, p, L = F.coeffs, F.p, F.order
    if f[0]:
        raise ConfigError("reversion needs zero constant term")
    if L == 1:  # G = 0 mod var
        return TruncSeries(F.var, [0], F.prec, p)
    if f[1] % p == 0:
        raise ConfigError("reversion needs a unit linear term")
    mod = p**F.prec
    f1_inv = pow(f[1], -1, mod)
    g = [0, f1_inv]
    # P[j][n] for 2 <= j <= n < L; P[1] is g itself
    P = [None, g] + [[0] * L for _ in range(2, L)]
    for n in range(2, L):
        acc = 0
        for j in range(2, n + 1):
            prev = P[j - 1]
            P[j][n] = sum(g[i] * prev[n - i] for i in range(1, n - j + 2)) % mod
            acc += f[j] * P[j][n]
        g.append(-acc * f1_inv % mod)
    return TruncSeries(F.var, g, F.prec, p)
