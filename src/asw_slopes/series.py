"""Truncated power series over duck-typed coefficient rings.

A TruncSeries of length L represents a series modulo var^L.  Coefficients
may be PadicInt, CycInt, or another TruncSeries (bivariate case); they only
need +, -, *, exact_div_int, zero_like/one_like/from_int_like and is_zero.
Division happens in one place, the exp recurrence, always by a visible
integer, so precision loss is tracked element by element instead of by a
worst-case formula.

TruncSeries and PadicInt are the API edge.  The hot kernels -- the exp
recurrence over series coefficients and composition with pi(T) -- run on
flat vectors of Python ints with one declared precision per coefficient,
and hand back the same values and precisions the PadicInt arithmetic
would.
"""

from __future__ import annotations

from .errors import ConfigError, CtxMismatch, InsufficientGuard
from .padic import PadicInt


def _coeff_prec(c):
    if isinstance(c, TruncSeries):
        cands = [p for p in (c.prec, c.min_prec()) if p is not None]
        return min(cands) if cands else None
    return getattr(c, "prec", None)


class TruncSeries:
    __slots__ = ("var", "coeffs", "prec")

    def __init__(self, var: str, coeffs, prec=None):
        self.var = var
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ConfigError("empty truncation")
        self.prec = prec

    @property
    def order(self) -> int:
        return len(self.coeffs)

    def min_prec(self):
        ps = [p for p in (_coeff_prec(c) for c in self.coeffs) if p is not None]
        return min(ps) if ps else None

    def _check(self, other):
        if not isinstance(other, TruncSeries):
            raise CtxMismatch(f"cannot mix TruncSeries with {type(other).__name__}")
        if self.var != other.var:
            raise CtxMismatch(f"variable mismatch {self.var!r} vs {other.var!r}")

    def truncate(self, order: int) -> "TruncSeries":
        if order > self.order:
            raise InsufficientGuard(f"cannot extend truncation {self.order} -> {order}")
        return TruncSeries(self.var, self.coeffs[:order], self.prec)

    def __add__(self, other):
        self._check(other)
        L = min(self.order, other.order)
        return TruncSeries(
            self.var, [a + b for a, b in zip(self.coeffs[:L], other.coeffs[:L])]
        )

    def __sub__(self, other):
        self._check(other)
        L = min(self.order, other.order)
        return TruncSeries(
            self.var, [a - b for a, b in zip(self.coeffs[:L], other.coeffs[:L])]
        )

    def __neg__(self):
        return TruncSeries(self.var, [-a for a in self.coeffs], self.prec)

    def __mul__(self, other):
        self._check(other)
        L = min(self.order, other.order)
        zero = self.coeffs[0].zero_like()
        out = [zero for _ in range(L)]
        for i, ai in enumerate(self.coeffs[:L]):
            if ai.is_zero():
                continue
            for j, bj in enumerate(other.coeffs[: L - i]):
                if not bj.is_zero():
                    out[i + j] = out[i + j] + ai * bj
        return TruncSeries(self.var, out)

    def scale(self, c) -> "TruncSeries":
        return TruncSeries(self.var, [a * c for a in self.coeffs])

    def shift(self, j: int) -> "TruncSeries":
        """Multiply by var^j (truncation order preserved)."""
        zero = self.coeffs[0].zero_like()
        return TruncSeries(self.var, [zero] * j + self.coeffs[: self.order - j])

    def exact_div_int(self, n: int) -> "TruncSeries":
        return TruncSeries(self.var, [a.exact_div_int(n) for a in self.coeffs])

    def degree(self):
        """Highest index with a nonzero coefficient, or None."""
        for i in range(self.order - 1, -1, -1):
            if not self.coeffs[i].is_zero():
                return i
        return None

    # coefficient protocol (so a TruncSeries can be a coefficient itself)
    def zero_like(self):
        z = self.coeffs[0].zero_like()
        return TruncSeries(self.var, [z for _ in range(self.order)], self.prec)

    def one_like(self):
        z = self.coeffs[0].zero_like()
        return TruncSeries(
            self.var, [self.coeffs[0].one_like()] + [z] * (self.order - 1), self.prec
        )

    def from_int_like(self, n):
        z = self.coeffs[0].zero_like()
        return TruncSeries(
            self.var,
            [self.coeffs[0].from_int_like(n)] + [z] * (self.order - 1),
            self.prec,
        )

    def is_zero(self):
        return all(c.is_zero() for c in self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, TruncSeries)
            and self.var == other.var
            and self.coeffs == other.coeffs
        )

    def __repr__(self):
        return f"TruncSeries({self.var!r}, {self.coeffs!r})"


def exp_from_power_sums(power_sums, var: str = "s") -> TruncSeries:
    """exp(sum_k c_k var^k / k) for c_1..c_K, truncated mod var^{K+1}.

    Newton recurrence a_n = (1/n) sum_{k=1}^{n} c_k a_{n-k}; every division is
    an exact_div_int, so over exact rings integrality is asserted and over
    truncated rings the declared precision drops by v_p(n) at step n.  When
    the c_k are series of PadicInt the recurrence runs on flat vectors (see
    _exp_flat) with the same values and the same precision per coefficient.
    """
    cs = list(power_sums)
    if not cs:
        raise ConfigError("need at least one power sum")
    if isinstance(cs[0], TruncSeries) and isinstance(cs[0].coeffs[0], PadicInt):
        return _exp_flat(cs, var)
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


def _exp_flat(cs, var):
    """The exp recurrence for series coefficients on flat vectors: Python
    ints plus one declared precision per coefficient.

    As in TruncSeries arithmetic on PadicInt, a product starts from a zero
    at the precision of the left factor's constant term and takes the least
    precision among the nonzero products it adds (a zero factor adds no
    bound), and a sum takes the least of its terms.  Every reduction on the
    way is by a modulus the last one divides, so each coefficient is its
    exact sum reduced once, then divided by n through PadicInt.
    """
    inner = cs[0].var
    if any(not isinstance(c, TruncSeries) or c.var != inner for c in cs):
        raise CtxMismatch("power sums must be series in one variable")

    def flat(coeffs):
        return [x.value for x in coeffs], [x.prec for x in coeffs]

    p = cs[0].coeffs[0].p
    sums = [flat(c.coeffs) for c in cs]
    res = [cs[0].one_like()]
    out = [flat(res[0].coeffs)]
    for n in range(1, len(cs) + 1):
        terms = [(sums[n - 1], out[0])]
        terms += [(sums[k - 1], out[n - k]) for k in range(1, n) if any(sums[k - 1][0])]
        L = min(min(len(a[0]), len(b[0])) for a, b in terms)
        acc = [0] * L
        prec = [min(a[1][0] for a, _ in terms)] * L
        for (av, ap), (bv, bp) in terms:
            nzb = [(j, bv[j], bp[j]) for j in range(L) if bv[j]]
            for i in range(L):
                if av[i]:
                    for j, y, f in nzb:
                        if i + j >= L:
                            break
                        acc[i + j] += av[i] * y
                        prec[i + j] = min(prec[i + j], ap[i], f)
        quo = [PadicInt(p, x, e).exact_div_int(n) for x, e in zip(acc, prec)]
        res.append(TruncSeries(inner, quo))
        out.append(flat(quo))
    ts = TruncSeries(var, res)
    ts.prec = ts.min_prec()
    return ts


def compose(columns, G: TruncSeries) -> list:
    """F(G) for every series F in columns, G(0) = 0, sharing the powers of G.

    G^j is built once as ints mod p^g, g the least precision in G, and each
    column is sum_j f_j G^j in G's variable and truncation.  Precisions are
    those of Horner's rule f_0 + G(f_1 + G(f_2 + ...)) on PadicInt when G
    carries one precision, as pi(T) does, and never more otherwise: every
    term gets min(g, prec f_1, prec f_2, ...), the constant term also
    prec f_0.
    """
    g = G.coeffs
    if not g[0].is_zero():
        raise ConfigError("composition needs G(0) = 0")
    p, L = g[0].p, len(g)
    gprec = min(c.prec for c in g)
    mod = p**gprec
    G1 = [c.value % mod for c in g]
    powers = [None, G1]
    for j in range(2, min(L, max(F.order for F in columns))):
        # G^(j-1) vanishes below var^(j-1)
        prev = powers[-1]
        powers.append([sum(prev[i] * G1[n - i] for i in range(j - 1, n)) % mod for n in range(L)])
    out = []
    for F in columns:
        f = F.coeffs
        tail = min([gprec] + [c.prec for c in f[1:]])
        J = min(len(f), L)
        vals = [sum(f[j].value * powers[j][n] for j in range(1, min(J, n + 1))) for n in range(L)]
        coeffs = [PadicInt(p, f[0].value, min(tail, f[0].prec))]
        out.append(TruncSeries(G.var, coeffs + [PadicInt(p, x, tail) for x in vals[1:]]))
    return out


def reversion(F: TruncSeries) -> TruncSeries:
    """Compositional inverse G with F(G) = var, for F = f_1 var + ..., f_1 a unit.

    Solved one coefficient at a time on ints mod p^e, e the least precision
    among F's PadicInt coefficients: with P[j][n] = [var^n] G^j, which for
    j >= 2 involves only g_1..g_{n-1}, F(G) = var reads
    g_n = -f_1^{-1} sum_{j>=2} f_j P[j][n] and g_1 = f_1^{-1}.  That is
    O(L^3/6) multiplications and one unit inverse, so every coefficient
    keeps precision e, the same as the PadicInt evaluation declares.
    """
    f = F.coeffs
    if not f[0].is_zero():
        raise ConfigError("reversion needs zero constant term")
    if F.order < 2 or f[1].is_zero():
        raise ConfigError("reversion needs a unit linear term")
    f1_inv = f[1].unit_inverse().value
    p, L = f[0].p, F.order
    e = min(c.prec for c in f)
    mod = p**e
    g = [0, f1_inv % mod]
    # P[j][n] for 2 <= j <= n < L; P[1] is g itself
    P = [None, g] + [[0] * L for _ in range(2, L)]
    for n in range(2, L):
        acc = 0
        for j in range(2, n + 1):
            prev = P[j - 1]
            P[j][n] = sum(g[i] * prev[n - i] for i in range(1, n - j + 2)) % mod
            acc += f[j].value * P[j][n]
        g.append(-acc * f1_inv % mod)
    return TruncSeries(F.var, [PadicInt(p, x, e) for x in g])
