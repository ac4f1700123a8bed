"""Truncated power series over duck-typed coefficient rings.

A TruncSeries of length L represents a series modulo var^L.  Coefficients
may be PadicInt, CycInt, or another TruncSeries (bivariate case); they only
need +, -, *, exact_div_int, zero_like/one_like/from_int_like and is_zero.
Divisions happen in exactly two places (exp/log recurrences), always by a
visible integer, and always through exact_div_int so precision loss is
tracked element by element instead of by a worst-case formula.
"""

from __future__ import annotations

from .errors import ConfigError, CtxMismatch, InsufficientGuard


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
    truncated rings the declared precision drops by v_p(n) at step n.
    """
    cs = list(power_sums)
    if not cs:
        raise ConfigError("need at least one power sum")
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


def log_series(F: TruncSeries) -> TruncSeries:
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


def _int_scale(c, k: int):
    acc = c.zero_like()
    add = c
    m = k
    while m:
        if m & 1:
            acc = acc + add
        add = add + add
        m >>= 1
    return acc


def inverse(F: TruncSeries) -> TruncSeries:
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


def compose(F: TruncSeries, G: TruncSeries) -> TruncSeries:
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


def reversion(F: TruncSeries) -> TruncSeries:
    """Compositional inverse G with F(G) = var, for F = f_1 var + ...

    f_1 must be a unit (NonUnitLinearTerm behaviour folded into ConfigError).
    Solved one coefficient at a time: with P[j][n] = [var^n] G^j, which for
    j >= 2 involves only g_1..g_{n-1}, F(G) = var reads
    g_n = -f_1^{-1} sum_{j>=2} f_j P[j][n] and g_1 = f_1^{-1}.  That is
    O(L^3/6) ring operations, only multiplications and the one unit inverse;
    every coefficient carries the least precision among F's coefficients.
    """
    f = F.coeffs
    if not f[0].is_zero():
        raise ConfigError("reversion needs zero constant term")
    if F.order < 2 or f[1].is_zero():
        raise ConfigError("reversion needs a unit linear term")
    f1 = f[1]
    if hasattr(f1, "unit_inverse"):
        f1_inv = f1.unit_inverse()
    elif (f1 - f1.one_like()).is_zero():
        f1_inv = f1.one_like()
    else:
        raise ConfigError("reversion over exact rings needs linear term 1")
    L = F.order
    # every sum starts from a zero at the least precision among F's terms
    zero = f[0].zero_like()
    for c in f[1:]:
        zero = zero + c.zero_like()
    g = [zero, zero + f1_inv]
    # P[j][n] for 2 <= j <= n < L; P[1] is g itself
    P = [None, g] + [[zero] * L for _ in range(2, L)]
    for n in range(2, L):
        acc = zero
        for j in range(2, n + 1):
            prev = P[j - 1]
            pjn = zero
            for i in range(1, n - j + 2):
                a, b = g[i], prev[n - i]
                if not (a.is_zero() or b.is_zero()):
                    pjn = pjn + a * b
            P[j][n] = pjn
            if not (f[j].is_zero() or pjn.is_zero()):
                acc = acc + f[j] * pjn
        g.append(-acc * f1_inv)
    return TruncSeries(F.var, g)
