"""p-adic scalars, unramified Z_q arithmetic, and cyclotomic integers.

Two regimes coexist and are kept visibly separate:

* truncated: PadicInt / ZqElt hold residues mod p^N with explicit declared
  precision, with min-precision propagation and guarded exact division;
* exact: CycInt holds exact integer vectors modulo the p^m-th cyclotomic
  polynomial, with valuations read off the expansion in pi = zeta - 1
  (never floats).

Teichmuller lifts use the p^n-power iteration; traces of Teichmuller
monomials use Frobenius orbit sums (sigma(m) = m^p holds exactly there).
"""

from __future__ import annotations

from fractions import Fraction

from . import gf
from .errors import (
    ConfigError,
    CtxMismatch,
    InsufficientGuard,
    NonIntegralResult,
    TraceNotRational,
)


def vp(n: int, p: int) -> int:
    """p-adic valuation of a nonzero integer."""
    if n == 0:
        raise ZeroDivisionError("vp(0) is infinite")
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def vp_factorial(n: int, p: int) -> int:
    """v_p(n!) = (n - digitsum_p(n)) / (p - 1), computed by Legendre's sum."""
    v = 0
    q = p
    while q <= n:
        v += n // q
        q *= p
    return v


# ---------------------------------------------------------------------------
# Valuation: exact / lower-bound / infinite, always exact rationals


class Valuation:
    EXACT = "exact"
    ATLEAST = "atleast"
    INFINITE = "infinite"

    __slots__ = ("kind", "value")

    def __init__(self, kind: str, value=None):
        self.kind = kind
        self.value = Fraction(value) if value is not None else None

    @classmethod
    def exact(cls, v) -> "Valuation":
        return cls(cls.EXACT, v)

    @classmethod
    def at_least(cls, v) -> "Valuation":
        return cls(cls.ATLEAST, v)

    @classmethod
    def infinite(cls) -> "Valuation":
        return cls(cls.INFINITE)

    def is_exact(self):
        return self.kind == self.EXACT

    def scaled(self, factor) -> "Valuation":
        if self.kind == self.INFINITE:
            return self
        return Valuation(self.kind, self.value * Fraction(factor))

    def __eq__(self, other):
        return (
            isinstance(other, Valuation)
            and self.kind == other.kind
            and self.value == other.value
        )

    def __repr__(self):
        if self.kind == self.INFINITE:
            return "Valuation(inf)"
        return f"Valuation({self.kind}, {self.value})"


# ---------------------------------------------------------------------------
# PadicInt: Z/p^N with declared precision


class PadicInt:
    __slots__ = ("p", "prec", "value")

    def __init__(self, p: int, value: int, prec: int):
        if prec < 0:
            raise InsufficientGuard("negative working precision")
        self.p = p
        self.prec = prec
        self.value = value % (p**prec) if prec > 0 else 0

    def _join(self, other) -> "PadicInt":
        if not isinstance(other, PadicInt):
            raise CtxMismatch(f"cannot mix PadicInt with {type(other).__name__}")
        if self.p != other.p:
            raise CtxMismatch("mixed primes")
        return other

    def __add__(self, other):
        other = self._join(other)
        return PadicInt(self.p, self.value + other.value, min(self.prec, other.prec))

    def __sub__(self, other):
        other = self._join(other)
        return PadicInt(self.p, self.value - other.value, min(self.prec, other.prec))

    def __neg__(self):
        return PadicInt(self.p, -self.value, self.prec)

    def __mul__(self, other):
        other = self._join(other)
        return PadicInt(self.p, self.value * other.value, min(self.prec, other.prec))

    def reduce(self, prec: int) -> "PadicInt":
        if prec > self.prec:
            raise InsufficientGuard(f"cannot raise precision {self.prec} -> {prec}")
        return PadicInt(self.p, self.value, prec)

    def exact_div_int(self, n: int) -> "PadicInt":
        """Divide by a nonzero integer; the p-part must divide exactly.

        Precision drops by v_p(n): the quotient of a residue known mod p^N is
        determined mod p^{N - v_p(n)} only.
        """
        if n < 0:
            return (-self).exact_div_int(-n)
        v = vp(n, self.p)
        unit = n // self.p**v
        if v:
            if self.prec < v:
                raise InsufficientGuard("division by p^v below working precision")
            if self.value % self.p**v:
                raise NonIntegralResult(f"{self.value} not divisible by {self.p}^{v}")
        new_prec = self.prec - v
        mod = self.p**new_prec
        if mod == 1:
            return PadicInt(self.p, 0, 0)
        val = (self.value // self.p**v) * pow(unit, -1, mod)
        return PadicInt(self.p, val, new_prec)

    def unit_inverse(self) -> "PadicInt":
        if self.value % self.p == 0:
            raise NonIntegralResult("not a unit")
        return PadicInt(self.p, pow(self.value, -1, self.p**self.prec), self.prec)

    # series-coefficient protocol
    def zero_like(self):
        return PadicInt(self.p, 0, self.prec)

    def one_like(self):
        return PadicInt(self.p, 1, self.prec)

    def from_int_like(self, n: int):
        return PadicInt(self.p, n, self.prec)

    def is_zero(self):
        return self.value == 0

    def __eq__(self, other):
        return (
            isinstance(other, PadicInt)
            and (self.p, self.prec, self.value) == (other.p, other.prec, other.value)
        )

    def __hash__(self):
        return hash((self.p, self.prec, self.value))

    def __repr__(self):
        return f"PadicInt({self.value} mod {self.p}^{self.prec})"


# ---------------------------------------------------------------------------
# Z_q = Z_p[u]/(H(u)): unramified, H the naive lift of the field modulus


class ZqCtx:
    """Working context for Z_q/p^N; caches the trace form Tr(u^m)."""

    __slots__ = ("p", "n", "N", "H", "mod", "_trace_form")

    def __init__(self, field: gf.FieldCtx, N: int):
        self.p = field.p
        self.n = field.n
        self.N = N
        self.H = tuple(int(c) for c in field.h)
        self.mod = field.p**N
        self._trace_form = None

    def lift(self, x: gf.FqElt) -> tuple[int, ...]:
        if x.ctx.n != self.n or x.ctx.p != self.p:
            raise CtxMismatch("field element does not match Zq context")
        return tuple(int(c) for c in x.coeffs)

    def mul(self, a, b) -> tuple[int, ...]:
        p2 = self.mod
        n = self.n
        out = [0] * (2 * n - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        # reduce by monic H, then mod p^N
        H = self.H
        for i in range(2 * n - 2, n - 1, -1):
            c = out[i] % p2
            if c:
                out[i] = 0
                for j in range(n):
                    out[i - n + j] -= c * H[j]
        return tuple(c % p2 for c in out[:n])

    def pow(self, a, e: int) -> tuple[int, ...]:
        result = (1,) + (0,) * (self.n - 1)
        base = a
        while e:
            if e & 1:
                result = self.mul(result, base)
            base = self.mul(base, base)
            e >>= 1
        return result

    def trace_form(self) -> tuple[int, ...]:
        """Power sums s_m = Tr(u^m) mod p^N via Newton's identities on H."""
        if self._trace_form is None:
            n, p2 = self.n, self.mod
            e = [0] * (n + 1)  # elementary symmetric functions of the roots
            for i in range(1, n + 1):
                e[i] = ((-1) ** i * self.H[n - i]) % p2
            s = [n % p2]
            for m in range(1, n):
                acc = ((-1) ** (m - 1)) * m * e[m] if m <= n else 0
                for i in range(1, m):
                    acc += (-1) ** (i - 1) * e[i] * s[m - i]
                s.append(acc % p2)
            self._trace_form = tuple(s)
        return self._trace_form

    def trace(self, z) -> int:
        """Tr_{Q_q/Q_p}(z) mod p^N through the trace form (linear in z)."""
        s = self.trace_form()
        return sum(zi * si for zi, si in zip(z, s)) % self.mod


def teichmuller(zctx: ZqCtx, x) -> tuple[int, ...]:
    """Teichmuller lift: iterate omega <- omega^{p^n}, N times.

    Each pass gains one digit of agreement with the true lift, so after N
    passes the result is the fixed point mod p^N (omega^{p^n} = omega there).
    """
    if isinstance(x, gf.FqElt):
        omega = zctx.lift(x)
    else:
        omega = tuple(int(c) % zctx.mod for c in x)
    q = zctx.p**zctx.n
    for _ in range(zctx.N):
        omega = zctx.pow(omega, q)
    return omega


def teich_trace(ctx: gf.FieldCtx, x: gf.FqElt, f_coeffs, N: int) -> PadicInt:
    """Tr_{Q_{q^k}/Q_p} of f-hat at the Teichmuller lift of x, mod p^N.

    f_coeffs are field elements of ctx (ascending, already embedded).  Each
    monomial m_i = omega(b_i) * omega(x)^i is a Teichmuller element, so its
    orbit sum sum_j m_i^{p^j} is Frobenius-stable and must land in Z_p; the
    non-constant coordinates are asserted to vanish at full precision.
    """
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
        mono = zctx.mul(teichmuller(zctx, b), xpow)
        y = mono
        for _ in range(n):
            total = [a + c for a, c in zip(total, y)]
            y = zctx.pow(y, ctx.p)
    total = [c % zctx.mod for c in total]
    if any(total[1:]):
        raise TraceNotRational(f"non-constant trace coordinates {total[1:]}")
    return PadicInt(ctx.p, total[0], N)


# ---------------------------------------------------------------------------
# CycInt: exact integers in Z[zeta_{p^m}]


def _phi_pm(p: int, m: int) -> int:
    return (p - 1) * p ** (m - 1) if m >= 1 else 1


def _cyc_reduce(vec, p: int, m: int) -> list[int]:
    """Reduce an integer polynomial in zeta modulo Phi_{p^m}."""
    if m == 0:
        return [sum(vec)]
    phi = _phi_pm(p, m)
    step = p ** (m - 1)
    v = list(vec)
    if len(v) < phi:
        v += [0] * (phi - len(v))
    for i in range(len(v) - 1, phi - 1, -1):
        c = v[i]
        if c:
            v[i] = 0
            base = i - phi
            for j in range(p - 1):
                v[base + j * step] -= c
    return v[:phi]


class CycInt:
    """Exact element of Z[zeta_{p^m}] on the power basis 1..zeta^{phi-1}."""

    __slots__ = ("p", "m", "coeffs")

    def __init__(self, p: int, m: int, coeffs):
        self.p = p
        self.m = m
        phi = _phi_pm(p, m)
        c = list(coeffs)
        if len(c) != phi:
            c = _cyc_reduce(c, p, m)
        self.coeffs = tuple(int(x) for x in c)

    @classmethod
    def zero(cls, p, m):
        return cls(p, m, [0] * _phi_pm(p, m))

    @classmethod
    def from_int(cls, p, m, n):
        c = [0] * _phi_pm(p, m)
        c[0] = n
        return cls(p, m, c)

    @classmethod
    def zeta_power(cls, p, m, e):
        """zeta^e (e arbitrary, reduced mod p^m)."""
        e %= p**m
        vec = [0] * (e + 1)
        vec[e] = 1
        return cls(p, m, _cyc_reduce(vec, p, m))

    def _join(self, other):
        if not isinstance(other, CycInt):
            raise CtxMismatch(f"cannot mix CycInt with {type(other).__name__}")
        if (self.p, self.m) != (other.p, other.m):
            raise CtxMismatch("mixed cyclotomic rings")
        return other

    def __add__(self, other):
        other = self._join(other)
        return CycInt(self.p, self.m, [a + b for a, b in zip(self.coeffs, other.coeffs)])

    def __sub__(self, other):
        other = self._join(other)
        return CycInt(self.p, self.m, [a - b for a, b in zip(self.coeffs, other.coeffs)])

    def __neg__(self):
        return CycInt(self.p, self.m, [-a for a in self.coeffs])

    def __mul__(self, other):
        other = self._join(other)
        a, b = self.coeffs, other.coeffs
        out = [0] * (len(a) + len(b) - 1)
        for i, ai in enumerate(a):
            if ai:
                for j, bj in enumerate(b):
                    out[i + j] += ai * bj
        return CycInt(self.p, self.m, _cyc_reduce(out, self.p, self.m))

    def scale(self, n: int) -> "CycInt":
        return CycInt(self.p, self.m, [n * a for a in self.coeffs])

    def conjugate(self, c: int) -> "CycInt":
        """Galois action zeta -> zeta^c, gcd(c, p) = 1."""
        if self.m == 0:
            return self
        if c % self.p == 0:
            raise ConfigError("conjugation index must be a unit mod p")
        pm = self.p**self.m
        vec = [0] * pm
        for e, g in enumerate(self.coeffs):
            if g:
                vec[(e * c) % pm] += g
        return CycInt(self.p, self.m, _cyc_reduce(vec, self.p, self.m))

    def embed(self, m_target: int) -> "CycInt":
        """Inclusion Z[zeta_{p^m}] -> Z[zeta_{p^{m_target}}]."""
        if m_target < self.m:
            raise ConfigError("cannot embed into a smaller cyclotomic ring")
        if m_target == self.m:
            return self
        stretch = self.p ** (m_target - self.m)
        vec = [0] * (stretch * max(1, len(self.coeffs)))
        for e, g in enumerate(self.coeffs):
            vec[e * stretch] += g
        return CycInt(self.p, m_target, _cyc_reduce(vec, self.p, m_target))

    def reduce_mod(self, modulus: int) -> "CycInt":
        """Representative with coefficients in [0, modulus)."""
        return CycInt(self.p, self.m, [a % modulus for a in self.coeffs])

    def rational_value(self) -> int:
        """The integer this element equals; NonIntegralResult otherwise."""
        if any(self.coeffs[1:]):
            raise NonIntegralResult(f"non-rational cyclotomic {list(self.coeffs)}")
        return self.coeffs[0]

    # series-coefficient protocol
    def exact_div_int(self, n: int) -> "CycInt":
        out = []
        for a in self.coeffs:
            q, r = divmod(a, n)
            if r:
                raise NonIntegralResult(f"coefficient {a} not divisible by {n}")
            out.append(q)
        return CycInt(self.p, self.m, out)

    def zero_like(self):
        return CycInt.zero(self.p, self.m)

    def one_like(self):
        return CycInt.from_int(self.p, self.m, 1)

    def from_int_like(self, n):
        return CycInt.from_int(self.p, self.m, n)

    def is_zero(self):
        return not any(self.coeffs)

    def __eq__(self, other):
        return (
            isinstance(other, CycInt)
            and (self.p, self.m, self.coeffs) == (other.p, other.m, other.coeffs)
        )

    def __hash__(self):
        return hash((self.p, self.m, self.coeffs))

    def __repr__(self):
        return f"CycInt(p={self.p}, m={self.m}, {list(self.coeffs)})"


def cyc_valuation(z: CycInt, cap: int | None = None) -> Valuation:
    """pi-adic valuation of z in Z[zeta_{p^m}], pi = zeta - 1, exactly.

    Substituting zeta = 1 + pi rewrites z = sum_i c_i zeta^i (i < e) as
    sum_{j<e} b_j pi^j with integers b_j = sum_i C(i, j) c_i.  The extension
    is totally ramified of degree e = (p-1)p^{m-1}, so the terms have the
    pairwise distinct valuations e*v_p(b_j) + j and v_pi(z) is their minimum
    (which also equals v_p(Norm z)).  With `cap` set (truncated
    representative known mod p^M, cap = M*e) readings at or above the cap
    are demoted to lower bounds.
    """
    if z.is_zero():
        return Valuation.infinite() if cap is None else Valuation.at_least(cap)
    e = len(z.coeffs)
    # Taylor shift at 1 by Horner's rule: b <- b*(1 + pi) + c_i, top down
    b = [0] * e
    for top, c in enumerate(reversed(z.coeffs)):
        for j in range(top, 0, -1):
            b[j] += b[j - 1]
        b[0] += c
    v = min(e * vp(bj, z.p) + j for j, bj in enumerate(b) if bj)
    if cap is not None and v >= cap:
        return Valuation.at_least(cap)
    return Valuation.exact(v)


# ---------------------------------------------------------------------------
# binomial transfer: (1+T)^t as a truncated series


def binom_pow(t: PadicInt, D: int, N: int | None = None):
    """(1+T)^t = sum_{n<D} C(t, n) T^n with coefficients declared mod p^N.

    C(t, n) is the exact integer binomial of the representative, so the p-part
    division is exact; the cost is that coefficient n is only determined mod
    p^{prec(t) - v_p(n!)}.  Requires prec(t) >= N + v_p((D-1)!).
    """
    from .series import TruncSeries

    p = t.p
    guard_needed = vp_factorial(D - 1, p) if D > 1 else 0
    if N is None:
        N = t.prec - guard_needed
    if t.prec < N + guard_needed or N <= 0:
        raise InsufficientGuard(
            f"need precision {N}+{guard_needed} on t, have {t.prec}"
        )
    coeffs = []
    num = 1
    fact = 1
    tv = t.value
    for n in range(D):
        if n > 0:
            num *= tv - (n - 1)
            fact *= n
        c = num // fact
        assert num == c * fact, "falling factorial must be divisible by n!"
        coeffs.append(PadicInt(p, c, N))
    return TruncSeries("T", coeffs, prec=N)
