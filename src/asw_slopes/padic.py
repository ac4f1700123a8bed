"""p-adic scalars, unramified Z_q arithmetic, and cyclotomic integers.

Two regimes coexist and are kept visibly separate:

* truncated: Python ints and Z_q coordinate tuples reduced mod p^N, one
  precision N per context (ZqCtx) or per series (series.TruncSeries);
* exact: CycInt holds exact integer vectors modulo the p^m-th cyclotomic
  polynomial, with valuations read off the expansion in pi = zeta - 1
  (never floats).

Teichmuller lifts use Newton's method on omega^{q-1} = 1.
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import gf
from .errors import (
    ConfigError,
    CtxMismatch,
    InsufficientGuard,
    NonIntegralResult,
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
# Z_q = Z_p[u]/(H(u)): unramified, H the naive lift of the field modulus


class ZqCtx:
    """Working context for Z_q/p^N.

    pows holds the power basis u^e mod (H, p^N), e < 2n - 1; trace_form
    holds s_m = Tr(u^m) mod p^N, m < n (multiplication by u^m has column i
    u^(m+i) mod H); fold packs u^n ... u^(2n-2) for gf.mulmod.
    """

    __slots__ = ("p", "n", "N", "H", "mod", "pows", "trace_form", "fold")

    def __init__(self, field: gf.FieldCtx, N: int):
        self.p = field.p
        self.n = field.n
        self.N = N
        self.H = tuple(int(c) for c in field.h)
        self.mod = field.p**N
        one = (1,) + (0,) * (self.n - 1)
        self.pows = pows = gf.shifts(one, 2 * self.n - 1, self.H, self.mod)
        self.trace_form = tuple(
            sum(pows[m + i][i] for i in range(self.n)) % self.mod for m in range(self.n)
        )
        self.fold = gf.fold_rows(self.H, self.mod, pows[self.n :])

    def mul(self, a, b) -> tuple[int, ...]:
        return tuple(gf.mulmod(a, b, self.H, self.mod, self.fold))

    def pow(self, a, e: int) -> tuple[int, ...]:
        return tuple(gf.powmod(a, e, self.H, self.mod, self.fold))

    def trace(self, z) -> int:
        """Tr_{Q_q/Q_p}(z) mod p^N through the trace form (linear in z)."""
        return sum(zi * si for zi, si in zip(z, self.trace_form)) % self.mod


def teichmuller(zctx: ZqCtx, x, q: int | None = None) -> tuple[int, ...]:
    """Teichmuller lift mod p^N of the residue of x, a coordinate tuple (an
    F_{p^n} element or any integer lift of one), by powers and then Newton's
    method on omega^{q-1} = 1.

    Any lift of a nonzero residue is right to 1 digit, and omega <- omega^q
    turns k right digits into k + v_p(q) (each p-th power adds one), which
    outruns Newton's doubling while k <= v_p(q) and costs only squarings
    for q = 2^n.  The Newton step omega <- omega (1 - (omega^{q-1} - 1)/(q - 1))
    turns an error omega^{q-1} = 1 + eps into 1 + O(eps^2), doubling the
    digits.  The lift is unique, so the coordinates are the same as those of
    omega^{q^N}.  A residue 0 lifts to 0.  q is p^n unless a residue of a
    subfield F_q passes its q (prime-to-p roots of unity stay distinct mod p).
    """
    omega = tuple(int(c) % zctx.mod for c in x)
    p, n, mod = zctx.p, zctx.n, zctx.mod
    if all(c % p == 0 for c in omega):
        return (0,) * n
    q = q or p**n
    digits, vq = 1, vp(q, p)
    while digits < zctx.N and digits <= vq:
        omega = zctx.pow(omega, q)
        digits += vq
    inv = pow(q - 1, -1, mod)
    while digits < zctx.N:
        err = zctx.pow(omega, q - 1)
        step = [(-c * inv) % mod for c in err]
        step[0] = (step[0] + 1 + inv) % mod
        omega = zctx.mul(omega, step)
        digits *= 2
    return omega


# ---------------------------------------------------------------------------
# CycInt: exact integers in Z[zeta_{p^m}]


def phi_pm(p: int, m: int) -> int:
    """phi(p^m) = (p - 1) p^(m-1), the degree of Q(zeta_{p^m}); 1 at m = 0."""
    return (p - 1) * p ** (m - 1) if m >= 1 else 1


def eisenstein(p: int, m: int, mod: int) -> list[int]:
    """E_m(pi) = Phi_{p^m}(1 + pi) = sum_{k<p} (1 + pi)^{k p^{m-1}} mod `mod`,
    low degree first: monic Eisenstein of degree phi(p^m), m >= 1, the
    minimal polynomial of pi = zeta_{p^m} - 1."""
    step = p ** (m - 1)
    return [sum(math.comb(k * step, j) for k in range(p)) % mod for j in range(phi_pm(p, m) + 1)]


def _cyc_reduce(vec, p: int, m: int) -> list[int]:
    """Reduce an integer polynomial in zeta modulo Phi_{p^m}."""
    if m == 0:
        return [sum(vec)]
    phi = phi_pm(p, m)
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
        phi = phi_pm(p, m)
        c = list(coeffs)
        if len(c) != phi:
            c = _cyc_reduce(c, p, m)
        self.coeffs = tuple(int(x) for x in c)

    @classmethod
    def zero(cls, p, m):
        return cls(p, m, [0] * phi_pm(p, m))

    @classmethod
    def from_int(cls, p, m, n):
        c = [0] * phi_pm(p, m)
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
        return CycInt(self.p, self.m, gf.convolve(self.coeffs, other.coeffs))

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

    def exact_div(self, other: "CycInt") -> "CycInt":
        """self / other in Z[zeta] for nonzero other: times the product of
        the other conjugates of `other`, then exact_div_int by its norm."""
        other = self._join(other)
        cofactor = self.one_like()
        for c in range(2, self.p**self.m):
            if c % self.p:
                cofactor = cofactor * other.conjugate(c)
        return (self * cofactor).exact_div_int((other * cofactor).rational_value())

    def zero_like(self):
        return CycInt.zero(self.p, self.m)

    def one_like(self):
        return CycInt.from_int(self.p, self.m, 1)

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


def pi_valuation(b, p: int, e: int, cap: int | None = None) -> Valuation:
    """v_pi of sum_{j<e} b_j pi^j for integers b_j, pi a uniformizer of a
    totally ramified extension of degree e: the least of the pairwise
    distinct e*v_p(b_j) + j, infinite for all-zero digits.  With `cap` set
    (the sum known mod pi^cap) readings at or above it are floors."""
    if not any(b):
        return Valuation.infinite() if cap is None else Valuation.at_least(cap)
    v = min(e * vp(bj, p) + j for j, bj in enumerate(b) if bj)
    if cap is not None and v >= cap:
        return Valuation.at_least(cap)
    return Valuation.exact(v)


def cyc_valuation(z: CycInt, cap: int | None = None) -> Valuation:
    """pi-adic valuation of z in Z[zeta_{p^m}], pi = zeta - 1, exactly.

    Substituting zeta = 1 + pi rewrites z = sum_i c_i zeta^i (i < e) as
    sum_{j<e} b_j pi^j with integers b_j = sum_i C(i, j) c_i, read by
    pi_valuation at e = (p-1)p^{m-1}; v_pi(z) also equals v_p(Norm z).
    `cap` (representative known mod p^M, cap = M*e) is passed on."""
    e = len(z.coeffs)
    # Taylor shift at 1 by Horner's rule: b <- b*(1 + pi) + c_i, top down
    b = [0] * e
    for top, c in enumerate(reversed(z.coeffs)):
        for j in range(top, 0, -1):
            b[j] += b[j - 1]
        b[0] += c
    return pi_valuation(b, z.p, e, cap)


# ---------------------------------------------------------------------------
# binomial transfer: (1+T)^t as a truncated series


def binom_pow(p: int, t: int, prec: int, D: int):
    """(1+T)^t = sum_{n<D} C(t, n) T^n for t known mod p^prec, as a p-adic
    series mod p^(prec - v_p((D-1)!)).

    C(t, n) is the exact integer binomial of the representative, so the
    p-part division is exact; the cost is that coefficient n is only
    determined mod p^{prec - v_p(n!)}, and the series declares the least.
    """
    from .series import TruncSeries

    N = prec - vp_factorial(D - 1, p)
    if N <= 0:
        raise InsufficientGuard(
            f"t known to {prec} digits leaves none for {D} binomial terms"
        )
    coeffs = []
    num = 1
    fact = 1
    for n in range(D):
        if n > 0:
            num *= t - (n - 1)
            fact *= n
        c = num // fact
        assert num == c * fact, "falling factorial must be divisible by n!"
        coeffs.append(c)
    return TruncSeries("T", coeffs, N, p)
