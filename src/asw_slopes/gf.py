"""Finite fields F_{p^n} with a deterministic modulus choice.

Every field is F_p[u]/(h(u)) where h is the first monic irreducible found by a
lexicographic scan of coefficient vectors (constant term varying fastest), so
any two runs agree on the basis.  Elements are little-endian coefficient
tuples; the element of index j has the base-p digits of j as coordinates,
which fixes the enumeration order used for embeddings and generators.
"""

from __future__ import annotations

from .errors import ConfigError, CtxMismatch, NotPrime

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    i = 41
    while i * i <= n:
        if n % i == 0:
            return False
        i += 2
    return True


def factorize(n: int) -> list[int]:
    """Distinct prime factors of n >= 1 by trial division."""
    out = []
    m = n
    q = 2
    while q * q <= m:
        if m % q == 0:
            out.append(q)
            while m % q == 0:
                m //= q
        q += 1 if q == 2 else 2
    if m > 1:
        out.append(m)
    return out


# ---------------------------------------------------------------------------
# dense polynomial helpers over F_p (little-endian int lists)


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _polymul(a, b, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] = (out[i + j] + ai * bj) % p
    return out


def _polymod(a, h, p):
    # h monic
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


def _polymulmod(a, b, h, p):
    return _polymod(_polymul(a, b, p), h, p)


def _polypowmod(a, e, h, p):
    result = [1] + [0] * (len(h) - 2)
    base = _polymod(a, h, p)
    while e:
        if e & 1:
            result = _polymulmod(result, base, h, p)
        base = _polymulmod(base, base, h, p)
        e >>= 1
    return result


def _poly_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        b_monic = [(c * inv) % p for c in b]
        r = list(a)
        db = len(b_monic) - 1
        for i in range(len(r) - 1, db - 1, -1):
            c = r[i] % p
            if c:
                r[i] = 0
                for j in range(db):
                    r[i - db + j] = (r[i - db + j] - c * b_monic[j]) % p
        a, b = b, _trim(r)
    return a


def _is_irreducible(h: list[int], p: int) -> bool:
    """Rabin test: u^{p^n} == u mod h, and gcd(u^{p^{n/r}} - u, h) = 1."""
    n = len(h) - 1
    if n == 1:
        return True
    x = [0, 1]
    xq = _polypowmod(x, p**n, h, p)
    if _trim([(a - b) % p for a, b in zip(xq, _polymod(x, h, p))]):
        return False
    for r in factorize(n):
        xr = _polypowmod(x, p ** (n // r), h, p)
        diff = _trim([(a - b) % p for a, b in zip(xr, _polymod(x, h, p))])
        g = _poly_gcd(h, diff, p)
        if len(g) - 1 > 0:
            return False
    return True


def find_irreducible(p: int, n: int) -> tuple[int, ...]:
    """First monic irreducible of degree n in the lexicographic scan.

    The non-leading coefficient vector is read as the base-p digits of a
    counter with the constant term varying fastest; n = 1 yields u itself.
    """
    if not is_prime(p):
        raise NotPrime(f"p = {p} is not prime")
    if n < 1:
        raise CtxMismatch("degree must be positive")
    for j in range(p**n):
        coeffs = []
        m = j
        for _ in range(n):
            coeffs.append(m % p)
            m //= p
        h = coeffs + [1]
        if _is_irreducible(h, p):
            return tuple(h)
    raise AssertionError("unreachable: irreducibles exist in every degree")


class FieldCtx:
    """Context for F_{p^n} = F_p[u]/(h(u)).

    Treated as immutable; `embed_a` (image of the degree-a base field
    generator, when this field is used as F_{q^k}) is filled in lazily by
    embed_base and cached.
    """

    __slots__ = ("p", "n", "h", "_embed_cache", "_gen_cache")

    def __init__(self, p: int, n: int, h: tuple[int, ...] | None = None):
        if not is_prime(p):
            raise NotPrime(f"p = {p} is not prime")
        self.p = p
        self.n = n
        if h is None:
            self.h = find_irreducible(p, n)
        else:
            self.h = tuple(h)
            if not (
                len(self.h) == n + 1
                and self.h[n] == 1
                and all(0 <= c < p for c in self.h)
                and _is_irreducible(list(self.h), p)
            ):
                raise ConfigError(
                    f"modulus {list(self.h)} is not a monic irreducible of "
                    f"degree {n} over F_{p}"
                )
        self._embed_cache: dict[tuple[int, ...], "FqElt"] = {}
        self._gen_cache: "FqElt | None" = None

    @property
    def order(self) -> int:
        return self.p**self.n

    def element(self, index: int) -> "FqElt":
        """Element of the given enumeration index (base-p digits)."""
        if not 0 <= index < self.order:
            raise CtxMismatch(f"index {index} out of range for {self!r}")
        coeffs = []
        m = index
        for _ in range(self.n):
            coeffs.append(m % self.p)
            m //= self.p
        return FqElt(self, tuple(coeffs))

    def from_coeffs(self, coeffs) -> "FqElt":
        c = [x % self.p for x in coeffs]
        if len(c) > self.n:
            c = _polymod(c, list(self.h), self.p)
        c += [0] * (self.n - len(c))
        return FqElt(self, tuple(c))

    def zero(self) -> "FqElt":
        return FqElt(self, (0,) * self.n)

    def one(self) -> "FqElt":
        return FqElt(self, (1,) + (0,) * (self.n - 1))

    def gen(self) -> "FqElt":
        """Residue class of u."""
        if self.n == 1:
            # u == -h[0] in F_p
            return FqElt(self, ((-self.h[0]) % self.p,))
        return self.element(self.p)

    def elements(self):
        for j in range(self.order):
            yield self.element(j)

    def multiplicative_generator(self) -> "FqElt":
        """First generator of F_{p^n}^x in enumeration order."""
        if self._gen_cache is not None:
            return self._gen_cache
        m = self.order - 1
        cofactors = [m // r for r in factorize(m)] if m > 1 else []
        for j in range(1, self.order):
            x = self.element(j)
            if any((x**c).is_one() for c in cofactors):
                continue
            self._gen_cache = x
            return x
        raise AssertionError("unreachable: the unit group is cyclic")

    def __eq__(self, other):
        return (
            isinstance(other, FieldCtx)
            and (self.p, self.n, self.h) == (other.p, other.n, other.h)
        )

    def __hash__(self):
        return hash((self.p, self.n, self.h))

    def __repr__(self):
        return f"FieldCtx(p={self.p}, n={self.n}, h={list(self.h)})"


class FqElt:
    """Element of a FieldCtx; little-endian coefficient tuple."""

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: FieldCtx, coeffs: tuple[int, ...]):
        self.ctx = ctx
        self.coeffs = coeffs

    def _check(self, other: "FqElt"):
        if self.ctx != other.ctx:
            raise CtxMismatch(f"{self.ctx!r} vs {other.ctx!r}")

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def is_one(self) -> bool:
        return self.coeffs[0] == 1 and not any(self.coeffs[1:])

    @property
    def index(self) -> int:
        """Enumeration index (inverse of FieldCtx.element)."""
        j = 0
        for c in reversed(self.coeffs):
            j = j * self.ctx.p + c
        return j

    def __add__(self, other):
        self._check(other)
        p = self.ctx.p
        return FqElt(self.ctx, tuple((a + b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other):
        self._check(other)
        p = self.ctx.p
        return FqElt(self.ctx, tuple((a - b) % p for a, b in zip(self.coeffs, other.coeffs)))

    def __neg__(self):
        p = self.ctx.p
        return FqElt(self.ctx, tuple((-a) % p for a in self.coeffs))

    def __mul__(self, other):
        self._check(other)
        c = _polymulmod(list(self.coeffs), list(other.coeffs), list(self.ctx.h), self.ctx.p)
        return FqElt(self.ctx, tuple(c))

    def __pow__(self, e: int):
        if e < 0:
            base = self.inverse()
            e = -e
        else:
            base = self
        c = _polypowmod(list(base.coeffs), e, list(self.ctx.h), self.ctx.p)
        return FqElt(self.ctx, tuple(c))

    def inverse(self) -> "FqElt":
        if self.is_zero():
            raise ZeroDivisionError("inverse of zero")
        return self ** (self.ctx.order - 2)

    def frobenius(self) -> "FqElt":
        return self**self.ctx.p

    def trace_to_prime(self) -> int:
        """Classical absolute trace to F_p (Frobenius orbit sum)."""
        acc = self.ctx.zero()
        y = self
        for _ in range(self.ctx.n):
            acc = acc + y
            y = y.frobenius()
        assert not any(acc.coeffs[1:])
        return acc.coeffs[0]

    def __eq__(self, other):
        return (
            isinstance(other, FqElt)
            and self.ctx == other.ctx
            and self.coeffs == other.coeffs
        )

    def __hash__(self):
        return hash((self.ctx.p, self.ctx.n, self.coeffs))

    def __repr__(self):
        return f"FqElt({list(self.coeffs)} over p={self.ctx.p}, n={self.ctx.n})"


def embed_base(ctx: FieldCtx, base_h: tuple[int, ...]) -> FqElt:
    """Image of the base-field generator: smallest root of base_h in ctx.

    Scans ctx in enumeration order, so the embedding is deterministic.  With
    a = 1 the base modulus is u and the root is 0 (constant embedding).
    Result is cached per (ctx, base_h).
    """
    key = tuple(base_h)
    cached = ctx._embed_cache.get(key)
    if cached is not None:
        return cached
    if (len(base_h) - 1) and ctx.n % (len(base_h) - 1) != 0:
        raise CtxMismatch("base degree does not divide extension degree")
    for x in ctx.elements():
        acc = ctx.zero()
        xp = ctx.one()
        for c in base_h:
            if c:
                acc = acc + ctx.from_coeffs([c]) * xp
            xp = xp * x
        if acc.is_zero():
            ctx._embed_cache[key] = x
            return x
    raise CtxMismatch("base modulus has no root in the extension")


def embed_element(base_ctx: FieldCtx, elt: FqElt, ctx: FieldCtx) -> FqElt:
    """Carry an F_q element into F_{q^k} through the deterministic embedding."""
    if elt.ctx != base_ctx:
        raise CtxMismatch("element not in the declared base field")
    root = embed_base(ctx, base_ctx.h)
    acc = ctx.zero()
    rp = ctx.one()
    for c in elt.coeffs:
        if c:
            acc = acc + ctx.from_coeffs([c]) * rp
        rp = rp * root
    return acc
