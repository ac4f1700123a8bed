"""Finite fields F_{p^n} with a deterministic modulus choice.

Every field is F_p[u]/(h(u)) where h is the first monic irreducible found by a
lexicographic scan of coefficient vectors (constant term varying fastest), so
any two runs agree on the basis.  Elements are little-endian coefficient
tuples; the element of index j has the base-p digits of j as coordinates,
which fixes the enumeration order used for embeddings and generators.
"""

from __future__ import annotations

import functools

import numpy as np

from .errors import ConfigError, CtxMismatch, NotPrime


def is_prime(n: int) -> bool:
    return n >= 2 and factorize(n) == [n]


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
# integer kernels: the int64-or-object rule of every numpy kernel, and one
# polynomial product for F_p, Z_q/p^N and Z[zeta] (little-endian int lists),
# exact until one reduction by a monic modulus with coefficients mod any int


def int_dtype(bound: int):
    """np.int64 for a numpy kernel whose largest magnitude, proven by its
    caller, is `bound` < 2^62; else object (exact Python ints in numpy)."""
    return np.int64 if bound < 2**62 else object


def convolve(a, b, n=None) -> list[int]:
    """The first n coefficients (all by default) of the exact product a*b,
    zero factors of a skipped."""
    if n is None:
        n = len(a) + len(b) - 1
    out = [0] * n
    lb = len(b)
    for i, x in enumerate(a):
        if x:
            for j in range(lb if i + lb <= n else n - i):
                out[i + j] += x * b[j]
    return out


def reduce_mod(c, h, mod: int) -> list[int]:
    """c modulo the monic h, as len(h) - 1 coefficients in [0, mod)."""
    dh = len(h) - 1
    c = list(c)
    for i in range(len(c) - 1, dh - 1, -1):
        top = c[i] % mod
        if top:
            base = i - dh
            for j in range(dh):
                c[base + j] -= top * h[j]
    del c[dh:]
    c += [0] * (dh - len(c))
    return [x % mod for x in c]


def shifts(v, count: int, h, mod: int) -> list:
    """v u^j mod (h, mod) for j < count, each the last times u by one reduce_mod."""
    out = [v]
    for _ in range(count - 1):
        out.append(reduce_mod((0, *out[-1]), h, mod))
    return out


def fold_rows(h, mod: int, tops=None) -> tuple[int, tuple[int, ...]]:
    """(w, rows) of `mulmod` modulo (h, mod): u^(n+i), i < n - 1 (given as
    `tops` or built here), packed in w-bit fields.  A product of entries in
    [0, mod) has fields below n (mod - 1)^2; folding in its top n - 1, each
    reduced mod `mod`, keeps them below 2n (mod - 1)^2, so the width
    w = bits(2n (mod - 1)^2) + 1 keeps the fields apart."""
    n = len(h) - 1
    if tops is None:  # from u^n, h being monic
        tops = shifts([(-c) % mod for c in h[:n]], n - 1, h, mod)
    w = (2 * n * (mod - 1) ** 2).bit_length() + 1
    return w, tuple(_pack(row, w, mod) for row in tops[: n - 1])


def _pack(a, w: int, mod: int) -> int:
    v = 0
    for c in reversed(a):
        v = (v << w) | (c % mod)
    return v


def mulmod(a, b, h, mod: int, fold=None) -> list[int]:
    """a*b mod (h, mod): one product of the packed operands (Kronecker
    substitution), its top n - 1 fields folded into the low n by `fold`."""
    n = len(h) - 1
    w, rows = fold or fold_rows(h, mod)
    if len(a) > n or len(b) > n:
        a, b = reduce_mod(a, h, mod), reduce_mod(b, h, mod)
    prod = _pack(a, w, mod) * _pack(b, w, mod)
    mask = (1 << w) - 1
    low, prod = prod & ((1 << w * n) - 1), prod >> w * n
    for row in rows:
        low += (prod & mask) % mod * row
        prod >>= w
    out = []
    for _ in range(n):
        out.append((low & mask) % mod)
        low >>= w
    return out


def powmod(base, e: int, h, mod: int, fold=None) -> list[int]:
    """base^e mod (h, mod), left to right: the base is reduced once and
    never multiplied by one."""
    if not e:
        return [1] + [0] * (len(h) - 2)
    fold = fold or fold_rows(h, mod)
    base = reduce_mod(base, h, mod)
    result = base
    for bit in bin(e)[3:]:
        result = mulmod(result, result, h, mod, fold)
        if bit == "1":
            result = mulmod(result, base, h, mod, fold)
    return result


def _trim(c: list[int]) -> list[int]:
    while c and c[-1] == 0:
        c.pop()
    return c


def _digits(j: int, p: int, n: int) -> list[int]:
    """The n base-p digits of j, least significant first."""
    out = []
    for _ in range(n):
        out.append(j % p)
        j //= p
    return out


def _poly_gcd(a, b, p):
    a, b = _trim(list(a)), _trim(list(b))
    while b:
        inv = pow(b[-1], p - 2, p)
        a, b = b, _trim(reduce_mod(a, [(c * inv) % p for c in b], p))
    return a


def _is_irreducible(h: list[int], p: int) -> bool:
    """Rabin test: u^{p^n} == u mod h, and gcd(u^{p^{n/r}} - u, h) = 1,
    every u^(p^e) read off one Frobenius chain."""
    n = len(h) - 1
    fold = fold_rows(h, p)
    x = reduce_mod([0, 1], h, p)
    chain = [x]
    for _ in range(n):
        chain.append(powmod(chain[-1], p, h, p, fold))

    def frobenius_less_u(e):  # u^(p^e) - u mod (h, p), trimmed
        return _trim([(a - b) % p for a, b in zip(chain[e], x)])

    return not frobenius_less_u(n) and all(
        len(_poly_gcd(h, frobenius_less_u(n // r), p)) == 1 for r in factorize(n)
    )


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
        h = _digits(j, p, n) + [1]
        # a root in F_p is a linear factor: no Rabin test needed
        if n > 1 and any(sum(c * x**e for e, c in enumerate(h)) % p == 0 for x in range(p)):
            continue
        if _is_irreducible(h, p):
            return tuple(h)
    raise AssertionError("unreachable: irreducibles exist in every degree")


class FieldCtx:
    """Context for F_{p^n} = F_p[u]/(h(u)); immutable, reached through `field`.

    What is derived from it (the multiplicative generator, the embeddings of
    base fields) is cached by `functools.cache` on the context's value.
    """

    __slots__ = ("p", "n", "h", "fold")

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
        self.fold = fold_rows(self.h, p)

    @property
    def order(self) -> int:
        return self.p**self.n

    def element(self, index: int) -> tuple[int, ...]:
        """Element of the given enumeration index (base-p digits)."""
        if not 0 <= index < self.order:
            raise CtxMismatch(f"index {index} out of range for {self!r}")
        return tuple(_digits(index, self.p, self.n))

    def index(self, x) -> int:
        """Enumeration index of x (inverse of element)."""
        j = 0
        for c in reversed(x):
            j = j * self.p + c
        return j

    def add(self, a, b) -> tuple[int, ...]:
        p = self.p
        return tuple((x + y) % p for x, y in zip(a, b))

    def mul(self, a, b) -> tuple[int, ...]:
        return tuple(mulmod(a, b, self.h, self.p, self.fold))

    def pow(self, a, e: int) -> tuple[int, ...]:
        return tuple(powmod(a, e, self.h, self.p, self.fold))

    @functools.cache
    def multiplicative_generator(self) -> tuple[int, ...]:
        """First generator of F_{p^n}^x in enumeration order."""
        m = self.order - 1
        cofactors = [m // r for r in factorize(m)] if m > 1 else []
        one = self.element(1)
        for j in range(1, self.order):
            x = self.element(j)
            if not any(self.pow(x, c) == one for c in cofactors):
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


@functools.cache
def field(p: int, n: int, h: tuple[int, ...] | None = None) -> FieldCtx:
    """F_{p^n} with modulus h (the first irreducible of find_irreducible by
    default), built once per process: the one way to get a field."""
    return FieldCtx(p, n, h)


@functools.cache
def embed_base(ctx: FieldCtx, base_h: tuple[int, ...]) -> tuple[int, ...]:
    """Image of the base-field generator: smallest-index root of base_h in ctx.

    base_h is the irreducible modulus of F_{p^a}, so its roots are the a
    Frobenius conjugates of any one of them, all in the subfield
    F_{p^a} = {0} u <g^((p^n - 1)/(p^a - 1))> of ctx (g the multiplicative
    generator).  The subfield is walked to the first root, and the conjugate
    of least enumeration index is kept, so the embedding is deterministic.
    With a = 1 the base modulus is u and the root is 0 (constant embedding).
    """
    a = len(base_h) - 1
    if a < 1 or ctx.n % a != 0:
        raise CtxMismatch("base degree must be positive and divide the extension degree")

    def is_root(x) -> bool:
        acc = ctx.element(0)
        for c in reversed(base_h):
            acc = ctx.add(ctx.mul(acc, x), ctx.element(c))
        return not any(acc)

    x = ctx.element(0)
    if not is_root(x):
        step = ctx.pow(ctx.multiplicative_generator(), (ctx.order - 1) // (ctx.p**a - 1))
        x = ctx.element(1)
        for _ in range(ctx.p**a - 1):
            if is_root(x):
                break
            x = ctx.mul(x, step)
        else:
            raise CtxMismatch("base modulus has no root in the extension")
    conjugates = [x]
    for _ in range(a - 1):
        conjugates.append(ctx.pow(conjugates[-1], ctx.p))
    return min(conjugates, key=ctx.index)


def embed_element(base_ctx: FieldCtx, elt, ctx: FieldCtx) -> tuple[int, ...]:
    """Carry an F_q element into F_{q^k} through the deterministic embedding,
    the identity when k = 1."""
    if ctx == base_ctx:
        return tuple(elt)
    root = embed_base(ctx, base_ctx.h)
    acc = ctx.element(0)
    rp = ctx.element(1)
    for c in elt:
        if c:
            acc = ctx.add(acc, [c * r for r in rp])
        rp = ctx.mul(rp, root)
    return acc
