"""Independent checks of the program's answers.

Nothing here imports the package. Every check is either an independent
computation (brute-force character sums over F_{2^k}, the paper's slope
laws, the Riemann-Hurwitz genus, Newton's identities) or a property the
answer must have (symmetry, the Hodge bound, the functional equation). Each
check raises CheckError with a message naming the query and what differed.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from math import ceil


class CheckError(Exception):
    pass


def _require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


# ---------------------------------------------------------------------------
# base slopes, independently

def _gf2_mul(a: int, b: int, mod: int, n: int) -> int:
    out = 0
    while b:
        if b & 1:
            out ^= a
        b >>= 1
        a <<= 1
        if a >> n & 1:
            a ^= mod
    return out


def _gf2_irreducible(n: int) -> int:
    """Some irreducible polynomial of degree n over F_2, as a bit mask."""
    for cand in range(1 << n, 1 << (n + 1)):
        if all(_gf2_polymod(cand, g) for g in range(2, 1 << (n // 2 + 1))):
            return cand
    raise AssertionError("irreducibles exist in every degree")


def _gf2_polymod(a: int, g: int) -> int:
    dg = g.bit_length()
    while a.bit_length() >= dg:
        a ^= g << (a.bit_length() - dg)
    return a


def _char_sum_f2(f_lead: list[int], n: int) -> int:
    """Sum over x in F_{2^n} of (-1)^{Tr f(x)}, f over F_2, by enumeration."""
    mod = _gf2_irreducible(n)
    total = 0
    for x in range(1 << n):
        y = 0
        for c in f_lead:
            y = _gf2_mul(y, x, mod, n) ^ (c & 1)
        tr, z = y, y
        for _ in range(n - 1):
            z = _gf2_mul(z, z, mod, n)
            tr ^= z
        total += -1 if tr else 1
    return total


def _vp(n: int, p: int) -> int:
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def hull_slopes(points) -> list[Fraction]:
    """Slopes, with multiplicity, of the lower convex hull of (x, y) points."""
    hull: list = []
    for pt in sorted(points):
        while len(hull) >= 2:
            (x0, y0), (x1, y1) = hull[-2], hull[-1]
            if (y1 - y0) * (pt[0] - x0) >= (pt[1] - y0) * (x1 - x0):
                hull.pop()
            else:
                break
        hull.append(pt)
    out = []
    for (x0, y0), (x1, y1) in zip(hull, hull[1:]):
        out += [Fraction(y1 - y0, x1 - x0)] * (x1 - x0)
    return out


def base_slopes(p: int, a: int, f_lead: list[int]) -> list[Fraction]:
    """q-adic slopes of the level-1 L-function of f.

    p = 2, a = 1: the level-1 character is +-1, so the L-function has
    rational integer coefficients, computed here from brute-force character
    sums. p = 1 mod d: the tower is ordinary and the slopes are i/d.
    """
    d = len(f_lead) - 1
    if p == 2 and a == 1:
        sums = [_char_sum_f2(f_lead, k) for k in range(1, d)]
        coeffs = [Fraction(1)]
        for n in range(1, d):
            coeffs.append(sum(sums[k - 1] * coeffs[n - k] for k in range(1, n + 1)) / n)
        _require(all(c.denominator == 1 for c in coeffs), "L-function is not integral")
        _require(coeffs[-1] != 0, "L-function degree is below d - 1")
        pts = [(i, Fraction(_vp(int(c), 2))) for i, c in enumerate(coeffs) if c]
        return hull_slopes(pts)
    if p % d == 1:
        return [Fraction(i, d) for i in range(1, d)]
    raise ValueError(f"no independent base slopes for p={p}, a={a}, d={d}")


def stable_level(p: int, a: int, d: int) -> int:
    """The paper's m0: the least m with p^(m-1) >= a(d-1)^2/(8d)."""
    m = 1
    while 8 * d * p ** (m - 1) < a * (d - 1) ** 2:
        m += 1
    return m


def level_law(base: list[Fraction], p: int, m: int) -> Counter:
    """The periodicity law: level-m slopes from the base slopes (m0 = 1).

    {i/P : 0 < i < P} together with {(i + alpha)/P : 0 <= i < P, alpha in
    base}, where P = p^(m-1).
    """
    P = p ** (m - 1)
    out = Counter(Fraction(i, P) for i in range(1, P))
    for i in range(P):
        for alpha in base:
            out[(i + alpha) / P] += 1
    return out


def _multiset(triples) -> Counter:
    return Counter({Fraction(n, d): mult for n, d, mult in triples})


# ---------------------------------------------------------------------------
# slopes

def check_slopes(p: int, a: int, f_lead: list[int], m: int, payload: dict) -> Counter:
    """Slope table of one character at level m; returns its multiset."""
    d = len(f_lead) - 1
    _require(stable_level(p, a, d) == 1, "checks assume the base level m0 = 1")
    got = _multiset(payload["slopes"])
    D = p ** (m - 1) * d
    n = sum(got.values())
    _require(n == D - 1, f"level {m}: {n} slopes, want p^(m-1)d - 1 = {D - 1}")
    _require(got == Counter({1 - s: k for s, k in got.items()}), f"level {m}: slopes not symmetric under s -> 1 - s")
    acc = Fraction(0)
    for i, s in enumerate(sorted(got.elements()), start=1):
        acc += s
        _require(acc >= Fraction(i * (i + 1), 2 * D), f"level {m}: polygon dips below the Hodge bound at x = {i}")
    want = level_law(base_slopes(p, a, f_lead), p, m)
    _require(got == want, f"level {m}: slopes {sorted(got.elements())} != periodicity law {sorted(want.elements())}")
    return got


# ---------------------------------------------------------------------------
# counts and zeta

def genus_double(p: int, d: int, m: int) -> int:
    """2g of the level-m cover from Riemann-Hurwitz.

    The cover is Z/p^m, totally ramified over infinity only; by the
    conductor-discriminant formula the different there has degree
    sum over characters chi != 1 of (swan(chi) + 1), with swan = p^(l-1) d
    for the phi(p^l) characters of exact order p^l.
    """
    different = sum((p - 1) * p ** (l - 1) * (p ** (l - 1) * d + 1) for l in range(1, m + 1))
    return 2 - 2 * p**m + different


def check_zeta(p: int, a: int, d: int, m: int, coeffs: list[int]) -> None:
    q = p**a
    two_g = genus_double(p, d, m)
    _require(len(coeffs) - 1 == two_g, f"zeta level {m}: degree {len(coeffs) - 1} != 2g = {two_g}")
    _require(coeffs[0] == 1, f"zeta level {m}: constant term {coeffs[0]} != 1")
    g = two_g // 2
    for i in range(g + 1):
        _require(
            coeffs[two_g - i] == q ** (g - i) * coeffs[i],
            f"zeta level {m}: a_{two_g - i} != q^{g - i} a_{i}",
        )


def power_sums(coeffs: list[int], k_max: int) -> list[int]:
    """sum alpha^k for k = 1..k_max, where coeffs = prod (1 - alpha s)."""
    a = coeffs + [0] * max(0, k_max + 1 - len(coeffs))
    ps: list[int] = []
    for n in range(1, k_max + 1):
        ps.append(-n * a[n] - sum(ps[k - 1] * a[n - k] for k in range(1, n)))
    return ps


def check_counts(p: int, a: int, d: int, row: dict, zeta_coeffs: list[int]) -> None:
    m, k = row["m"], row["k"]
    q = p**a
    values = {key: row[key] for key in ("witt", "trace", "character") if key in row}
    _require("witt" in values, f"count m={m} k={k}: no Witt count")
    _require(len(set(values.values())) == 1, f"count m={m} k={k}: {values} disagree")
    n = values["witt"]
    want = q**k - power_sums(zeta_coeffs, k)[k - 1]
    _require(n == want, f"count m={m} k={k}: Witt count {n} != q^k - sum alpha^k = {want}")
    two_g = genus_double(p, d, m)
    _require((n - q**k) ** 2 <= two_g**2 * q**k, f"count m={m} k={k}: {n} breaks the Weil bound")


# ---------------------------------------------------------------------------
# characteristic series

def hodge_floor(p: int, d: int, x: int) -> Fraction:
    return Fraction((p - 1) * x * (x - 1), 2 * d)


def check_charfn(p: int, d: int, payload: dict) -> None:
    """T-adic floor (p-1)k(k-1)/2d and unit contact at 0, 1, d, d+1, 2d, 2d+1."""
    rows = payload["rows"]
    mod = p ** payload["digits"]
    t_order, s_order = payload["t_order"], payload["s_order"]
    _require(len(rows) == s_order + 1, f"charfn: {len(rows)} rows for s-order {s_order}")
    for k, row in enumerate(rows):
        floor = ceil(hodge_floor(p, d, k))
        for t in range(min(floor, len(row))):
            _require(row[t] % mod == 0, f"charfn: s^{k} T^{t} is nonzero below the floor {floor}")
    for x in sorted({0, 1, d, d + 1, 2 * d, 2 * d + 1}):
        if x > s_order:
            continue
        floor = hodge_floor(p, d, x)
        _require(floor.denominator == 1, f"charfn: floor at x = {x} is not integral")
        if floor < min(t_order, len(rows[x])):
            _require(rows[x][int(floor)] % p != 0, f"charfn: s^{x} T^{floor} is not a unit")


# ---------------------------------------------------------------------------
# slope blocks

def block_law(p: int, a: int, base: list[Fraction], i: int) -> Counter:
    """Slopes of block i at every level in the annulus: e0(i-1) and e0(i-1+alpha)."""
    e0 = a * (p - 1)
    out = Counter({Fraction(e0 * (i - 1)): 1})
    for alpha in base:
        out[e0 * (i - 1 + alpha)] += 1
    return out


def _known(series: list[int], prec: int) -> int:
    """T-valuation of a series known mod T^prec (prec if it reads zero)."""
    return next((t for t, c in enumerate(series[:prec]) if c), prec)


def factor_product(blocks: list[dict], n_t: int, mod: int):
    """Product of the block factors as {s-degree: (T-coefficients, precision)}.

    Coefficient j of each factor is known modulo T^len; a product of two
    series known mod T^wa and T^wb with valuations va, vb is known mod
    T^min(wa + vb, wb + va).
    """
    prod = {0: ([1] + [0] * (n_t - 1), n_t)}
    for block in blocks:
        fac = [(list(c) + [0] * max(0, n_t - len(c)), len(c)) for c in block["coefficients"]]
        new: dict = {}
        for n, (A, wa) in prod.items():
            va = _known(A, wa)
            for j, (B, wb) in enumerate(fac):
                vb = _known(B, wb)
                w = min(wa + vb, wb + va, n_t)
                C = [0] * n_t
                for s in range(va, w):
                    if A[s]:
                        for t in range(vb, w - s):
                            C[s + t] += A[s] * B[t]
                old, wo = new.get(n + j, ([0] * n_t, n_t))
                new[n + j] = ([(x + y) % mod for x, y in zip(old, C)], min(wo, w))
        prod = new
    return prod


def check_blocks(p: int, a: int, f_lead: list[int], payload: dict, charfn: dict) -> None:
    """Block slope law at every reported level, and the product of the
    factors against a separate characteristic series.

    With C = P * R for P the product of the first c blocks, R's polygon is
    C's polygon right of x = cd, which lies on or above the Hodge floor H
    and touches it at cd. So C_n - P_n = sum_j P_{n-j} R_j has T-valuation
    at least min_j H(n-j) + H(cd+j) - H(cd): inside that window, and inside
    the precision the factors carry, C_n and P_n must agree.
    """
    d = len(f_lead) - 1
    _require(stable_level(p, a, d) == 1, "checks assume the base level m0 = 1")
    base = base_slopes(p, a, f_lead)
    blocks = payload["blocks"]
    c = payload["components"]
    _require(len(blocks) == c, f"eigencurve: {len(blocks)} blocks for {c} components")
    for i, block in enumerate(blocks, start=1):
        want = block_law(p, a, base, i)
        levels = [lvl["m"] for lvl in block["law"]["levels"]]
        _require(levels == payload["levels"], f"block {i}: levels {levels} != {payload['levels']}")
        for lvl in block["law"]["levels"]:
            got = _multiset(lvl["slopes"])
            _require(got == want, f"block {i} level {lvl['m']}: slopes {sorted(got.elements())} != law {sorted(want.elements())}")

    rows = charfn["rows"]
    n_t = charfn["t_order"]
    digits = min(charfn["digits"], *(b["p_digits"] for b in blocks))
    mod = p**digits
    cd = c * d
    corner = hodge_floor(p, d, cd)
    _require(corner < n_t and rows[cd][int(corner)] % p != 0, f"charfn: no unit contact at the corner x = {cd}")
    prod = factor_product(blocks, n_t, mod)
    compared = 0
    for n in range(cd + 1):
        Pn, w = prod[n]
        if n:
            tail = min(hodge_floor(p, d, n - j) + hodge_floor(p, d, cd + j) - corner for j in range(1, n + 1))
            w = min(w, ceil(tail))
        for t in range(min(w, n_t)):
            _require(
                (rows[n][t] - Pn[t]) % mod == 0,
                f"eigencurve: product of factors differs from C(T, s) at s^{n} T^{t}",
            )
            compared += 1
    _require(compared > cd + 1, "eigencurve: the certified window holds no digits to compare")
