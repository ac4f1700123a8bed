"""Tower-level arithmetic: point counts, zeta pieces, slope periodicity.

Point counts over each cover come three independent ways -- brute-force
Witt-vector enumeration, the lifted-trace histogram, and a full character
sum -- and the slope verdicts compare exact Newton-polygon multisets, so a
single wrong digit anywhere upstream shows up as a mismatch here.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

from . import gf
from .errors import ConfigError, DegreeViolation, VerificationError
from .expsum import (
    TowerSpec,
    character_sum,
    l_degree,
    l_series,
    newton_from_cyclotomic,
    q_normalization,
    trace_histogram,
)
from .newton import NewtonPolygon
from .padic import CycInt, vp
from .series import TruncSeries

# ---------------------------------------------------------------------------
# length-2 Witt arithmetic over a finite field of characteristic p

_CARRY: dict[int, tuple[int, ...]] = {}


def _carry_coeffs(p: int) -> tuple[int, ...]:
    """C(p,i)/p for 0 < i < p: the integer carry polynomial coefficients."""
    if p not in _CARRY:
        _CARRY[p] = tuple(math.comb(p, i) // p for i in range(1, p))
    return _CARRY[p]


def _scalar(x: gf.FqElt, n: int) -> gf.FqElt:
    p = x.ctx.p
    return gf.FqElt(x.ctx, tuple(c * n % p for c in x.coeffs))


def witt_add(p: int, u, v):
    if len(u) != len(v) or len(u) not in (1, 2):
        raise ConfigError("witt vectors must both have length 1 or 2")
    if len(u) == 1:
        return (u[0] + v[0],)
    a0, a1 = u
    b0, b1 = v
    s1 = a1 + b1
    apow = a0
    bpows = [b0]
    for _ in range(p - 2):
        bpows.append(bpows[-1] * b0)
    for i, ci in enumerate(_carry_coeffs(p), start=1):
        s1 = s1 - _scalar(apow * bpows[p - 1 - i], ci)
        if i < p - 1:
            apow = apow * a0
    return (a0 + b0, s1)


def witt_neg(p: int, u):
    if len(u) == 1:
        return (-u[0],)
    a0, a1 = u
    n0 = -a0
    n1 = -a1
    apow = a0
    npows = [n0]
    for _ in range(p - 2):
        npows.append(npows[-1] * n0)
    for i, ci in enumerate(_carry_coeffs(p), start=1):
        n1 = n1 + _scalar(apow * npows[p - 1 - i], ci)
        if i < p - 1:
            apow = apow * a0
    return (n0, n1)


def witt_sub(p: int, u, v):
    return witt_add(p, u, witt_neg(p, v))


def witt_frobenius(u):
    return tuple(c.frobenius() for c in u)


# ---------------------------------------------------------------------------
# counting rational points on the m-th cover, three ways

def count_points_witt(spec: TowerSpec, m: int, k: int) -> int:
    """Brute force: #{(x, y) : F(y) - y = sum_i (b_i x^i, 0)} over F_{q^k}.

    The right side is the Witt sum of the monomials' Teichmuller lifts, the
    image of f-hat(x-hat) in W_m.  Every y in W_m is enumerated once and its
    F(y) - y bucketed, so each x costs one lookup.
    """
    if m not in (1, 2):
        raise ConfigError("direct Witt enumeration implemented for m <= 2")
    ctx = spec.ctx if k == 1 else gf.FieldCtx(spec.p, spec.a * k)
    monos = [
        (i, b if k == 1 else gf.embed_element(spec.ctx, b, ctx))
        for i, b in spec.monomials()
    ]
    p = spec.p
    Q = ctx.order
    if Q**m * Q > 4 * 10**6:
        raise ConfigError("field too large for honest enumeration")
    elts = list(ctx.elements())
    frob = {c: c.frobenius() for c in elts}
    wp = Counter(
        witt_sub(p, tuple(frob[c] for c in y), y)
        for y in itertools.product(elts, repeat=m)
    )
    zero = ctx.zero()
    count = 0
    for x in elts:
        target = (zero,) * m
        for i, b in monos:
            target = witt_add(p, target, (b * x**i, zero)[:m])
        count += wp[target]
    return count


def count_points_trace(spec: TowerSpec, m: int, k: int) -> int:
    """p^m * #{x : lifted trace vanishes mod p^m}, zero fiber included."""
    hist = trace_histogram(spec, k, m).reduce(m)
    zeros = hist.counts.get(0, 0)
    if hist.zero_cell == 0:
        zeros += 1
    return spec.p**m * zeros


def count_points_char(spec: TowerSpec, m: int, k: int) -> int:
    """Same count through the full character sum; must land in Z."""
    hist = trace_histogram(spec, k, m)
    p = spec.p
    total = CycInt.from_int(p, m, spec.q**k)  # trivial character
    for c in range(1, p**m):
        v = vp(c, p)
        s = character_sum(hist, m - v, c // p**v, include_zero=True)
        total = total + s.embed(m)
    return total.rational_value()


# ---------------------------------------------------------------------------
# zeta numerator assembly and genus

def genus_double(spec: TowerSpec, m: int) -> int:
    """2g of the m-th cover (smooth projective model)."""
    p = spec.p
    t1 = spec.d * ((p ** (2 * m) - 1) // (p * p - 1))
    val = (p - 1) * t1 - (p**m - 1)
    assert val >= 0
    return val


def assemble_block(spec: TowerSpec, m: int) -> list[int]:
    """Product over primitive characters of level m: an integer polynomial."""
    L = l_series(spec, m)
    deg = l_degree(spec, m)
    phi = (spec.p - 1) * spec.p ** (m - 1)
    target = phi * deg
    zero = CycInt.zero(spec.p, m)
    padded = list(L.coeffs) + [zero] * (target + 1 - len(L.coeffs))
    prod = None
    for c in range(1, spec.p**m):
        if c % spec.p == 0:
            continue
        factor = TruncSeries("s", [a.conjugate(c) for a in padded])
        prod = factor if prod is None else prod * factor
    out = [a.rational_value() for a in prod.coeffs]
    if out[target] == 0:
        raise DegreeViolation(f"level-{m} block degenerates below degree {target}")
    return out


def zeta_numerator(spec: TowerSpec, m: int) -> list[int]:
    """Numerator of the zeta function of the m-th cover: product of blocks.

    Degree must equal 2g; that single integer ties the L-series, the Witt
    point counts, and the ramification bookkeeping together.
    """
    acc = [1]
    for level in range(1, m + 1):
        block = assemble_block(spec, level)
        out = [0] * (len(acc) + len(block) - 1)
        for i, ai in enumerate(acc):
            if ai:
                for j, bj in enumerate(block):
                    out[i + j] += ai * bj
        acc = out
    if len(acc) - 1 != genus_double(spec, m):
        raise DegreeViolation(
            f"zeta numerator degree {len(acc) - 1} != 2g = {genus_double(spec, m)}"
        )
    return acc


# ---------------------------------------------------------------------------
# slope periodicity

def stable_level(spec: TowerSpec) -> int:
    """Smallest level at which the slope recursion locks in:
    minimal m with p^{m-1} >= a (d-1)^2 / (8d)."""
    p = spec.p
    bound = Fraction(spec.a * (spec.d - 1) ** 2, 8 * spec.d)
    m = 1
    while p ** (m - 1) < bound:
        m += 1
    return m


def l_newton(spec: TowerSpec, m: int, c: int = 1) -> NewtonPolygon:
    """q-adic Newton polygon of the exact level-m L-series."""
    L = l_series(spec, m, c)
    return newton_from_cyclotomic(
        L.coeffs,
        scale=q_normalization(spec.p, spec.a, m),
        source=f"q-adic level {m}",
    )


def base_slopes(spec: TowerSpec) -> list[Fraction]:
    """q-adic slopes at the stable level; everything higher is predicted
    from these by rescaled translation."""
    return l_newton(spec, stable_level(spec)).slopes()


def predicted_slopes(spec: TowerSpec, m: int, base=None) -> Counter:
    m0 = stable_level(spec)
    if m < m0:
        raise ConfigError(f"prediction applies from level {m0} on, got {m}")
    if base is None:
        base = base_slopes(spec)
    P = spec.p ** (m - m0)
    out: Counter = Counter()
    for i in range(P):
        out[Fraction(i, P)] += 1
        for aj in base:
            out[Fraction(aj + i, P)] += 1
    out[Fraction(0)] -= 1
    if out[Fraction(0)] == 0:
        del out[Fraction(0)]
    return out


def actual_slopes(spec: TowerSpec, m: int, c: int = 1) -> Counter:
    return l_newton(spec, m, c).slope_multiset()


def verify_periodicity(spec: TowerSpec, m_max: int) -> dict:
    """Exact multiset comparison of predicted vs computed slopes per level."""
    m0 = stable_level(spec)
    base = base_slopes(spec)
    levels = []
    all_ok = True
    for m in range(m0, m_max + 1):
        pred = predicted_slopes(spec, m, base)
        act = actual_slopes(spec, m)
        ok = pred == act
        all_ok = all_ok and ok
        rows = []
        for s in sorted(set(pred) | set(act)):
            rows.append(
                {
                    "slope": [s.numerator, s.denominator],
                    "predicted": pred.get(s, 0),
                    "computed": act.get(s, 0),
                    "ok": pred.get(s, 0) == act.get(s, 0),
                }
            )
        levels.append({"m": m, "ok": ok, "slopes": rows})
    return {"stable_level": m0, "ok": all_ok, "levels": levels}


def periodicity_csv(report: dict) -> str:
    lines = ["m,slope_num,slope_den,predicted,computed,ok"]
    for lvl in report["levels"]:
        for row in lvl["slopes"]:
            lines.append(
                f"{lvl['m']},{row['slope'][0]},{row['slope'][1]},"
                f"{row['predicted']},{row['computed']},{str(row['ok']).lower()}"
            )
    return "\n".join(lines) + "\n"


def l_hodge_polygon(d_eff: int, width: int) -> NewtonPolygon:
    """Lower bound polygon for a level's L-series: slopes k/d_eff, k >= 1."""
    return NewtonPolygon(
        [(k, Fraction(k * (k + 1), 2 * d_eff)) for k in range(width + 1)],
        source="hodge",
    )


def verify_hodge(spec: TowerSpec, m: int) -> dict:
    """q-adic polygon of the level-m L-series against its lower bound."""
    poly = l_newton(spec, m)
    deg = l_degree(spec, m)
    bound = l_hodge_polygon(spec.p ** (m - 1) * spec.d, deg)
    ok = poly.dominates(bound)
    if not ok:
        raise VerificationError("computed polygon dips below the Hodge bound")
    return {
        "m": m,
        "ok": ok,
        "touch": poly.touch_points(bound),
        "vertices": poly.to_json()["vertices"],
    }


def cross_check_counts(spec: TowerSpec, m: int, k: int) -> dict:
    """All three point counts for the m-th cover over the k-th extension."""
    via_trace = count_points_trace(spec, m, k)
    via_char = count_points_char(spec, m, k)
    out = {"m": m, "k": k, "trace": via_trace, "character": via_char}
    if m <= 2 and spec.q ** (k * (m + 1)) <= 4 * 10**6:
        out["witt"] = count_points_witt(spec, m, k)
    values = {v for key, v in out.items() if key not in ("m", "k")}
    if len(values) != 1:
        raise VerificationError(f"point counts disagree: {out}")
    out["ok"] = True
    return out
