"""Slope-block factorization of the characteristic series and weight laws.

The bivariate characteristic series factors over Z_p[[T]] into blocks, one
per polygon segment between consecutive block corners x = i*d.  A graded
elimination solves the T-digits of the leading blocks all at once from the
product equations; the lower factor through the vertex i*d is the product of
the first i blocks, each T-expansion kept on the window its inputs certify.
The T-order, s-order and character levels of a run are planned here from the
tower's base slopes.

Specializing the parameter at a finite character's uniformizer pi then turns
each block into a polynomial over Z_p[pi], read in the pi-basis, whose Newton
polygon must reproduce the level-independent slope law -- verified by exact
multiset comparison.
"""

from __future__ import annotations

import itertools
import math
from collections import Counter
from fractions import Fraction

import numpy as np

from .dwork import ELIMINATION_BYTES
from .errors import (
    BudgetExceeded,
    ConfigError,
    InsufficientPrecision,
    NoGapAtVertex,
    VerificationError,
    WeightOutsideAnnulus,
)
from .expsum import observed_polygon
from .gf import convolve, int_dtype, reduce_mod
from .newton import NewtonPolygon, lower_hull
from .padic import eisenstein, phi_pm, pi_valuation
from .tower import base_slopes, stable_level


class BlockFactor:
    """Lower factor of the characteristic series at one polygon vertex.

    coeffs[k] is the T-digit row of the s^k coefficient mod p^digits
    (constant row [1, 0, ...]); t_digits says how far the rows are certified.
    """

    __slots__ = ("vertex", "p", "digits", "t_digits", "coeffs")

    def __init__(self, vertex, p, digits, t_digits, coeffs):
        self.vertex = vertex
        self.p = p
        self.digits = digits
        self.t_digits = t_digits
        self.coeffs = coeffs


# ---------------------------------------------------------------------------
# window planning: block corners, T/s-orders and character levels

def _slope_step(spec) -> int:
    """pi-adic slope step between blocks, a(p-1)p^{m0-1}."""
    return spec.a * phi_pm(spec.p, stable_level(spec))


def corner_y(spec, i: int) -> int:
    """T-adic hull height at the block corner x = i*d.

    Block j has slopes e0*(j-1) once and e0*(j-1+alpha) for each base slope
    alpha, so the corners are integral; the ceiling is only a guard.
    """
    e0 = _slope_step(spec)
    s_alpha = sum(base_slopes(spec), Fraction(0))
    return math.ceil(e0 * (Fraction(spec.d * i * (i - 1), 2) + i * s_alpha))


def block_window(spec, count: int, t_order=None, s_order=None) -> tuple[int, int]:
    """(T-order, s-order) that pins the first `count` blocks; None plans it.

    The s-order reaches one column past the last corner so that x = count*d
    is interior; the T-order anchors the hull there, e0*count past the corner.
    """
    if max(base_slopes(spec), default=0) >= 1:
        raise ConfigError("no slope gap at block vertices for this tower")
    if t_order is None:
        t_order = corner_y(spec, count) + _slope_step(spec) * count + 2
    if s_order is None:
        s_order = count * spec.d + 1
    return t_order, s_order


def pick_levels(spec, blocks, p_digits: int, levels=None) -> list[int]:
    """Character levels for the weight law on a factor spanning `blocks`.

    None plans them: the smallest annulus level whose cap p_digits*e exceeds
    the factor's deepest specialized reading, its top corner's height above
    the bottom one, so every hull point stays exact, and the level above it.
    """
    if levels is not None:
        return levels
    h_max = corner_y(spec, max(blocks)) - corner_y(spec, min(blocks) - 1)
    m = stable_level(spec)
    while p_digits * phi_pm(spec.p, m) <= h_max:
        m += 1
    return [m, m + 1]


# ---------------------------------------------------------------------------
# graded elimination: all leading blocks at once from deep-T data
#
# The deeper blocks' defining digits sit at large T-valuation in
# coefficients of *small* s-degree.  Working directly with the product
# equations
#     C_n = sum  b[0,j0] b[1,j1] ... b[count-1,j_{count-1}] m[jm]
# in the T-digit grading recovers exactly the digits the data determines.
# Each unknown T-digit is solved only when some equation digit pins it with
# a p-unit cofactor and no other unknown in reach; equation digits with no
# unknown left are checked against C, so the run doubles as a digit-level
# verification of the factorization and of the polygon floors.

def _hull_eval(poly: NewtonPolygon, x: int) -> Fraction:
    """Hull height, extended past the data range at the last slope."""
    if x <= poly.vertices[-1][0]:
        return poly.y_at(x)
    (x0, y0), (x1, y1) = poly.vertices[-2], poly.vertices[-1]
    return Fraction(y1) + Fraction(y1 - y0, x1 - x0) * (x - x1)


def nested_block_factors(C, block_size: int, count: int):
    """Factor the first `count` polygon blocks out of C simultaneously.

    Returns (factors, stats): one degree-`block_size` BlockFactor per block,
    each coefficient stamped with the digit window the elimination actually
    certified, plus counters (solved digits, verified equation digits,
    sweeps).  Raises if a block corner is not an interior vertex (a precision
    shortfall when it is not left of the last vertex the T-window shows), if
    a coefficient under a vertex is not unit-leading, or if the data ran out
    before the leading digit of some b[i, block_size].
    """
    d = block_size
    cols = C.coeffs
    K = len(cols) - 1
    if count < 1 or d < 1:
        raise ConfigError("need block_size >= 1 and count >= 1")
    if K < count * d + 1:
        raise ConfigError(
            f"s-order {K} cannot pin {count} blocks of degree {d}: "
            f"need at least {count * d + 1}"
        )
    p = cols[0].p
    digits = min(c.prec for c in cols)
    mod = p**digits
    N = max(len(c.coeffs) for c in cols)
    need = elimination_bytes(d, count, K, N, mod)
    if need > ELIMINATION_BYTES:
        raise BudgetExceeded(
            f"elimination of {count} blocks of degree {d} at (t_order {N}, s_order {K}) "
            f"needs about {need} bytes, over the budget of {ELIMINATION_BYTES}"
        )
    # C_0 must be 1 mod p^digits: digit t of it is 1 at t = 0, else 0
    if any(cf % mod != (t == 0) for t, cf in enumerate(cols[0].coeffs)):
        raise VerificationError("constant term of the series is not 1")

    poly = observed_polygon(C)
    xs = [x for x, _ in poly.vertices]
    for v in range(d, count * d + 1, d):
        if v >= xs[-1]:
            raise InsufficientPrecision(
                f"corner x = {v} is not left of the last vertex x = {xs[-1]} "
                f"seen at T-order {N}; raise the T-order"
            )
        if v not in xs:
            raise NoGapAtVertex(f"x = {v} is not an interior vertex of {xs}")
    corner = [_hull_eval(poly, i * d) for i in range(count + 1)]
    if any(y.denominator != 1 for y in corner):
        raise VerificationError("block corner heights are not integral")

    # slots: (i, j) = coefficient j of block i; i == count is the tail,
    # whose coefficients run to s^K
    floors = {
        (i, j): math.ceil(_hull_eval(poly, i * d + j) - corner[i])
        for i in range(count + 1)
        for j in range(1, (K if i == count else d) + 1)
    }

    # terms list their slots in block order, so a slot tuple is canonical;
    # the tail slot (count, n - s_deg) closes each term of s-degree n
    terms: list = [[] for _ in range(K + 1)]
    for jv in itertools.product(range(d + 1), repeat=count):
        s_deg = sum(jv)
        base_fs = tuple((i, j) for i, j in enumerate(jv) if j)
        for n in range(max(s_deg, 1), K + 1):
            terms[n].append(base_fs + ((count, n - s_deg),) * (n > s_deg))

    rows = [[cf % mod for cf in col.coeffs] for col in cols]
    vals, mark, solved_digits, checks, sweeps = _eliminate(rows, terms, floors, p, mod)

    factors = []
    for i in range(count):
        coeffs = [[1] + [0] * (N - 1)]
        for j in range(1, d + 1):
            phi = floors[i, j]
            got = mark[i, j]
            if j == d and got <= phi:
                raise InsufficientPrecision(
                    f"block {i}: leading digit of the s^{d} coefficient "
                    f"(T^{phi}) was not reachable; raise the T-order"
                )
            # a vertex of C must be attained; an interior lattice point of
            # a segment need not be
            if i * d + j in xs and got > phi and int(vals[i, j][phi]) % p == 0:
                raise VerificationError(
                    f"block {i}: coefficient at s^{j} under a vertex is not "
                    "unit-leading"
                )
            coeffs.append(vals[i, j][:got].tolist())
        # vertex, p, digits, t_digits, coefficients
        factors.append(BlockFactor(d, p, digits, min(mark[i, j] for j in range(1, d + 1)), coeffs))
    stats = {
        "solved_digits": solved_digits,
        "verified_digits": checks,
        "sweeps": sweeps,
        "orders": {f"{i},{j}": got for (i, j), got in mark.items() if i < count},
        "tail_orders": [got for (i, _), got in mark.items() if i == count],
    }
    return factors, stats


def elimination_bytes(d: int, count: int, K: int, N: int, mod: int) -> int:
    """A bound on the bytes nested_block_factors holds for `count` blocks of
    degree d at s-order K > count*d and T-order N, counted before any term
    is built.

    A term is a block choice jv in {0..d}^count, of s-degree s = sum(jv)
    with z nonzero entries, closed by a tail slot: one term of z slots at
    s^s if s > 0, and K - s terms of z + 1 slots above it.  A term of L
    slots has 2^L - 1 splits, each an entry of the three split arrays and
    of cid, and 2^(L-1) of them hold each of its slots.  T and the term
    tuples take a row per term, and kval a row of N digits per known
    product: one per term, and the empty one.  holds is built slot by slot
    through an index intermediate and its mask of 2^count columns, a row
    per term holding the slot; a block slot at j = 1 is in the most terms,
    occ of them, and in as many products, whose rows a solved digit updates
    through three temporaries.  The mixed-radix lookup has (d + 1)^count
    (K + 1) entries.  Value rows hold int64, or Python ints below mod.
    """
    shapes = {(0, 0): 1}  # (z, s) -> block choices of that shape
    for _ in range(count):
        grown: Counter = Counter()
        for (z, s), n in shapes.items():
            for j in range(d + 1):
                grown[z + (j > 0), s + j] += n
        shapes = grown
    # K - s' terms per choice of the other count - 1 blocks, whose s-degrees
    # s' average (count - 1) d / 2
    occ = (d + 1) ** (count - 1) * (2 * K - (count - 1) * d) // 2
    nterms = splits = holds = 0
    for (z, s), n in shapes.items():
        for L, many in ((z, s > 0), (z + 1, K - s)):
            nterms += n * many
            splits += n * many * ((1 << L) - 1)
            holds += n * many * (L << L) // 2
    wide = int_dtype(max(2 * (mod - 1), (d + 1) ** count) * (mod - 1)) is object
    cell = 40 + mod.bit_length() // 7 if wide else 8
    return (
        32 * splits  # reach_sum, cnum, lone and cid
        + 8 * holds + 17 * (occ << count)  # holds, one slot's intermediate and mask
        + nterms * (208 + 24 * (count + 1))  # the term tuples, T and the per-term vectors
        + 48 * (d + 1) ** count * (K + 1)  # the lookup and the holders' number ranges
        + cell * N * (nterms + 1 + 3 * occ + count * d + 2 * (K + 1))  # kval and the rest
        + 300 * (K + 1) * N  # the digit rows of C and the verdicts
        + 2**20
    )


def _eliminate(rows, terms, floors, p: int, mod: int):
    """Solve slot digits from the product equations C_n = sum of terms[n].

    rows[n] holds the known T-digits of C_n mod `mod`, terms[n] the slot
    tuples of its products and floors[slot] the first digit a slot may
    carry.  Sweeps visit every equation digit (n, w), w outer, until one
    solves nothing.  Returns (vals, mark, solved, checks, sweeps): each
    slot's digit row and first unsolved digit, the digits solved, the
    digits verified in the last sweep and the sweep count.

    A known-part product holds at most one slot (i, j) per block i, so it
    is named by the mixed-radix number sum_i j w_i, w_i the product of the
    radices (largest j + 1) of the blocks before i; the numbers in use get
    ids in number order, the empty product 0.  A term splits into an
    unknown subset sel and its known complement, one split per nonzero bit
    mask of its slot positions, stored term by term, so that equation n
    owns the segment edge[n]:edge[n + 1] of the split arrays.  A split
    reaches digit w past its known part (an unknown digit beyond the first,
    or a product of two unknowns) from its reach sum, sum(marks[sel]) + 1
    if sel is one slot, plus the first nonzero digit of its complement on.
    The reach sums are kept current (a solved digit adds 1 wherever its
    slot is unknown), so an equation's reach, the least such w over its
    splits, is one add and min over its own segment.
    """
    K = len(rows) - 1
    N = max(map(len, rows))
    slots = list(floors)
    S = len(slots)
    sid = {f: k for k, f in enumerate(slots)}
    # slot S pads the term rows; its mark keeps it out of reach
    marks = np.array([*floors.values(), 2 * N])
    radix = {i: j + 1 for i, j in sorted(slots)}
    weight, span = {}, 1
    for i, r in radix.items():
        weight[i], span = span, span * r
    sval = np.array([j * weight[i] for i, j in slots] + [0])
    flat = list(itertools.chain(*terms))
    width = max(map(len, flat))
    T = np.array([[sid[f] for f in fs] + [S] * (width - len(fs)) for fs in flat])
    tnum = sval[T].sum(1)
    nsplit = np.array([(1 << len(fs)) - 1 for fs in flat])
    start = np.cumsum(nsplit) - nsplit
    edge = [0, *itertools.accumulate(sum((1 << len(fs)) - 1 for fs in t) for t in terms)]
    # split m - 1 of a term selects the positions of the bits of m; lone
    # names the slot of a one-slot split (else S)
    reach_sum, cnum, lone = np.full((3, edge[-1]), S)
    for m in range(1, 1 << width):
        pos = [u for u in range(width) if m >> u & 1]
        R = np.flatnonzero(nsplit >= m)
        sel = T[R[:, None], pos]
        at = start[R] + m - 1
        reach_sum[at] = marks[sel].sum(1) + int(len(pos) == 1)
        cnum[at] = tnum[R] - sval[sel].sum(1)
        if len(pos) == 1:
            lone[at] = sel[:, 0]
    used = np.bincount(np.append(cnum, tnum), minlength=span)
    lut = np.where(used > 0, 1, 0).cumsum() - 1
    cid = lut[cnum]
    # per slot f: the splits holding f unknown; the products holding f
    # with the same products without f, whose digits a new digit of f
    # scales into them; the equations holding f with the rest of each of
    # their terms holding f, grouped by equation, and each group's start
    pick = np.array([[m - 1 for m in range(1, 1 << width) if m >> u & 1] for u in range(width)])
    term_eq = np.array([n for n, t in enumerate(terms) for _ in t])
    holds, holders, rests = [], [], []
    for k, (i, j) in enumerate(slots):
        t, u = np.nonzero(T == k)
        holds.append((start[t][:, None] + pick[u])[pick[u] < nsplit[t][:, None]])
        cs = np.arange(span).reshape(-1, radix[i], weight[i])[:, j].ravel()
        cs = cs[used[cs] > 0]
        holders.append((lut[cs], lut[cs - sval[k]]))
        eq = term_eq[t]
        at = np.flatnonzero(np.diff(eq, prepend=-1))
        rests.append((eq[at].tolist(), lut[tnum[t] - sval[k]], at))
    del T, used

    # Entries stay reduced mod `mod`.  A rank-1 update x*a + b is at most
    # mod (mod - 1) <= 2 (mod - 1)^2, and an acc_row gain sums at most
    # len(terms[n]) residues, so int64 is exact under that bound < 2^62;
    # past it, Python ints in numpy.
    dtype = int_dtype(max(2 * (mod - 1), max(map(len, terms))) * (mod - 1))
    val = np.zeros((S, N), dtype=dtype)
    # every slot starts at zero, so every product but the empty one does
    kval = np.zeros((int(lut[-1]) + 1, N), dtype=dtype)
    kval[0, 0] = 1
    kfirst = np.full(len(kval), N)
    kfirst[0] = 0
    acc_row = np.zeros((K + 1, N), dtype=dtype)

    # The verdict of an equation digit that solved nothing (skipped, or a
    # verified check) and the equation's reach hold until some slot of its
    # terms gains a digit, which bumps the equation's version.
    version = [0] * (K + 1)
    reach = [(-1, 0)] * (K + 1)
    verdict: dict = {}
    solved_digits = checks = sweeps = 0
    progress = True
    while progress:
        progress = False
        sweeps += 1
        checks = 0
        for w in range(N):
            for n in range(1, K + 1):
                if w >= len(rows[n]):
                    continue
                seen = verdict.get((n, w))
                if seen is not None and seen[0] == version[n]:
                    checks += seen[1]
                    continue
                verdict[n, w] = (version[n], 0)
                a, b = edge[n], edge[n + 1]
                if reach[n][0] != version[n]:
                    reach[n] = (version[n], int((reach_sum[a:b] + kfirst[cid[a:b]]).min()))
                if w >= reach[n][1]:
                    continue
                # the pivot of slot f sums the complements of its one-slot
                # splits at digit w - marks[f]; each is zero below its first
                # nonzero digit v, and marks[f] + v + 1 >= reach, so below
                # the reach only w = reach - 1 can carry a pivot
                live = []
                if w == reach[n][1] - 1:
                    piv = Counter()
                    hit = a + np.flatnonzero(marks[lone[a:b]] + kfirst[cid[a:b]] == w)
                    for f, c in zip(lone[hit].tolist(), cid[hit].tolist()):
                        piv[f] += int(kval[c, w - marks[f]])
                    live = [(f, v % mod) for f, v in piv.items() if v % mod]
                    if any(v % p == 0 for _, v in live):
                        continue
                rhs = (rows[n][w] - int(acc_row[n, w])) % mod
                if not live:
                    if rhs:
                        raise VerificationError(
                            f"factor product disagrees with the series at "
                            f"s^{n} T^{w}"
                        )
                    checks += 1
                    verdict[n, w] = (version[n], 1)
                    continue
                if len(live) > 1:
                    continue
                f, v = live[0]
                x = rhs * pow(v, -1, mod) % mod
                m0 = marks[f]
                val[f, m0] = x
                marks[f] += 1
                reach_sum[holds[f]] += 1
                solved_digits += 1
                progress = True
                # each term holding f gains x T^m0 times the rest of it
                eqs, rest, at = rests[f]
                gain = np.add.reduceat(kval[rest, : N - m0], at) % mod
                acc_row[eqs, m0:] = (acc_row[eqs, m0:] + x * gain) % mod
                cs, ps = holders[f]
                kval[cs, m0:] = (kval[cs, m0:] + x * kval[ps, : N - m0]) % mod
                kfirst[cs] = np.where(kval[cs] != 0, np.arange(N), N).min(1)
                for tn in eqs:
                    version[tn] += 1
    return dict(zip(slots, val)), dict(zip(slots, marks.tolist())), solved_digits, checks, sweeps


def _lead(row) -> int:
    return next((t for t, x in enumerate(row) if x), len(row))


def block_product(factors) -> BlockFactor:
    """Product of block factors: the lower factor through their last corner.

    A T-expansion a known mod T^wa times b known mod T^wb is known mod
    T^min(wa + vb, wb + va), v being the index of the first nonzero known
    digit (w if there is none), and each product coefficient keeps the least
    window over its terms.  Cutting every term to min(wa, wb), as truncated
    series multiplication does, would lose the digits that a deep leading
    coefficient certifies.
    """
    p = factors[0].p
    digits = min(f.digits for f in factors)
    mod = p**digits
    acc = [[c % mod for c in row] for row in factors[0].coeffs]
    for f in factors[1:]:
        b = [[c % mod for c in row] for row in f.coeffs]
        win: dict = {}
        for j, x in enumerate(acc):
            for k, y in enumerate(b):
                w = min(len(x) + _lead(y), len(y) + _lead(x))
                win[j + k] = min(win.get(j + k, w), w)
        out = [[0] * win[n] for n in range(len(win))]
        # digits past a window meet the other factor's valuation, so the
        # known digits alone fill the product window
        for j, x in enumerate(acc):
            for k, y in enumerate(b):
                row = out[j + k]
                for s, c in enumerate(convolve(x, y, len(row))):
                    row[s] += c
        acc = [[c % mod for c in row] for row in out]
    return BlockFactor(len(acc) - 1, p, digits, min(map(len, acc[1:])), acc)


# ---------------------------------------------------------------------------
# weight specialization and the slope law

def specialize_block(factor: BlockFactor, m: int):
    """Read the block at the level-m uniformizer pi = zeta - 1, in the pi-basis.

    Returns (digits, caps), parallel lists: each coefficient's pi-digits mod
    p^digits, its T-row reduced (only if some row reaches pi^e) modulo the
    Eisenstein E_m(pi) = Phi_{p^m}(1 + pi) of degree e = phi(p^m), and the
    depth its reading is certified to.  A digit dropped mod p^digits weighs
    at least digits*e, and a dropped T-tail O(T^n) specializes to O(pi^n),
    so a reading at or above min(digits*e, known T-digits) is a floor."""
    p, e = factor.p, phi_pm(factor.p, m)
    mod = p**factor.digits
    rows = factor.coeffs
    if max(map(len, rows)) > e:
        E = eisenstein(p, m, mod)
        rows = [reduce_mod(row, E, mod) for row in rows]
    return rows, [min(factor.digits * e, len(row)) for row in factor.coeffs]


def predicted_block_slopes(spec, block_index: int) -> Counter:
    """Level-independent pi-adic slopes of block i: a(p-1)p^{m0-1}(i-1+alpha)."""
    e0 = _slope_step(spec)
    out: Counter = Counter()
    out[Fraction(e0 * (block_index - 1))] += 1
    for alpha in base_slopes(spec):
        out[e0 * (block_index - 1) + e0 * alpha] += 1
    return out


def verify_weight_slope_law(spec, factor: BlockFactor, blocks, levels) -> dict:
    """Exact slope multisets of the specialized factor across character levels.

    The law: the pi-adic polygon of the factor is one and the same at every
    level in the annulus.  `blocks` lists the polygon blocks the factor is
    claimed to span ([i] for a peeled block i, [1, ..., i] for a lower
    factor split at vertex i*d); the prediction is their union.  Levels below
    the annulus floor are refused, and a hull that the p-precision cannot pin
    all the way to s^degree is a precision error, not a law failure.
    """
    if factor.vertex != spec.d * len(blocks):
        raise ConfigError(
            f"degree-{factor.vertex} factor cannot span {len(blocks)} blocks "
            f"of width {spec.d}"
        )
    if not levels:
        raise ConfigError("no character levels to check the law at")
    floor = stable_level(spec)
    predicted: Counter = Counter()
    for b in blocks:
        predicted += predicted_block_slopes(spec, b)
    results = []
    all_ok = True
    for m in levels:
        if m < floor:
            raise WeightOutsideAnnulus(
                f"level {m} lies outside the annulus (floor {floor})"
            )
        e = phi_pm(spec.p, m)
        rows, caps = specialize_block(factor, m)
        pts = [(k, pi_valuation(b, spec.p, e, c)) for k, (b, c) in enumerate(zip(rows, caps))]
        poly = lower_hull(pts, source=f"pi-adic level {m}")
        if poly.vertices[-1][0] != factor.vertex:
            raise InsufficientPrecision(
                f"level {m}: readings are capped before s^{factor.vertex}; "
                "raise the p-digit precision"
            )
        got = poly.slope_multiset()
        ok = got == predicted
        all_ok = all_ok and ok
        results.append(
            {
                "m": m,
                "ok": ok,
                "slopes": sorted(
                    [s.numerator, s.denominator, mult] for s, mult in got.items()
                ),
            }
        )
    return {
        "blocks": list(blocks),
        "predicted": sorted(
            [s.numerator, s.denominator, mult] for s, mult in predicted.items()
        ),
        "levels": results,
        "ok": all_ok,
    }
