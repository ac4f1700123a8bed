"""Exponential sums over towers of Artin-Schreier-Witt covers: point side.

Everything in this module reduces to one object, the histogram of p-adically
lifted trace values over the rational points of a field extension.  T-adic
sums, finite-character L-series, and the bivariate characteristic series are
all exact ring operations on top of it, which also makes the histogram the
natural unit of caching (see ASW_CACHE_DIR).
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import tempfile
from collections import Counter
from fractions import Fraction

import numpy as np

from . import gf
from .errors import (
    BudgetExceeded,
    ConfigError,
    DegreeNotCoprime,
    DegreeViolation,
    InsufficientPrecision,
    VerificationError,
)
from .newton import NewtonPolygon, lower_hull
from .padic import CycInt, Valuation, ZqCtx, phi_pm, teichmuller, vp_factorial
from .series import TruncSeries, exp_from_power_sums

MAX_POINTS = 2 * 10**7  # hard budget on |field| for histogram enumeration


class TowerSpec:
    """Base data of the tower: prime p, base field F_{p^a}, defining poly.

    `coeffs` are enumeration indices of the base-field elements, ascending
    (so for a = 1 they are plain residues mod p).  The degree must be prime
    to p and the polynomial non-constant.
    """

    __slots__ = ("p", "a", "q", "ctx", "coeffs", "d")

    def __init__(self, p: int, a: int, coeffs, h=None):
        if a < 1:
            raise ConfigError(f"extension degree a = {a} must be positive")
        # the field validates primality and the modulus
        self.ctx = gf.field(p, a, None if h is None else tuple(h))
        self.p = p
        self.a = a
        self.q = p**a
        if bad := [i for i in coeffs if not 0 <= int(i) < self.q]:
            raise ConfigError(f"coefficient {bad[0]} of f out of range [0, {self.q})")
        cs = [int(i) for i in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        if len(cs) < 2:
            raise ConfigError("defining polynomial must have degree >= 1")
        self.coeffs = cs
        self.d = len(cs) - 1
        if self.d % p == 0:
            raise DegreeNotCoprime(f"degree {self.d} divisible by p = {p}")

    def monomials(self):
        """(exponent, coefficient index) pairs with nonzero coefficient."""
        return [(i, b) for i, b in enumerate(self.coeffs) if b]

    def key(self) -> str:
        hs = "-".join(str(c) for c in self.ctx.h)
        fs = "-".join(str(b) for b in self.coeffs)
        return f"p{self.p}_a{self.a}_h{hs}_f{fs}"

    def __repr__(self):
        return f"TowerSpec(p={self.p}, a={self.a}, f_indices={self.coeffs})"


class TraceHistogram:
    """Counts of lifted trace values over the nonzero points of F_{q^k}.

    counts[t] = #{x nonzero : Tr(f-hat(x-hat)) = t mod p^digits}; the trace
    of the lift at x = 0 is kept separately in zero_cell since the punctured
    and affine sums differ exactly by that one point.
    """

    __slots__ = ("p", "k", "digits", "counts", "zero_cell")

    def __init__(self, p: int, k: int, digits: int, counts: dict, zero_cell: int):
        self.p = p
        self.k = k
        self.digits = digits
        self.counts = {int(t): int(c) for t, c in counts.items() if c}
        self.zero_cell = int(zero_cell) % p**digits

    @property
    def total(self) -> int:
        return sum(self.counts.values())

    def reduce(self, digits: int) -> "TraceHistogram":
        if digits > self.digits:
            raise InsufficientPrecision(
                f"histogram holds {self.digits} digits, {digits} requested"
            )
        if digits == self.digits:
            return self
        mod = self.p**digits
        folded: dict[int, int] = {}
        for t, c in self.counts.items():
            folded[t % mod] = folded.get(t % mod, 0) + c
        return TraceHistogram(self.p, self.k, digits, folded, self.zero_cell % mod)

    def to_json(self, spec: TowerSpec) -> dict:
        return {
            "p": self.p,
            "a": spec.a,
            "h": list(spec.ctx.h),
            "f": spec.coeffs,
            "k": self.k,
            "digits": self.digits,
            "zero_cell": self.zero_cell,
            "counts": {str(t): self.counts[t] for t in sorted(self.counts)},
        }

    @classmethod
    def from_json(cls, data: dict) -> "TraceHistogram":
        return cls(
            data["p"],
            data["k"],
            data["digits"],
            {int(t): c for t, c in data["counts"].items()},
            data["zero_cell"],
        )


# ---------------------------------------------------------------------------
# histogram cache

def cache_dir() -> str:
    return os.environ.get("ASW_CACHE_DIR") or os.path.join(
        os.path.expanduser("~"), ".cache", "asw-slopes"
    )


def _cache_name(spec: TowerSpec, k: int, digits: int) -> str:
    return f"hist_{spec.key()}_k{k}_N{digits}.json"


def _read_entry(path: str, spec: TowerSpec, k: int, digits: int):
    """The histogram stored at path, or None if it is not a sound entry.

    An entry that does not parse, that belongs to another tower, extension
    degree or precision, or whose counts do not cover q^k - 1 points is
    treated as absent, so it gets recomputed rather than trusted.
    """
    expected = (spec.p, spec.a, list(spec.ctx.h), spec.coeffs, k, digits)
    try:
        with open(path) as fh:
            data = json.load(fh)
        if tuple(data[key] for key in ("p", "a", "h", "f", "k", "digits")) != expected:
            return None
        hist = TraceHistogram.from_json(data)
    except (OSError, ValueError, KeyError, TypeError, AttributeError):
        return None
    return hist if hist.total == spec.q**k - 1 else None


def _load_cached(spec: TowerSpec, k: int, digits: int):
    cdir = cache_dir()
    prefix = f"hist_{spec.key()}_k{k}_N"  # _cache_name up to the digits
    exact = os.path.join(cdir, f"{prefix}{digits}.json")
    candidates = []
    if os.path.exists(exact):
        candidates.append(digits)
    else:
        try:
            names = os.listdir(cdir)
        except OSError:  # missing or unreadable: an empty cache
            names = []
        for name in names:
            if name.startswith(prefix) and name.endswith(".json"):
                try:
                    n = int(name[len(prefix) : -len(".json")])
                except ValueError:
                    continue
                if n > digits:
                    candidates.append(n)
    for n in sorted(candidates):
        hist = _read_entry(os.path.join(cdir, f"{prefix}{n}.json"), spec, k, n)
        if hist is not None:
            return hist.reduce(digits)
    return None


def _store_cached(spec: TowerSpec, hist: TraceHistogram):
    """Store the entry; a cache that cannot take it is skipped, since the
    cache only ever changes speed."""
    cdir = cache_dir()
    name = _cache_name(spec, hist.k, hist.digits)
    tmp = None
    try:
        os.makedirs(cdir, exist_ok=True)
        # a unique temp name per writer, so concurrent stores never interleave
        fd, tmp = tempfile.mkstemp(prefix=name + ".", suffix=".tmp", dir=cdir)
        with os.fdopen(fd, "w") as fh:
            json.dump(hist.to_json(spec), fh, sort_keys=True)
        os.replace(tmp, os.path.join(cdir, name))
        tmp = None
    except OSError:
        pass
    finally:
        if tmp is not None:
            with contextlib.suppress(OSError):
                os.unlink(tmp)


# ---------------------------------------------------------------------------
# histogram computation

def _trace_pairing(zctx: ZqCtx, bh):
    """n x n matrix S with x . S . y = Tr(b-hat * x * y) for coordinate vectors.

    Entry (l, m) is Tr(b-hat * u^(l+m)), a Hankel matrix in the 2n - 1 traces
    of b-hat * u^e.
    """
    n = zctx.n
    t = [zctx.trace(v) for v in gf.shifts(bh, 2 * n - 1, zctx.H, zctx.mod)]
    return [t[l : l + n] for l in range(n)]


def _powers(zctx: ZqCtx, step, count: int, dtype):
    """Rows step^j for j < count, as a (count, n) array of Z_q/p^N vectors.

    Built by doubling: rows [L, 2L) are rows [0, L) times step^L, one matrix
    product with the matrix whose row m is step^L * u^m, so log2(count)
    products replace count - 1 multiplications in Z_q/p^N.  That matrix is
    step^L times the Hankel stack (i, m) -> u^(i+m) of zctx.pows, and step^L
    times the matrix is (step^L)^2.  Every product has n terms below
    (p^N - 1)^2, the bound trace_histogram proves for dtype.
    """
    n, mod = zctx.n, zctx.mod
    basis = np.array(zctx.pows, dtype=dtype)
    hankel = basis.take([i + m for i in range(n) for m in range(n)], axis=0).reshape(n, n * n)
    P = np.empty((count, n), dtype=dtype)
    P[0] = (1,) + (0,) * (n - 1)
    L, sL = 1, np.asarray(step, dtype=dtype)
    while L < count:
        block = P[L : 2 * L]
        rows = (sL @ hankel).reshape(n, n) % mod
        np.matmul(P[: len(block)], rows, out=block)
        np.remainder(block, mod, out=block)
        L, sL = 2 * L, sL @ rows % mod
    return P


def _histogram(zctx: ZqCtx, ghat, lifted, const: int, Q: int, dtype) -> dict:
    """Counts of const + sum_i Tr(b_i-hat * x-hat^i) over x = g^j, j < Q - 1.

    ghat has order Q - 1, so the sum has period P = (Q - 1)/G in j, with
    G = gcd(Q - 1, every exponent i): each count over j < P is taken G
    times.  For one monomial put h = ghat^i and j = kB + r with B ~ sqrt(P);
    the trace is the bilinear form h^(kB) . S . h^r in the trace pairing S of
    b-hat, so two power tables of about sqrt(P) rows (the last of the B + 1
    baby rows, h^B, steps the giant table) and one (K x n)(n x B) product
    give all P traces; the product takes in the running total (const
    at first) in place.  With int64 and factors below p^N, an entry is n terms
    below (p^N - 1)^2 < 2^62 (the caller's bound) plus a total below p^N.
    """
    mod = zctx.mod
    G = math.gcd(Q - 1, *(i for i, _ in lifted))
    P = (Q - 1) // G
    B = math.isqrt(P)
    K = -(-P // B)
    total = const
    for i, bh in lifted:
        if i == 0:
            continue
        baby = _powers(zctx, zctx.pow(ghat, i), B + 1, dtype)
        giant = _powers(zctx, baby[B], K, dtype)
        left = giant @ np.array(_trace_pairing(zctx, bh), dtype=dtype)
        np.remainder(left, mod, out=left)
        traces = (left @ baby[:B].T).reshape(-1)
        traces += total
        total = np.remainder(traces, mod, out=traces)
    total = total[:P]
    # bins while there are few per point; past that a Counter, whose cost
    # does not grow with p^N
    if dtype is not object and mod <= 4 * (Q - 1):
        counts = np.bincount(total)
        t = np.flatnonzero(counts)
        return dict(zip(t.tolist(), (counts[t] * G).tolist()))
    counts = Counter(total.tolist())
    if G > 1:
        for t in counts:
            counts[t] *= G
    return counts


def _check_budget(Q: int) -> None:
    if Q - 1 > MAX_POINTS:
        raise BudgetExceeded(
            f"field size {Q} exceeds enumeration budget {MAX_POINTS}"
        )


def _check_digits(digits: int) -> None:
    if digits < 1:
        raise ConfigError(f"need digits >= 1, got {digits}")


def trace_histogram(spec: TowerSpec, k: int, digits: int) -> TraceHistogram:
    """Histogram of Tr(f-hat(x-hat)) mod p^digits over nonzero x in F_{q^k}."""
    if k < 1 or digits < 1:
        raise ConfigError("need k >= 1 and digits >= 1")
    Q = spec.q**k
    _check_budget(Q)
    hit = _load_cached(spec, k, digits)
    if hit is not None:
        return hit

    ctx_k = spec.ctx if k == 1 else gf.field(spec.p, spec.a * k)
    zctx = ZqCtx(ctx_k, digits)
    mod = spec.p**digits
    lifted = []
    for i, b in spec.monomials():
        bk = gf.embed_element(spec.ctx, spec.ctx.element(b), ctx_k)
        lifted.append((i, teichmuller(zctx, bk, spec.q)))
    # the i = 0 monomial adds Tr(b0-hat) at every point, x = 0 included
    zero_cell = zctx.trace(lifted[0][1]) if lifted[0][0] == 0 else 0

    ghat = teichmuller(zctx, ctx_k.multiplicative_generator())
    dtype = gf.int_dtype(ctx_k.n * (mod - 1) ** 2)
    if dtype is object and Q - 1 > 500_000:
        raise BudgetExceeded(
            f"precision p^{digits} too high for the vectorized path at {Q} points"
        )
    counts = _histogram(zctx, ghat, lifted, zero_cell, Q, dtype)
    hist = TraceHistogram(spec.p, k, digits, counts, zero_cell)
    assert hist.total == Q - 1, "histogram must cover every nonzero point"
    _store_cached(spec, hist)
    return hist


# ---------------------------------------------------------------------------
# sums and series built on the histogram

def t_adic_sum(
    spec: TowerSpec,
    k: int,
    t_order: int,
    digits: int,
    hist: TraceHistogram | None = None,
) -> TruncSeries:
    """Sum of (1+T)^{Tr(f-hat(x-hat))} over nonzero x, mod (T^t_order, p^digits).

    With c_t points of trace t, [T^n] = sum_t c_t C(t, n) = S_n / n! for the
    falling-factorial moment S_n = sum_t c_t t(t-1)...(t-n+1).  The histogram
    is read at digits + e digits, e = floor(log_p(t_order - 1)), which is
    exact: for n < p^(e+1), C(y, n) mod p^D depends only on y mod p^(D+e).
    By Vandermonde C(y + p^a z, n) - C(y, n) = sum_{j>=1} C(p^a z, j)
    C(y, n - j), and v_p C(p^a z, j) >= a - v_p(j) >= a - e for j <= n.
    The moments are then taken over the integer representatives of the
    bins, one vectorized pass per n mod p^need, need = digits +
    v_p((t_order-1)!): those guard digits are spent on the exact division
    by p^{v_p(n!)}, never silently.  int64 while every product of two
    residues and every sum of one residue per bin stays below 2^62,
    Python ints (dtype=object) past that.
    """
    _check_digits(digits)
    p = spec.p
    e, pe = 0, p
    while pe < t_order:  # p^(e+1) <= t_order - 1
        e, pe = e + 1, pe * p
    read = digits + e
    if hist is None:
        hist = trace_histogram(spec, k, read)
    elif hist.digits < read:
        raise InsufficientPrecision(
            f"histogram digits {hist.digits} < required {read}"
        )
    hist = hist.reduce(read)
    need = digits + vp_factorial(t_order - 1, p)
    M, out_mod = p**need, p**digits
    dtype = gf.int_dtype(max(M - 1, len(hist.counts)) * (M - 1))
    t = np.array(list(hist.counts), dtype=dtype)
    w = np.array([c % M for c in hist.counts.values()], dtype=dtype)  # c_t ff_n(t)
    coeffs = []
    for n in range(t_order):
        if n:
            w = w * ((t - (n - 1)) % M) % M
        S, pv = int(w.sum()) % M, p ** vp_factorial(n, p)
        assert S % pv == 0, "falling-factorial moment must be divisible by n!"
        coeffs.append(S // pv * pow(math.factorial(n) // pv, -1, out_mod))
    return TruncSeries("T", coeffs, digits, p)


def character_sum(
    hist: TraceHistogram, m: int, c: int = 1, include_zero: bool = False
) -> CycInt:
    """Exact sum of zeta^{c * trace} over the histogram, in Z[zeta_{p^m}], for
    any integer c: a non-unit c = p^v c' is the level-(m - v) character."""
    if hist.digits < m:
        raise InsufficientPrecision(
            f"character mod p^{m} needs {m} trace digits, histogram has {hist.digits}"
        )
    pm = hist.p**m
    vec = [0] * pm
    for t, n in hist.counts.items():
        vec[c * t % pm] += n
    if include_zero:
        vec[c * hist.zero_cell % pm] += 1
    return CycInt(hist.p, m, vec)


def l_degree(spec: TowerSpec, m: int, punctured: bool = False) -> int:
    deg = spec.p ** (m - 1) * spec.d
    return deg if punctured else deg - 1


def l_series(
    spec: TowerSpec,
    m: int,
    c: int = 1,
    punctured: bool = False,
    s_order: int | None = None,
) -> TruncSeries:
    """L-series of the order-p^m character mapping 1 -> zeta^c, exactly.

    Coefficients are exact Z[zeta_{p^m}] integers.  The affine variant (the
    factor appearing in the cover's zeta function) has degree D = p^{m-1}d - 1;
    the punctured variant (x = 0 removed) is always built as the affine one
    times the factor (1 - w s) of x = 0, of degree D + 1.  An explicit
    s_order enumerates F_{q^k} for k <= s_order; computing past the degree
    asserts vanishing, and a full read checks the functional equation.
    Without one, only k <= ceil(D/2) are enumerated and the functional
    equation rebuilds the rest (see _rebuild_upper), unless a_{floor(D/2)} = 0.
    """
    if m < 1:
        raise ConfigError("character level m must be >= 1")
    if c % spec.p == 0:
        raise ConfigError("character index must be a unit mod p (else lower level)")
    D = l_degree(spec, m)
    L = _rebuild_upper(spec, m, c) if s_order is None else None
    if L is None:
        # an explicit s_order, or a vanishing middle coefficient: read every k
        K = D if s_order is None else s_order
        L = _enumerate(spec, m, c, K)
        for n in range(D + 1, K + 1):
            if not L.coeffs[n].is_zero():
                raise DegreeViolation(f"coefficient {n} past degree {D} is nonzero")
        if K >= D:
            if D >= 1 and L.coeffs[D].is_zero():
                raise DegreeViolation(f"leading coefficient at degree {D} vanishes")
            _check_functional_equation(L, D, spec.q)
    if not punctured:
        return L
    P = _puncture(spec, m, c, L)
    return P if s_order is None else TruncSeries("s", P.coeffs[: s_order + 1])


def _enumerate(spec: TowerSpec, m: int, c: int, K: int) -> TruncSeries:
    """The affine L-series mod s^{K+1} from character sums, k <= K."""
    _check_budget(spec.q**K)  # the largest field enumerated, before any work
    sums = []
    for k in range(1, K + 1):
        hist = trace_histogram(spec, k, m)
        sums.append(character_sum(hist, m, c, include_zero=True))
    if not sums:
        return TruncSeries("s", [CycInt.from_int(spec.p, m, 1)])
    return exp_from_power_sums(sums, "s")


def _rebuild_upper(spec: TowerSpec, m: int, c: int) -> TruncSeries | None:
    """The affine L-series from its coefficients a_n, n <= ceil(D/2).

    Every reciprocal root has absolute value sqrt(q) (Weil: L divides the
    zeta numerator of the cover), and the roots of the conjugate series
    are their complex conjugates, so a_D conj(a_{D-n}) = q^{D-n} a_n with
    conj the Galois action zeta -> zeta^-1.  At n = ceil(D/2) that gives
    a_D by one exact division in Z[zeta]; a_{D-n} = conj(a_n) a_D / q^n
    then needs only exact integer divisions, and a_D conj(a_D) = q^D is the
    one instance not met by construction.  A division with a remainder is
    NonIntegralResult.  None when a_{floor(D/2)} = 0.
    """
    D = l_degree(spec, m)
    low = _enumerate(spec, m, c, (D + 1) // 2).coeffs
    h, q = D // 2, spec.q
    if low[h].is_zero():
        return None
    top = low[D - h].scale(q**h).exact_div(low[h].conjugate(-1))
    if top * top.conjugate(-1) != CycInt.from_int(spec.p, m, q**D):
        raise VerificationError(f"|a_{D}|^2 != q^{D}: the L-series breaks the functional equation")
    upper = [(low[n].conjugate(-1) * top).exact_div_int(q**n) for n in range(D - len(low), -1, -1)]
    return TruncSeries("s", low + upper)


def _zero_root(spec: TowerSpec, m: int, c: int) -> CycInt:
    """w = zeta^{c Tr(b0-hat)}: the point x = 0 adds w^k to the k-th sum."""
    return CycInt.zeta_power(spec.p, m, c * trace_histogram(spec, 1, m).zero_cell)


def _puncture(spec: TowerSpec, m: int, c: int, L: TruncSeries) -> TruncSeries:
    """The punctured series from the affine one: times (1 - w s)."""
    w, zero = _zero_root(spec, m, c), L.coeffs[0].zero_like()
    return TruncSeries("s", [a - w * b for a, b in zip(L.coeffs + [zero], [zero] + L.coeffs)])


def _check_functional_equation(L: TruncSeries, D: int, q: int) -> None:
    """a_D conj(a_{D-n}) = q^{D-n} a_n for every n <= D on a full read of
    the affine series."""
    a = L.coeffs
    for n in range(D + 1):
        if a[D] * a[D - n].conjugate(-1) != a[n].scale(q ** (D - n)):
            raise VerificationError(f"the L-series breaks the functional equation at s^{n}")


def char_series(
    spec: TowerSpec, t_order: int, s_order: int, digits: int
) -> TruncSeries:
    """Bivariate characteristic series mod (T^t_order, s^{s_order+1}, p^digits).

    Built as exp of the unit-normalized T-adic sums.  The recurrence divides
    the k-th sum only by k, k + 1, ..., s_order, so it is read to
    digits + v_p(s_order!) - v_p((k-1)!) digits, and its histogram at
    floor(log_p(t_order - 1)) more (the binomial guard of t_adic_sum): the
    largest fields, the costliest to enumerate, the fewest.  Column n
    carries exactly digits + v_p(s_order!) - v_p(n!) p-adic digits, the
    last one `digits`.
    """
    _check_digits(digits)
    _check_budget(spec.q**s_order)
    p, inner = spec.p, digits + vp_factorial(s_order, spec.p)
    sums = []
    for k in range(1, s_order + 1):
        need = inner - vp_factorial(k - 1, p)
        sk = t_adic_sum(spec, k, t_order, need)
        sums.append(sk.scale(pow(1 - spec.q**k, -1, p**need)))
    C = exp_from_power_sums(sums, "s")
    got = min(col.prec for col in C.coeffs)
    if got < digits:
        raise InsufficientPrecision(f"characteristic series only certified to {got} digits")
    return C


# ---------------------------------------------------------------------------
# Newton polygon extraction

def q_normalization(p: int, a: int, m: int) -> Fraction:
    """Factor converting pi-adic valuations to q-adic ones."""
    return Fraction(1, a * phi_pm(p, m))


def observed_polygon(C: TruncSeries) -> NewtonPolygon:
    """T-adic polygon of a bivariate series from its nonzero-digit anchors."""
    return lower_hull(t_valuation_points(C), source="T-adic")


def t_valuation_points(C: TruncSeries):
    """(k, v_T) observations for a series whose coefficients are T-series.

    A coefficient nonzero mod p^digits is certainly nonzero, so the reading
    is exact; an all-zero column only yields a floor at the truncation order.
    The readings are sound anchors only in sandwich arguments (hull observed
    from above, structural bound from below) -- callers must pair them.
    """
    pts = []
    for k, col in enumerate(C.coeffs):
        v = next((i for i, c in enumerate(col.coeffs) if c), None)
        if v is None:
            pts.append((k, Valuation.at_least(col.order)))
        else:
            pts.append((k, Valuation.exact(v)))
    return pts
