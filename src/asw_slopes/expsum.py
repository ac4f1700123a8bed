"""Exponential sums over towers of Artin-Schreier-Witt covers: point side.

Everything in this module reduces to one object, the histogram of p-adically
lifted trace values over the rational points of a field extension.  T-adic
sums, finite-character L-series, and the bivariate characteristic series are
all exact ring operations on top of it, which also makes the histogram the
natural unit of caching (see ASW_CACHE_DIR).
"""

from __future__ import annotations

import json
import math
import os
from fractions import Fraction

import numpy as np

from . import gf
from .errors import (
    BudgetExceeded,
    ConfigError,
    DegreeNotCoprime,
    DegreeViolation,
    InsufficientPrecision,
    PathwayMismatch,
)
from .newton import NewtonPolygon, lower_hull
from .padic import (
    CycInt,
    PadicInt,
    Valuation,
    ZqCtx,
    binom_pow,
    cyc_valuation,
    teichmuller,
    vp,
    vp_factorial,
)
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
        self.ctx = gf.FieldCtx(p, a, h)  # FieldCtx validates primality
        self.p = p
        self.a = a
        self.q = p**a
        cs = [self.ctx.element(int(i)) for i in coeffs]
        while cs and cs[-1].is_zero():
            cs.pop()
        if len(cs) < 2:
            raise ConfigError("defining polynomial must have degree >= 1")
        self.coeffs = cs
        self.d = len(cs) - 1
        if self.d % p == 0:
            raise DegreeNotCoprime(f"degree {self.d} divisible by p = {p}")

    def monomials(self):
        """(exponent, coefficient) pairs with nonzero coefficient."""
        return [(i, b) for i, b in enumerate(self.coeffs) if not b.is_zero()]

    def key(self) -> str:
        hs = "-".join(str(c) for c in self.ctx.h)
        fs = "-".join(str(b.index) for b in self.coeffs)
        return f"p{self.p}_a{self.a}_h{hs}_f{fs}"

    def __repr__(self):
        return f"TowerSpec(p={self.p}, a={self.a}, f_indices={[b.index for b in self.coeffs]})"


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
            "f": [b.index for b in spec.coeffs],
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


def _load_cached(spec: TowerSpec, k: int, digits: int):
    cdir = cache_dir()
    prefix = f"hist_{spec.key()}_k{k}_N"
    exact = os.path.join(cdir, _cache_name(spec, k, digits))
    candidates = []
    if os.path.exists(exact):
        candidates.append(digits)
    elif os.path.isdir(cdir):
        for name in os.listdir(cdir):
            if name.startswith(prefix) and name.endswith(".json"):
                try:
                    n = int(name[len(prefix) : -len(".json")])
                except ValueError:
                    continue
                if n > digits:
                    candidates.append(n)
    if not candidates:
        return None
    best = min(candidates)
    with open(os.path.join(cdir, _cache_name(spec, k, best))) as fh:
        hist = TraceHistogram.from_json(json.load(fh))
    return hist.reduce(digits)


def _store_cached(spec: TowerSpec, hist: TraceHistogram):
    cdir = cache_dir()
    os.makedirs(cdir, exist_ok=True)
    path = os.path.join(cdir, _cache_name(spec, hist.k, hist.digits))
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump(hist.to_json(spec), fh, sort_keys=True)
    os.replace(tmp, path)


# ---------------------------------------------------------------------------
# histogram computation

def _shift_u(zctx: ZqCtx, v):
    """Multiply a Z_q/p^N coefficient vector by u (shift + monic reduce)."""
    n = zctx.n
    top = v[n - 1]
    out = [0] + list(v[: n - 1])
    if top:
        for j in range(n):
            out[j] -= top * zctx.H[j]
    return tuple(c % zctx.mod for c in out)


def _twisted_trace_vectors(zctx: ZqCtx, lifted):
    """For each (i, b-hat): vector t_i with Tr(b-hat * z) = sum z_m t_i[m]."""
    out = {}
    for i, bh in lifted:
        vecs = []
        cur = bh
        for _ in range(zctx.n):
            vecs.append(zctx.trace(cur))
            cur = _shift_u(zctx, cur)
        out[i] = vecs
    return out


def _histogram_python(zctx, ghat, lifted, tvecs, const, Q, mod):
    counts: dict[int, int] = {}
    steps = {i: zctx.pow(ghat, i) for i, _ in lifted if i > 0}
    walkers = {i: (1,) + (0,) * (zctx.n - 1) for i in steps}
    for _ in range(Q - 1):
        tot = const
        for i, tv in tvecs.items():
            if i == 0:
                continue
            w = walkers[i]
            tot += sum(wm * tm for wm, tm in zip(w, tv))
        tot %= mod
        counts[tot] = counts.get(tot, 0) + 1
        for i, st in steps.items():
            walkers[i] = zctx.mul(walkers[i], st)
    return counts


def _histogram_numpy(zctx, ghat, lifted, tvecs, const, Q, mod):
    # baby-step/giant-step table of all powers of the generator; each baby
    # step becomes one integer matmul over the giant rows, so the q^k - 1
    # multiplications in Z_q/p^N collapse into ~sqrt(q^k) GEMMs
    n = zctx.n
    B = max(1, math.isqrt(Q - 1))
    nT = (Q - 1 + B - 1) // B
    baby = [(1,) + (0,) * (n - 1)]
    for _ in range(1, B):
        baby.append(zctx.mul(baby[-1], ghat))
    gB = zctx.mul(baby[-1], ghat)
    giant = [(1,) + (0,) * (n - 1)]
    for _ in range(1, nT):
        giant.append(zctx.mul(giant[-1], gB))
    small = n * (mod - 1) ** 2 < 2**31
    dtype = np.int32 if small else np.int64
    G = np.array(giant, dtype=dtype)
    W = np.empty((nT * B, n), dtype=dtype)
    for b in range(B):
        # columns of M are baby[b] * u^j, so G @ M.T multiplies every giant
        # row by baby[b] at once
        cols = []
        cur = baby[b]
        for _ in range(n):
            cols.append(cur)
            cur = _shift_u(zctx, cur)
        M = np.array(cols, dtype=dtype)  # row j = baby[b] * u^j
        W[b::B] = G[: len(W[b::B])] @ M
    W = W[: Q - 1] % mod
    total = np.full(Q - 1, const, dtype=np.int64)
    idx_base = np.arange(Q - 1, dtype=np.int64)
    for i, tv in tvecs.items():
        if i == 0:
            continue
        vec = (W.astype(np.int64) @ np.array(tv, dtype=np.int64)) % mod
        total += vec[(i * idx_base) % (Q - 1)]
    total %= mod
    counts_arr = np.bincount(total, minlength=mod)
    return {int(t): int(c) for t, c in enumerate(counts_arr) if c}


def _check_budget(Q: int) -> None:
    if Q - 1 > MAX_POINTS:
        raise BudgetExceeded(
            f"field size {Q} exceeds enumeration budget {MAX_POINTS}"
        )


def trace_histogram(
    spec: TowerSpec, k: int, digits: int, use_cache: bool = True
) -> TraceHistogram:
    """Histogram of Tr(f-hat(x-hat)) mod p^digits over nonzero x in F_{q^k}."""
    if k < 1 or digits < 1:
        raise ConfigError("need k >= 1 and digits >= 1")
    Q = spec.q**k
    _check_budget(Q)
    if use_cache:
        hit = _load_cached(spec, k, digits)
        if hit is not None:
            return hit

    ctx_k = spec.ctx if k == 1 else gf.FieldCtx(spec.p, spec.a * k)
    zctx = ZqCtx(ctx_k, digits)
    mod = spec.p**digits
    lifted = []
    for i, b in spec.monomials():
        bk = b if k == 1 else gf.embed_element(spec.ctx, b, ctx_k)
        lifted.append((i, teichmuller(zctx, bk)))
    tvecs = _twisted_trace_vectors(zctx, lifted)
    zero_cell = tvecs[0][0] if 0 in tvecs else 0
    const = zero_cell  # the i = 0 monomial contributes Tr(b0-hat) everywhere

    ghat = teichmuller(zctx, ctx_k.multiplicative_generator())
    numpy_safe = ctx_k.n * (mod - 1) ** 2 < 2**62 and spec.d * Q < 2**62
    if Q - 1 >= 4096 and numpy_safe:
        counts = _histogram_numpy(zctx, ghat, lifted, tvecs, const, Q, mod)
    elif Q - 1 <= 500_000:
        counts = _histogram_python(zctx, ghat, lifted, tvecs, const, Q, mod)
    else:
        raise BudgetExceeded(
            f"precision p^{digits} too high for the vectorized path at {Q} points"
        )
    hist = TraceHistogram(spec.p, k, digits, counts, zero_cell)
    assert hist.total == Q - 1, "histogram must cover every nonzero point"
    if use_cache:
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

    Needs v_p((t_order-1)!) guard digits on top of the target; they are spent
    inside the binomial expansion, never silently.
    """
    need = digits + (vp_factorial(t_order - 1, spec.p) if t_order > 1 else 0)
    if hist is None:
        hist = trace_histogram(spec, k, need)
    elif hist.digits < need:
        raise InsufficientPrecision(
            f"histogram digits {hist.digits} < required {need}"
        )
    hist = hist.reduce(need)
    acc = None
    for t in sorted(hist.counts):
        term = binom_pow(PadicInt(spec.p, t, need), t_order, digits)
        cnt = term.coeffs[0].from_int_like(hist.counts[t])
        term = term.scale(cnt)
        acc = term if acc is None else acc + term
    acc.prec = digits
    return acc


def character_sum(
    hist: TraceHistogram, m: int, c: int = 1, include_zero: bool = False
) -> CycInt:
    """Exact sum of zeta^{c * trace} over the histogram, in Z[zeta_{p^m}]."""
    if hist.digits < m:
        raise InsufficientPrecision(
            f"character mod p^{m} needs {m} trace digits, histogram has {hist.digits}"
        )
    h = hist.reduce(m) if hist.digits > m else hist
    p = h.p
    acc = CycInt.zero(p, m)
    for t in sorted(h.counts):
        acc = acc + CycInt.zeta_power(p, m, c * t).scale(h.counts[t])
    if include_zero:
        acc = acc + CycInt.zeta_power(p, m, c * h.zero_cell)
    return acc


def l_degree(spec: TowerSpec, m: int, punctured: bool = False) -> int:
    deg = spec.p ** (m - 1) * spec.d
    return deg if punctured else deg - 1


def l_series(
    spec: TowerSpec,
    m: int,
    c: int = 1,
    punctured: bool = False,
    s_order: int | None = None,
    use_cache: bool = True,
) -> TruncSeries:
    """L-series of the order-p^m character mapping 1 -> zeta^c, exactly.

    Coefficients are exact Z[zeta_{p^m}] integers.  The affine variant (the
    factor appearing in the cover's zeta function) has degree p^{m-1}d - 1;
    the punctured variant (x = 0 removed) has degree p^{m-1}d.  Computing
    past the degree asserts vanishing, so s_order > degree is a self-check.
    """
    if m < 1:
        raise ConfigError("character level m must be >= 1")
    if c % spec.p == 0:
        raise ConfigError("character index must be a unit mod p (else lower level)")
    deg = l_degree(spec, m, punctured)
    K = deg if s_order is None else s_order
    _check_budget(spec.q**K)  # the largest field enumerated, before any work
    sums = []
    for k in range(1, K + 1):
        hist = trace_histogram(spec, k, m, use_cache=use_cache)
        sums.append(character_sum(hist, m, c, include_zero=not punctured))
    if not sums:
        return TruncSeries("s", [CycInt.from_int(spec.p, m, 1)])
    L = exp_from_power_sums(sums, "s")
    for n in range(deg + 1, K + 1):
        if not L.coeffs[n].is_zero():
            raise DegreeViolation(f"coefficient {n} past degree {deg} is nonzero")
    if K >= deg and deg >= 1 and L.coeffs[deg].is_zero():
        raise DegreeViolation(f"leading coefficient at degree {deg} vanishes")
    return L


def _dilate(L: TruncSeries, factor: int) -> TruncSeries:
    """s -> factor * s on an exact cyclotomic series."""
    out = []
    fn = 1
    for n, cn in enumerate(L.coeffs):
        out.append(cn.scale(fn))
        fn *= factor
    return TruncSeries(L.var, out)


def char_series_at_character(
    spec: TowerSpec,
    m: int,
    s_order: int,
    digits: int,
    c: int = 1,
    method: str = "product",
) -> TruncSeries:
    """Characteristic series at a fixed character, mod (p^digits, s^{s_order+1}).

    "product": finite product of q-power dilates of the punctured L-series
    (factor j is 1 + O(q^j), so j < ceil(digits/a) terms suffice).  "exp":
    exponential of unit-normalized power sums with explicit guard digits.
    "both" runs the two and insists they agree.
    """
    if method not in ("product", "exp", "both"):
        raise ConfigError(f"unknown method {method!r}")
    _check_budget(spec.q**s_order)
    modulus = spec.p**digits
    out_prod = out_exp = None
    if method in ("product", "both"):
        J = -(-digits // spec.a)
        L = l_series(spec, m, c, punctured=True, s_order=s_order)
        acc = None
        for j in range(J):
            factor = _dilate(L, spec.q**j).truncate(s_order + 1)
            acc = factor if acc is None else (acc * factor)
        out_prod = TruncSeries("s", [a.reduce_mod(modulus) for a in acc.coeffs])
    if method in ("exp", "both"):
        guard = vp_factorial(s_order, spec.p)
        work = spec.p ** (digits + guard)
        sums = []
        for k in range(1, s_order + 1):
            hist = trace_histogram(spec, k, m)
            sk = character_sum(hist, m, c, include_zero=False)
            inv = pow(1 - spec.q**k, -1, work)
            sums.append(sk.scale(inv).reduce_mod(work))
        coeffs = [CycInt.from_int(spec.p, m, 1)]
        trusted = digits + guard
        for n in range(1, s_order + 1):
            acc = sums[n - 1]
            for k in range(1, n):
                acc = acc + sums[k - 1] * coeffs[n - k]
            # divide by n = p^v * u: unit part by modular inverse, p-part
            # exactly; the trusted modulus drops by v
            v = vp(n, spec.p) if n % spec.p == 0 else 0
            u = n // spec.p**v
            acc = acc.scale(pow(u, -1, work)).reduce_mod(work)
            acc = acc.exact_div_int(spec.p**v)
            coeffs.append(acc.reduce_mod(work // spec.p**v))
        out_exp = TruncSeries("s", [a.reduce_mod(modulus) for a in coeffs])
    if method == "both" and out_prod.coeffs != out_exp.coeffs:
        raise PathwayMismatch("product and exp characteristic series disagree")
    return out_prod if out_prod is not None else out_exp


def char_series(
    spec: TowerSpec, t_order: int, s_order: int, digits: int
) -> TruncSeries:
    """Bivariate characteristic series mod (T^t_order, s^{s_order+1}, p^digits).

    Built as exp of the unit-normalized T-adic sums; both guard layers
    (binomial and exp denominators) are added up front so the output
    coefficients carry at least `digits` certified p-adic digits.
    """
    _check_budget(spec.q**s_order)
    exp_guard = vp_factorial(s_order, spec.p)
    inner = digits + exp_guard
    sums = []
    for k in range(1, s_order + 1):
        sk = t_adic_sum(spec, k, t_order, inner)
        inv = PadicInt(spec.p, 1 - spec.q**k, inner).unit_inverse()
        sums.append(sk.scale(inv))
    C = exp_from_power_sums(sums, "s")
    if C.min_prec() < digits:
        raise InsufficientPrecision(
            f"characteristic series only certified to {C.min_prec()} digits"
        )
    return C


# ---------------------------------------------------------------------------
# Newton polygon extraction

def q_normalization(p: int, a: int, m: int) -> Fraction:
    """Factor converting pi-adic valuations to q-adic ones."""
    return Fraction(1, a * (p - 1) * p ** (m - 1))


def newton_from_cyclotomic(
    coeffs,
    cap_exp: int | None = None,
    scale: Fraction = Fraction(1),
    source: str = "pi-adic",
) -> NewtonPolygon:
    """Newton polygon of a polynomial with Z[zeta_{p^m}] coefficients.

    cap_exp: if the coefficients are only representatives mod p^cap_exp,
    valuation readings at or above cap_exp * e are demoted to floors so the
    hull never overstates what the data certifies.
    """
    first = coeffs[0]
    cap = None
    if cap_exp is not None:
        cap = cap_exp * (first.p - 1) * first.p ** (first.m - 1) if first.m else cap_exp
    pts = [(i, cyc_valuation(z, cap)) for i, z in enumerate(coeffs)]
    poly = lower_hull(pts, source)
    return poly.rescale(scale, source) if scale != 1 else poly


def t_valuation_points(C: TruncSeries, declared_digits: int | None = None):
    """(k, v_T) observations for a series whose coefficients are T-series.

    A coefficient nonzero mod p^digits is certainly nonzero, so the reading
    is exact; an all-zero column only yields a floor at the truncation order.
    The readings are sound anchors only in sandwich arguments (hull observed
    from above, structural bound from below) -- callers must pair them.
    """
    pts = []
    for k, col in enumerate(C.coeffs):
        v = None
        for i, c in enumerate(col.coeffs):
            if not c.is_zero():
                v = i
                break
        if v is None:
            pts.append((k, Valuation.at_least(col.order)))
        else:
            pts.append((k, Valuation.exact(v)))
    return pts
