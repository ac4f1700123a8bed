"""Operator-side pathway: characteristic series from a nuclear matrix.

Independent of the point-counting route in expsum: here the series comes
from traces of a semilinear operator acting on an overconvergent basis.
Only prime base fields are supported (a = 1); that is all the second
pathway needs to cross-check the first one.

Ring bookkeeping: with w^d equal to the uniformizer of the splitting
series, every basis column j of the operator matrix is divisible by
w^{(p-1)j}.  That single fact bounds the truncation size R, proves the
structural lower bound on the characteristic coefficients, and makes the
matrix entries exactly representable as finite w-expansions with p-adic
integer coefficients.  Conjugated by diag(w^i), which leaves the traces of
all powers unchanged, entry (i, j) is the splitting coefficient c_{pj-i}
itself, a finite expansion in pi = w^d.  Matrix products run over Python
integers with the pi-lanes Kronecker-packed into fixed-width bit fields, so
they are exact; _read_lanes and _write_lanes are its one reader and writer.

Rows are sparse and sorted by pi-valuation.  A product of two entries whose
valuations sum to t_order or more is never formed, and every other one
multiplies only the lanes the window keeps; see the notes above _matmul.
"""

from __future__ import annotations

import numpy as np

from .errors import BudgetExceeded, ConfigError, InsufficientPrecision
from .gf import int_dtype
from .padic import vp, vp_factorial
from .series import TruncSeries, compose, exp_from_power_sums, reversion


def _teich_zp(p: int, residue: int, digits: int) -> int:
    """Teichmuller lift in Z_p/p^digits of a prime-field residue."""
    # w^(p^k) agrees with the lift mod p^(k+1)
    return pow(residue, p ** (digits - 1), p**digits)


def artin_hasse(p: int, order: int, digits: int) -> TruncSeries:
    """The p-typical exponential E(x) = exp(sum_j x^(p^j)/p^j) mod
    (x^order, p^digits), from the exp recurrence.

    Its power sums are c_k = 1 for k a power of p and 0 otherwise, taken as
    constants at digits + v_p((order-1)!) digits: the guard the recurrence
    spends on its divisions by p.
    """
    work = digits + vp_factorial(order - 1, p)
    # at least one power sum, so that order 1 gives [1]
    sums = [int(k == p ** vp(k, p)) for k in range(1, max(order, 2))]
    E = exp_from_power_sums([TruncSeries("x", [c], work, p) for c in sums], "pi")
    return TruncSeries("pi", [col.coeffs[0] for col in E.coeffs[:order]], digits, p)


def pi_of_T(p: int, order: int, digits: int) -> TruncSeries:
    """Local parameter as a series in T, inverting T = E(pi) - 1.

    Pure reversion: multiplications and one unit inverse, so full precision
    survives.
    """
    E = artin_hasse(p, order, digits)
    G = reversion(TruncSeries("pi", [0] + E.coeffs[1:], E.prec, p))
    return TruncSeries("T", G.coeffs, G.prec, p)


# ---------------------------------------------------------------------------
# splitting-function coefficients and the operator matrix

def splitting_coefficients(spec, x_max: int, t_order: int, digits: int):
    """Coefficients c_J (J < x_max) of the product splitting function, as
    an (x_max, t_order) array of residues mod p^digits.

    The w^r digit of c_J is nonzero only for r >= J and r a multiple of d,
    the load-bearing facts for nuclearity.  Term n of every factor carries
    w^(d n) = pi^n, so the product is filled on the pi-grid: c[J, g] is the
    w^(g d) digit, g < t_order, and the floor d g >= J is asserted.  An entry
    sums at most t_order products of two residues before it is reduced, so
    int64 is exact while t_order (p^digits - 1)^2 < 2^62; past that the same
    code runs on Python ints (dtype=object)."""
    p, d = spec.p, spec.d
    mod = p**digits
    e = artin_hasse(p, t_order, digits).coeffs
    F = np.zeros((x_max, t_order), dtype=int_dtype(t_order * (mod - 1) ** 2))
    F[0, 0] = 1
    for i, b in spec.monomials():
        bh = _teich_zp(p, b, digits)
        G = F
        F = np.zeros_like(G)
        bpow = 1
        for n in range(t_order):
            if i * n >= x_max:
                break
            g = (e[n] * bpow) % mod
            if g:
                F[i * n :, n:] += g * G[: x_max - i * n, : t_order - n]
            bpow = (bpow * bh) % mod
        F %= mod
    below = d * np.arange(t_order) < np.arange(x_max)[:, None]
    assert not (F[below] != 0).any(), "splitting coefficient below its w-floor"
    return F


class PackedMatrix:
    """Square matrix of pi-truncated series in sorted sparse rows.

    rows[i] lists (v, j, e) for every nonzero entry (i, j), sorted by v: v
    is the entry's pi-valuation and e the packed entry with its v zero lanes
    shifted out, so lane r of e holds the pi^(v + r) coefficient.
    """

    __slots__ = ("size", "lanes", "stride", "mod", "rows")

    def __init__(self, size, lanes, stride, mod, rows):
        self.size = size
        self.lanes = lanes  # number of pi-coefficients kept per entry
        self.stride = stride  # bytes per lane
        self.mod = mod
        self.rows = rows


def _read_lanes(values, lanes: int, stride: int, mod: int):
    """Lanes 0 to lanes - 1 of each packed int mod `mod`, a (len(values),
    lanes) array.  A lane, padded with at least one zero byte to whole
    64-bit words, is read as signed words (exact in either dtype; the zero
    byte keeps the top word nonnegative) and folded by Horner's rule, top
    word first: a negative word w stands for w + 2^64, so a step is
    acc -> ((acc + [w < 0]) c + w) mod m with c = 2^64 mod m."""
    words = stride // 8 + 1
    need = lanes * stride
    mask = (1 << 8 * need) - 1
    buf = np.frombuffer(b"".join((v & mask).to_bytes(need, "little") for v in values), np.uint8)
    wide = np.zeros((len(values) * lanes, 8 * words), dtype=np.uint8)
    wide[:, :stride] = buf.reshape(-1, stride)
    # while acc < m a step's sum before its reduction is below m^2
    signed = wide.view("<i8").astype(int_dtype(mod * mod), copy=False)
    c = 2**64 % mod
    acc = signed[:, -1] % mod
    for k in range(words - 2, -1, -1):
        w = signed[:, k]
        acc = ((acc + (w < 0)) * c + w % mod) % mod
    return acc.reshape(len(values), lanes)


def _write_lanes(residues, stride: int) -> list:
    """The packed int of each row of a (rows, lanes) array of entries below
    2^(8 stride), entry r in lane r: the signed words of _read_lanes,
    peeled off low word first."""
    words = stride // 8 + 1
    wide = np.zeros((residues.size, words), dtype="<i8")
    rest = residues.reshape(-1)
    for k in range(words - 1):
        low = rest - (rest >> 64 << 64)
        wide[:, k] = low - (low >> 63 << 64)
        rest = rest >> 64
    wide[:, -1] = rest
    need = residues.shape[1] * stride
    data = wide.view(np.uint8)[:, :stride].tobytes()
    return [int.from_bytes(data[k : k + need], "little") for k in range(0, len(data), need)]


def _entry(col: int, value: int, lane_bits: int):
    """(v, col, value >> v lanes) of a nonzero packed entry."""
    v = ((value & -value).bit_length() - 1) // lane_bits
    return v, col, value >> v * lane_bits


def _shape(p: int, d: int, t_order: int, digits: int) -> tuple[int, int]:
    """(R, stride) of the operator matrix of a window: its size and the
    bytes of one pi-lane of a packed entry."""
    R = -(-d * t_order // (p - 1))
    # trace contractions sum R^2 entry products into one packed integer,
    # each lane of a product a sum of at most t_order digit products
    lane_bits = 2 * (p**digits - 1).bit_length() + (R * R * t_order).bit_length() + 1
    return R, (lane_bits + 7) // 8


OPERATOR_BYTES = 2**30  # budget on operator_bytes of one window
ELIMINATION_BYTES = 2**31  # budget on eigencurve.elimination_bytes of one block layout


def operator_bytes(p: int, d: int, s_order: int, t_order: int, digits: int) -> int:
    """A bound on the bytes nuclear_traces holds for a window, computed
    before any is allocated.

    The splitting arrays are p R rows of t_order residues: two products,
    one term and the w-floor mask at a time, then the words and bytes of
    their packing.  A row of any power of M holds at most n = ceil(W/p)
    entries: (i, k) of M^e has pi-valuation v with d v >= pk - i/p^(e-1)
    >= 0, and pk - i/p^(e-1) steps by p along the row, so its r-th entry
    keeps at most t_order - rp/d lanes.  M alone is alive up to s_order 2,
    M and M^2 up to 4, and three matrices past that; the product being
    built keeps one row of R sums of up to 2 t_order lanes, and 1 MiB
    covers the repacking batches.
    """
    R, stride = _shape(p, d, t_order, digits)
    n = -(-d * t_order // p)
    wide = int_dtype(t_order * (p**digits - 1) ** 2) is object
    cell = 64 + 2 * stride if wide else 8  # a pointer and its int past int64
    splitting = p * R * t_order * (4 * cell + 8 * (stride // 8 + 2) + 2 * stride)
    lanes = n * t_order - p * n * (n - 1) // (2 * d)
    matrix = R * (lanes * stride + n * 160)  # each entry's int and (v, j, e) tuple
    alive = min(3, 1 + (s_order - 1) // 2)
    return splitting + alive * matrix + R * (2 * t_order * stride + 64) + 2**20


def nuclear_matrix(spec, s_order: int, t_order: int, digits: int) -> PackedMatrix:
    """Truncated operator matrix, conjugated into pi-lanes, exact mod
    (pi^t_order, p^digits), for the traces of its first s_order powers.

    Entry (i, j) of the operator is w^{i-j} c_{pj-i}; conjugating by
    diag(w^i) leaves exactly c_{pj-i}, which lies on the d-grid, so it packs
    as t_order pi-coefficients instead of W = d*t_order shifted w-lanes.
    Traces of powers are conjugation invariant, and every entry has
    nonnegative w-valuation, so dropping w^W and beyond from each entry
    cannot touch tr(M^k) mod w^W.  Size R = ceil(W/(p-1)) suffices, for
    every k: a closed path i_0 -> i_1 -> ... -> i_0 has w-valuation at least
    sum_t (p i_(t+1) - i_t) = (p-1) sum_t i_t, so one through an index
    i >= R already reaches w^((p-1)R) >= w^W.

    A window whose operator_bytes exceed OPERATOR_BYTES is refused first.
    """
    if spec.a != 1:
        raise ConfigError("operator pathway requires a prime base field (a = 1)")
    p, d = spec.p, spec.d
    need = operator_bytes(p, d, s_order, t_order, digits)
    if need > OPERATOR_BYTES:
        raise BudgetExceeded(
            f"operator window (t_order {t_order}, s_order {s_order}, working digits {digits}) "
            f"needs about {need} bytes, over the budget of {OPERATOR_BYTES}"
        )
    R, stride = _shape(p, d, t_order, digits)
    c = splitting_coefficients(spec, p * R, t_order, digits)
    mod = p**digits
    # the splitting coefficients are residues below mod
    packed = _write_lanes(c.astype(int_dtype(mod), copy=False), stride)
    # entry (i, j) is c_{pj-i}, so row i starts at column ceil(i/p)
    rows = [
        sorted(
            _entry(j, packed[p * j - i], 8 * stride)
            for j in range(-(-i // p), R)
            if packed[p * j - i]
        )
        for i in range(R)
    ]
    return PackedMatrix(R, t_order, stride, mod, rows)


# Products.  A product a*b with v(a) + v(b) >= lanes lies past the window, and
# any other needs only the low L = lanes - v(a) - v(b) lanes of each shifted
# operand: masking them off is exact, as lanes never carry.  Each lane of a
# masked sum adds a subset of the terms the same lane of the full product
# adds, so the lane width of nuclear_matrix still holds.  Rows are sorted by
# v, so a row's scan stops at its first product past the window.

def _matmul(A: PackedMatrix, B: PackedMatrix) -> PackedMatrix:
    R, T, stride, mod = A.size, A.lanes, A.stride, A.mod
    bits = 8 * stride
    mask = [(1 << bits * L) - 1 for L in range(T + 1)]
    # nonzero accumulators are repacked in batches of about 16 KiB of lanes
    batch = max(1, 16384 // (T * stride))
    rows: list = [[] for _ in range(R)]
    where: list = []
    raw: list = []

    def flush():
        for (i, k), v in zip(where, _write_lanes(_read_lanes(raw, T, stride, mod), stride)):
            if v:
                rows[i].append(_entry(k, v, bits))
        where.clear()
        raw.clear()

    Brows = B.rows
    for i, Ai in enumerate(A.rows):
        acc = [0] * R
        for va, j, a in Ai:
            room = T - va
            for vb, k, b in Brows[j]:
                L = room - vb
                if L <= 0:
                    break
                m = mask[L]
                acc[k] += (a & m) * (b & m) << bits * (va + vb)
        for k, x in enumerate(acc):
            if x:
                where.append((i, k))
                raw.append(x)
                if len(raw) == batch:
                    flush()
    flush()
    for row in rows:
        row.sort()
    return PackedMatrix(R, T, stride, mod, rows)


def _trace_pair(A: PackedMatrix, B: PackedMatrix):
    """pi-coefficients of tr(A B)."""
    T = A.lanes
    bits = 8 * A.stride
    mask = [(1 << bits * L) - 1 for L in range(T + 1)]
    cols = [{k: (vb, b) for vb, k, b in row} for row in B.rows]
    acc = 0
    for i, Ai in enumerate(A.rows):
        for va, j, a in Ai:
            hit = cols[j].get(i)
            if hit is not None:
                vb, b = hit
                L = T - va - vb
                if L > 0:
                    m = mask[L]
                    acc += (a & m) * (b & m) << bits * (va + vb)
    return _read_lanes([acc], T, A.stride, A.mod)[0].tolist()


def _trace(A: PackedMatrix):
    bits = 8 * A.stride
    acc = sum(e << bits * v for i, row in enumerate(A.rows) for v, j, e in row if j == i)
    return _read_lanes([acc], A.lanes, A.stride, A.mod)[0].tolist()


def nuclear_traces(spec, s_order: int, t_order: int, digits: int):
    """Traces of the first s_order operator powers as pi-coefficient lists.

    tr(M^k) = tr(M^floor(k/2) M^ceil(k/2)), taken as soon as both powers
    exist; only M and the two powers the next trace reads stay alive.
    """
    M = nuclear_matrix(spec, s_order, t_order, digits)
    out = [_trace(M)]
    lo = hi = M
    for k in range(2, s_order + 1):
        if k % 2:
            hi = _matmul(hi, M)
        else:
            lo = hi
        out.append(_trace_pair(lo, hi))
    return out


# ---------------------------------------------------------------------------
# public pathway surface

def t_adic_sum_via_operator(spec, k: int, t_order: int, digits: int) -> TruncSeries:
    """Power sum over F_{p^k} points computed purely from operator traces.

    Comparable coefficient-for-coefficient with expsum.t_adic_sum; the two
    sides share no code past TowerSpec, which is the point.
    """
    if k < 1:
        raise ConfigError(f"extension degree k = {k} must be positive")
    p = spec.p
    trs = nuclear_traces(spec, k, t_order, digits)
    scaled = TruncSeries("pi", trs[k - 1], digits, p).scale(p**k - 1)
    return compose([scaled], pi_of_T(p, t_order, digits))[0]


def char_series_via_operator(
    spec, t_order: int, s_order: int, digits: int
) -> TruncSeries:
    """Bivariate characteristic series from operator traces.

    The unit-normalized power sums collapse to minus the traces, so the
    series is a determinant in disguise; exp guard digits are budgeted up
    front and verified on exit.
    """
    p = spec.p
    inner = digits + vp_factorial(s_order, p)
    trs = nuclear_traces(spec, s_order, t_order, inner)
    C = exp_from_power_sums([-TruncSeries("pi", t, inner, p) for t in trs], "s")
    out = TruncSeries("s", compose(C.coeffs, pi_of_T(p, t_order, inner)))
    got = min(col.prec for col in out.coeffs)
    if got < digits:
        raise InsufficientPrecision(f"operator series certified only to {got} digits")
    return out

