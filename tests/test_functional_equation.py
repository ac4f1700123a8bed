"""The half read of each L-series against full enumeration.

`l_series` enumerates F_{q^k} only for k <= ceil(D/2) and rebuilds the rest
from a_D conj(a_{D-n}) = q^{D-n} a_n, and `expsum.l_newton` reads
k <= floor(D/2) at c = 1 and mirrors the valuations.  At every (tower,
level) the other tests enumerate in full, and for every unit c, both must
give what enumerating every k <= D for L(psi^c) gives.  That full read is
checked on its own: enumerated past D it vanishes there, its leading
coefficient a_D is nonzero, and it satisfies the functional equation.
"""

import pytest

from asw_slopes import expsum
from asw_slopes.errors import VerificationError
from asw_slopes.expsum import (
    TowerSpec,
    _enumerate,
    l_degree,
    l_series,
    q_normalization,
    trace_histogram,
)
from asw_slopes.padic import CycInt
from asw_slopes.series import exp_from_power_sums
from oracles import newton_from_cyclotomic, punctured_character_sum

# (p, a, f ascending, levels); the first three have a_{floor(D/2)} = 0 at
# m = 1, where the exact read falls back to enumerating every k <= D
CASES = [
    (2, 1, [0, 0, 0, 1], (1, 2, 3)),  # x^3
    (2, 1, [1, 0, 0, 1], (1, 2, 3)),  # x^3 + 1
    (2, 1, [1, 0, 0, 0, 0, 1], (1, 2)),  # x^5 + 1
    (2, 1, [1, 1, 0, 1], (1, 2)),  # x^3 + x + 1
    (2, 2, [1, 0, 0, 1], (1, 2)),  # x^3 + 1 over F_4
    (3, 1, [0, 0, 1], (1, 2)),  # x^2
    (3, 1, [2, 0, 1], (1, 2)),  # x^2 + 2
    (3, 1, [1, 1, 2], (1, 2)),  # 2x^2 + x + 1
    (3, 1, [0, 0, 0, 0, 1], (1,)),  # x^4
    (3, 2, [2, 0, 1], (1, 2)),  # x^2 + 2 over F_9
    (5, 1, [0, 0, 1], (1, 2)),  # x^2
    (5, 1, [1, 2, 1], (1,)),  # x^2 + 2x + 1
]
FALLBACK = {(2, 1, (0, 0, 0, 1)), (2, 1, (1, 0, 0, 1)), (2, 1, (1, 0, 0, 0, 0, 1))}

LEVELS = [
    pytest.param(p, a, f, m, id=f"p{p}a{a}-{''.join(map(str, f))}-m{m}")
    for p, a, f, levels in CASES
    for m in levels
]


def _units(p, m):
    return [c for c in range(1, p**m) if c % p]


def _holds(L, q, D):
    a = L.coeffs
    return all(a[D] * a[D - n].conjugate(-1) == a[n].scale(q ** (D - n)) for n in range(D + 1))


def _past_degree(spec, D):
    """D + 2, or the largest k <= D + 2 whose field the budget admits."""
    k = D + 2
    while spec.q**k - 1 > expsum.MAX_POINTS:
        k -= 1
    return k


@pytest.mark.parametrize("p, a, f, m", LEVELS)
def test_the_full_read_meets_the_identities(p, a, f, m):
    spec = TowerSpec(p, a, f)
    D = l_degree(spec, m)
    K = _past_degree(spec, D)
    assert K > D
    for c in _units(p, m):
        L = _enumerate(spec, m, c, K)
        assert all(z.is_zero() for z in L.coeffs[D + 1 :]), c
        assert not L.coeffs[D].is_zero(), c
        assert _holds(L, spec.q, D), c


@pytest.mark.parametrize("p, a, f, m", LEVELS)
def test_half_read_equals_full_enumeration(p, a, f, m):
    # every unit c: L(psi^c) = sigma_c(L(psi)) and v_pi is Galois-invariant,
    # so the one level polygon l_newton reads at c = 1 is that of each psi^c
    spec = TowerSpec(p, a, f)
    D = l_degree(spec, m)
    for c in _units(p, m):
        full = _enumerate(spec, m, c, D)
        assert l_series(spec, m, c).coeffs == full.coeffs
        # the punctured series from the sums over the nonzero points alone
        hists = [trace_histogram(spec, k, m) for k in range(1, D + 2)]
        punctured = exp_from_power_sums([punctured_character_sum(h, m, c) for h in hists], "s")
        assert l_series(spec, m, c, punctured=True).coeffs == punctured.coeffs
        want = newton_from_cyclotomic(
            full.coeffs, scale=q_normalization(p, a, m), source=f"q-adic level {m}"
        )
        assert expsum.series_newton(spec, m, full) == want
        assert expsum.l_newton(spec, m) == want, c


@pytest.mark.parametrize("p, a, f, m", LEVELS)
def test_the_half_read_enumerates_no_field_past_half_the_degree(p, a, f, m, monkeypatch):
    spec = TowerSpec(p, a, f)
    D = l_degree(spec, m)
    read = []
    histogram = expsum.trace_histogram

    def recording(spec, k, digits):
        read.append(k)
        return histogram(spec, k, digits)

    monkeypatch.setattr(expsum, "trace_histogram", recording)
    expsum.l_newton(spec, m)
    assert max(read, default=0) == D // 2
    read.clear()
    l_series(spec, m)
    fallback = m == 1 and (p, a, tuple(f)) in FALLBACK
    assert max(read, default=0) == (D if fallback else (D + 1) // 2)
    assert _enumerate(spec, m, 1, D // 2).coeffs[D // 2].is_zero() == fallback


def _perturbed_at(n, monkeypatch):
    """exp_from_power_sums with a_n raised by 1."""
    exp = expsum.exp_from_power_sums

    def perturbed(sums, var):
        L = exp(sums, var)
        coeffs = list(L.coeffs)
        if n < len(coeffs):
            one = CycInt.from_int(coeffs[0].p, coeffs[0].m, 1)
            coeffs[n] = coeffs[n] + one
        return type(L)(var, coeffs)

    monkeypatch.setattr(expsum, "exp_from_power_sums", perturbed)


@pytest.mark.parametrize(
    "p, a, f, m",
    [(2, 1, [1, 0, 0, 1], 3), (3, 1, [2, 0, 1], 2), (5, 1, [0, 0, 1], 2), (3, 2, [2, 0, 1], 2)],
)
def test_a_perturbed_low_coefficient_never_passes(p, a, f, m, monkeypatch):
    spec = TowerSpec(p, a, f)
    D = l_degree(spec, m)
    truth = l_series(spec, m)
    for n in range(1, (D + 1) // 2 + 1):
        with monkeypatch.context() as mp:
            _perturbed_at(n, mp)
            # the rebuild raises or gives another upper half
            top = (D + 1) // 2 + 1
            try:
                rebuilt = l_series(spec, m)
            except VerificationError:
                pass
            else:
                assert rebuilt.coeffs[top:] != truth.coeffs[top:]
            # a full read fails the functional-equation check
            with pytest.raises(VerificationError):
                expsum._check_functional_equation(_enumerate(spec, m, 1, D), D, spec.q)
