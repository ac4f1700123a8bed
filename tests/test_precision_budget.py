"""The declared precision of C(T, s) is the guard budget, on both pathways.

char_series and char_series_via_operator spend v_p(s_order!) guard digits
on the exp denominators, so column n of C is certified to exactly
digits + v_p(s_order!) - v_p(n!) digits: no more, whichever values vanish.
"""

import json
import random

import pytest

from asw_slopes import cli
from asw_slopes.dwork import char_series_via_operator
from asw_slopes.expsum import TowerSpec, char_series
from asw_slopes.padic import vp_factorial


def _towers():
    # x^3 over F_2 at (9, 7, 4): per-element precision bookkeeping that
    # skips zero products declares columns [8, 8, 7, 8, 6, 6, 5, 5] there,
    # one digit more than the budget in four columns
    rng = random.Random(20261018)
    out = [(TowerSpec(2, 1, [0, 0, 0, 1]), 9, 7, 4)]
    for p, s_max in ((2, 7), (3, 4), (5, 3)):
        for _ in range(2):
            d = rng.choice([d for d in (2, 3, 4, 5) if d % p])
            f = [rng.randrange(p) for _ in range(d)] + [rng.randrange(1, p)]
            out.append((TowerSpec(p, 1, f), rng.randrange(3, 9), rng.randrange(2, s_max + 1),
                        rng.randrange(1, 5)))
    return out


@pytest.mark.parametrize("build", [char_series, char_series_via_operator],
                         ids=["points", "operator"])
def test_column_precision_is_the_budget(build):
    for spec, t_order, s_order, digits in _towers():
        p = spec.p
        C = build(spec, t_order, s_order, digits)
        wide = build(spec, t_order, s_order, digits + 4)
        for n, (col, deep) in enumerate(zip(C.coeffs, wide.coeffs)):
            want = digits + vp_factorial(s_order, p) - vp_factorial(n, p)
            assert col.prec == want, (spec, s_order, digits, n)
            assert col.coeffs == [c % p**want for c in deep.coeffs], (spec, n)


@pytest.mark.parametrize("argv,digits", [
    (["--vertex", "3"], 4),
    (["--components", "2", "--digits", "5"], 5),
    (["--components", "3", "--digits", "6", "--levels", "2,3"], 6),
])
def test_eigencurve_prints_the_requested_digits(capsys, argv, digits):
    code = cli.main(["eigencurve", "--p", "2", "--f", "1,0,0,0", *argv])
    doc = json.loads(capsys.readouterr().out)
    assert code == 0
    factors = [doc["factor"]] if "factor" in doc else doc["blocks"]
    for factor in factors:
        assert factor["p_digits"] == digits
        assert all(0 <= v < 2**digits for row in factor["coefficients"] for v in row)
