"""Each independent check accepts a right answer and rejects a perturbed one.

    python3 -m pytest bench/test_checks.py

The charfn and eigencurve cases run the package on small queries; the rest
use values known in closed form.
"""

from __future__ import annotations

import contextlib
import copy
import io
import json
import os
import sys
from fractions import Fraction

import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import checks  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402


def _cli(argv, tmp_path, monkeypatch) -> dict:
    from asw_slopes import cli

    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert cli.main(argv) == 0
    return json.loads(out.getvalue())


def _slopes_payload(counter) -> dict:
    return {"slopes": sorted([s.numerator, s.denominator, n] for s, n in counter.items())}


# --- base slopes and the laws built on them --------------------------------

def test_brute_force_base_slopes_of_the_supersingular_cubic():
    # y^2 + y = x^3 over F_2 has L(s) = 1 + 2s^2
    assert checks.base_slopes(2, 1, [1, 0, 0, 0]) == [Fraction(1, 2)] * 2
    assert checks.base_slopes(2, 1, [1, 0, 0, 1]) == [Fraction(1, 2)] * 2


def test_ordinary_base_slopes():
    assert checks.base_slopes(5, 1, [3, 0, 1]) == [Fraction(1, 2)]
    with pytest.raises(ValueError):
        checks.base_slopes(3, 1, [1, 0, 0, 0, 0, 0])


def test_genus_matches_the_l_function_degrees():
    for p, d in ((2, 3), (2, 5), (3, 2), (5, 2)):
        for m in (1, 2, 3):
            degrees = sum((p - 1) * p ** (l - 1) * (p ** (l - 1) * d - 1) for l in range(1, m + 1))
            assert checks.genus_double(p, d, m) == degrees


def test_slopes_check_rejects_one_changed_slope():
    law = checks.level_law([Fraction(1, 2)] * 2, 2, 3)
    good = _slopes_payload(law)
    assert checks.check_slopes(2, 1, [1, 0, 0, 0], 3, good) == law
    bad = copy.deepcopy(good)
    bad["slopes"][0][0] += 1  # one slope moved, count unchanged
    with pytest.raises(CheckError):
        checks.check_slopes(2, 1, [1, 0, 0, 0], 3, bad)


def test_slopes_check_rejects_a_symmetric_table_off_the_law():
    # right count, symmetric, above Hodge, but not the periodicity law
    off = _slopes_payload({Fraction(1, 2): 11})
    with pytest.raises(CheckError, match="periodicity law"):
        checks.check_slopes(2, 1, [1, 0, 0, 0], 3, off)


# --- zeta and counts --------------------------------------------------------

ZETA_2_3_1 = [1, 0, 2]  # y^2 + y = x^3 over F_2
COUNTS_2_3_1 = {1: 2, 2: 8, 3: 8, 4: 8}


def test_zeta_check_rejects_one_changed_coefficient():
    checks.check_zeta(2, 1, 3, 1, ZETA_2_3_1)
    with pytest.raises(CheckError):
        checks.check_zeta(2, 1, 3, 1, [1, 0, 4])
    with pytest.raises(CheckError):
        checks.check_zeta(2, 1, 3, 1, [1, 0, 2, 0])


def test_counts_check_rejects_one_changed_count():
    for k, n in COUNTS_2_3_1.items():
        row = {"m": 1, "k": k, "witt": n, "trace": n, "character": n}
        checks.check_counts(2, 1, 3, row, ZETA_2_3_1)
    row = {"m": 1, "k": 4, "witt": 10, "trace": 10, "character": 10}
    with pytest.raises(CheckError):
        checks.check_counts(2, 1, 3, row, ZETA_2_3_1)
    row = {"m": 1, "k": 4, "witt": 8, "trace": 8, "character": 10}
    with pytest.raises(CheckError):
        checks.check_counts(2, 1, 3, row, ZETA_2_3_1)


# --- characteristic series and blocks, on the program's own answers ---------

def test_charfn_check_rejects_one_changed_coefficient(tmp_path, monkeypatch):
    payload = _cli(
        ["charfn", "--p", "2", "--f", "1,0,0,1", "--t-order", "7", "--s-order", "8", "--digits", "4"],
        tmp_path, monkeypatch,
    )
    checks.check_charfn(2, 3, payload)
    below = copy.deepcopy(payload)
    below["rows"][4][1] = 2  # s^4 must vanish below T^2
    with pytest.raises(CheckError, match="below the floor"):
        checks.check_charfn(2, 3, below)
    contact = copy.deepcopy(payload)
    contact["rows"][3][1] += 1  # s^3 T^1 is a unit; make it even
    with pytest.raises(CheckError, match="not a unit"):
        checks.check_charfn(2, 3, contact)


@pytest.fixture(scope="module")
def block_answers(tmp_path_factory):
    mp = pytest.MonkeyPatch()
    tmp = tmp_path_factory.mktemp("cache")
    try:
        eig = _cli(
            ["eigencurve", "--p", "2", "--f", "1,0,0,0", "--components", "2", "--digits", "4", "--levels", "2,3"],
            tmp, mp,
        )
        cf = _cli(
            ["charfn", "--p", "2", "--f", "1,0,0,0", "--t-order", str(eig["t_order"]),
             "--s-order", str(eig["s_order"]), "--digits", str(eig["digits"])],
            tmp, mp,
        )
    finally:
        mp.undo()
    return eig, cf


def test_blocks_check_rejects_one_changed_factor_coefficient(block_answers):
    eig, cf = block_answers
    checks.check_blocks(2, 1, [1, 0, 0, 0], eig, cf)
    bad = copy.deepcopy(eig)
    bad["blocks"][0]["coefficients"][1][0] += 1  # s^1 T^0 of the first factor
    with pytest.raises(CheckError, match="product of factors"):
        checks.check_blocks(2, 1, [1, 0, 0, 0], bad, cf)


def test_blocks_check_rejects_one_changed_law_slope(block_answers):
    eig, cf = block_answers
    bad = copy.deepcopy(eig)
    bad["blocks"][1]["law"]["levels"][0]["slopes"][0][0] += 1
    with pytest.raises(CheckError, match="law"):
        checks.check_blocks(2, 1, [1, 0, 0, 0], bad, cf)


def test_blocks_check_rejects_a_changed_series_coefficient(block_answers):
    eig, cf = block_answers
    bad = copy.deepcopy(cf)
    bad["rows"][2][1] += 1  # inside the window the factors certify
    with pytest.raises(CheckError):
        checks.check_blocks(2, 1, [1, 0, 0, 0], eig, bad)


# --- workloads ----------------------------------------------------------------

@pytest.mark.parametrize("name", workloads.NAMES)
def test_a_seed_fixes_the_inputs_and_the_work(name):
    a, b = workloads.build(name, 7), workloads.build(name, 7)
    assert a.queries == b.queries
    shapes = {
        tuple(
            (q["argv"][0], len(q["argv"])) if q["kind"] == "cli" else (q["m"], q["k"])
            for q in workloads.build(name, seed).queries
        )
        for seed in range(20)
    }
    assert len(shapes) == 1  # the seed never changes which queries run
