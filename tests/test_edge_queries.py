"""Oversized but well-formed queries end with a documented exit code.

Each query runs in its own interpreter under a 20 s timeout. A refusal
exits 2 with one JSON line on stderr; a query the library can answer exits
0. None may exit 4 (an internal error) or run past the timeout. The answered
ones read the weight law at levels 30 and 999, where Z[zeta] has 2^29 and
2^998 coordinates: a block's pi-digits are no longer than its T-rows, and
every level in the annulus reads the slopes of level 2.
"""

import json
import os
import subprocess
import sys
import time

import pytest

import asw_slopes

SRC = os.path.dirname(os.path.dirname(asw_slopes.__file__))
F2 = ["--p", "2", "--f", "1,0,0,1"]  # x^3 + 1 over F_2

REFUSED = {
    "slopes-m40": ["slopes", *F2, "--m", "40"],
    "lfun-m30": ["lfun", "--p", "3", "--f", "1,0,2", "--m", "30"],
    "charfn-s200000": ["charfn", *F2, "--s-order", "200000", "--t-order", "2"],
    "expsum-k100000": ["expsum", *F2, "--k", "100000"],
    "eigencurve-40-blocks": ["eigencurve", *F2, "--components", "40"],
    "charfn-operator-t5000": [
        "charfn", *F2, "--method", "operator", "--t-order", "5000", "--s-order", "3", "--digits", "2"
    ],
}
# refused by the elimination budget before any elimination array exists,
# each in under 2 s; they once ran for seconds and asked for 8.5 GiB or
# more, or exited 3
ELIMINATION = {
    f"eigencurve-x+1-{count}-blocks": [
        "eigencurve", "--p", "2", "--f", "1,1", "--components", str(count)
    ]
    for count in (14, 16, 17)
}
REFUSED.update(ELIMINATION)
ANSWERED = {
    f"eigencurve-level-{top}": [
        "eigencurve", *F2, "--components", "3", "--digits", "6", "--levels", f"2,{top}"
    ]
    for top in (30, 999)
}


def _run(argv):
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    code = "import sys; from asw_slopes.cli import main; sys.exit(main())"
    return subprocess.run(
        [sys.executable, "-c", code, *argv], capture_output=True, text=True, env=env, timeout=20
    )


@pytest.mark.parametrize(
    "argv, want", [(a, 2) for a in REFUSED.values()] + [(a, 0) for a in ANSWERED.values()],
    ids=[*REFUSED, *ANSWERED],
)
def test_oversized_queries_exit_with_a_documented_code(argv, want):
    start = time.perf_counter()
    out = _run(argv)
    if argv in ELIMINATION.values():
        assert time.perf_counter() - start < 2
    assert out.returncode == want, out.stderr
    if want == 2:
        assert out.stdout == "" and out.stderr.count("\n") == 1
        assert json.loads(out.stderr)["error"] == "BudgetExceeded"
    else:
        assert out.stderr == ""
        for block in json.loads(out.stdout)["blocks"]:
            low, high = block["law"]["levels"]
            assert block["law"]["ok"] and low["m"] == 2 and high["slopes"] == low["slopes"]
