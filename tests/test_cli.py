import json
import time

import pytest

from asw_slopes import cli
from asw_slopes.errors import DegreeViolation

P2 = ["--p", "2", "--a", "1", "--f", "1,0,0,0"]  # x^3 over F_2


def run(capsys, argv):
    code = cli.main(argv)
    cap = capsys.readouterr()
    return code, cap.out, cap.err


def test_lfun_worked_example(capsys):
    code, out, err = run(capsys, ["lfun", *P2, "--m", "1"])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["coefficients"] == [1, 0, 2]
    assert doc["rational_coefficients"] == [1, 0, 2]
    assert doc["degree"] == 2
    assert doc["slopes"] == [[1, 2], [1, 2]]


def test_output_is_byte_identical_across_runs(capsys):
    runs = [run(capsys, ["charfn", *P2, "--t-order", "6", "--s-order", "3", "--digits", "4"]) for _ in range(2)]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0


def test_expsum_pathways(capsys):
    code, out, _ = run(capsys, ["expsum", *P2, "--k", "1", "--t-order", "4", "--digits", "4", "--method", "both"])
    assert code == 0
    doc = json.loads(out)
    assert doc["coefficients"] == [1, 1, 0, 0]
    assert doc["method"] == "both"


def test_charfn_both_methods_and_polygon(capsys):
    code, out, _ = run(capsys, ["charfn", *P2, "--t-order", "6", "--s-order", "3", "--digits", "4", "--method", "both"])
    assert code == 0
    doc = json.loads(out)
    assert doc["rows"][0][0] == 1
    assert doc["polygon"]["vertices"] == [[0, 0, 1], [1, 0, 1], [3, 1, 1]]


def test_slopes_formats(capsys):
    code, out, _ = run(capsys, ["slopes", *P2, "--m", "2", "--format", "csv"])
    assert code == 0
    lines = out.strip().split("\n")
    assert lines[0] == "slope_num,slope_den,multiplicity,predicted_multiplicity"
    assert lines[1] == "1,4,2,2"
    code, out, _ = run(capsys, ["slopes", *P2, "--m", "2", "--format", "svg"])
    assert code == 0 and out.startswith("<svg")
    code, out, _ = run(capsys, ["slopes", *P2, "--m", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"] and doc["slopes"] == doc["predicted"]


def test_verify_worked_example(capsys):
    code, out, _ = run(capsys, ["verify", *P2, "--m-max", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["ok"]
    assert doc["periodicity"]["ok"]
    assert all(h["ok"] for h in doc["hodge"])
    assert all(r["ok"] for r in doc["counts"])
    assert doc["turning"]["ok"]


def test_verify_turning_svg(capsys):
    code, out, _ = run(capsys, ["verify", *P2, "--check", "turning", "--format", "svg"])
    assert code == 0
    assert out.startswith("<svg")


def test_zeta_numerator(capsys):
    code, out, _ = run(capsys, ["zeta", *P2, "--m", "1"])
    assert code == 0
    doc = json.loads(out)
    assert doc["numerator_coefficients"] == [1, 0, 2]
    assert doc["genus_times_two"] == 2
    assert doc["denominator"] == [1, -3, 2]


def test_eigencurve_components(capsys):
    code, out, _ = run(capsys, ["eigencurve", *P2, "--components", "2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "components"
    assert len(doc["blocks"]) == 2
    for entry in doc["blocks"]:
        assert entry["law"]["ok"]
        assert len(entry["coefficients"]) == 4
    assert doc["engine"]["verified_digits"] > 0


def test_eigencurve_vertex_mode(capsys):
    code, out, _ = run(capsys, ["eigencurve", *P2, "--vertex", "3"])
    assert code == 0
    doc = json.loads(out)
    assert doc["mode"] == "vertex"
    assert doc["law"]["ok"]
    assert doc["factor"]["t_digits"] >= 2
    code2, out2, _ = run(capsys, ["eigencurve", *P2, "--vertex", "4"])
    assert code2 == 3  # not a multiple of d


def test_exit_code_precision(capsys):
    code, out, err = run(
        capsys,
        ["eigencurve", *P2, "--vertex", "3", "--t-order", "5", "--s-order", "8"],
    )
    assert code == 2 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "InsufficientPrecision"
    code, _, err = run(capsys, ["expsum", *P2, "--k", "25"])
    assert code == 2
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_budget_is_checked_before_any_histogram(capsys, tmp_path, monkeypatch):
    # the level-3 L-series of a quadric over F_3 needs F_{3^17}, past the
    # point budget: refuse at once, enumerating and caching nothing
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    start = time.perf_counter()
    code, out, err = run(capsys, ["slopes", "--p", "3", "--f", "1,0,0", "--m", "3"])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"
    assert list(tmp_path.iterdir()) == []


def test_verify_counts_with_several_monomials(capsys):
    code, out, _ = run(capsys, ["verify", "--p", "2", "--f", "1,0,0,1", "--check", "counts"])
    assert code == 0
    rows = json.loads(out)["counts"]
    assert all(r["ok"] and r["trace"] == r["character"] == r["witt"] for r in rows)


def test_exit_code_config(capsys):
    code, out, err = run(capsys, ["lfun", "--p", "4", "--f", "1,0", "--m", "1"])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "NotPrime"
    code, _, err = run(capsys, ["lfun", *P2])
    assert code == 3
    assert json.loads(err)["error"] == "ConfigError"
    # h = u^2 is reducible over F_3, so F_3[u]/(h) is not a field
    code, out, err = run(
        capsys, ["lfun", "--p", "3", "--a", "2", "--f", "1,0,0", "--m", "1", "--h", "1,0,0"]
    )
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ConfigError"


def test_exit_code_verification(capsys, monkeypatch):
    def boom(spec, m):
        raise DegreeViolation("forced failure")

    monkeypatch.setattr(cli.tower, "zeta_numerator", boom)
    code, out, err = run(capsys, ["zeta", *P2, "--m", "1"])
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "DegreeViolation" and doc["message"] == "forced failure"


def test_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["zeta", *P2, "--m", "1", "--out", str(target)])
    assert code == 0 and out == ""
    code, direct, _ = run(capsys, ["zeta", *P2, "--m", "1"])
    assert target.read_text() == direct.rstrip("\n")


def test_cache_commands(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    _, cold, _ = run(capsys, ["expsum", *P2, "--k", "2", "--t-order", "4", "--digits", "3"])
    code, out, _ = run(capsys, ["cache", "list"])
    assert code == 0
    listing = json.loads(out)
    assert listing["dir"] == str(tmp_path)
    assert len(listing["entries"]) == 1
    _, warm, _ = run(capsys, ["expsum", *P2, "--k", "2", "--t-order", "4", "--digits", "3"])
    assert warm == cold
    code, out, _ = run(capsys, ["cache", "clear"])
    assert code == 0 and json.loads(out)["removed"] == 1
    _, out, _ = run(capsys, ["cache", "list"])
    assert json.loads(out)["entries"] == []
