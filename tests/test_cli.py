import hashlib
import json
import time
from collections import Counter
from fractions import Fraction

import pytest

from asw_slopes import cli, dwork, expsum, tower
from asw_slopes.errors import ConfigError, DegreeViolation
from asw_slopes.newton import NewtonPolygon

P2 = ["--p", "2", "--a", "1", "--f", "1,0,0,0"]  # x^3 over F_2
P3 = ["--p", "3", "--f", "1,0,2"]  # x^2 + 2 over F_3


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


@pytest.mark.parametrize(
    "tower,vertex,count",
    [(P2, 3, 1), (P2, 6, 2), (P2, 9, 3), (P3, 2, 1), (P3, 4, 2), (P3, 6, 3),
     ([*P3, "--digits", "20"], 2, 1)],
)
def test_vertex_factor_is_the_product_of_components(capsys, tower, vertex, count):
    code, out, err = run(capsys, ["eigencurve", *tower, "--vertex", str(vertex)])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["law"]["ok"] and doc["law"]["blocks"] == list(range(1, count + 1))
    assert "gamma" not in doc
    comp = _eigencurve_blocks(capsys, [*tower, "--components", str(count)])
    assert (doc["t_order"], doc["s_order"]) == (comp["t_order"], comp["s_order"])
    # plain bivariate convolution of the blocks: a digit it reads past some
    # input's window lands past the product's certified window, so on that
    # window it must agree with the vertex factor digit for digit
    prod = [[1]]
    for block in comp["blocks"]:
        rows = block["coefficients"]
        out_rows = [[] for _ in range(len(prod) + len(rows) - 1)]
        for j, a in enumerate(prod):
            for k, b in enumerate(rows):
                acc = out_rows[j + k]
                acc.extend([0] * (len(a) + len(b) - 1 - len(acc)))
                for s, x in enumerate(a):
                    for t, y in enumerate(b):
                        acc[s + t] += x * y
        prod = out_rows
    factor = doc["factor"]
    mod = int(tower[1]) ** factor["p_digits"]
    assert len(factor["coefficients"]) == vertex + 1 == len(prod)
    for got, full in zip(factor["coefficients"], prod):
        assert got == [v % mod for v in full[: len(got)]]
    assert factor["t_digits"] == min(len(c) for c in factor["coefficients"][1:])


def test_exit_code_precision(capsys):
    # a T-window too short to show a vertex past the block corner
    for argv in (
        ["--vertex", "3", "--t-order", "2"],
        ["--components", "1", "--t-order", "2", "--s-order", "8"],
        ["--components", "1", "--t-order", "1", "--s-order", "8"],
    ):
        code, out, err = run(capsys, ["eigencurve", *P2, *argv])
        assert code == 2 and out == ""
        doc = json.loads(err)
        assert doc["error"] == "InsufficientPrecision"
        assert "T-order" in doc["message"]
    code, _, err = run(capsys, ["expsum", *P2, "--k", "25"])
    assert code == 2
    assert json.loads(err)["error"] == "BudgetExceeded"


def test_budget_is_checked_before_any_histogram(capsys, tmp_path, monkeypatch):
    # the level-4 polygon of a quadric over F_3 reads its L-series (degree
    # 53) up to F_{3^26}, past the point budget: refuse at once, enumerating
    # and caching nothing
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    start = time.perf_counter()
    code, out, err = run(capsys, ["slopes", "--p", "3", "--f", "1,0,0", "--m", "4"])
    assert time.perf_counter() - start < 2
    assert code == 2 and out == ""
    assert json.loads(err)["error"] == "BudgetExceeded"
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize(
    "argv", [["slopes", *P3, "--m", "3"], ["slopes", *P2, "--m", "5"]], ids=["p3-m3", "p2-m5"]
)
def test_deep_slopes_fit_the_point_budget(capsys, argv):
    # degrees 17 and 47: the polygons read F_{3^8} and F_{2^23}, inside the
    # point budget, where reading every k <= D was past it
    code, out, err = run(capsys, argv)
    assert code == 0 and err == "" and json.loads(out)["ok"] is True


def test_no_histogram_is_cached_past_half_the_degree(capsys, tmp_path, monkeypatch):
    # slopes reads k <= floor(17/2) for its level-3 polygon, zeta reads
    # k <= ceil(5/2) for the exact level-2 L-series
    for argv, k_max in ((["slopes", *P3, "--m", "3"], 8), (["zeta", *P3, "--m", "2"], 3)):
        cache = tmp_path / argv[0]
        monkeypatch.setenv("ASW_CACHE_DIR", str(cache))
        assert run(capsys, argv)[0] == 0
        ks = [int(x.name.split("_k")[1].split("_")[0]) for x in cache.iterdir()]
        assert max(ks) == k_max


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
    # window flags are checked at the edge, and the two eigencurve modes
    # exclude each other
    for argv in (
        ["eigencurve", *P2, "--t-order", "0"],
        ["eigencurve", *P2, "--s-order", "0"],
        ["eigencurve", *P2, "--s-order", "-2"],
        ["eigencurve", *P2, "--components", "0"],
        ["eigencurve", *P2, "--vertex", "0"],
        ["eigencurve", *P2, "--components", "2", "--vertex", "3"],
        ["eigencurve", *P2, "--levels", ","],
        ["verify", *P2, "--m-max", "0"],
        ["charfn", *P2, "--s-order", "0"],
        ["verify", *P2, "--check", "turning", "--t-order", "-1"],
        ["zeta", *P2, "--m", "-1"],
    ):
        code, out, err = run(capsys, argv)
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "ConfigError"


def test_empty_fields_of_an_integer_list_are_a_config_error(capsys):
    # they were dropped: --f 1,,0,1 answered for x^2 + 1 and exited 0
    lfun = ["lfun", "--p", "3", "--m", "1"]
    for flags, text in (
        ([*lfun, "--f"], "1,,0,1"),
        ([*lfun, "--f"], ",1,0,1"),
        ([*lfun, "--f"], "1,0,1,"),
        ([*lfun, "--f"], ""),
        ([*lfun, "--a", "2", "--f", "1,0,1", "--h"], "1,,1"),
        ([*lfun, "--a", "2", "--f", "1,0,1", "--h"], ""),
        (["eigencurve", *P2, "--levels"], "2,,3"),
        (["eigencurve", *P2, "--levels"], ","),
        (["eigencurve", *P2, "--levels"], ""),
    ):
        code, out, err = run(capsys, [*flags, text])
        assert code == 3 and out == "", text
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"expected comma-separated integers, got {text!r}",
        }


@pytest.mark.parametrize(
    "argv",
    [
        ["charfn", "--p", "2", "--f", "1,0,0,1", "--s-order", "3"],
        ["charfn", "--p", "3", "--f", "1,0,2", "--s-order", "4", "--digits", "3"],
        ["expsum", "--p", "3", "--f", "1,0,2", "--k", "2"],
    ],
)
def test_operator_pathway_takes_t_order_1(capsys, argv):
    # it exited 3 with "reversion needs a unit linear term"
    docs = []
    for method in ("points", "operator", "both"):
        code, out, err = run(capsys, [*argv, "--t-order", "1", "--method", method])
        assert (code, err) == (0, ""), method
        docs.append({k: v for k, v in json.loads(out).items() if k != "method"})
    assert docs[0] == docs[1] == docs[2]


def test_coefficients_outside_the_base_field_are_named_at_the_edge(capsys):
    for f, bad, q in (("1,0,5", 5, 3), ("-1,0,0,0", -1, 3)):
        code, out, err = run(capsys, ["slopes", "--p", "3", f"--f={f}", "--m", "1"])
        assert code == 3 and out == ""
        assert json.loads(err) == {
            "error": "ConfigError",
            "message": f"coefficient {bad} of f out of range [0, {q})",
        }


def test_digits_below_one_are_a_config_error(capsys):
    for digits in ("0", "-1"):
        code, out, err = run(
            capsys, ["charfn", *P2, "--t-order", "3", "--s-order", "2", "--digits", digits]
        )
        assert code == 3 and out == ""
        assert json.loads(err)["error"] == "ConfigError"


def test_truncated_cache_entry_is_recomputed(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    argv = ["lfun", *P2, "--m", "1"]
    _, fresh, _ = run(capsys, argv)
    entry = sorted(tmp_path.iterdir())[0]
    entry.write_text(entry.read_text()[:20])
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert out == fresh


@pytest.mark.parametrize("mode", [["--components", "1"], ["--components", "2"], ["--vertex", "5"]])
def test_eigencurve_passes_an_interior_lattice_point_of_a_segment(capsys, mode):
    # the T-adic polygon of x^5 + 1 over F_2 has vertices at x = 0, 1, 5, 6, 7:
    # x = 3 lies inside the slope-1/2 segment, where no block coefficient is
    # forced to meet the hull, so only vertices are checked for a unit lead
    code, out, err = run(capsys, ["eigencurve", "--p", "2", "--f", "1,0,0,0,0,1", *mode])
    assert (code, err) == (0, "")
    doc = json.loads(out)
    laws = [doc["law"]] if "law" in doc else [b["law"] for b in doc["blocks"]]
    assert all(law["ok"] and all(lv["ok"] for lv in law["levels"]) for law in laws)


def test_expsum_degree_below_one_is_a_config_error(capsys):
    # --k 0 once printed eight zero coefficients by the operator pathway and
    # exited 0; --k -1 exited 4 with an IndexError
    for k in ("0", "-1"):
        for method in ("operator", "points", "both"):
            code, out, err = run(capsys, ["expsum", *P2, "--k", k, "--method", method])
            assert code == 3 and out == "", (k, method)
            assert json.loads(err)["error"] == "ConfigError"
    spec = expsum.TowerSpec(2, 1, [0, 0, 0, 1])
    for k in (0, -1):
        with pytest.raises(ConfigError):
            dwork.t_adic_sum_via_operator(spec, k, 8, 6)


def test_exact_commands_take_no_digits(capsys):
    # lfun, slopes and zeta compute exactly; a --digits there set nothing
    for command in ("lfun", "slopes", "zeta"):
        argv = [command, *P2, "--m", "1"]
        assert run(capsys, argv)[0] == 0
        code, out, err = run(capsys, [*argv, "--digits", "3"])
        assert code == 3 and out == "" and json.loads(err)["error"] == "ConfigError"


def test_turning_svg_is_drawn_only_for_svg_output(capsys, monkeypatch):
    drawn = []
    render = cli.render_svg
    monkeypatch.setattr(cli, "render_svg", lambda *a, **k: drawn.append(1) or render(*a, **k))
    argv = ["verify", *P2, "--check", "turning"]
    code, out, _ = run(capsys, argv)
    assert code == 0 and drawn == []
    assert sorted(json.loads(out)["turning"]) == ["ok", "polygon", "touch"]
    code, out, _ = run(capsys, [*argv, "--format", "svg"])
    assert code == 0 and out.startswith("<svg") and drawn == [1]


def test_exit_code_verification(capsys, monkeypatch):
    def boom(spec, m):
        raise DegreeViolation("forced failure")

    monkeypatch.setattr(cli.tower, "zeta_numerator", boom)
    code, out, err = run(capsys, ["zeta", *P2, "--m", "1"])
    assert code == 1 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "DegreeViolation" and doc["message"] == "forced failure"


def test_slopes_exits_1_on_a_failed_verdict_in_every_format(capsys, monkeypatch):
    predicted = cli.tower.predicted_slopes

    def one_more(spec, m, base=None):
        return predicted(spec, m, base) + Counter({Fraction(1, 2): 1})

    monkeypatch.setattr(cli.tower, "predicted_slopes", one_more)
    for fmt, head in (("json", "{"), ("csv", "slope_num"), ("svg", "<svg")):
        code, out, err = run(capsys, ["slopes", *P2, "--m", "2", "--format", fmt])
        assert (code, err) == (1, "") and out.startswith(head), fmt
        if fmt == "json":
            assert json.loads(out)["ok"] is False


def test_parser_is_built_once_per_process(capsys, monkeypatch):
    parser = cli.build_parser()
    used = []
    parse_args = cli._Parser.parse_args
    monkeypatch.setattr(
        cli._Parser, "parse_args", lambda self, *a: used.append(self) or parse_args(self, *a)
    )
    argv = ["zeta", *P2, "--m", "1"]
    first = run(capsys, argv)
    code, out, err = run(capsys, ["zeta", *P2, "--m", "one"])
    assert code == 3 and out == "" and json.loads(err)["error"] == "ConfigError"
    assert first[0] == 0 and run(capsys, argv) == first
    assert used == [parser] * 3


@pytest.mark.parametrize(
    "argv, calls",
    [
        (["lfun", "--p", "3", "--f", "1,0,2", "--m", "2"], 1),
        (["verify", "--p", "2", "--f", "1,0,0,1", "--check", "all"], 2),
    ],
)
def test_each_l_series_is_computed_once_per_command(capsys, monkeypatch, argv, calls):
    levels = []
    l_series = expsum.l_series

    def counting(spec, m, *args, **kwargs):
        levels.append(m)
        return l_series(spec, m, *args, **kwargs)

    monkeypatch.setattr(cli.expsum, "l_series", counting)
    monkeypatch.setattr(cli.tower, "l_series", counting)
    assert run(capsys, argv)[0] == 0
    assert len(levels) == len(set(levels)) == calls


def test_internal_error_exits_4(capsys, monkeypatch):
    # a bug is neither a verdict (1) nor a precision (2) or usage (3) problem
    def boom(spec, m):
        raise AssertionError("splitting coefficient below its w-floor")

    monkeypatch.setattr(cli.tower, "zeta_numerator", boom)
    code, out, err = run(capsys, ["zeta", *P2, "--m", "1"])
    assert code == cli.EXIT_INTERNAL == 4 and out == ""
    doc = json.loads(err)
    assert doc == {
        "error": "AssertionError",
        "message": "splitting coefficient below its w-floor",
    }


def _eigencurve_blocks(capsys, argv):
    code, out, err = run(capsys, ["eigencurve", *argv])
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert all(b["law"]["ok"] for b in doc["blocks"])
    return doc


def test_eigencurve_wide_digits_stay_exact(capsys):
    # at 21 digits N (3^21 - 1)^2 passes 2^63: the elimination must leave
    # int64, and its answer must reduce to the 19-digit one
    tower = ["--p", "3", "--f", "1,0,2", "--components", "2"]
    narrow = _eigencurve_blocks(capsys, [*tower, "--digits", "19"])
    wide = _eigencurve_blocks(capsys, [*tower, "--digits", "21"])
    assert wide["engine"] == narrow["engine"]
    for a, b in zip(narrow["blocks"], wide["blocks"]):
        assert [[v % 3**19 for v in row] for row in b["coefficients"]] == a["coefficients"]


@pytest.mark.parametrize(
    "argv,engine,blocks",
    [
        (
            ["--p", "2", "--f", "1,0,0,1", "--digits", "6", "--levels", "2,3"],
            {
                "orders": {
                    "0,1": 4, "0,2": 4, "0,3": 5, "1,1": 4, "1,2": 5,
                    "1,3": 7, "2,1": 4, "2,2": 6, "2,3": 8,
                },
                "solved_digits": 24,
                "sweeps": 5,
                "tail_orders": [4, 6, 9, 12, 15, 18, 21, 24, 27, 30],
                "verified_digits": 81,
            },
            [
                [[63, 63, 0, 0], [0, 63, 62, 63], [0, 1, 3, 3, 31]],
                [[0, 63, 42, 57], [0, 0, 0, 21, 51], [0, 0, 0, 0, 43, 63, 1]],
                [[0, 0, 21, 54], [0, 0, 0, 0, 0, 27], [0, 0, 0, 0, 0, 0, 0, 55]],
            ],
        ),
        (
            ["--p", "3", "--f", "1,0,2"],
            {
                "orders": {"0,1": 7, "0,2": 7, "1,1": 7, "1,2": 9, "2,1": 7, "2,2": 11},
                "solved_digits": 28,
                "sweeps": 7,
                "tail_orders": [7, 12, 18, 24, 30, 36, 42],
                "verified_digits": 84,
            },
            [
                [[80, 0, 41, 70, 67, 16, 14], [0, 1, 38, 55, 39, 27, 39]],
                [[0, 0, 40, 11, 12, 36, 21], [0, 0, 0, 0, 0, 76, 63, 7, 59]],
                [[0, 0, 0, 0, 2, 29, 72], [0, 0, 0, 0, 0, 0, 0, 0, 0, 70, 31]],
            ],
        ),
        (
            ["--p", "2", "--f", "1,0,0,1", "--digits", "6", "--levels", "2,3", "--components", "4"],
            {
                "orders": {
                    "0,1": 5, "0,2": 5, "0,3": 6, "1,1": 5, "1,2": 6, "1,3": 8,
                    "2,1": 5, "2,2": 7, "2,3": 10, "3,1": 5, "3,2": 8, "3,3": 11,
                },
                "solved_digits": 38,
                "sweeps": 6,
                "tail_orders": [5, 8, 12, 16, 20, 24, 28, 32, 36, 40, 44, 48, 52],
                "verified_digits": 162,
            },
            [
                [[63, 63, 0, 0, 0], [0, 63, 62, 63, 34], [0, 1, 3, 3, 31, 3]],
                [[0, 63, 42, 57, 8], [0, 0, 0, 21, 51, 10], [0, 0, 0, 0, 43, 63, 1, 40]],
                [[0, 0, 21, 54, 16], [0, 0, 0, 0, 0, 27, 38], [0, 0, 0, 0, 0, 0, 0, 55, 16, 58]],
                [[0, 0, 0, 17, 1], [0, 0, 0, 0, 0, 0, 0, 41], [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 57]],
            ],
        ),
        (
            ["--p", "3", "--f", "1,0,2", "--components", "4"],
            {
                "orders": {
                    "0,1": 9, "0,2": 9, "1,1": 9, "1,2": 11,
                    "2,1": 9, "2,2": 13, "3,1": 9, "3,2": 15,
                },
                "solved_digits": 45,
                "sweeps": 9,
                "tail_orders": [9, 16, 24, 32, 40, 48, 56, 64, 72],
                "verified_digits": 165,
            },
            [
                [[80, 0, 41, 70, 67, 16, 14, 57, 53], [0, 1, 38, 55, 39, 27, 39, 67, 41]],
                [[0, 0, 40, 11, 12, 36, 21, 57, 31], [0, 0, 0, 0, 0, 76, 63, 7, 59, 19, 71]],
                [
                    [0, 0, 0, 0, 2, 29, 72, 60, 78],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 70, 31, 50, 14],
                ],
                [
                    [0, 0, 0, 0, 0, 0, 55, 69, 40],
                    [0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 19, 41],
                ],
            ],
        ),
    ],
)
def test_eigencurve_engine_and_factors_are_pinned(capsys, argv, engine, blocks):
    # the elimination's sweep order fixes its counters as well as its
    # digits; three blocks unless argv names its own --components
    doc = _eigencurve_blocks(capsys, ["--components", "3", *argv])
    assert len(doc["blocks"]) == len(blocks)
    assert doc["engine"] == engine
    for entry, want in zip(doc["blocks"], blocks):
        head, *rest = entry["coefficients"]
        assert head == [1] + [0] * (len(head) - 1)
        assert rest == want


@pytest.mark.parametrize(
    "argv, counters",
    [
        (["--p", "2", "--f", "1,0,0,1", "--digits", "6", "--components", "5"], (7, 55, 285)),
        (["--p", "3", "--f", "1,0,2", "--components", "5"], (11, 66, 286)),
    ],
)
def test_deep_eigencurve_engine_counters_are_pinned(capsys, argv, counters):
    # sweeps, solved digits and verified digits of five blocks; four are
    # pinned with their factors above
    engine = _eigencurve_blocks(capsys, argv)["engine"]
    assert (engine["sweeps"], engine["solved_digits"], engine["verified_digits"]) == counters


def test_out_file(capsys, tmp_path):
    target = tmp_path / "out.json"
    code, out, _ = run(capsys, ["zeta", *P2, "--m", "1", "--out", str(target)])
    assert code == 0 and out == ""
    code, direct, _ = run(capsys, ["zeta", *P2, "--m", "1"])
    assert target.read_text() == direct.rstrip("\n")


@pytest.mark.parametrize("target", ["", "missing/out.json"], ids=["directory", "no-parent"])
def test_unwritable_out_is_a_config_error(capsys, tmp_path, target):
    path = str(tmp_path / target) if target else str(tmp_path)
    code, out, err = run(capsys, ["zeta", *P2, "--m", "1", "--out", path])
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError" and path in doc["message"]


@pytest.mark.parametrize("target", ["", "missing/out.json"], ids=["directory", "no-parent"])
def test_unwritable_out_is_refused_before_any_work(capsys, tmp_path, monkeypatch, target):
    def compute(*_):
        raise AssertionError("computed before --out was checked")

    monkeypatch.setattr(expsum, "char_series", compute)
    path = str(tmp_path / target) if target else str(tmp_path)
    code, out, err = run(capsys, ["charfn", *P2, "--out", path])
    assert code == 3 and out == ""
    doc = json.loads(err)
    assert doc["error"] == "ConfigError" and path in doc["message"]


@pytest.mark.parametrize("below", ["", "sub"], ids=["file", "under-a-file"])
def test_an_unusable_cache_directory_changes_no_output(capsys, tmp_path, monkeypatch, below):
    argv = ["slopes", *P2, "--m", "1"]
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path / "cache"))
    _, usable, _ = run(capsys, argv)
    blocker = tmp_path / "file"
    blocker.write_text("")
    monkeypatch.setenv("ASW_CACHE_DIR", str(blocker / below) if below else str(blocker))
    assert run(capsys, argv) == (0, usable, "")
    assert blocker.read_text() == ""


@pytest.mark.parametrize("check", ["periodicity", "all"])
def test_m_max_below_the_stable_level_is_a_config_error(capsys, check):
    x11 = ["--p", "2", "--f", "1" + ",0" * 11]  # x^11 over F_2, stable level 2
    code, out, err = run(capsys, ["verify", *x11, "--check", check, "--m-max", "1"])
    assert code == 3 and out == ""
    assert json.loads(err)["error"] == "ConfigError"


@pytest.mark.parametrize(
    "p, f, m, end",
    [
        ("2", "1,0,0,0", 1, (2, Fraction(1))),
        ("2", "1,0,0,0", 2, (5, Fraction(5, 2))),
        ("2", "1,1", 1, (0, Fraction(0))),
        ("5", "1,0", 1, (0, Fraction(0))),
    ],
)
def test_slopes_svg_draws_the_hodge_bound_of_verify(capsys, monkeypatch, p, f, m, end):
    drawn, compared = [], []
    render = cli.render_svg
    monkeypatch.setattr(cli, "render_svg", lambda polys, **kw: drawn.append(polys) or render(polys, **kw))
    code, out, err = run(capsys, ["slopes", "--p", p, "--f", f, "--m", str(m), "--format", "svg"])
    assert code == 0 and err == "" and out.startswith("<svg")
    [(poly, _, _), (bound, _, _)] = drawn[0]
    # the bound verify_hodge compares against is the one it touches
    touch = NewtonPolygon.touch_points
    monkeypatch.setattr(NewtonPolygon, "touch_points", lambda s, o: compared.append(o) or touch(s, o))
    spec = expsum.TowerSpec(int(p), 1, [int(c) for c in reversed(f.split(","))])
    assert tower.verify_hodge(spec, m)["ok"]
    assert bound == compared[0]
    assert poly.dominates(bound)
    assert (bound.width, bound.y_at(bound.width)) == end


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


def test_cache_commands_act_on_regular_files_only(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    (tmp_path / "hist_x.json").mkdir()
    (tmp_path / "hist_y.json").write_text("{}")
    code, out, err = run(capsys, ["cache", "list"])
    assert (code, err) == (0, "")
    assert json.loads(out)["entries"] == [{"name": "hist_y.json", "bytes": 2}]
    code, out, err = run(capsys, ["cache", "clear"])
    assert (code, err) == (0, "")
    assert json.loads(out)["removed"] == 1
    assert sorted(x.name for x in tmp_path.iterdir()) == ["hist_x.json"]


# sha256 of the stdout of each query: a change to any digit, precision or
# key order shows here.  The p = 2 eigencurve digests pin that blocks are
# printed at exactly --digits p-adic digits, the last column's budget.
STDOUT_SHA256 = [
    pytest.param(
        ["charfn", "--p", "2", "--f", "1,0,0,1", "--method", "both", "--t-order", "28", "--s-order", "6", "--digits", "6"],
        "c412edfdb47dddb7cf76900b57e6b7c16081776bf08076eda53d5c4bc7c6f24d",
        id="charfn-p2",
    ),
    pytest.param(
        ["charfn", "--p", "3", "--f", "1,0,2", "--method", "both", "--t-order", "28", "--s-order", "6", "--digits", "6"],
        "354b7e9e437907b9fb2a9043a78b51f8e6f48a2d9a0411ecf2d30224761fbf76",
        id="charfn-p3",
    ),
    pytest.param(
        # lanes of 18 bytes with p^N past 2^64
        ["charfn", "--p", "7", "--f", "1,0,2", "--method", "operator", "--t-order", "8", "--s-order", "6", "--digits", "23"],
        "d158d3b8ead08813204326ee2a3bf9005bd0481954e0daf2ffe722fcb773aa80",
        id="charfn-p7-wide-lanes",
    ),
    pytest.param(
        ["eigencurve", "--p", "2", "--f", "1,0,0,1", "--components", "3"],
        "857ee667dcd2d6ccf1f8e5e0cf6b7a0eaabc94c2e9fa24ae35d3a3078b7bf72c",
        id="eigencurve-p2",
    ),
    pytest.param(
        ["eigencurve", "--p", "2", "--f", "1,0,0,1", "--components", "3", "--digits", "6", "--levels", "2,3"],
        "d7310c85bf9e86a27416aad16eafe97f0dbf9f7ee7b021178c11a0111270fd2b",
        id="eigencurve-p2-digits6",
    ),
    pytest.param(
        ["eigencurve", "--p", "3", "--f", "1,0,2", "--components", "3"],
        "abb234608df0ed34a7268000a3302a85186cbc0417ae3721807a816d9b7e2a99",
        id="eigencurve-p3",
    ),
    pytest.param(
        ["eigencurve", "--p", "2", "--f", "1,0,0,1", "--digits", "6", "--components", "4"],
        "dac9d8fe66c436b9c63eaf2419a187bb5f822524418e97b16c10288b6842e909",
        id="eigencurve-p2-digits6-4-blocks",
    ),
    pytest.param(
        ["eigencurve", "--p", "2", "--f", "1,0,0,1", "--digits", "6", "--components", "5"],
        "836615b428ef4ed0f34aba26ce01181803bd4b6ddee5a846d045279ddac3a9ce",
        id="eigencurve-p2-digits6-5-blocks",
    ),
    pytest.param(
        ["eigencurve", "--p", "3", "--f", "1,0,2", "--components", "4"],
        "9c12faad246a809148ee2bdf20076db0c50f37b38a6ac27ae8c763c962f55e02",
        id="eigencurve-p3-4-blocks",
    ),
    pytest.param(
        ["eigencurve", "--p", "3", "--f", "1,0,2", "--components", "5"],
        "b9a6d997e0c63d9265b567230b372eec0f3579c7dbeaa785a66c1bbbc370cbee",
        id="eigencurve-p3-5-blocks",
    ),
    pytest.param(
        # six blocks: exit 0 means every law is ok; the same bytes come from
        # the operator pathway's series
        ["eigencurve", "--p", "3", "--f", "1,0,2", "--components", "6"],
        "7080c22c69082b7312215340a8ec084c8d742b376cb051bff2a0729c5fa2eb9e",
        id="eigencurve-p3-6-blocks",
    ),
    pytest.param(
        ["eigencurve", "--p", "2", "--f", "1,0,0,1", "--components", "6", "--digits", "6"],
        "f69051f92fdbb12466cf07a7cfaf8b25e26fdb872efc5596088f8928ac88377a",
        id="eigencurve-p2-digits6-6-blocks",
    ),
    pytest.param(
        # the p = 3 six-block window, both pathways
        ["charfn", "--p", "3", "--f", "1,0,2", "--t-order", "80", "--s-order", "13", "--digits", "4", "--method", "both"],
        "10f10e78d96a6b8ac3ed7176caa590d5e686e36f09dd49daec26a6a244786012",
        id="charfn-p3-6-block-window",
    ),
    pytest.param(
        ["expsum", "--p", "2", "--f", "1,0,0,1", "--method", "both", "--k", "3", "--t-order", "20"],
        "22902da1a4259d16cef907be7da3b81013ab6a24c1e8fb27828926ad57326dab",
        id="expsum-p2",
    ),
    pytest.param(
        ["slopes", "--p", "2", "--f", "1,0,0,1", "--m", "1"],
        "6822be9d3dd7bee94562052a124ed0d8d15e969fdc9ea97182e2c2e9ba3ce520",
        id="slopes-stable-level",
    ),
    pytest.param(
        ["slopes", "--p", "3", "--f", "1,0,2", "--m", "2", "--c", "5"],
        "b7880d3b3847a50ec08c8100a9582df394a9aa931b81edcc7d23e4a7d85235a3",
        id="slopes-above-stable-c5",
    ),
    pytest.param(
        ["slopes", "--p", "2", "--f", "1,0,0,1", "--m", "2", "--c", "3", "--format", "csv"],
        "7307145b33d1998921709870584135aa044f12f1e8ff3fa0ed819a76324276a6",
        id="slopes-csv",
    ),
    pytest.param(
        ["slopes", "--p", "3", "--f", "1,0,2", "--m", "3"],
        "948c0a6143d0b33ccd3e84a997127fc7460f8a53ca55f48a5a60ae5a1e2e7cdf",
        id="slopes-p3-m3-half-read",
    ),
    pytest.param(
        ["slopes", "--p", "5", "--f", "1,0,2", "--m", "2"],
        "517009ba84c679875940cd054a927bbd12d96e8851b6738462695f2aa250159b",
        id="slopes-p5-period-2",
    ),
    pytest.param(
        ["slopes", "--p", "3", "--a", "2", "--f", "1,0,2", "--m", "2"],
        "91e646371195fdb76a087a9cc112e30b057b83a8798cd2a901a258ab48945253",
        id="slopes-p3-a2-period-2",
    ),
    pytest.param(
        ["zeta", "--p", "3", "--f", "1,0,2", "--m", "2"],
        "aad11d2fcdc7a26fe7fed123c6a1486e5aa20b4479a7a90632b59dd668fd9262",
        id="zeta-p3-m2",
    ),
    pytest.param(
        ["zeta", *P2, "--m", "0"],
        "0fe8d07ddd192da29d206940e81b4f0b97935ee2a8296d71593228cf071a9d5c",
        id="zeta-m0",
    ),
    pytest.param(
        ["verify", "--p", "2", "--f", "1,0,0,1", "--check", "periodicity", "--m-max", "3"],
        "9e224b7dc0ec47395df49086497f5eb31fd07ffe4376e16adb9f7192167b75da",
        id="verify-periodicity",
    ),
    pytest.param(
        ["verify", "--p", "2", "--f", "1,0,0,1", "--check", "all"],
        "6cb636f022ec55ca63695ca5cf4d19f23b5b6cbedb7d041258d6b90236acd178",
        id="verify-all",
    ),
    pytest.param(
        ["verify", *P2, "--check", "counts"],
        "a28278b5a4105850e750be0ae8bbe0f375bb1005b87d16168b74ac6996c04e4d",
        id="verify-counts",
    ),
    pytest.param(
        ["lfun", "--p", "3", "--f", "1,0,2", "--m", "2"],
        "3574099a1865496fcb9f458ea53bc7e04529b62ea2c073638e43ec0243cf4f4a",
        id="lfun-m2",
    ),
]


@pytest.mark.parametrize("argv, digest", STDOUT_SHA256)
def test_stdout_bytes_are_pinned(capsys, argv, digest):
    code, out, err = run(capsys, argv)
    assert code == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest
