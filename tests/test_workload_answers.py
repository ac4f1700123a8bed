"""The benchmark's answers stay the same: one seed's query sets of the three
workloads, run in-process against a temporary cache, give the stdout and
count dicts whose sha256 digests `workload_answers.json` pins.

`bench/workloads.py` is read for its query sets and executed here without
writing anything under `bench/`. verify_warm runs its cache fill first and
then its pass on the filled cache, as the benchmark does.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import types

import pytest

from asw_slopes import cli, expsum, tower

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS_PY = os.path.join(os.path.dirname(HERE), "bench", "workloads.py")
PINNED = os.path.join(HERE, "workload_answers.json")
SEED = 1


def _load_workloads() -> types.ModuleType:
    module = types.ModuleType("bench_workloads")
    with open(WORKLOADS_PY) as fh:
        exec(compile(fh.read(), WORKLOADS_PY, "exec"), module.__dict__)
    return module


def _answer(q: dict) -> tuple[str, int, str, str]:
    """(label, exit code, stderr, stdout or JSON count dict) of one query."""
    if q["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(q["argv"])
        return " ".join(q["argv"]), rc, err.getvalue(), out.getvalue()
    t = q["tower"]
    spec = expsum.TowerSpec(t["p"], t["a"], list(reversed(t["f_lead"])))
    counts = tower.cross_check_counts(spec, q["m"], q["k"])
    label = f"counts p={t['p']} a={t['a']} f={t['f_lead']} m={q['m']} k={q['k']}"
    return label, 0, "", json.dumps(counts, sort_keys=True)


def digests(name: str, seed: int = SEED) -> list[list[str]]:
    """[label, sha256] for every answer of the workload, fill first, run
    against the cache that ASW_CACHE_DIR names (empty at the start)."""
    wl = _load_workloads().build(name, seed)
    out = []
    for q in (wl.fill or []) + wl.queries:
        label, rc, err, text = _answer(q)
        assert (rc, err) == (0, ""), (label, rc, err)
        out.append([label, hashlib.sha256(text.encode()).hexdigest()])
    return out


@pytest.mark.parametrize("name", ["slopes_cold", "verify_warm", "operator"])
def test_workload_answers_match_their_pinned_digests(name, tmp_path, monkeypatch):
    monkeypatch.setenv("ASW_CACHE_DIR", str(tmp_path))
    with open(PINNED) as fh:
        pinned = json.load(fh)
    assert digests(name) == pinned[name]
