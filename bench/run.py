"""Benchmark entry point: closed loop, one client, one worker process at a time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout. Each pass runs the workload's query set in
a fresh worker process (bench/worker.py), so nothing memoised in memory
carries over between passes, as between separate asw-slopes runs. Passes
start while fewer than S seconds have gone since the first one. The answers
are checked after the timed region (bench/checks.py); the last line of
stdout is one JSON object with the results.

--trace 0 reports the end-to-end metrics: pass_s (median pass wall time),
peak_rss_mib (median over passes of the worker's peak RSS) and setup_s
(median worker start-to-ready time). --trace 1 runs the same passes with
spans around the package's public functions and reports the per-layer
metrics of bench/tracing.py, each the median over passes.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from collections import defaultdict

import checks
import tracing
import workloads

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
RUNS = os.path.join(ROOT, ".bench_runs")

# set-up samples per run: bare worker starts on the cold-cache workloads
# (each pass start adds one more), cache fills on verify_warm
BARE_STARTS = 6
FILLS = 3
WORKER_TIMEOUT_S = 150


class Runner:
    def __init__(self, workload: workloads.Workload, run_dir: str, trace: bool):
        self.wl = workload
        self.dir = run_dir
        self.trace = trace
        self.jobs = 0

    def worker(self, queries: list, cache_dir: str, trace: bool = False) -> dict:
        """Run one worker to completion; add its start-to-ready time."""
        self.jobs += 1
        job_path = os.path.join(self.dir, f"job{self.jobs}.json")
        result_path = os.path.join(self.dir, f"result{self.jobs}.json")
        job = {
            "src": SRC,
            "cache_dir": cache_dir,
            "towers": [t.to_json() for t in self.wl.towers],
            "queries": queries,
            "trace": trace,
        }
        with open(job_path, "w") as fh:
            json.dump(job, fh)
        spawn = time.monotonic()
        proc = subprocess.run(
            [sys.executable, os.path.join(BENCH, "worker.py"), job_path, result_path],
            cwd=ROOT,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=WORKER_TIMEOUT_S,
            text=True,
        )
        if proc.returncode != 0:
            raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
        with open(result_path) as fh:
            result = json.load(fh)
        result["setup_s"] = result["ready"] - spawn
        result["pass_s"] = result["done"] - result["ready"]
        return result

    def fresh_cache(self, template: str | None = None) -> str:
        path = os.path.join(self.dir, f"cache{self.jobs + 1}")
        if template is None:
            os.makedirs(path)
        else:
            shutil.copytree(template, path)
        return path

    def run(self, seconds: float) -> dict:
        setup_samples = []
        filled = fill_answers = None
        if self.wl.fill is not None:
            for _ in range(FILLS):
                filled = self.fresh_cache()
                res = self.worker(self.wl.fill, filled)
                setup_samples.append(res["setup_s"] + res["pass_s"])
                fill_answers = res["answers"]
        else:
            for _ in range(BARE_STARTS):
                setup_samples.append(self.worker([], self.fresh_cache())["setup_s"])

        passes = []
        start = time.monotonic()
        while not passes or time.monotonic() - start < seconds:
            res = self.worker(self.wl.queries, self.fresh_cache(filled), self.trace)
            if self.wl.fill is None:
                setup_samples.append(res["setup_s"])
            passes.append(res)
        return {"passes": passes, "setup": setup_samples, "fill_answers": fill_answers}


# ---------------------------------------------------------------------------
# checking the answers

def _failed(ans: dict) -> bool:
    return ans.get("rc") != 0


def verify(wl: workloads.Workload, passes: list, fill_answers, extra: list) -> list[str]:
    """Run every independent check; return the problems found."""
    problems = []
    first = passes[0]["answers"]
    for i, res in enumerate(passes[1:], start=2):
        for q, a, b in zip(wl.queries, first, res["answers"]):
            if not _failed(a) and a != b:
                problems.append(f"pass {i} answered {q} differently from pass 1")

    def attempt(label, fn, *args):
        try:
            return fn(*args)
        except checks.CheckError as err:
            problems.append(f"{label}: {err}")
        except (KeyError, TypeError, ValueError, IndexError) as err:
            problems.append(f"{label}: malformed answer ({type(err).__name__}: {err})")

    per_level = defaultdict(list)
    zetas = {}
    for q, ans in zip(wl.queries, first):
        if _failed(ans):
            continue
        if q["kind"] == "counts":
            continue
        argv = q["argv"]
        t = workloads.tower_of(argv)
        payload = json.loads(ans["stdout"])
        label = " ".join(argv)
        sub = argv[0]
        if sub == "slopes":
            m = int(argv[argv.index("--m") + 1])
            got = attempt(label, checks.check_slopes, t.p, t.a, t.f_lead, m, payload)
            if got is not None:
                per_level[(t.key(), m)].append(got)
        elif sub == "zeta":
            m = payload["m"]
            zetas[(t.key(), m)] = payload["numerator_coefficients"]
            attempt(label, checks.check_zeta, t.p, t.a, t.d, m, payload["numerator_coefficients"])
        elif sub == "charfn":
            attempt(label, checks.check_charfn, t.p, t.d, payload)
        elif sub == "eigencurve":
            attempt(label, checks.check_blocks, t.p, t.a, t.f_lead, payload, extra.pop(0))
    for (key, m), sets in per_level.items():
        if any(s != sets[0] for s in sets):
            problems.append(f"{key} level {m}: characters give different slope multisets")

    for q, ans in zip(wl.queries, first):
        if q["kind"] != "counts" or _failed(ans):
            continue
        t = workloads.Tower(**q["tower"])
        row = ans["counts"]
        label = f"counts {t.key()} m={q['m']} k={q['k']}"
        if (t.key(), q["m"]) not in zetas:
            problems.append(f"{label}: no zeta answer for this level")
            continue
        attempt(label, checks.check_counts, t.p, t.a, t.d, row, zetas[(t.key(), q["m"])])

    if fill_answers is not None:
        # the warm answers must repeat the cold answers setup printed
        for q, cold, warm in zip(wl.fill, fill_answers, first):
            if cold.get("stdout") != warm.get("stdout"):
                problems.append(f"warm answer to {' '.join(q['argv'])} differs from the cold one")
    return problems


def block_charfn_queries(wl: workloads.Workload, answers: list) -> list:
    """The separate charfn query each eigencurve answer is checked against."""
    out = []
    for q, ans in zip(wl.queries, answers):
        if q["kind"] == "cli" and q["argv"][0] == "eigencurve" and not _failed(ans):
            payload = json.loads(ans["stdout"])
            t = workloads.tower_of(q["argv"])
            out.append(workloads.charfn(t, payload["t_order"], payload["s_order"], payload["digits"]))
    return out


# ---------------------------------------------------------------------------

def _metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "asw_slopes", "cli.py")):
        print(f"error: no package source under {SRC}; run from a checkout of the repository", file=sys.stderr)
        return 2

    wl = workloads.build(args.workload, args.seed)
    run_dir = os.path.join(RUNS, f"{args.workload}-{os.getpid()}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    try:
        runner = Runner(wl, run_dir, bool(args.trace))
        out = runner.run(args.seconds)
        passes = out["passes"]
        extra = []
        check_queries = block_charfn_queries(wl, passes[0]["answers"])
        if check_queries:
            res = runner.worker(check_queries, runner.fresh_cache())
            # a failed check query leaves None, which its check reports
            extra = [None if _failed(a) else json.loads(a["stdout"]) for a in res["answers"]]
        problems = verify(wl, passes, out["fill_answers"], extra)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(RUNS)
        except OSError:
            pass

    attempted = sum(len(p["answers"]) for p in passes)
    failed = sum(1 for p in passes for a in p["answers"] if _failed(a))
    for p in passes:
        for q, a in zip(wl.queries, p["answers"]):
            if _failed(a):
                print(f"failed: {q} -> {a.get('error') or a.get('stderr')}", file=sys.stderr)
    for msg in problems:
        print(f"check: {msg}", file=sys.stderr)

    if args.trace:
        metrics = {
            name: _metric(statistics.median(p["layers"][name] for p in passes), unit)
            for name, unit in tracing.METRICS.items()
        }
    else:
        metrics = {
            "pass_s": _metric(statistics.median(p["pass_s"] for p in passes), "s"),
            "peak_rss_mib": _metric(statistics.median(p["maxrss_kib"] / 1024 for p in passes), "MiB"),
            "setup_s": _metric(statistics.median(out["setup"]), "s"),
        }
    print(
        f"{args.workload}: {len(passes)} passes, pass_s "
        f"{[round(p['pass_s'], 3) for p in passes]}, CPU s per pass "
        f"{statistics.median(p['cpu_s'] for p in passes):.3f}, setup samples {len(out['setup'])}",
        file=sys.stderr,
    )
    print(json.dumps({"correct": not problems, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
