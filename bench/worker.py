"""One worker process: import the package, run one pass, write the answers.

Usage: python3 worker.py JOB.json RESULT.json

The job names the package source directory, the histogram cache directory,
the towers to construct, the queries and whether to trace. The worker is
"ready" once the package is imported and the towers are built; the pass
runs from there to the last answer. Timestamps are `time.monotonic()`, which
is one clock for every process on the machine, so the parent can subtract
its own spawn time from `ready`.
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import resource
import sys
import time


def _run_query(q: dict, cli, tower, specs) -> dict:
    if q["kind"] == "cli":
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(q["argv"])
        return {"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue()}
    t = q["tower"]
    spec = specs[(t["p"], t["a"], tuple(t["f_lead"]))]
    return {"rc": 0, "counts": tower.cross_check_counts(spec, q["m"], q["k"])}


def main(job_path: str, result_path: str) -> None:
    with open(job_path) as fh:
        job = json.load(fh)
    os.environ["ASW_CACHE_DIR"] = job["cache_dir"]
    sys.path.insert(0, job["src"])
    # dwork is imported here, not lazily by cli, so that tracing can wrap it
    from asw_slopes import cli, dwork, expsum, tower  # noqa: F401

    if not os.path.realpath(expsum.__file__).startswith(os.path.realpath(job["src"])):
        raise SystemExit(f"asw_slopes imported from {expsum.__file__}, not {job['src']}")
    specs = {
        (t["p"], t["a"], tuple(t["f_lead"])): expsum.TowerSpec(
            t["p"], t["a"], list(reversed(t["f_lead"]))
        )
        for t in job["towers"]
    }
    tracer = None
    if job["trace"]:
        import tracing

        tracer = tracing.Tracer(job["cache_dir"])
        tracer.install()
    ready = time.monotonic()
    cpu0 = time.process_time()

    answers = []
    for q in job["queries"]:
        try:
            answers.append(_run_query(q, cli, tower, specs))
        except Exception as err:  # a failed query is counted, not fatal
            answers.append({"rc": None, "error": f"{type(err).__name__}: {err}"})
    done = time.monotonic()
    cpu_s = time.process_time() - cpu0

    result = {
        "ready": ready,
        "done": done,
        "cpu_s": cpu_s,
        "maxrss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "answers": answers,
    }
    if tracer is not None:
        result["layers"] = tracer.layer_metrics(answers, done - ready)
    with open(result_path, "w") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
