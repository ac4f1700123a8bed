"""Spans around the package's public functions, and the per-layer metrics.

Each traced function is wrapped once and the wrapper is put in every module
of the package that holds the original under that name, which is where its
callers look it up (`expsum.trace_histogram` and `tower.trace_histogram`,
`padic.cyc_valuation` and `eigencurve.cyc_valuation`, and so on). A span is
(name, start, end, parent, info); spans stay in memory and are reduced to
metrics once the pass ends. Self time is a span's time minus its child
spans' time.
"""

from __future__ import annotations

import os
import sys
import time

# span name -> (defining module, function); names double as metric prefixes
TRACED = {
    "gf.embed": ("gf", "embed_base"),
    "expsum.histogram": ("expsum", "trace_histogram"),
    "expsum.t_adic_sum": ("expsum", "t_adic_sum"),
    "padic.binom_pow": ("padic", "binom_pow"),
    "expsum.character_sum": ("expsum", "character_sum"),
    "padic.cyc_valuation": ("padic", "cyc_valuation"),
    "series.exp": ("series", "exp_from_power_sums"),
    "series.compose": ("series", "compose"),
    "series.reversion": ("series", "reversion"),
    "newton.hull": ("newton", "lower_hull"),
    "dwork.matrix": ("dwork", "nuclear_matrix"),
    "dwork.traces": ("dwork", "nuclear_traces"),
    "tower.witt": ("tower", "count_points_witt"),
    "tower.char_count": ("tower", "count_points_char"),
    "tower.zeta": ("tower", "zeta_numerator"),
    "eigencurve.elimination": ("eigencurve", "nested_block_factors"),
    "eigencurve.law": ("eigencurve", "verify_weight_slope_law"),
}

# per-layer metric -> unit, in the order BENCHMARK.json lists them
METRICS = {
    "gf.embed_s": "s",
    "expsum.histogram_s": "s",
    "expsum.points": "count",
    "expsum.points_per_s": "1/s",
    "expsum.cache_misses": "count",
    "expsum.cache_hits": "count",
    "expsum.cache_read_s": "s",
    "expsum.cache_bytes": "bytes",
    "expsum.t_adic_sum_s": "s",
    "padic.binom_pow_s": "s",
    "expsum.character_sum_s": "s",
    "padic.cyc_valuation_s": "s",
    "series.exp_s": "s",
    "series.compose_s": "s",
    "newton.hull_s": "s",
    "dwork.matrix_s": "s",
    "dwork.traces_s": "s",
    "dwork.matrix_dim": "count",
    "dwork.lanes": "count",
    "tower.witt_s": "s",
    "tower.witt_cells": "count",
    "tower.char_count_s": "s",
    "tower.zeta_s": "s",
    "eigencurve.elimination_s": "s",
    "eigencurve.sweeps": "count",
    "eigencurve.solved_digits": "count",
    "eigencurve.verified_digits": "count",
    "eigencurve.digits_per_sweep": "ratio",
    "eigencurve.law_s": "s",
    "cli.queries": "count",
    "cli.stdout_bytes": "bytes",
    "trace.pass_s": "s",
}


def _cache_entries(cache_dir: str) -> set:
    if not os.path.isdir(cache_dir):
        return set()
    return {n for n in os.listdir(cache_dir) if n.endswith(".json")}


class Tracer:
    def __init__(self, cache_dir: str):
        self.cache_dir = cache_dir
        self.spans: list = []  # [name, start, end, parent index, info]
        self._open: list = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._open
        histogram = name == "expsum.histogram"
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span = [name, clock(), None, stack[-1] if stack else -1, None]
            idx = len(spans)
            spans.append(span)
            before = _cache_entries(self.cache_dir) if histogram else None
            stack.append(idx)
            try:
                out = fn(*args, **kwargs)
            finally:
                stack.pop()
                span[2] = clock()
            if histogram:
                # a miss is a call after which the cache holds a new entry
                spec, k = args[0], args[1]
                miss = bool(_cache_entries(self.cache_dir) - before)
                span[4] = {"miss": miss, "points": spec.q**k - 1}
            elif name == "dwork.matrix":
                span[4] = {"size": out.size, "lanes": out.lanes}
            elif name == "eigencurve.elimination":
                span[4] = dict(out[1])
            return out

        return traced

    def install(self) -> None:
        """Swap each traced function for its wrapper in every package module."""
        modules = [m for n, m in sys.modules.items() if n.startswith("asw_slopes.")]
        for name, (mod_name, fn_name) in TRACED.items():
            orig = getattr(sys.modules[f"asw_slopes.{mod_name}"], fn_name)
            wrapped = self._wrap(name, orig)
            for mod in modules:
                if getattr(mod, fn_name, None) is orig:
                    setattr(mod, fn_name, wrapped)

    def layer_metrics(self, answers: list, pass_s: float) -> dict:
        spans = self.spans
        child = [0.0] * len(spans)
        for s in spans:
            if s[3] >= 0:
                child[s[3]] += s[2] - s[1]
        self_s: dict = {}
        for i, s in enumerate(spans):
            self_s[s[0]] = self_s.get(s[0], 0.0) + (s[2] - s[1]) - child[i]

        hist = [(s, s[2] - s[1] - child[i]) for i, s in enumerate(spans) if s[0] == "expsum.histogram"]
        misses = [(s, t) for s, t in hist if s[4]["miss"]]
        hits = [(s, t) for s, t in hist if not s[4]["miss"]]
        histogram_s = sum((t for _, t in misses), 0.0)
        points = sum(s[4]["points"] for s, _ in misses)
        mats = [s[4] for s in spans if s[0] == "dwork.matrix"]
        elim = [s[4] for s in spans if s[0] == "eigencurve.elimination"]
        sweeps = sum(e["sweeps"] for e in elim)
        solved = sum(e["solved_digits"] for e in elim)
        cache_bytes = sum(
            os.path.getsize(os.path.join(self.cache_dir, n)) for n in _cache_entries(self.cache_dir)
        )
        get = self_s.get
        return {
            "gf.embed_s": get("gf.embed", 0.0),
            "expsum.histogram_s": histogram_s,
            "expsum.points": points,
            "expsum.points_per_s": points / histogram_s if histogram_s else 0.0,
            "expsum.cache_misses": len(misses),
            "expsum.cache_hits": len(hits),
            "expsum.cache_read_s": sum((s[2] - s[1] for s, _ in hits), 0.0),
            "expsum.cache_bytes": cache_bytes,
            "expsum.t_adic_sum_s": get("expsum.t_adic_sum", 0.0),
            "padic.binom_pow_s": get("padic.binom_pow", 0.0),
            "expsum.character_sum_s": get("expsum.character_sum", 0.0),
            "padic.cyc_valuation_s": get("padic.cyc_valuation", 0.0),
            "series.exp_s": get("series.exp", 0.0),
            "series.compose_s": get("series.compose", 0.0) + get("series.reversion", 0.0),
            "newton.hull_s": get("newton.hull", 0.0),
            "dwork.matrix_s": get("dwork.matrix", 0.0),
            "dwork.traces_s": get("dwork.traces", 0.0),
            "dwork.matrix_dim": max((m["size"] for m in mats), default=0),
            "dwork.lanes": max((m["lanes"] for m in mats), default=0),
            "tower.witt_s": get("tower.witt", 0.0),
            "tower.witt_cells": sum(1 for s in spans if s[0] == "tower.witt"),
            "tower.char_count_s": get("tower.char_count", 0.0),
            "tower.zeta_s": get("tower.zeta", 0.0),
            "eigencurve.elimination_s": get("eigencurve.elimination", 0.0),
            "eigencurve.sweeps": sweeps,
            "eigencurve.solved_digits": solved,
            "eigencurve.verified_digits": sum(e["verified_digits"] for e in elim),
            "eigencurve.digits_per_sweep": solved / sweeps if sweeps else 0.0,
            "eigencurve.law_s": get("eigencurve.law", 0.0),
            "cli.queries": len(answers),
            "cli.stdout_bytes": sum(len(a.get("stdout", "").encode()) for a in answers),
            "trace.pass_s": pass_s,
        }
