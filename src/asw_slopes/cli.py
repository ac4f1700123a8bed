"""Command-line front end.

Subcommands mirror the library layers: point-side sums (expsum), finite
character L-series (lfun), the bivariate characteristic series (charfn),
slope reports (slopes), curve-level zeta data (zeta), the mechanical
verifier (verify), slope-block factorization with the weight law
(eigencurve), and histogram cache management (cache).

Exit codes: 0 success, 1 a verification claim failed, 2 precision or
budget exhausted (memory included: a MemoryError exits 2), 3 configuration
problems (including bad usage), 4 an internal error (any other exception,
such as a failed assertion).
Polynomials on the command line are comma-separated and written leading
coefficient first, the conventional written order: --f 1,0,0,0 is x^3.
"""

from __future__ import annotations

import argparse
import errno
import functools
import json
import os
import sys
from fractions import Fraction

from . import dwork, expsum, tower
from .eigencurve import (
    block_product,
    block_window,
    nested_block_factors,
    pick_levels,
    verify_weight_slope_law,
)
from .errors import ConfigError, PathwayMismatch, PrecisionError, VerificationError
from .expsum import observed_polygon
from .newton import NewtonPolygon, render_svg

EXIT_OK = 0
EXIT_VERIFICATION = 1
EXIT_PRECISION = 2
EXIT_CONFIG = 3
EXIT_INTERNAL = 4


class _Parser(argparse.ArgumentParser):
    # argparse would sys.exit(2) on bad usage; route it to the config code
    def error(self, message):
        raise ConfigError(message)


def _ints(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",")]
    except ValueError:
        raise ConfigError(f"expected comma-separated integers, got {text!r}")


def _positive_int(text: str) -> int:
    try:
        n = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _spec(args) -> expsum.TowerSpec:
    f = list(reversed(_ints(args.f)))
    h = None if args.h is None else tuple(reversed(_ints(args.h)))
    return expsum.TowerSpec(args.p, args.a, f, h)


def _check_out(path) -> None:
    """Refuse an --out that cannot be opened before any work is done."""
    if path is None:
        return
    if os.path.isdir(path):
        raise ConfigError(f"cannot write --out {path}: {os.strerror(errno.EISDIR)}")
    if not os.path.isdir(os.path.dirname(path) or "."):
        raise ConfigError(f"cannot write --out {path}: {os.strerror(errno.ENOENT)}")


def _emit(args, text: str) -> None:
    if getattr(args, "out", None):
        try:
            with open(args.out, "w") as fh:
                fh.write(text)
        except OSError as err:
            raise ConfigError(f"cannot write --out {args.out}: {err.strerror or err}")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _emit_json(args, payload: dict) -> None:
    _emit(args, json.dumps(payload, indent=2, sort_keys=True))


def _base_payload(spec) -> dict:
    return {
        "p": spec.p,
        "a": spec.a,
        "f": spec.coeffs,
        "h": list(spec.ctx.h),
    }


def _add_tower_args(sub, digits_default=6):
    """The tower options, and --digits unless digits_default is None."""
    sub.add_argument("--p", type=int, required=True)
    sub.add_argument("--a", type=int, default=1)
    sub.add_argument("--f", required=True, help="defining poly, leading coeff first")
    sub.add_argument("--h", help="base field modulus, leading coeff first")
    if digits_default is not None:
        sub.add_argument("--digits", type=_positive_int, default=digits_default)
    sub.add_argument("--out", help="write output to a file instead of stdout")


# ---------------------------------------------------------------------------


def _by_method(method: str, points, operator, rows, mismatch):
    """(rows, answer) of the pathway --method names, points first; with
    "both" the two answers must give the same rows, and the points answer
    is kept."""
    answers = []
    if method != "operator":
        answers.append(points())
    if method != "points":
        answers.append(operator())
    got = [rows(a) for a in answers]
    if got[0] != got[-1]:
        raise PathwayMismatch(mismatch(*got))
    return got[0], answers[0]


def _cmd_expsum(args) -> int:
    spec = _spec(args)
    payload = _base_payload(spec)
    payload.update({"k": args.k, "t_order": args.t_order, "digits": args.digits})
    mod = spec.p**args.digits
    window = (spec, args.k, args.t_order, args.digits)
    payload["coefficients"], _ = _by_method(
        args.method,
        lambda: expsum.t_adic_sum(*window),
        lambda: dwork.t_adic_sum_via_operator(*window),
        lambda S: [c % mod for c in S.coeffs],
        lambda pts, ops: f"point sum {pts} != operator sum {ops}",
    )
    payload["method"] = args.method
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_lfun(args) -> int:
    spec = _spec(args)
    L = expsum.l_series(spec, args.m, c=args.c, punctured=args.punctured)
    payload = _base_payload(spec)
    raw = [list(z.coeffs) for z in L.coeffs]
    # coefficients live in Z[zeta_{p^m}]; when that ring is Z itself
    # (p = 2, m = 1) the vectors collapse to plain integers
    rank1 = all(len(v) == 1 for v in raw)
    payload.update(
        {
            "m": args.m,
            "c": args.c,
            "punctured": args.punctured,
            "degree": expsum.l_degree(spec, args.m, args.punctured),
            "coefficients": [v[0] for v in raw] if rank1 else raw,
        }
    )
    if all(all(x == 0 for x in v[1:]) for v in raw):
        payload["rational_coefficients"] = [v[0] for v in raw]
    if not args.punctured:
        poly = expsum.series_newton(spec, args.m, L)
        payload["slopes"] = [[s.numerator, s.denominator] for s in poly.slopes()]
        payload["polygon"] = poly.to_json()
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_charfn(args) -> int:
    spec = _spec(args)
    payload = _base_payload(spec)
    mod = spec.p**args.digits
    window = (spec, args.t_order, args.s_order, args.digits)
    rows, C = _by_method(
        args.method,
        lambda: expsum.char_series(*window),
        lambda: dwork.char_series_via_operator(*window),
        lambda C: [[c % mod for c in col.coeffs] for col in C.coeffs],
        lambda *_: "point and operator characteristic series differ",
    )
    payload.update(
        {
            "method": args.method,
            "t_order": args.t_order,
            "s_order": args.s_order,
            "digits": args.digits,
            "rows": rows,
            "polygon": observed_polygon(C).to_json(),
        }
    )
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_slopes(args) -> int:
    spec = _spec(args)
    expsum.check_character(spec, args.m, args.c)  # every unit c has the slopes of c = 1
    poly = expsum.l_newton(spec, args.m)
    computed = poly.slope_multiset()
    m0 = tower.stable_level(spec)
    predicted = tower.predicted_slopes(spec, args.m) if args.m >= m0 else None
    ok = predicted is None or predicted == computed
    if args.format == "svg":
        _emit(
            args,
            render_svg(
                [
                    (poly, "#1f77b4", f"level {args.m}"),
                    (tower.l_hodge_polygon(spec, args.m), "#d62728", "lower bound"),
                ],
                title=f"p={spec.p} a={spec.a} d={spec.d} m={args.m}",
            ),
        )
        return EXIT_OK if ok else EXIT_VERIFICATION
    if args.format == "csv":
        lines = ["slope_num,slope_den,multiplicity,predicted_multiplicity"]
        keys = sorted(set(computed) | set(predicted or {}))
        for s in keys:
            lines.append(
                f"{s.numerator},{s.denominator},{computed.get(s, 0)},"
                f"{(predicted or {}).get(s, 0) if predicted is not None else ''}"
            )
        _emit(args, "\n".join(lines))
        return EXIT_OK if ok else EXIT_VERIFICATION
    payload = _base_payload(spec)
    payload.update(
        {
            "m": args.m,
            "stable_level": m0,
            "slopes": sorted([s.numerator, s.denominator, n] for s, n in computed.items()),
            "predicted": None
            if predicted is None
            else sorted([s.numerator, s.denominator, n] for s, n in predicted.items()),
            "ok": ok,
            "polygon": poly.to_json(),
        }
    )
    _emit_json(args, payload)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_zeta(args) -> int:
    spec = _spec(args)
    num = tower.zeta_numerator(spec, args.m)
    payload = _base_payload(spec)
    payload.update(
        {
            "m": args.m,
            "genus_times_two": tower.genus_double(spec, args.m),
            "numerator_coefficients": num,
            # zeta = numerator / ((1-s)(1-qs))
            "denominator": [1, -(spec.q + 1), spec.q],
        }
    )
    _emit_json(args, payload)
    return EXIT_OK


def _cmd_verify(args) -> int:
    spec = _spec(args)
    checks = (
        ["periodicity", "hodge", "counts", "turning"]
        if args.check == "all"
        else [args.check]
    )
    report: dict = dict(_base_payload(spec))
    ok = True
    m_max = args.m_max or tower.stable_level(spec) + 1
    if "periodicity" in checks:
        rep = tower.verify_periodicity(spec, m_max)
        report["periodicity"] = rep
        ok = ok and rep["ok"]
    if "hodge" in checks:
        hs = [tower.verify_hodge(spec, m) for m in range(1, m_max + 1)]
        report["hodge"] = hs
        ok = ok and all(h["ok"] for h in hs)
    if "counts" in checks:
        rows = []
        for m in range(1, min(2, args.m_max or 2) + 1):
            for k in (1, 2):
                rows.append(tower.cross_check_counts(spec, m, k))
        report["counts"] = rows
        ok = ok and all(r["ok"] for r in rows)
    if "turning" in checks:
        rep = tower.verify_turning(spec, args.digits, args.t_order, args.s_order)
        report["turning"] = rep
        ok = ok and rep["ok"]
    report["ok"] = ok
    if args.format == "svg" and "turning" in checks:
        _emit(args, _turning_svg(spec, report["turning"]["polygon"]))
    else:
        _emit_json(args, report)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _turning_svg(spec, polygon: dict) -> str:
    poly = NewtonPolygon([(x, Fraction(n, den)) for x, n, den in polygon["vertices"]])
    bound = tower.turning_bound(spec, poly.width)
    return render_svg(
        [(poly, "#1f77b4", "observed"), (bound, "#d62728", "lower bound")],
        title=f"T-adic polygon p={spec.p} d={spec.d}",
    )


def _factor_json(factor) -> dict:
    return {
        "coefficients": factor.coeffs,
        "t_digits": factor.t_digits,
        "p_digits": factor.digits,
    }


def _cmd_eigencurve(args) -> int:
    spec = _spec(args)
    d = spec.d
    vertex = args.vertex
    if vertex is not None and vertex % d:
        raise ConfigError(f"vertex {vertex} must be a multiple of d = {d}")
    count = args.components if vertex is None else vertex // d
    levels = None if args.levels is None else _ints(args.levels)
    t_order, s_order = block_window(spec, count, args.t_order, args.s_order)
    C = expsum.char_series(spec, t_order, s_order, args.digits)
    factors, stats = nested_block_factors(C, d, count)
    payload = _base_payload(spec)
    payload.update({"digits": args.digits, "t_order": t_order, "s_order": s_order})

    if vertex is not None:
        factor = block_product(factors)
        spans = list(range(1, count + 1))
        levels = pick_levels(spec, spans, factor.digits, levels)
        law = verify_weight_slope_law(spec, factor, spans, levels)
        payload.update(
            {"mode": "vertex", "vertex": vertex, "factor": _factor_json(factor), "law": law}
        )
        ok = law["ok"]
    else:
        # the deepest block needs the highest level; all share it
        levels = pick_levels(spec, [count], factors[-1].digits, levels)
        blocks = []
        for i, factor in enumerate(factors, start=1):
            law = verify_weight_slope_law(spec, factor, [i], levels)
            blocks.append({**_factor_json(factor), "block": i, "law": law})
        payload.update(
            {"mode": "components", "components": count, "engine": stats, "blocks": blocks}
        )
        ok = all(b["law"]["ok"] for b in blocks)
    payload["levels"] = levels
    _emit_json(args, payload)
    return EXIT_OK if ok else EXIT_VERIFICATION


def _cmd_cache(args) -> int:
    d = expsum.cache_dir()
    # entries are regular files; a directory named *.json is not one
    names = sorted(os.listdir(d)) if os.path.isdir(d) else []
    paths = [
        os.path.join(d, name)
        for name in names
        if name.endswith(".json") and os.path.isfile(os.path.join(d, name))
    ]
    if args.action == "list":
        entries = [{"name": os.path.basename(f), "bytes": os.path.getsize(f)} for f in paths]
        _emit_json(args, {"dir": d, "entries": entries})
        return EXIT_OK
    for f in paths:
        os.remove(f)
    _emit_json(args, {"dir": d, "removed": len(paths)})
    return EXIT_OK


# ---------------------------------------------------------------------------


@functools.cache
def build_parser() -> _Parser:
    """The command-line parser, built once per process and shared by every
    `main` call; parsing leaves it unchanged."""
    top = _Parser(prog="asw-slopes", description=__doc__)
    subs = top.add_subparsers(dest="command", required=True)

    s = subs.add_parser("expsum", parents=[], help="T-adic exponential sum over one extension")
    _add_tower_args(s)
    s.add_argument("--k", type=_positive_int, default=1)
    s.add_argument("--t-order", type=_positive_int, default=8)
    s.add_argument("--method", choices=["points", "operator", "both"], default="points")
    s.set_defaults(func=_cmd_expsum)

    s = subs.add_parser("lfun", help="L-series of one finite character")
    _add_tower_args(s, digits_default=None)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--c", type=int, default=1)
    s.add_argument("--punctured", action="store_true")
    s.set_defaults(func=_cmd_lfun)

    s = subs.add_parser("charfn", help="bivariate characteristic series")
    _add_tower_args(s)
    s.add_argument("--t-order", type=_positive_int, default=8)
    s.add_argument("--s-order", type=_positive_int, default=6)
    s.add_argument("--method", choices=["points", "operator", "both"], default="points")
    s.set_defaults(func=_cmd_charfn)

    s = subs.add_parser("slopes", help="slopes of a level against the periodic prediction")
    _add_tower_args(s, digits_default=None)
    s.add_argument("--m", type=int, required=True)
    s.add_argument("--c", type=int, default=1)
    s.add_argument("--format", choices=["json", "csv", "svg"], default="json")
    s.set_defaults(func=_cmd_slopes)

    s = subs.add_parser("zeta", help="zeta numerator of the level-m curve")
    _add_tower_args(s, digits_default=None)
    s.add_argument("--m", type=int, required=True)
    s.set_defaults(func=_cmd_zeta)

    s = subs.add_parser("verify", help="run the mechanical checks")
    _add_tower_args(s)
    s.add_argument(
        "--check",
        choices=["periodicity", "hodge", "counts", "turning", "all"],
        default="all",
    )
    s.add_argument("--m-max", type=_positive_int)
    s.add_argument("--t-order", type=_positive_int)
    s.add_argument("--s-order", type=_positive_int)
    s.add_argument("--format", choices=["json", "svg"], default="json")
    s.set_defaults(func=_cmd_verify)

    s = subs.add_parser("eigencurve", help="slope-block factors and the weight law")
    _add_tower_args(s, digits_default=4)
    mode = s.add_mutually_exclusive_group()
    mode.add_argument(
        "--components", type=_positive_int, default=1, help="peel this many leading blocks"
    )
    mode.add_argument(
        "--vertex", type=_positive_int, help="product of the blocks up to this vertex"
    )
    s.add_argument("--t-order", type=_positive_int)
    s.add_argument("--s-order", type=_positive_int)
    s.add_argument("--levels", help="character levels (conductor exponents), comma-separated")
    s.set_defaults(func=_cmd_eigencurve)

    s = subs.add_parser("cache", help="histogram cache")
    s.add_argument("action", choices=["list", "clear"])
    s.add_argument("--out")
    s.set_defaults(func=_cmd_cache)

    return top


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_out(args.out)
        return args.func(args)
    except VerificationError as err:
        return _fail(err, EXIT_VERIFICATION)
    except (PrecisionError, MemoryError) as err:
        return _fail(err, EXIT_PRECISION)
    except ConfigError as err:
        return _fail(err, EXIT_CONFIG)
    except Exception as err:  # a bug, never a verdict: keep it off exit 1
        return _fail(err, EXIT_INTERNAL)


def _fail(err: Exception, code: int) -> int:
    sys.stderr.write(
        json.dumps({"error": type(err).__name__, "message": str(err)}) + "\n"
    )
    return code


if __name__ == "__main__":
    sys.exit(main())
