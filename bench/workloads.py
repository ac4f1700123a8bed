"""The three workloads: fixed query sets whose free parameters come from a seed.

A query is a dict. `{"kind": "cli", "argv": [...]}` goes through
`asw_slopes.cli.main(argv)`; `{"kind": "counts", "tower": ..., "m": m,
"k": k}` goes through `tower.cross_check_counts`, since no subcommand reaches
extension degrees above 2.

The seed varies only what leaves the work unchanged: the character index
`--c` of each `slopes` query, the constant term of f, and for p odd the
leading coefficient of f. None of these changes the monomial support of f,
the field sizes enumerated or the truncation orders, and every independent
check in `checks.py` holds for any choice (the constant term multiplies each
character sum by a root of unity; a unit leading coefficient keeps an
ordinary tower ordinary).
"""

from __future__ import annotations

import random

# A fourth workload, blocks (the eigencurve queries alone), was dropped: with
# four workloads a run must fit in about 37 s, and at that length its run
# medians spread wider than any bound allows on a shared 2-vCPU host. Its
# queries run in operator, whose runs can be longer.
NAMES = ("slopes_cold", "verify_warm", "operator")


class Tower:
    """p, a and f with coefficients leading first, as the CLI writes them."""

    def __init__(self, p: int, a: int, f_lead: list[int]):
        self.p, self.a, self.f_lead = p, a, list(f_lead)

    @property
    def d(self) -> int:
        return len(self.f_lead) - 1

    def cli_args(self) -> list[str]:
        return ["--p", str(self.p), "--a", str(self.a), "--f", ",".join(map(str, self.f_lead))]

    def key(self) -> str:
        return f"p{self.p}a{self.a}f{'.'.join(map(str, self.f_lead))}"

    def to_json(self) -> dict:
        return {"p": self.p, "a": self.a, "f_lead": self.f_lead}


def _tower(rng: random.Random, p: int, a: int, d: int) -> Tower:
    """x^d (times a random unit when p is odd) plus a random constant term."""
    q = p**a
    lead = 1 if p == 2 else rng.randrange(1, q)
    return Tower(p, a, [lead] + [0] * (d - 1) + [rng.randrange(q)])


def _monomial(rng: random.Random, p: int, d: int) -> Tower:
    """u x^d over F_p for a random unit u (u = 1 when p = 2)."""
    return Tower(p, 1, [rng.randrange(1, p)] + [0] * d)


def _units(p: int, m: int) -> list[int]:
    return [c for c in range(1, p**m) if c % p]


def cli(*argv) -> dict:
    return {"kind": "cli", "argv": [str(a) for a in argv]}


def slopes(t: Tower, m: int, c: int) -> dict:
    return cli("slopes", *t.cli_args(), "--m", m, "--c", c)


def charfn(t: Tower, t_order: int, s_order: int, digits: int, method: str = "points") -> dict:
    return cli(
        "charfn", *t.cli_args(), "--t-order", t_order, "--s-order", s_order,
        "--digits", digits, "--method", method,
    )


def counts(t: Tower, m: int, k: int) -> dict:
    return {"kind": "counts", "tower": t.to_json(), "m": m, "k": k}


class Workload:
    """One workload at one seed.

    queries      the pass, run in a fresh worker each time
    fill         verify_warm only: the cold queries that fill the cache in
                 set-up; passes then start from a copy of that cache, the
                 other workloads' passes from an empty one
    """

    def __init__(self, queries, fill=None, towers=()):
        self.queries = queries
        self.fill = fill
        self.towers = list(towers)


# the deep charfn query that slopes_cold computes and verify_warm re-reads
DEEP_CHARFN = (7, 15, 4)


def build(name: str, seed: int) -> Workload:
    rng = random.Random(f"{name}:{seed}")
    if name == "slopes_cold":
        # histogram enumeration: 2^19 points at 3 digits, 24-digit histograms
        # for the deep charfn, the F_{3^10} root search of gf.embed_base and
        # 5^9 points at 2 digits
        t2q = _tower(rng, 2, 1, 5)
        t2c = _tower(rng, 2, 1, 3)
        t9 = _tower(rng, 3, 2, 2)
        t5 = _tower(rng, 5, 1, 2)
        queries = [
            slopes(t2q, 3, rng.choice(_units(2, 3))),
            charfn(t2c, *DEEP_CHARFN),
            slopes(t9, 2, rng.choice(_units(3, 2))),
            slopes(t5, 2, rng.choice(_units(5, 2))),
        ]
        return Workload(queries, towers=[t2q, t2c, t9, t5])
    if name == "verify_warm":
        # the Witt-bearing towers are monomials: for f with two or more
        # monomials count_points_witt counts the tower of the Teichmueller
        # lift of f(x), not of the sum of the monomials' lifts, so the three
        # counts disagree on some seeds (see CHANGES.md)
        t2 = _monomial(rng, 2, 3)
        t3 = _monomial(rng, 3, 2)
        t5 = _tower(rng, 5, 1, 2)
        cached = [charfn(t2, *DEEP_CHARFN)]
        for t, m_max in ((t2, 3), (t3, 2), (t5, 2)):
            for m in range(1, m_max + 1):
                cached += [slopes(t, m, c) for c in _units(t.p, m)]
        cached += [cli("zeta", *t.cli_args(), "--m", m) for t in (t2, t3) for m in (1, 2)]
        # the Witt-bearing count cells; every histogram they read is filled
        # by the slopes queries above
        cells = [(t2, 1, 6), (t2, 2, 5), (t3, 1, 4), (t3, 2, 2)]
        witt = [counts(t, m, k) for t, m, k_max in cells for k in range(1, k_max + 1)]
        return Workload(cached + witt, fill=cached, towers=[t2, t3, t5])
    if name == "operator":
        # the operator pathway (nuclear matrix, packed products, series
        # composition), then block peeling (nested digit elimination)
        t2 = _tower(rng, 2, 1, 3)
        t3 = _tower(rng, 3, 1, 2)
        queries = [charfn(t, 28, 6, 6, "both") for t in (t2, t3)] + [
            cli("eigencurve", *t2.cli_args(), "--components", 3, "--digits", 6, "--levels", "2,3"),
            cli("eigencurve", *t3.cli_args(), "--components", 3),
        ]
        return Workload(queries, towers=[t2, t3])
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


def tower_of(argv: list[str]) -> Tower:
    """The tower a CLI query names."""
    opts = dict(zip(argv[1::2], argv[2::2]))
    return Tower(int(opts["--p"]), int(opts.get("--a", 1)), [int(x) for x in opts["--f"].split(",")])
