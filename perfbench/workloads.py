"""Workload plans: the set-up files and the CLI invocations of one run.

A plan is a pure function of (workload, seed).  The seed jitters the sizes
by about 0.5% and picks the `--seed` values, so every seed gives a different
but equally heavy input.  Each invocation carries the exit code and JSON
values it must produce and the output files it must write; `gate.py`
checks them.

Sizes are smaller than the full ROADMAP matrix so that one pass of a
workload takes about 6-8 s on a 2-CPU box and a 36 s run holds four or
more passes; see NOTES.md for the sizes left out and why.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

WORKLOADS = ("construct", "check", "sample")

# Highest child peak RSS seen per workload (MB, seed 0, 2-CPU box); the
# memory pre-flight refuses to start a workload without this much headroom.
RECORDED_PEAK_MB = {"construct": 560, "check": 1000, "sample": 660}


@dataclass
class Invocation:
    label: str
    argv: list[str]
    code: int = 0
    expect: dict = field(default_factory=dict)   # dotted JSON path -> value
    outputs: dict = field(default_factory=dict)  # file name -> "strict" | "lax"


@dataclass
class Plan:
    workload: str
    seed: int
    setup: list[tuple]          # (file name, builder, *args) for make_inputs.py
    invocations: list[Invocation]


def _jitter(rng: random.Random, base: int, frac: float = 0.005) -> int:
    delta = round(base * frac)
    return base + rng.randint(-delta, delta)


def _construct(rng: random.Random) -> tuple[list, list]:
    n_pipe, n_star, n_bip, n_rr = (_jitter(rng, b) for b in (900, 500, 900, 350))
    setup = [("rr.ec", "round_robin", n_rr)]
    ok = {"passed": True}
    inv = [
        Invocation("c4pipeline", ["construct", "c4pipeline", "--n", str(n_pipe),
                                  "-o", "pipe.sg"], 0, ok, {"pipe.sg": "strict"}),
        Invocation("affine7", ["construct", "affine", "--p", "7", "-o", "affine7.sg"],
                   0, ok, {"affine7.sg": "lax"}),
        Invocation("star", ["construct", "star", "--n", str(n_star), "--t", "4",
                            "-o", "star.sg"], 0, ok, {"star.sg": "strict"}),
        Invocation("bipartite", ["construct", "bipartite", "--n", str(n_bip),
                                 "-o", "bip.sg"], 0, ok, {"bip.sg": "strict"}),
        Invocation("from_coloring", ["construct", "from-coloring", "--input", "rr.ec",
                                     "--forbidden", "P3", "-o", "fc.sg"],
                   0, {"passed": True, "forbidden.free": True}, {"fc.sg": "strict"}),
    ]
    return setup, inv


def _check(rng: random.Random) -> tuple[list, list]:
    n_pipe, n_star, n_bip, n_restrict = (_jitter(rng, b) for b in (500, 450, 470, 300))
    setup = [
        ("pipe.sg", "c4pipeline", n_pipe),
        ("affine7.sg", "affine", 7),
        ("star.sg", "star", n_star, 4),
        ("bip.sg", "bipartite", n_bip),
        ("bip34.sg", "bipartite", 34),
        ("h5.sg", "pruned_affine", 5),
    ]
    free = {"passed": True, "forbidden.free": True}
    inv = [
        Invocation("verify_c4_pipe", ["verify", "--input", "pipe.sg", "--forbidden", "C4"],
                   0, free),
        Invocation("restrict_affine7", ["restrict", "--input", "affine7.sg", "--n",
                                        str(n_restrict), "-o", "restricted.sg"],
                   0, {"passed": True}, {"restricted.sg": "lax"}),
        Invocation("prune_restricted", ["prune", "--input", "restricted.sg",
                                        "-o", "pruned.sg"],
                   0, {"passed": True}, {"pruned.sg": "strict"}),
        Invocation("verify_s4_star", ["verify", "--input", "star.sg", "--forbidden", "S4"],
                   0, free),
        Invocation("verify_c5_bip34", ["verify", "--input", "bip34.sg", "--forbidden", "C5"],
                   0, free),
        # bipartite hosts contain K_{2,3}: a witness and exit 1 are the correct answer
        Invocation("verify_k23_bip", ["verify", "--input", "bip.sg", "--forbidden", "K2,3"],
                   1, {"passed": False, "report.passed": True, "forbidden.free": False}),
        Invocation("verify_k23_h5", ["verify", "--input", "h5.sg", "--forbidden", "K2,3"],
                   0, free),
    ]
    return setup, inv


def _sample(rng: random.Random) -> tuple[list, list]:
    seeds = [str(rng.randrange(1 << 16)) for _ in range(4)]
    # On h5 a trial accepts with probability >= 0.56 for n <= 40 and ~0 for
    # n >= 50, so both random-split outcomes are fixed and their cost does
    # not swing with the seed.
    n_accept = rng.randint(36, 40)
    n_diag, n_c4, n_s4 = (_jitter(rng, b) for b in (50, 500, 300))
    setup = [("h3.sg", "pruned_affine", 3), ("h5.sg", "pruned_affine", 5)]
    ok = {"passed": True}
    inv = [
        Invocation("random_split_reject", ["random-split", "--input", "h5.sg", "--n", "60",
                                           "--trials", "2000", "--seed", seeds[0]],
                   1, {"accepted": False, "failure_stats.trials": 2000}),
        Invocation("random_split_accept", ["random-split", "--input", "h5.sg", "--n",
                                           str(n_accept), "--trials", "5000",
                                           "--seed", seeds[1], "-o", "rs.sg"],
                   0, {"accepted": True, "passed": True}, {"rs.sg": "strict"}),
        # the acceptance-criterion-5 invocation, unchanged
        Invocation("random_split_h3", ["random-split", "--input", "h3.sg", "--n", "9",
                                       "--trials", "10000", "--seed", "0",
                                       "--forbidden", "C4", "-o", "rs9.sg"],
                   0, {"accepted": True, "passed": True, "forbidden.free": True},
                   {"rs9.sg": "strict"}),
        Invocation("estimate_h3", ["estimate", "--input", "h3.sg", "--n", "9",
                                   "--samples", "300000", "--seed", seeds[2]], 0, ok),
        Invocation("estimate_h5", ["estimate", "--input", "h5.sg", "--n", "20",
                                   "--samples", "4096", "--seed", seeds[3]], 0, ok),
        Invocation("diagnose_h5", ["diagnose", "--input", "h5.sg", "--n", str(n_diag)], 0, ok),
        Invocation("bounds_c4", ["bounds", "--forbidden", "C4", "--n", str(n_c4),
                                 "--certify"], 0, {"passed": True, "report.f_upper_certified": True}),
        Invocation("bounds_s4", ["bounds", "--forbidden", "S4", "--n", str(n_s4),
                                 "--certify"], 0, {"passed": True, "report.f_upper_certified": True}),
        Invocation("bounds_ramsey", ["bounds", "--ramsey", "--t", "3", "--k", "2"], 0, ok),
    ]
    return setup, inv


_BUILDERS = {"construct": _construct, "check": _check, "sample": _sample}


def make_plan(workload: str, seed: int) -> Plan:
    rng = random.Random(f"{workload}:{seed}")
    setup, invocations = _BUILDERS[workload](rng)
    return Plan(workload, seed, setup, invocations)
