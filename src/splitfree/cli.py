"""Command-line interface.

One subcommand per construction or procedure; every run prints a single JSON
object on stdout and exits 0 on success/verified, 1 on a failed verification
or construction, 2 on usage errors.  All randomness flows from --seed through
the documented per-trial derivation, and identical invocations produce
byte-identical output files.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import bounds as bounds_mod
from . import constructions as cons
from . import probabilistic as prob
from .errors import SplitfreeError
from .freeness import check_forbidden, parse_forbidden_spec, witness_json
from .graphs import (
    Graph,
    SplitGraph,
    prune_to_split,
    read_graph,
    read_split,
    restrict_blobs,
    two_coloring,
    verify_split,
    write_graph,
    write_split,
)


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _sniff_header(path) -> bytes:
    """First token of the first non-comment line, compared as bytes: decoding
    (and rejecting undecodable lines) is the reader's job."""
    with open(path, "rb") as fh:
        for raw in fh:
            text = raw.strip()
            if text and not text.startswith(b"#"):
                return text.split()[0]
    return b""


def _load_host(path) -> Graph:
    """Host graph for diagnostics: a `graph 1` file, or the graph part of a
    `splitgraph 1` file."""
    kind = _sniff_header(path)
    if kind == b"splitgraph":
        return read_split(path).graph
    return read_graph(path)


def _forbidden_result(graph: Graph, spec: str | None) -> dict | None:
    if spec is None:
        return None
    h = parse_forbidden_spec(spec)
    mapping = check_forbidden(graph, h)
    return {"spec": spec, "free": mapping is None, "witness": witness_json(mapping)}


def _construct_result(args, split: SplitGraph, construction: str, params: dict,
                      mode: str, forbidden_default: str | None) -> tuple[int, dict]:
    out = {
        "subcommand": f"construct {construction}",
        "seed": args.seed,
        "params": params,
        "n": split.n,
        "k": split.k,
        "vertices": split.graph.V,
        "edges": split.graph.M,
        "output": args.output,
        "verification": None,
        "forbidden": None,
        "passed": True,
    }
    if args.output:
        write_split(split, args.output)
    if not args.no_verify:
        report = verify_split(split, mode)
        out["verification"] = report
        if construction == "bipartite" and args.forbidden is None:
            fr = {"spec": "any non-bipartite graph",
                  "free": two_coloring(split.graph) is not None,
                  "witness": None}
        else:
            fr = _forbidden_result(split.graph, args.forbidden or forbidden_default)
        out["forbidden"] = fr
        out["passed"] = report.passed and (fr is None or fr["free"])
    return (0 if out["passed"] else 1), out


def _cmd_construct(args) -> tuple[int, dict]:
    kind = args.construction
    if kind == "affine":
        split = cons.build_affine_split(args.p, args.max_p)
        return _construct_result(args, split, "affine", {"p": args.p}, "lax", "C4")
    if kind == "c4pipeline":
        split = cons.construct_c4_free_split(args.n, args.max_p)
        return _construct_result(args, split, "c4pipeline", {"n": args.n}, "strict", "C4")
    if kind == "bipartite":
        split = cons.build_bipartite_split(args.n)
        return _construct_result(args, split, "bipartite", {"n": args.n}, "strict", None)
    if kind == "star":
        split = cons.build_star_free_split(args.n, args.t)
        return _construct_result(
            args, split, "star", {"n": args.n, "t": args.t}, "strict", f"S{args.t}")
    if kind == "from-coloring":
        coloring = cons.read_coloring(args.input)
        split = cons.build_split_from_coloring(coloring)
        return _construct_result(
            args, split, "from-coloring", {"input": args.input}, "strict", None)
    raise UsageError(f"unknown construction {kind!r}")


def _cmd_random_split(args) -> tuple[int, dict]:
    host = _load_host(args.input)
    k_cap = args.k_cap
    if k_cap is None:
        k_cap = math.floor(prob.concentration_report(host.V, args.n).size_cap) \
            if args.n >= 2 else host.V
    result = prob.random_split(host, args.n, k_cap, args.trials, args.seed)
    out = {
        "subcommand": "random-split",
        "seed": args.seed,
        "n": args.n,
        "k_cap": k_cap,
        "trials": args.trials,
    }
    if isinstance(result, prob.FailureStats):
        out.update(accepted=False, failure_stats=result, passed=False)
        return 1, out
    report = verify_split(result, "strict")
    fr = _forbidden_result(result.graph, args.forbidden)
    passed = report.passed and (fr is None or fr["free"])
    if args.output:
        write_split(result, args.output)
    out.update(
        accepted=True,
        k=int(result.blob_sizes().max()),
        output=args.output,
        verification=report,
        forbidden=fr,
        passed=passed,
    )
    return (0 if passed else 1), out


def _cmd_verify(args) -> tuple[int, dict]:
    split = read_split(args.input)
    report = verify_split(split, args.mode)
    fr = _forbidden_result(split.graph, args.forbidden)
    passed = report.passed and (fr is None or fr["free"])
    out = {
        "subcommand": "verify",
        "seed": args.seed,
        "passed": passed,
        "report": report,
        "forbidden": fr,
    }
    return (0 if passed else 1), out


def _cmd_prune(args) -> tuple[int, dict]:
    split = read_split(args.input)
    pruned = prune_to_split(split)
    if args.output:
        write_split(pruned, args.output)
    report = verify_split(pruned, "strict")
    return (0 if report.passed else 1), {
        "subcommand": "prune",
        "seed": args.seed,
        "n": pruned.n,
        "k": pruned.k,
        "edges": pruned.graph.M,
        "output": args.output,
        "verification": report,
        "passed": report.passed,
    }


def _cmd_restrict(args) -> tuple[int, dict]:
    split = read_split(args.input)
    restricted = restrict_blobs(split, args.n)
    if args.output:
        write_split(restricted, args.output)
    return 0, {
        "subcommand": "restrict",
        "seed": args.seed,
        "n": restricted.n,
        "k": restricted.k,
        "vertices": restricted.graph.V,
        "edges": restricted.graph.M,
        "output": args.output,
        "passed": True,
    }


def _cmd_trim(args) -> tuple[int, dict]:
    g = _load_host(args.input)
    profile = prob.TuranProfile(
        a=args.a if args.a is not None else args.b,
        b=args.b, C=args.c_lower, Cp=args.c_upper)
    result = prob.trim_max_degree(g, profile, args.ex, args.q)
    out = {
        "subcommand": "trim",
        "seed": args.seed,
        "case": result.case,
        "q": result.q,
        "passed": True,
    }
    if result.case == 2:
        out.update(
            vertices=result.graph.V,
            edges=result.graph.M,
            max_degree=int(result.graph.degrees().max(initial=0)),
            output=args.output,
        )
        if args.output:
            write_graph(result.graph, args.output)
    else:
        out["certificate"] = result.certificate
    return 0, out


def _cmd_diagnose(args) -> tuple[int, dict]:
    host = _load_host(args.input)
    diag = prob.janson_diagnostics(host, args.n)
    conc = prob.concentration_report(host.V, args.n)
    return 0, {
        "subcommand": "diagnose",
        "seed": args.seed,
        "janson": diag,
        "concentration": conc,
        "log_convention": "natural logarithm",
        "passed": True,
    }


def _cmd_estimate(args) -> tuple[int, dict]:
    host = _load_host(args.input)
    est = prob.estimate_pair_failure(host, args.n, args.samples, args.seed)
    diag = prob.janson_diagnostics(host, args.n)
    return 0, {
        "subcommand": "estimate",
        "seed": args.seed,
        "estimate": est,
        "bound_pair": diag.bound_pair,
        "passed": True,
    }


def _cmd_bounds(args) -> tuple[int, dict]:
    if args.ramsey:
        if args.t is None or args.k is None:
            raise UsageError("bounds --ramsey requires --t and --k")
        rb = bounds_mod.ramsey_bounds(args.t, args.k)
        return 0, {"subcommand": "bounds", "seed": args.seed,
                   "ramsey": rb, "passed": True}
    if args.forbidden is None or args.n is None:
        raise UsageError("bounds requires --forbidden and --n (or --ramsey with --t/--k)")
    h = parse_forbidden_spec(args.forbidden)
    report = bounds_mod.split_bounds(h, args.n, certify=args.certify)
    return 0, {"subcommand": "bounds", "seed": args.seed,
               "report": report, "passed": True}


def _add_common(p, output=True):
    p.add_argument("--seed", type=int, default=0)
    if output:
        p.add_argument("-o", "--output", default=None)


def build_parser() -> _Parser:
    parser = _Parser(prog="splitfree", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)

    c = sub.add_parser("construct", help="deterministic split constructions")
    csub = c.add_subparsers(dest="construction", required=True)

    p = csub.add_parser("affine")
    p.add_argument("--p", type=int, required=True)
    p.add_argument("--max-p", type=int, default=None)

    p = csub.add_parser("c4pipeline")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--max-p", type=int, default=None)

    p = csub.add_parser("bipartite")
    p.add_argument("--n", type=int, required=True)

    p = csub.add_parser("star")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--t", type=int, required=True)

    p = csub.add_parser("from-coloring")
    p.add_argument("--input", required=True)

    for p in csub.choices.values():
        p.add_argument("--no-verify", action="store_true")
        p.add_argument("--forbidden", default=None)
        _add_common(p)

    p = sub.add_parser("random-split")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k-cap", type=int, default=None,
                   help="default: floor of the concentration size cap")
    p.add_argument("--trials", type=int, default=1000)
    p.add_argument("--forbidden", default=None)
    _add_common(p)

    p = sub.add_parser("verify")
    p.add_argument("--input", required=True)
    p.add_argument("--mode", choices=["strict", "lax"], default="strict")
    p.add_argument("--forbidden", default=None)
    _add_common(p, output=False)

    p = sub.add_parser("prune")
    p.add_argument("--input", required=True)
    _add_common(p)

    p = sub.add_parser("restrict")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("trim")
    p.add_argument("--input", required=True)
    p.add_argument("--a", type=float, default=None)
    p.add_argument("--b", type=float, required=True)
    p.add_argument("--c-lower", type=float, default=1.0)
    p.add_argument("--c-upper", type=float, default=1.0)
    p.add_argument("--ex", type=int, default=None)
    p.add_argument("--q", type=int, default=None, help="override the q formula")
    _add_common(p)

    p = sub.add_parser("diagnose")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    _add_common(p, output=False)

    p = sub.add_parser("estimate")
    p.add_argument("--input", required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--samples", type=int, default=100000)
    _add_common(p, output=False)

    p = sub.add_parser("bounds")
    p.add_argument("--forbidden", default=None)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--certify", action="store_true")
    p.add_argument("--ramsey", action="store_true")
    p.add_argument("--t", type=int, default=None)
    p.add_argument("--k", type=int, default=None)
    _add_common(p, output=False)

    return parser


_HANDLERS = {
    "construct": _cmd_construct,
    "random-split": _cmd_random_split,
    "verify": _cmd_verify,
    "prune": _cmd_prune,
    "restrict": _cmd_restrict,
    "trim": _cmd_trim,
    "diagnose": _cmd_diagnose,
    "estimate": _cmd_estimate,
    "bounds": _cmd_bounds,
}


def run(argv: list[str]) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        code, result = _HANDLERS[args.subcommand](args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except SplitfreeError as exc:
        code, result = 1, {"error": {"type": type(exc).__name__, "message": str(exc)},
                           "passed": False}
    # reports are dataclasses: each is encoded as its fields in declaration order
    print(json.dumps(result, default=vars))
    return code


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
