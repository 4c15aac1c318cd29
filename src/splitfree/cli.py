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
from . import formats
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


def _load_host(path) -> Graph:
    """Host graph for diagnostics: a graph file, or the graph of a split file."""
    return read_split(path).graph if formats.sniff(path) == "splitgraph" else read_graph(path)


# the bipartite construction's own check: its 2-coloring rules out every non-bipartite graph
_TWO_COLORED = object()


def _checked(split: SplitGraph, mode: str, spec) -> tuple:
    """(verification report, forbidden-pattern result or None, whether both passed)."""
    report, fr = verify_split(split, mode), None
    if spec is _TWO_COLORED:
        fr = {"spec": "any non-bipartite graph",
              "free": two_coloring(split.graph) is not None, "witness": None}
    elif spec is not None:
        mapping = check_forbidden(split.graph, parse_forbidden_spec(spec))
        fr = {"spec": spec, "free": mapping is None, "witness": witness_json(mapping)}
    return report, fr, report.passed and (fr is None or fr["free"])


# kind -> (required flags, builder taking them (and --max-p), verification mode,
#          default pattern, formatted with the flags)
_CONSTRUCTIONS = {
    "affine": ({"p": int}, cons.build_affine_split, "lax", "C4"),
    "c4pipeline": ({"n": int}, cons.construct_c4_free_split, "strict", "C4"),
    "bipartite": ({"n": int}, cons.build_bipartite_split, "strict", _TWO_COLORED),
    "star": ({"n": int, "t": int}, cons.build_star_free_split, "strict", "S{t}"),
    "from-coloring": ({"input": str}, lambda path: cons.build_split_from_coloring(
        cons.read_coloring(path)), "strict", None),
}
_MAX_P = ("affine", "c4pipeline")  # the constructions that take --max-p


def _cmd_construct(args) -> tuple[int, dict]:
    flags, build, mode, default = _CONSTRUCTIONS[args.construction]
    params = {flag: getattr(args, flag) for flag in flags}
    split = build(*params.values(), *([args.max_p] if args.construction in _MAX_P else []))
    out = {
        "subcommand": f"construct {args.construction}",
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
        default = default.format_map(params) if isinstance(default, str) else default
        out["verification"], out["forbidden"], out["passed"] = _checked(
            split, mode, args.forbidden or default)
    return (0 if out["passed"] else 1), out


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
    report, fr, passed = _checked(result, "strict", args.forbidden)
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
    report, fr, passed = _checked(read_split(args.input), args.mode, args.forbidden)
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
    result = prob.trim_max_degree(g, args.b, args.c_upper, args.ex, args.q)
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

    for kind, (flags, *_) in _CONSTRUCTIONS.items():
        p = csub.add_parser(kind)
        for flag, type_ in flags.items():
            p.add_argument(f"--{flag}", type=type_, required=True)
        if kind in _MAX_P:
            p.add_argument("--max-p", type=int, default=None)

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
    p.add_argument("--b", type=float, required=True)
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
    except (UsageError, OSError) as exc:
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
