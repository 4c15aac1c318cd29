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

from . import formats
from . import probabilistic as prob
from .bounds import ramsey_bounds, split_bounds
from .constructions import CONSTRUCTIONS, check_split
from .errors import SplitfreeError
from .freeness import parse_forbidden_spec
from .graphs import (
    Graph,
    prune_to_split,
    read_graph,
    read_split,
    restrict_blobs,
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


def _pattern(spec: str | None):
    return None if spec is None else parse_forbidden_spec(spec)


def _cmd_construct(args) -> dict:
    row = CONSTRUCTIONS[args.construction]
    params = {flag: getattr(args, flag) for flag in row.params}
    # parsed before the build, so a bad spec leaves no file behind
    pattern = None if args.no_verify else (
        parse_forbidden_spec(args.forbidden) if args.forbidden else row.certificate_for(params))
    split = row.build(*params.values(), *([args.max_p] if row.max_p else []))
    if args.output:
        write_split(split, args.output)
    report, fr, passed = (None, None, True) if args.no_verify else check_split(
        split, row.mode, pattern)
    return {
        "params": params,
        "n": split.n,
        "k": split.k,
        "vertices": split.graph.V,
        "edges": split.graph.M,
        "output": args.output,
        "verification": report,
        "forbidden": fr,
        "passed": passed,
    }


def _cmd_random_split(args) -> dict:
    host = _load_host(args.input)
    k_cap = args.k_cap
    if k_cap is None:
        k_cap = math.floor(prob.concentration_report(host.V, args.n).size_cap) \
            if args.n >= 2 else host.V
    result = prob.random_split(host, args.n, k_cap, args.trials, args.seed)
    out = {"n": args.n, "k_cap": k_cap, "trials": args.trials}
    if isinstance(result, prob.FailureStats):
        return {**out, "accepted": False, "failure_stats": result, "passed": False}
    report, fr, passed = check_split(result, "strict", _pattern(args.forbidden))
    if args.output:
        write_split(result, args.output)
    return {
        **out,
        "accepted": True,
        "k": int(result.blob_sizes().max()),
        "output": args.output,
        "verification": report,
        "forbidden": fr,
        "passed": passed,
    }


def _cmd_verify(args) -> dict:
    report, fr, passed = check_split(read_split(args.input), args.mode, _pattern(args.forbidden))
    return {"passed": passed, "report": report, "forbidden": fr}


def _cmd_prune(args) -> dict:
    pruned = prune_to_split(read_split(args.input))
    if args.output:
        write_split(pruned, args.output)
    report, _, passed = check_split(pruned, "strict", None)
    return {
        "n": pruned.n,
        "k": pruned.k,
        "edges": pruned.graph.M,
        "output": args.output,
        "verification": report,
        "passed": passed,
    }


def _cmd_restrict(args) -> dict:
    restricted = restrict_blobs(read_split(args.input), args.n)
    if args.output:
        write_split(restricted, args.output)
    return {
        "n": restricted.n,
        "k": restricted.k,
        "vertices": restricted.graph.V,
        "edges": restricted.graph.M,
        "output": args.output,
        "passed": True,
    }


def _cmd_trim(args) -> dict:
    result = prob.trim_max_degree(_load_host(args.input), args.b, args.c_upper, args.ex, args.q)
    out = {"case": result.case, "q": result.q, "passed": True}
    if result.case == 1:
        return {**out, "certificate": result.certificate}
    if args.output:
        write_graph(result.graph, args.output)
    return {
        **out,
        "vertices": result.graph.V,
        "edges": result.graph.M,
        "max_degree": int(result.graph.degrees().max(initial=0)),
        "output": args.output,
    }


def _cmd_diagnose(args) -> dict:
    host = _load_host(args.input)
    return {
        "janson": prob.janson_diagnostics(host, args.n),
        "concentration": prob.concentration_report(host.V, args.n),
        "log_convention": "natural logarithm",
        "passed": True,
    }


def _cmd_estimate(args) -> dict:
    host = _load_host(args.input)
    return {
        "estimate": prob.estimate_pair_failure(host, args.n, args.samples, args.seed),
        "bound_pair": prob.janson_diagnostics(host, args.n).bound_pair,
        "passed": True,
    }


def _cmd_bounds(args) -> dict:
    if args.ramsey:
        if args.t is None or args.k is None:
            raise UsageError("bounds --ramsey requires --t and --k")
        return {"ramsey": ramsey_bounds(args.t, args.k), "passed": True}
    if args.forbidden is None or args.n is None:
        raise UsageError("bounds requires --forbidden and --n (or --ramsey with --t/--k)")
    h = parse_forbidden_spec(args.forbidden)
    return {"report": split_bounds(h, args.n, certify=args.certify), "passed": True}


# every flag once: name -> argparse keywords; a subcommand row names its flags
# in --help order, with "!" after the required ones
_FLAGS = {
    "input": {},
    "n": {"type": int},
    "t": {"type": int},
    "k": {"type": int},
    "k-cap": {"type": int, "help": "default: floor of the concentration size cap"},
    "trials": {"type": int, "default": 1000},
    "samples": {"type": int, "default": 100000},
    "mode": {"choices": ["strict", "lax"], "default": "strict"},
    "forbidden": {},
    "b": {"type": float},
    "c-upper": {"type": float, "default": 1.0},
    "ex": {"type": int},
    "q": {"type": int, "help": "override the q formula"},
    "max-p": {"type": int},
    "no-verify": {"action": "store_true"},
    "certify": {"action": "store_true"},
    "ramsey": {"action": "store_true"},
    "seed": {"type": int, "default": 0},
    "output": {},
}

# subcommand -> (handler returning its own JSON fields, flags); each construct
# kind adds its CONSTRUCTIONS parameters (and --max-p) before the flags here
_SUBCOMMANDS = {
    "construct": (_cmd_construct, "no-verify forbidden seed output"),
    "random-split": (_cmd_random_split, "input! n! k-cap trials forbidden seed output"),
    "verify": (_cmd_verify, "input! mode forbidden seed"),
    "prune": (_cmd_prune, "input! seed output"),
    "restrict": (_cmd_restrict, "input! n! seed output"),
    "trim": (_cmd_trim, "input! b! c-upper ex q seed output"),
    "diagnose": (_cmd_diagnose, "input! n! seed"),
    "estimate": (_cmd_estimate, "input! n! samples seed"),
    "bounds": (_cmd_bounds, "forbidden n certify ramsey t k seed"),
}


def _add_flags(p, flags: str) -> None:
    for flag in flags.split():
        name = flag.rstrip("!")
        names = ("-o", "--output") if name == "output" else (f"--{name}",)
        p.add_argument(*names, required=flag != name, **_FLAGS[name])


def build_parser() -> _Parser:
    parser = _Parser(prog="splitfree", description=__doc__)
    sub = parser.add_subparsers(dest="subcommand", required=True)
    for name, (_, flags) in _SUBCOMMANDS.items():
        if name != "construct":
            _add_flags(sub.add_parser(name), flags)
            continue
        csub = sub.add_parser(name, help="deterministic split constructions").add_subparsers(
            dest="construction", required=True)
        for kind, row in CONSTRUCTIONS.items():
            p = csub.add_parser(kind)
            for param, type_ in row.params.items():
                p.add_argument(f"--{param}", type=type_, required=True)
            _add_flags(p, ("max-p " if row.max_p else "") + flags)
    return parser


def run(argv: list[str]) -> int:
    """Parse argv, run its handler and print one JSON object: the subcommand,
    --seed and the handler's fields.  Exit 0 when `passed` is true, 1 when it
    is false or on an error (reported as a JSON `error`), 2 on a usage error."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        name = args.subcommand
        if name == "construct":
            name = f"construct {args.construction}"
        result = {"subcommand": name, "seed": args.seed,
                  **_SUBCOMMANDS[args.subcommand][0](args)}
    except (UsageError, OSError) as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except SystemExit as exc:  # argparse -h/--help
        return int(exc.code or 0)
    except (SplitfreeError, MemoryError) as exc:
        kind = "MemoryError" if isinstance(exc, MemoryError) else type(exc).__name__
        result = {"error": {"type": kind, "message": str(exc)}, "passed": False}
    # reports are dataclasses: each is encoded as its fields in declaration order
    print(json.dumps(result, default=vars))
    return 0 if result["passed"] else 1


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
