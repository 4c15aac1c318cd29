"""Timing shims around splitfree's layers, and the per-layer metrics built
from the spans they record.

`install()` replaces each function in TARGETS with a shim, both where it is
defined and under every name another splitfree module imported it by, so
nested calls become child spans.  A span records its name, start, end,
parent span and invocation id, the growth of the process's peak RSS, and a
few counts.  Counts that cost work (wedges, file sizes) are computed after
the span ends, outside the program; that time is charged to the parent as
`hidden` and left out of its self time.
"""

from __future__ import annotations

import functools
import os
import resource
import statistics
import sys
import time

import numpy as np

MODULES = ("fields", "constructions", "graphs", "freeness", "probabilistic", "bounds", "cli")
MB = 1 << 20


def _wedges(g) -> int:
    """sum over vertices of C(deg, 2): the pairs a common-neighbour checker examines."""
    d = g.degrees()
    return int((d * (d - 1) // 2).sum())


def _mb(path) -> float:
    return os.path.getsize(path) / MB


# span name "<module>.<function>" -> (attribute of the module, stats reported,
# counts(args, result) -> dict, or None)
TARGETS = {
    "cli.run": ("run", ("s",), None),
    "fields.mul_arrays": ("Field.mul_arrays", ("s", "items"),
                          lambda a, r: {"items": np.broadcast(*a[1:5]).size}),
    "fields.add_arrays": ("Field.add_arrays", ("s",), None),
    "constructions.incidence_graph": ("AffinePlane.incidence_graph", ("s", "items"),
                                      lambda a, r: {"items": r.M}),
    "constructions.round_robin_coloring": ("round_robin_coloring", ("s", "items"),
                                           lambda a, r: {"items": len(r.color_of)}),
    "constructions.build_star_free_split": ("build_star_free_split", ("s",), None),
    "constructions.build_split_from_coloring": ("build_split_from_coloring", ("s",), None),
    "constructions.read_coloring": ("read_coloring", ("s", "mb"),
                                    lambda a, r: {"mb": _mb(a[0])}),
    "constructions.build_bipartite_split": ("build_bipartite_split", ("s",), None),
    "graphs.two_coloring": ("two_coloring", ("s",), None),
    "graphs.Graph": ("Graph.__init__", ("s", "calls", "items"),
                     lambda a, r: {"items": np.size(a[2]) // 2}),
    "graphs.Graph.from_edge_keys": ("Graph.from_edge_keys", ("s",), None),
    "graphs.restrict_blobs": ("restrict_blobs", ("s", "items"),
                              lambda a, r: {"items": a[0].graph.M}),
    "graphs.prune_to_split": ("prune_to_split", ("s", "items", "kept_ratio"),
                              lambda a, r: {"items": a[0].graph.M, "kept": r.graph.M}),
    "graphs.verify_split": ("verify_split", ("s",), None),
    "graphs.write_split": ("write_split", ("s", "mb"), lambda a, r: {"mb": _mb(a[1])}),
    "graphs.read_split": ("read_split", ("s", "mb"), lambda a, r: {"mb": _mb(a[0])}),
    "freeness.is_c4_free": ("is_c4_free", ("s", "items", "rss_mb"),
                            lambda a, r: {"items": _wedges(a[0])}),
    # s = 1 is a degree scan; wedges are only examined for s >= 2
    "freeness.is_kst_free": ("is_kst_free", ("s", "items", "rss_mb"),
                             lambda a, r: {"items": _wedges(a[0]) if a[1] >= 2 else 0}),
    "freeness.contains_subgraph": ("contains_subgraph", ("s", "calls"), None),
    "freeness.check_forbidden": ("check_forbidden", ("s",), None),
    "probabilistic.random_split": ("random_split", ("s", "calls", "accepted", "trials"),
                                   lambda a, r: {"accepted": 0, "trials": r.trials}
                                   if type(r).__name__ == "FailureStats" else {"accepted": 1}),
    "probabilistic.estimate_pair_failure": ("estimate_pair_failure", ("s", "items", "rss_mb"),
                                            lambda a, r: {"items": a[2]}),
    "probabilistic.janson_diagnostics": ("janson_diagnostics", ("s",), None),
    "bounds.split_bounds": ("split_bounds", ("s",), None),
}


def _maxrss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


class Tracer:
    """Spans of one invocation, kept in memory until the process ends."""

    def __init__(self, invocation: int):
        self.invocation = invocation
        self.spans: list[dict] = []
        self._stack: list[dict] = []

    def wrap(self, name, fn, counts):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def shim(*args, **kwargs):
            span = {"id": len(spans), "name": name, "invocation": self.invocation,
                    "parent": stack[-1]["id"] if stack else None, "hidden": 0.0}
            spans.append(span)
            stack.append(span)
            rss0 = _maxrss_mb()
            span["start"] = time.monotonic()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span["failed"] = 1
                raise
            finally:
                span["end"] = time.monotonic()
                span["rss_mb"] = _maxrss_mb() - rss0
                stack.pop()
            if counts is not None:
                span.update(counts(args, result))
                if stack:
                    stack[-1]["hidden"] += time.monotonic() - span["end"]
            return result

        return shim


def install(tracer: Tracer) -> None:
    """Wrap every TARGETS entry in the loaded splitfree modules."""
    import splitfree.cli  # noqa: F401  (loads every module named in TARGETS)

    pkg = [m for n, m in list(sys.modules.items()) if n.split(".")[0] == "splitfree"]
    for name, (attr, _, counts) in TARGETS.items():
        owner = sys.modules[f"splitfree.{name.split('.')[0]}"]
        *cls, fn_name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        raw = vars(owner)[fn_name]
        if isinstance(raw, classmethod):
            setattr(owner, fn_name, classmethod(tracer.wrap(name, raw.__func__, counts)))
            continue
        shim = tracer.wrap(name, raw, counts)
        if cls:
            setattr(owner, fn_name, shim)
            continue
        for mod in pkg:
            for key in [k for k, v in vars(mod).items() if v is raw]:
                setattr(mod, key, shim)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced pass
# ---------------------------------------------------------------------------

_SPAN_STATS = {
    "s": "s", "calls": "count", "items": "count", "mb": "MB", "rss_mb": "MB",
    "kept_ratio": "ratio", "accepted": "count", "trials": "count",
}


def per_layer_specs() -> list[tuple[str, str, str]]:
    """(metric name, unit, better) of every per-layer metric, in report order."""
    specs = [("cli.startup_s", "s", "lower")]
    for span, (_, stats, _) in TARGETS.items():
        specs += [(f"{span}.{st}", _SPAN_STATS[st],
                   "higher" if st in ("kept_ratio", "accepted") else "lower") for st in stats]
    specs += [(f"{m}.failed", "count", "lower") for m in MODULES]
    return specs + [("trace.overhead_frac", "ratio", "lower")]


def layer_metrics(records: list[dict]) -> dict[str, float]:
    """Per-layer values from the traced invocations of one pass.

    Each record holds `spawn` (harness clock before the child started),
    `imported` (child clock after `import splitfree.cli`) and `spans`.
    Times and counts are summed over the pass, `rss_mb` is the largest growth
    of any one span, `cli.startup_s` the median over invocations.
    """
    self_s: dict[str, float] = {}
    totals: dict[tuple[str, str], float] = {}
    rss: dict[str, float] = {}
    failed = dict.fromkeys(MODULES, 0)
    for rec in records:
        spans = rec["spans"]
        covered = [0.0] * len(spans)
        for sp in spans:
            if sp["parent"] is not None:
                covered[sp["parent"]] += sp["end"] - sp["start"]
        for sp in spans:
            name = sp["name"]
            own = sp["end"] - sp["start"] - covered[sp["id"]] - sp["hidden"]
            self_s[name] = self_s.get(name, 0.0) + own
            totals[name, "calls"] = totals.get((name, "calls"), 0) + 1
            for key in ("items", "mb", "kept", "accepted", "trials"):
                totals[name, key] = totals.get((name, key), 0) + sp.get(key, 0)
            rss[name] = max(rss.get(name, 0.0), sp["rss_mb"])
            module = name.split(".")[0]
            parent = spans[sp["parent"]]["name"].split(".")[0] if sp["parent"] is not None else None
            if sp.get("failed") and parent != module:
                failed[module] += 1
    out = {"cli.startup_s": statistics.median(r["imported"] - r["spawn"] for r in records)}
    for span, (_, stats, _) in TARGETS.items():
        for st in stats:
            if st == "s":
                value = self_s.get(span, 0.0)
            elif st == "rss_mb":
                value = rss.get(span, 0.0)
            elif st == "kept_ratio":
                edges_in = totals.get((span, "items"), 0)
                value = totals.get((span, "kept"), 0) / edges_in if edges_in else 0.0
            else:
                value = totals.get((span, st), 0)
            out[f"{span}.{st}"] = value
    out.update({f"{m}.failed": failed[m] for m in MODULES})
    return out
