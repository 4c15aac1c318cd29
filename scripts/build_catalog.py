#!/usr/bin/env python3
"""Build a catalog of verified forbidden-subgraph splits.

Writes split files plus a verification summary JSON into an output
directory:

  affine_p<p>.sg        lax affine incidence splits
  pipeline_n<n>.sg      strict C4-free splits from the prime pipeline
  star_n<n>_t<t>.sg     strict splits with maximum degree < t
  bipartite_n<n>.sg     strict 2-splits avoiding all non-bipartite graphs

Usage:
    python scripts/build_catalog.py --out catalog [--affine 2 3 5]
        [--pipeline 27 216 1000] [--star-n 10 50] [--star-t 3 4]
"""

import argparse
import json
import time
from pathlib import Path

from splitfree.bounds import split_bounds
from splitfree.constructions import CONSTRUCTIONS, check_split
from splitfree.freeness import parse_forbidden_spec
from splitfree.graphs import write_split


def entry(name, kind, params, out_dir):
    """Build one construction, write it, and check it with its own certificate."""
    row = CONSTRUCTIONS[kind]
    certificate = row.certificate_for(params)
    split = row.build(*params.values())
    path = out_dir / f"{name}.sg"
    write_split(split, path)
    report, fr, _ = check_split(split, row.mode, certificate)
    record = {
        "file": path.name,
        "n": split.n,
        "k": int(split.blob_sizes().max()),
        "vertices": split.graph.V,
        "edges": split.graph.M,
        "mode": row.mode,
        "verified": report.passed,
        "forbidden": fr["spec"],
        "free": fr["free"],
    }
    if kind == "c4pipeline":
        record["bounds"] = split_bounds(parse_forbidden_spec("C4"), split.n)
    return record


def main():
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--out", type=Path, default=Path("catalog"))
    ap.add_argument("--affine", type=int, nargs="*", default=[2, 3, 5])
    ap.add_argument("--pipeline", type=int, nargs="*", default=[27, 216, 1000])
    ap.add_argument("--star-n", type=int, nargs="*", default=[10, 50])
    ap.add_argument("--star-t", type=int, nargs="*", default=[3, 4])
    ap.add_argument("--bipartite", type=int, nargs="*", default=[30])
    args = ap.parse_args()

    args.out.mkdir(parents=True, exist_ok=True)
    jobs = [(f"affine_p{p}", "affine", {"p": p}) for p in args.affine]
    jobs += [(f"pipeline_n{n}", "c4pipeline", {"n": n}) for n in args.pipeline]
    jobs += [(f"star_n{n}_t{t}", "star", {"n": n, "t": t})
             for n in args.star_n for t in args.star_t]
    jobs += [(f"bipartite_n{n}", "bipartite", {"n": n}) for n in args.bipartite]
    records = []
    for name, kind, params in jobs:
        t0 = time.time()
        records.append(entry(name, kind, params, args.out))
        print(f"{name}: k={records[-1]['k']} ({time.time() - t0:.2f}s)")

    summary = args.out / "catalog.json"
    summary.write_text(json.dumps(records, indent=2, default=vars) + "\n")
    bad = [r for r in records if not (r["verified"] and r["free"])]
    print(f"\n{len(records)} splits written to {args.out}/; summary in {summary}")
    if bad:
        raise SystemExit(f"verification failed for: {[r['file'] for r in bad]}")


if __name__ == "__main__":
    main()
