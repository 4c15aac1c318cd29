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
from splitfree.constructions import (
    build_affine_split,
    build_bipartite_split,
    build_star_free_split,
    construct_c4_free_split,
)
from splitfree.freeness import check_forbidden, parse_forbidden_spec
from splitfree.graphs import verify_split, write_split


def entry(name, split, mode, forbidden, out_dir):
    path = out_dir / f"{name}.sg"
    write_split(split, path)
    report = verify_split(split, mode)
    record = {
        "file": path.name,
        "n": split.n,
        "k": int(split.blob_sizes().max()),
        "vertices": split.graph.V,
        "edges": split.graph.M,
        "mode": mode,
        "verified": report.passed,
    }
    if forbidden:
        record["forbidden"] = forbidden
        record["free"] = check_forbidden(split.graph, parse_forbidden_spec(forbidden)) is None
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
    records = []

    for p in args.affine:
        t0 = time.time()
        records.append(entry(f"affine_p{p}", build_affine_split(p), "lax", "C4", args.out))
        print(f"affine p={p}: {records[-1]} ({time.time() - t0:.2f}s)")

    for n in args.pipeline:
        t0 = time.time()
        rec = entry(f"pipeline_n{n}", construct_c4_free_split(n), "strict", "C4", args.out)
        rec["bounds"] = split_bounds(parse_forbidden_spec("C4"), n)
        records.append(rec)
        print(f"pipeline n={n}: k={rec['k']} ({time.time() - t0:.2f}s)")

    for n in args.star_n:
        for t in args.star_t:
            rec = entry(f"star_n{n}_t{t}", build_star_free_split(n, t),
                        "strict", f"S{t}", args.out)
            records.append(rec)
            print(f"star n={n} t={t}: k={rec['k']}")

    for n in args.bipartite:
        records.append(entry(f"bipartite_n{n}", build_bipartite_split(n),
                             "strict", "C3", args.out))
        print(f"bipartite n={n}")

    summary = args.out / "catalog.json"
    summary.write_text(json.dumps(records, indent=2, default=vars) + "\n")
    bad = [r for r in records if not r["verified"] or not r.get("free", True)]
    print(f"\n{len(records)} splits written to {args.out}/; summary in {summary}")
    if bad:
        raise SystemExit(f"verification failed for: {[r['file'] for r in bad]}")


if __name__ == "__main__":
    main()
