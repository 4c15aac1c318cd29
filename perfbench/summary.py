"""Run every workload over a set of seeds and print each metric by name.

    python3 perfbench/summary.py --seeds 0-9 [--trace 0|1] [--label baseline] [--save-digests]

Runs `run.py` once per (workload, seed), one after another, from the root of
the checkout, with `run_seconds` from BENCHMARK.json.  For each metric it
prints the median, the quartile spread (Q3 - Q1) / median, and the highest
percentile with at least ten runs beyond it, with the run count; plus
failed_frac, the invocations that failed the gate over those attempted.
--label writes the runs and the table to perfbench/BENCH_<label>.json;
--save-digests stores the seed-0 digests in perfbench/digests_seed0.json.
"""

from __future__ import annotations

import argparse
import json
import math
import statistics
import subprocess
import sys
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def seed_list(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def summarize(values: list[float]) -> dict:
    """Median, quartile spread and the highest percentile that has at least
    ten runs above it (none below 11 runs)."""
    ordered = sorted(values)
    med = statistics.median(ordered)
    out = {"runs": len(ordered), "median": med}
    if len(ordered) >= 2:
        q1, _, q3 = statistics.quantiles(ordered, n=4)
        out["spread"] = (q3 - q1) / med if med else 0.0
    if len(ordered) >= 11:
        pct = math.floor(100 * (len(ordered) - 10) / len(ordered))
        out[f"p{pct}"] = ordered[math.ceil(pct / 100 * len(ordered)) - 1]
    return out


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seeds", type=seed_list, default=seed_list("0-9"))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--label")
    ap.add_argument("--save-digests", action="store_true")
    args = ap.parse_args()
    if args.save_digests and 0 not in args.seeds:
        ap.error("--save-digests needs seed 0 among --seeds")
    seconds = json.loads(Path("BENCHMARK.json").read_text())["run_seconds"]

    runs: dict[str, list[dict]] = {}
    for workload in WORKLOADS:
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(seconds), "--trace", str(args.trace)]
            proc = subprocess.run(cmd, capture_output=True, text=True)
            if proc.returncode != 0:
                sys.exit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            runs.setdefault(workload, []).append(dict(result, seed=seed))
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed {result['failed']}/{result['attempted']}", file=sys.stderr)

    table = {}
    for workload, results in runs.items():
        attempted = sum(r["attempted"] for r in results)
        failed = sum(r["failed"] for r in results)
        rows = {"failed_frac": {"runs": len(results), "median": failed / attempted,
                                "unit": "ratio"}}
        for name, metric in results[0]["metrics"].items():
            rows[name] = dict(summarize([r["metrics"][name]["value"] for r in results]),
                              unit=metric["unit"])
        table[workload] = rows
        print(f"\n{workload} ({len(results)} runs, all correct: "
              f"{all(r['correct'] for r in results)})")
        for name, row in rows.items():
            extra = "  ".join(f"{k} {v:.6g}" for k, v in row.items()
                              if k not in ("runs", "median", "unit"))
            print(f"  {name:44s} {row['median']:12.6g} {row['unit']:6s} "
                  f"n={row['runs']}  {extra}")

    if args.label:
        out = {"seeds": args.seeds, "trace": args.trace, "run_seconds": seconds,
               "summary": table, "runs": runs}
        env_file = HERE / "results" / f"{WORKLOADS[0]}-seed{args.seeds[0]}-trace{args.trace}.json"
        out["environment"] = json.loads(env_file.read_text())["environment"]
        (HERE / f"BENCH_{args.label}.json").write_text(json.dumps(out, indent=1) + "\n")
    if args.save_digests:
        table = HERE / "digests_seed0.json"
        digests = {w: json.loads((HERE / "results" / f"{w}-seed0-trace{args.trace}.json")
                                 .read_text())["digests"] for w in WORKLOADS}
        table.write_text(json.dumps(digests, indent=1) + "\n")


if __name__ == "__main__":
    main()
