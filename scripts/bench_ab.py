#!/usr/bin/env python3
"""A/B timing of two source checkouts on one benchmark workload.

Usage:
    python3 scripts/bench_ab.py --parent ../parent --change . --workload sample
        [--seed 0] [--pairs 10] [--seconds 36] --out ab.json

Runs `python3 perfbench/run.py --workload W --seed S --seconds T` in each
checkout, alternately: the parent first in odd pairs (1, 3, ...), the change
first in even ones.  After each run it reads the checkout's
perfbench/results/W-seedS-trace0.json.  It prints, per side, the median and
quartiles of every end-to-end metric (all lower-is-better), in how many
pairs the change ran lower, the pass count of each run, and per invocation
the median and max latency and the peak RSS over all passes.  The same table
goes to --out as JSON.  It edits nothing under perfbench/.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

SIDES = ("parent", "change")


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    subprocess.run([sys.executable, "perfbench/run.py", "--workload", workload,
                    "--seed", str(seed), "--seconds", str(seconds)],
                   cwd=checkout, check=True, stdout=subprocess.DEVNULL)
    result = checkout / "perfbench" / "results" / f"{workload}-seed{seed}-trace0.json"
    return json.loads(result.read_text())


def quartiles(values: list[float]) -> dict:
    if len(values) < 2:
        return {"q1": values[0], "median": values[0], "q3": values[0]}
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def summarize(runs: dict[str, list[dict]]) -> dict:
    """The A/B table of the run records of each side, paired in run order."""
    table = {"pairs": min(len(runs[side]) for side in SIDES)}
    for side in SIDES:
        records = runs[side]
        passes = [p for r in records for p in r["passes"]]
        table[side] = {
            "metrics": {name: quartiles([r["result"]["metrics"][name]["value"] for r in records])
                        for name in records[0]["result"]["metrics"]},
            "passes": [len(r["passes"]) for r in records],
            "invocations": {
                label: {"median_s": statistics.median(p["latency_s"][label] for p in passes),
                        "max_s": max(p["latency_s"][label] for p in passes),
                        "peak_mb": max(p["maxrss_mb"][label] for p in passes)}
                for label in passes[0]["latency_s"]},
        }

    def change_lower(name: str) -> int:
        return sum(c["result"]["metrics"][name]["value"] < p["result"]["metrics"][name]["value"]
                   for p, c in zip(runs["parent"], runs["change"]))

    table["change_lower"] = {name: change_lower(name) for name in table["parent"]["metrics"]}
    return table


def print_table(table: dict) -> None:
    print(f"{table['pairs']} pairs; passes parent {table['parent']['passes']} "
          f"change {table['change']['passes']}")
    print(f"{'metric':<14}{'parent median [q1, q3]':>30}{'change median [q1, q3]':>30}  lower")
    for name, lower in table["change_lower"].items():
        cells = [f"{m['median']:.4g} [{m['q1']:.4g}, {m['q3']:.4g}]"
                 for m in (table[side]["metrics"][name] for side in SIDES)]
        print(f"{name:<14}{cells[0]:>30}{cells[1]:>30}  {lower}/{table['pairs']}")
    print(f"{'invocation':<22}{'parent med/max s, peak MB':>28}{'change med/max s, peak MB':>28}")
    for label, a in table["parent"]["invocations"].items():
        cells = [f"{i['median_s']:.3f}/{i['max_s']:.3f}, {i['peak_mb']:.1f}"
                 for i in (a, table["change"]["invocations"][label])]
        print(f"{label:<22}{cells[0]:>28}{cells[1]:>28}")


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="checkout of the parent commit")
    ap.add_argument("--change", type=Path, required=True, help="checkout of the change")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--pairs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=36)
    ap.add_argument("--out", type=Path, required=True)
    args = ap.parse_args()
    runs = {side: [] for side in SIDES}
    for pair in range(1, args.pairs + 1):
        for side in SIDES if pair % 2 else SIDES[::-1]:
            runs[side].append(run_once(getattr(args, side).resolve(), args.workload,
                                       args.seed, args.seconds))
    table = summarize(runs)
    args.out.write_text(json.dumps(table, indent=1) + "\n")
    print_table(table)


if __name__ == "__main__":
    main()
