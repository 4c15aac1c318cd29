"""splitfree benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload construct --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout (it needs `src/splitfree`).  The run
builds the workload's input files (set-up), then drives the real CLI,
`python3 -m splitfree.cli`, as a single client in a closed loop: one child
at a time, each reaped with `os.wait4` before the next starts.  It repeats
the workload's list of invocations (a pass) at least three times and while
another pass fits in `--seconds`.  After each pass it times the set-up again
in a separate directory, so the set-up times sample the whole run.  Every
invocation goes through the correctness gate (gate.py).

--trace 0 reports the end-to-end metrics.  --trace 1 runs one untraced pass
and then the same pass with every invocation in a fresh `trace_child.py`
under the timing shims of tracer.py, and reports the per-layer metrics;
it ignores `--seconds`.

The last stdout line is one JSON object: correct, attempted, failed,
metrics.  A fuller record, with the environment, goes to
perfbench/results/<workload>-seed<seed>-trace<t>.json.
"""

from __future__ import annotations

import os

# BLAS/OpenMP pools pinned to one thread, for the harness and its children.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import gate  # noqa: E402
import tracer  # noqa: E402
from workloads import RECORDED_PEAK_MB, WORKLOADS, make_plan  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SRC = ROOT / "src"
E2E = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"), ("op_p50_s", "s"),
       ("slowest_op_s", "s"), ("peak_rss_mb", "MB"))
MIN_PASSES = 3
CHILD_TIMEOUT_S = 60
HEADROOM_MB = 300  # harness, page cache and tracing on top of the recorded child peak
CHILD_ENV = dict(os.environ, PYTHONPATH=str(SRC))


class ChildTimeout(Exception):
    pass


def _alarm(signum, frame):
    raise ChildTimeout


def spawn(cmd: list[str], cwd: Path, tag: str) -> dict:
    """Run one child to completion; latency is spawn to reap, CPU and peak
    RSS come from its rusage."""
    out_path, err_path = cwd / f"{tag}.stdout", cwd / f"{tag}.stderr"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=cwd, env=CHILD_ENV, stdout=out, stderr=err)
        signal.setitimer(signal.ITIMER_REAL, CHILD_TIMEOUT_S)
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except ChildTimeout:
            proc.kill()
            proc.wait()
            raise RuntimeError(f"{' '.join(cmd)} ran over {CHILD_TIMEOUT_S} s") from None
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
        end = time.monotonic()
        proc.returncode = os.waitstatus_to_exitcode(status)
    return {"code": proc.returncode, "start": start, "latency_s": end - start,
            "cpu_s": usage.ru_utime + usage.ru_stime, "maxrss_mb": usage.ru_maxrss / 1024,
            "stdout": out_path.read_bytes(), "stderr": err_path.read_bytes()}


def set_up(plan, work: Path) -> float:
    cmd = [sys.executable, str(HERE / "make_inputs.py"), str(work), json.dumps(plan.setup)]
    child = spawn(cmd, work, "setup")
    if child["code"] != 0:
        sys.exit(f"run.py: set-up failed: {child['stderr'].decode(errors='replace')[-2000:]}")
    return child["latency_s"]


def run_pass(plan, work: Path, traced: bool) -> dict:
    children = []
    for idx, inv in enumerate(plan.invocations):
        if traced:
            cmd = [sys.executable, str(HERE / "trace_child.py"), str(idx),
                   f"{inv.label}.spans.json", *inv.argv]
        else:
            cmd = [sys.executable, "-m", "splitfree.cli", *inv.argv]
        child = spawn(cmd, work, inv.label)
        if traced:
            spans = json.loads((work / f"{inv.label}.spans.json").read_text())
            child["trace"] = dict(spans, spawn=child["start"])
        children.append(child)
    wall = children[-1]["start"] + children[-1]["latency_s"] - children[0]["start"]
    for inv, child in zip(plan.invocations, children):
        child["files"] = {name: (work / name).read_bytes() for name in inv.outputs}
    return {"wall_s": wall, "cpu_s": sum(c["cpu_s"] for c in children), "children": children}


def check_passes(plan, passes: list[dict], reference: list | None) -> tuple[list, list]:
    """Gate every invocation of every pass.  Returns the first pass's output
    digests per invocation and one message per failed invocation."""
    expected = {r["label"]: r for r in reference or ()}
    records, failures = [], []
    for idx, inv in enumerate(plan.invocations):
        first = None
        for pi, one_pass in enumerate(passes):
            child = one_pass["children"][idx]
            errors = gate.check_result(inv, child["code"], child["stdout"], child["stderr"])
            record = {"label": inv.label, "argv": inv.argv, "stdout": gate.sha256(child["stdout"]),
                      "files": {n: gate.sha256(b) for n, b in child["files"].items()}}
            if first is None:
                first = record
                for name, data in child["files"].items():
                    errors += [f"{name}: {e}" for e in gate.check_split_bytes(data, inv.outputs[name])]
                if reference is not None and record != expected.get(inv.label):
                    errors.append("outputs differ from the committed seed-0 digests")
            elif record != first:
                errors.append("outputs differ from the first pass")
            if errors:
                failures.append(f"pass {pi + 1} {inv.label}: " + "; ".join(errors))
        records.append(first)
    return records, failures


def meminfo_mb() -> dict[str, float]:
    with open("/proc/meminfo", encoding="ascii") as fh:
        return {line.split(":")[0]: int(line.split()[1]) / 1024 for line in fh}


def preflight(workload: str) -> None:
    """Refuse to start when the box cannot hold the workload's recorded peak."""
    available = meminfo_mb()["MemAvailable"]
    need = RECORDED_PEAK_MB[workload] + HEADROOM_MB
    if available < need:
        sys.exit(f"run.py: refusing workload {workload!r}: MemAvailable is {available:.0f} MB, "
                 f"its children peak at {RECORDED_PEAK_MB[workload]} MB and need {need} MB")


def environment(seed: int) -> dict:
    with open("/proc/cpuinfo", encoding="utf-8") as fh:
        cpu = next((line.split(":", 1)[1].strip() for line in fh
                    if line.startswith("model name")), platform.processor())
    try:
        commit = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True,
            timeout=30, env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)),
        ).stdout.strip() or None
    except (OSError, subprocess.SubprocessError):
        commit = None
    source = hashlib.sha256()
    for path in sorted((SRC / "splitfree").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {"nproc": len(os.sched_getaffinity(0)), "mem_total_mb": round(meminfo_mb()["MemTotal"]),
            "cpu_model": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "git_commit": commit, "source_sha256": source.hexdigest(), "seed": seed}


def end_to_end(setup_s: list[float], passes: list[dict]) -> dict[str, float]:
    latencies = [c["latency_s"] for p in passes for c in p["children"]]
    return {
        "setup_s": statistics.median(setup_s),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "cpu_s": statistics.median(p["cpu_s"] for p in passes),
        "op_p50_s": statistics.median(latencies),
        "slowest_op_s": max(latencies),
        "peak_rss_mb": max(c["maxrss_mb"] for p in passes for c in p["children"]),
    }


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "splitfree" / "cli.py").is_file():
        sys.exit(f"run.py: {SRC / 'splitfree'} not found; run from the root of a splitfree checkout")
    preflight(args.workload)
    signal.signal(signal.SIGALRM, _alarm)

    plan = make_plan(args.workload, args.seed)
    work, probe = HERE / "work" / args.workload, HERE / "work" / f"{args.workload}-setup"
    for path in (work, probe):
        shutil.rmtree(path, ignore_errors=True)
        path.mkdir(parents=True)
    setup_s = [set_up(plan, work)]
    setup_digests = {name: gate.sha256((work / name).read_bytes()) for name, *_ in plan.setup}

    if args.trace:
        passes = [run_pass(plan, work, traced=False), run_pass(plan, work, traced=True)]
    else:
        passes = []
        while (len(passes) < MIN_PASSES
               or sum(p["wall_s"] for p in passes) + passes[-1]["wall_s"] <= args.seconds):
            passes.append(run_pass(plan, work, traced=False))
            setup_s.append(set_up(plan, probe))

    reference = None
    if args.seed == 0:
        reference = json.loads((HERE / "digests_seed0.json").read_text()).get(args.workload)
    records, failures = check_passes(plan, passes, reference and reference["invocations"])
    failed = len(failures)
    if reference and reference["setup"] != setup_digests:
        failures.append("set-up files differ from the committed seed-0 digests")

    if args.trace:
        values = tracer.layer_metrics([c["trace"] for c in passes[1]["children"]])
        values["trace.overhead_frac"] = passes[1]["wall_s"] / passes[0]["wall_s"] - 1
        specs = [(name, unit) for name, unit, _ in tracer.per_layer_specs()]
    else:
        values, specs = end_to_end(setup_s, passes), E2E
    attempted = sum(len(p["children"]) for p in passes)
    result = {"correct": not failures, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in specs}}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": environment(args.seed), "result": result,
        "failed_frac": failed / attempted, "failures": failures, "setup_runs_s": setup_s,
        "passes": [{"traced": bool(args.trace and i == 1), "wall_s": p["wall_s"],
                    "cpu_s": p["cpu_s"],
                    "latency_s": {inv.label: c["latency_s"]
                                  for inv, c in zip(plan.invocations, p["children"])},
                    "maxrss_mb": {inv.label: c["maxrss_mb"]
                                  for inv, c in zip(plan.invocations, p["children"])}}
                   for i, p in enumerate(passes)],
        "digests": {"setup": setup_digests, "invocations": records},
    }
    if args.trace:
        record["spans"] = {inv.label: c["trace"]
                           for inv, c in zip(plan.invocations, passes[1]["children"])}
    results = HERE / "results"
    results.mkdir(exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    (results / name).write_text(json.dumps(record, indent=1) + "\n")
    for message in failures:
        print(f"run.py: FAILED {message}", file=sys.stderr)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
