"""Smoke runs of the experiment scripts under scripts/, as subprocesses, and
checks that the benchmark's set-up builders and per-layer trace targets still
name real functions."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

from splitfree.constructions import read_coloring
from splitfree.graphs import read_split, verify_split

ROOT = Path(__file__).resolve().parents[1]


def _load_perfbench(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", ROOT / "perfbench" / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def run_script(name: str, *args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    return subprocess.run([sys.executable, str(ROOT / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=300)


def test_pair_failure_experiment():
    proc = run_script("pair_failure_experiment.py", "--p", "3", "--colors", "4", "9",
                      "--samples", "2000", "--trials", "20")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == "host: pruned affine split p=3: 162 vertices, 351 edges"
    rows = [line.split() for line in lines if line.split()[:1] in (["4"], ["9"])]
    assert [row[0] for row in rows] == ["4", "9"]
    for row in rows:
        bound, estimate, stderr = float(row[3]), float(row[4]), float(row[5])
        assert 0.0 <= estimate <= bound + 4 * stderr
    assert lines[-1].startswith("estimates should sit below bound + 4*stderr")


def test_build_catalog(tmp_path):
    out = tmp_path / "catalog"
    proc = run_script("build_catalog.py", "--out", str(out), "--affine", "2",
                      "--pipeline", "27", "--star-n", "10", "--star-t", "3")
    assert proc.returncode == 0, proc.stderr
    names = ["affine_p2.sg", "pipeline_n27.sg", "star_n10_t3.sg", "bipartite_n30.sg"]
    assert sorted(p.name for p in out.iterdir()) == sorted(names + ["catalog.json"])
    records = json.loads((out / "catalog.json").read_text())
    assert [r["file"] for r in records] == names
    assert all(r["verified"] and r.get("free", True) for r in records)
    assert proc.stdout.splitlines()[-1] == \
        f"4 splits written to {out}/; summary in {out / 'catalog.json'}"


def test_trace_targets_resolve():
    """Every perfbench/tracer.py TARGETS entry names a function of the loaded package,
    looked up the way `install()` looks it up (without installing any shim)."""
    tracer = _load_perfbench("tracer")
    assert tracer.TARGETS
    for name, (attr, _, _) in tracer.TARGETS.items():
        owner = importlib.import_module(f"splitfree.{name.split('.')[0]}")
        *cls, fn_name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        raw = vars(owner).get(fn_name)
        assert callable(raw) or isinstance(raw, classmethod), f"{name}: {attr} not found"


def test_benchmark_setup_builders_run(tmp_path, monkeypatch):
    """Every perfbench/make_inputs.py builder runs at a tiny size and writes its
    file through make_inputs' own write branch, so a renamed or removed library
    name fails here and not in the benchmark's set-up."""
    make_inputs = _load_perfbench("make_inputs")
    tiny = {"round_robin": [5], "c4pipeline": [8], "affine": [2], "pruned_affine": [2],
            "star": [5, 3], "bipartite": [4]}
    assert set(tiny) == set(make_inputs.BUILDERS)
    jobs = [[f"{name}.out", name, *args] for name, args in tiny.items()]
    monkeypatch.setattr(sys, "argv", ["make_inputs.py", str(tmp_path), json.dumps(jobs)])
    make_inputs.main()
    assert read_coloring(tmp_path / "round_robin.out").n == 5
    for name in tiny.keys() - {"round_robin"}:
        assert verify_split(read_split(tmp_path / f"{name}.out"), "lax").passed


def _result_record(metrics: dict, passes: list[tuple[float, float]]) -> dict:
    """A run.py result file cut down to what bench_ab reads: the end-to-end
    metrics and, per pass, one invocation's latency and peak."""
    return {"result": {"metrics": {name: {"value": v, "unit": "s"} for name, v in metrics.items()}},
            "passes": [{"latency_s": {"estimate_h3": lat}, "maxrss_mb": {"estimate_h3": rss}}
                       for lat, rss in passes]}


def test_bench_ab_summarizes_two_result_files(tmp_path, capsys):
    spec = importlib.util.spec_from_file_location("bench_ab", ROOT / "scripts" / "bench_ab.py")
    bench_ab = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(bench_ab)
    files = {"parent": _result_record({"slowest_op_s": 0.66, "peak_rss_mb": 49.5},
                                      [(0.53, 39.7), (0.69, 39.6), (0.50, 39.7)]),
             "change": _result_record({"slowest_op_s": 0.55, "peak_rss_mb": 49.6},
                                      [(0.25, 37.3), (0.75, 37.2)])}
    for side, record in files.items():
        (tmp_path / f"{side}.json").write_text(json.dumps(record))
    runs = {side: [json.loads((tmp_path / f"{side}.json").read_text())] for side in files}
    table = bench_ab.summarize(runs)
    assert table["pairs"] == 1
    assert table["parent"]["passes"] == [3] and table["change"]["passes"] == [2]
    assert table["parent"]["metrics"]["slowest_op_s"] == {"q1": 0.66, "median": 0.66, "q3": 0.66}
    assert table["change_lower"] == {"slowest_op_s": 1, "peak_rss_mb": 0}
    assert table["parent"]["invocations"]["estimate_h3"] == {"median_s": 0.53, "max_s": 0.69,
                                                             "peak_mb": 39.7}
    assert table["change"]["invocations"]["estimate_h3"] == {"median_s": 0.5, "max_s": 0.75,
                                                             "peak_mb": 37.3}
    assert table["parent"]["peak_by_passes"] == {3: 49.5}
    assert table["change"]["peak_by_passes"] == {2: 49.6}
    bench_ab.print_table(table)
    assert "by pass count: parent 3: 49.5; change 2: 49.6\n" in capsys.readouterr().out
    runs = {side: runs[side] * 5 for side in runs}  # quartiles over several runs
    assert bench_ab.summarize(runs)["change"]["metrics"]["peak_rss_mb"]["q3"] == 49.6
    # each pass count gets the median peak of its own runs
    runs["change"] += [_result_record({"slowest_op_s": 0.5, "peak_rss_mb": mb}, [(0.2, 37.0)] * 3)
                       for mb in (60.0, 64.0)]
    assert bench_ab.summarize(runs)["change"]["peak_by_passes"] == {2: 49.6, 3: 62.0}
