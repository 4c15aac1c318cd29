"""Smoke runs of the experiment scripts under scripts/, as subprocesses, and a
check that the benchmark's per-layer trace targets still name real functions."""

import importlib
import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


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
    spec = importlib.util.spec_from_file_location("perfbench_tracer", ROOT / "perfbench" / "tracer.py")
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert tracer.TARGETS
    for name, (attr, _, _) in tracer.TARGETS.items():
        owner = importlib.import_module(f"splitfree.{name.split('.')[0]}")
        *cls, fn_name = attr.split(".")
        if cls:
            owner = getattr(owner, cls[0])
        raw = vars(owner).get(fn_name)
        assert callable(raw) or isinstance(raw, classmethod), f"{name}: {attr} not found"
