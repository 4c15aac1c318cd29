"""Correctness gate for one CLI invocation and for the files it writes.

An invocation passes when its exit code and JSON values are the expected
ones, stderr holds no traceback, every `.sg` file it wrote re-parses here
(with numpy, independently of splitfree's reader) as a well-formed split,
and every output digest matches the reference when one is given.
"""

from __future__ import annotations

import hashlib
import json

import numpy as np


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _lookup(obj, dotted: str):
    for key in dotted.split("."):
        if not isinstance(obj, dict) or key not in obj:
            return KeyError
        obj = obj[key]
    return obj


def check_result(inv, code: int, stdout: bytes, stderr: bytes) -> list[str]:
    """Exit code, JSON expectations and a clean stderr."""
    errors = []
    if code != inv.code:
        errors.append(f"exit code {code}, expected {inv.code}")
    if b"Traceback (most recent call last)" in stderr:
        errors.append("traceback on stderr: " + stderr.decode(errors="replace")[-300:])
    try:
        out = json.loads(stdout.decode().strip().splitlines()[-1])
    except (ValueError, IndexError):
        return errors + [f"stdout is not one JSON object: {stdout[-200:]!r}"]
    for path, want in inv.expect.items():
        got = _lookup(out, path)
        if got != want:
            errors.append(f"{path} = {got!r}, expected {want!r}")
    return errors


def check_split_bytes(data: bytes, mode: str) -> list[str]:
    """Re-parse a `splitgraph 1` file and check it is a lax or strict split:
    header counts match the body, vertex ids ascend, all n blobs are used and
    none exceeds k, edges are sorted, unique and in range, and a strict split
    has exactly one edge per blob pair and no edge inside a blob."""
    try:
        header, counts, body = data.split(b"\n", 2)
        tok = counts.split()
        if header != b"splitgraph 1" or tok[0::2] != [b"n", b"k", b"v", b"e"]:
            return ["bad header"]
        n, k, vcount, ecount = (int(t) for t in tok[1::2])
        nums = np.array(body.translate(None, b"be").split(), dtype=np.int64)
    except ValueError as exc:
        return [f"unparsable: {exc}"]
    if (body.count(b"b ") != vcount or body.count(b"e ") != ecount
            or len(nums) != 2 * (vcount + ecount)):
        return ["line counts disagree with the header"]
    if vcount and ecount and body.rfind(b"b ") > body.find(b"e "):
        return ["blob lines and edge lines are interleaved"]
    blobs = nums[: 2 * vcount].reshape(-1, 2)
    edges = nums[2 * vcount:].reshape(-1, 2)
    errors = []
    if not np.array_equal(blobs[:, 0], np.arange(vcount)):
        errors.append("vertex ids do not ascend from 0")
    b = blobs[:, 1]
    if len(b) and (b.min() < 0 or b.max() >= n):
        return errors + ["blob id out of range"]
    sizes = np.bincount(b, minlength=n)
    if (sizes == 0).any():
        errors.append("some blob is empty")
    if sizes.max(initial=0) > k:
        errors.append(f"blob of size {sizes.max()} > k={k}")
    if len(edges):
        u, v = edges[:, 0], edges[:, 1]
        if u.min() < 0 or v.max() >= vcount or (u >= v).any():
            return errors + ["edge endpoints out of range or not u < v"]
        keys = u * vcount + v
        if (np.diff(keys) <= 0).any():
            errors.append("edges not sorted and unique")
        bu, bv = b[u], b[v]
        cross = bu != bv
        pairs = np.unique(np.minimum(bu, bv)[cross] * n + np.maximum(bu, bv)[cross])
    else:
        cross = pairs = np.empty(0, np.int64)
    if len(pairs) != n * (n - 1) // 2:
        errors.append(f"{n * (n - 1) // 2 - len(pairs)} blob pairs have no edge")
    if mode == "strict" and (ecount != n * (n - 1) // 2 or not cross.all()):
        errors.append(f"strict split must have n(n-1)/2={n * (n - 1) // 2} "
                      f"cross edges, has {ecount} edges")
    return errors
