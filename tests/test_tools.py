"""Smoke test of ``tools/op_digest.py``."""

import pathlib
import re
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent


def snapshot(folder: pathlib.Path) -> dict:
    return {str(p): p.stat().st_mtime_ns for p in folder.rglob("*")}


def test_op_digest_prints_one_digest_per_op():
    before = snapshot(ROOT / "perfbench")
    argv = [sys.executable, str(ROOT / "tools" / "op_digest.py"), "--workload", "coeff_algebra", "--seeds", "11"]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert re.fullmatch(r"total [0-9a-f]{64}", lines[-1])
    rows = [line.split() for line in lines[:-1]]
    assert len(rows) == 100  # one pass of the coeff_algebra schedule
    for idx, row in enumerate(rows):
        assert row[:3] == ["coeff_algebra", "11", str(idx)] and re.fullmatch(r"[0-9a-f]{64}", row[-1])
    assert snapshot(ROOT / "perfbench") == before
