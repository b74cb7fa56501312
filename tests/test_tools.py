"""Smoke test of ``tools/op_digest.py``."""

import hashlib
import json
import pathlib
import re
import subprocess
import sys

from test_cli_records import run_cli

ROOT = pathlib.Path(__file__).resolve().parent.parent


def snapshot(folder: pathlib.Path) -> dict:
    return {str(p): p.stat().st_mtime_ns for p in folder.rglob("*")}


def test_op_digest_prints_one_digest_per_op(monkeypatch):
    monkeypatch.chdir(ROOT)
    before = snapshot(ROOT / "perfbench")
    argv = [sys.executable, str(ROOT / "tools" / "op_digest.py"), "--workload", "coeff_algebra", "--seeds", "11"]
    lines = subprocess.run(argv, capture_output=True, text=True, check=True, timeout=300).stdout.splitlines()
    assert re.fullmatch(r"total [0-9a-f]{64}", lines[-1])
    rows = [line.split() for line in lines[:-1]]
    ops, cli = rows[:100], rows[100:]  # one pass of the coeff_algebra schedule, then the CLI records
    for idx, row in enumerate(ops):
        assert row[:3] == ["coeff_algebra", "11", str(idx)] and re.fullmatch(r"[0-9a-f]{64}", row[-1])
    records = json.loads((ROOT / "tests" / "data" / "cli_reports.json").read_text())
    assert len(cli) == len(records)
    for idx, (row, record) in enumerate(zip(cli, records)):
        assert row[:3] == ["cli", str(idx), str(record["exit"])] and row[3:-1] == record["argv"]
        # the digest is over the exact bytes the CLI prints, not the record's (equal within 1e-10)
        code, out = run_cli(record["argv"])
        assert row[-1] == hashlib.sha256(f"{code}\n{out}".encode()).hexdigest()
    assert snapshot(ROOT / "perfbench") == before
