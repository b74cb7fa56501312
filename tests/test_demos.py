"""Printed output of the demo scripts, compared with recorded output.

``data/demo_outputs.json`` maps the name of each ``demos/0*.py`` script to the
stdout it printed when recorded.  Each script runs in its own process, as a
user would run it, with ``src`` on ``PYTHONPATH``.  Its output must match the
record: the text between numbers exactly, and each number within
``1e-10 * max(1, |x|)``, the rule of ``test_cli_records.py``, so that a
different BLAS build does not fail the test.

From the repository root, ``python tests/test_demos.py`` lists the demos whose
output no longer matches, and ``python tests/test_demos.py SUBSTRING ...``
rerecords only the demos whose file name contains one of the substrings.
When a change is meant to alter a demo's output, rerecord just that demo and
say why in CHANGES.md.
"""

import json
import os
import pathlib
import re
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = pathlib.Path(__file__).resolve().parent / "data" / "demo_outputs.json"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))
NUMBER = re.compile(r"[-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?")


def run_demo(name: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, str(ROOT / "demos" / name)],
        cwd=ROOT, env=env, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode == 0, f"{name} exited {done.returncode}:\n{done.stderr}"
    return done.stdout


def assert_matches(got: str, want: str, where: str) -> None:
    """The same text between numbers, and numbers within ``1e-10 * max(1, |x|)``."""
    assert NUMBER.split(got) == NUMBER.split(want), f"{where}: text differs"
    for g, w in zip(NUMBER.findall(got), NUMBER.findall(want)):
        x, y = float(g), float(w)
        assert abs(x - y) <= 1e-10 * max(1.0, abs(y)), f"{where}: {g} != {w}"


def test_every_demo_has_a_record():
    assert sorted(json.loads(RECORDS.read_text())) == DEMOS


@pytest.mark.parametrize("name", DEMOS)
def test_demo_output_matches_record(name):
    assert_matches(run_demo(name), json.loads(RECORDS.read_text())[name], name)


def differs(name: str, want: str) -> bool:
    try:
        assert_matches(run_demo(name), want, name)
    except AssertionError:
        return True
    return False


if __name__ == "__main__":
    records = json.loads(RECORDS.read_text()) if RECORDS.exists() else {}
    patterns = sys.argv[1:]
    if not patterns:
        stale = [name for name in DEMOS if name not in records or differs(name, records[name])]
        for name in stale:
            print(f"differs: {name}")
        print(f"{len(stale)} of {len(DEMOS)} demos differ")
    else:
        for name in DEMOS:
            if any(p in name for p in patterns):
                records[name] = run_demo(name)
                print(f"rerecorded: {name}")
        RECORDS.write_text(json.dumps(dict(sorted(records.items())), indent=1) + "\n")
