"""CLI reports of the demo-data commands, compared with recorded reports.

``data/cli_reports.json`` holds one record per command: its argv (file paths
relative to the repository root), its exit code and the report it printed
when recorded.  A new report must match its record: keys, ints, bools and
strings (``command`` and ``inputs_digest`` among them) exactly, floats within
``1e-10 * max(1, |x|)`` so that a different BLAS build does not fail the test.

The records pin results across commits.  From the repository root,
``python tests/test_cli_records.py`` lists the records whose report no longer
matches, and ``python tests/test_cli_records.py SUBSTRING ...`` rerecords only
the records whose argv, joined by spaces, contains one of the substrings.
When a change is meant to alter a report, rerecord just that record and say
why in CHANGES.md.
"""

import contextlib
import io
import json
import pathlib
import sys

import numpy as np
import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
RECORDS = pathlib.Path(__file__).resolve().parent / "data" / "cli_reports.json"
RECORD_LIST = json.loads(RECORDS.read_text())


def run_cli(argv):
    from cpspectra.cli import main

    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(argv)
    return code, out.getvalue()


def assert_matches(got, want, where="report"):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), f"{where}: keys differ"
        for key in want:
            assert_matches(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), f"{where}: lengths differ"
        for idx, (g, w) in enumerate(zip(got, want)):
            assert_matches(g, w, f"{where}[{idx}]")
    elif isinstance(want, float) or isinstance(got, float):
        # an integral float renders without a decimal point and parses back as an int
        assert type(got) in (int, float) and type(want) in (int, float), f"{where}: {got!r}"
        assert abs(got - want) <= 1e-10 * max(1.0, abs(want)), f"{where}: {got!r} != {want!r}"
    else:
        assert type(got) is type(want) and got == want, f"{where}: {got!r} != {want!r}"


@pytest.mark.parametrize("record", RECORD_LIST, ids=[" ".join(r["argv"]) for r in RECORD_LIST])
def test_report_matches_record(record, monkeypatch):
    monkeypatch.chdir(ROOT)
    code, out = run_cli(record["argv"])
    assert code == record["exit"]
    assert_matches(json.loads(out), json.loads(record["stdout"]))


@pytest.mark.parametrize("name", ["golden_ratio_map", "trace_corner_map", "path_adjacency_map", "double_trace_map"])
def test_demo_data_files_hold_the_bundled_maps(name):
    # the records run on these files; `cpspectra check` and the acceptance suite on reference_maps
    from cpspectra import CpMap, reference_maps

    tau = CpMap.from_json(json.loads((ROOT / "demos" / "data" / f"{name}.json").read_text()))
    want = getattr(reference_maps, name)()
    assert tau.shape == want.shape
    assert len(tau.kraus) == len(want.kraus)
    for a, b in zip(tau.kraus, want.kraus):
        assert np.array_equal(a, b)


def differs(record) -> bool:
    code, out = run_cli(record["argv"])
    try:
        assert code == record["exit"]
        assert_matches(json.loads(out), json.loads(record["stdout"]))
    except AssertionError:
        return True
    return False


if __name__ == "__main__":
    sys.path.insert(0, str(ROOT / "src"))
    patterns = sys.argv[1:]
    if not patterns:
        stale = [" ".join(r["argv"]) for r in RECORD_LIST if differs(r)]
        for name in stale:
            print(f"differs: {name}")
        print(f"{len(stale)} of {len(RECORD_LIST)} records differ")
    else:
        for record in RECORD_LIST:
            name = " ".join(record["argv"])
            if any(p in name for p in patterns):
                record["exit"], record["stdout"] = run_cli(record["argv"])
                print(f"rerecorded: {name}")
        RECORDS.write_text("[\n" + ",\n".join(json.dumps(r) for r in RECORD_LIST) + "\n]\n")
