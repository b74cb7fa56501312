"""One sha256 per benchmark op output, to show that a change leaves every result bit for bit.

Runs one pass of each named ``perfbench/workloads.py`` schedule at each seed against the
``src/`` of a checkout (default: this one) and prints ``workload seed index kind input
digest`` per op, over every array, dataclass field and error type and message.  Then it
runs the argv of every ``tests/data/cli_reports.json`` record of this checkout through that
``src/``'s ``cpspectra.cli.main``, in-process from this checkout's root, and prints ``cli
index exit argv digest`` over the exit code and the exact stdout bytes; the records
themselves match floats only within 1e-10.  Last comes a total.  ``perfbench/`` is only
imported.  Compare two checkouts with ``diff``:

    python tools/op_digest.py --root ../parent > parent.txt
    python tools/op_digest.py > change.txt && diff parent.txt change.txt
"""

import argparse
import contextlib
import dataclasses
import hashlib
import io
import json
import os
import pathlib
import sys

for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ.setdefault(var, "1")  # one BLAS thread sums in one order on every run
import numpy as np  # noqa: E402 - after the thread settings

WORKLOADS = ("perron_dense", "coeff_algebra", "radius_scale")


def feed(h, x) -> None:
    """Hash ``x`` by its type, shape and exact bytes or ``repr``."""
    h.update(type(x).__name__.encode())
    if isinstance(x, np.ndarray):
        h.update(f"{x.dtype}{x.shape}".encode() + np.ascontiguousarray(x).tobytes())
    elif dataclasses.is_dataclass(x):
        for f in dataclasses.fields(x):
            h.update(f.name.encode())
            feed(h, getattr(x, f.name))
    elif isinstance(x, dict):
        for key in sorted(x):
            feed(h, key)
            feed(h, x[key])
    elif isinstance(x, (list, tuple)):
        h.update(str(len(x)).encode())
        for item in x:
            feed(h, item)
    else:
        h.update(repr(x).encode())


def main(argv=None) -> int:
    here = pathlib.Path(__file__).resolve().parent.parent
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--root", default=str(here), help="checkout whose src/ is digested")
    ap.add_argument("--workload", nargs="+", default=list(WORKLOADS), choices=WORKLOADS)
    ap.add_argument("--seeds", nargs="+", type=int, default=[11, 12])
    args = ap.parse_args(argv)
    sys.path[:0] = [str(pathlib.Path(args.root).resolve() / "src"), str(here / "perfbench")]
    sys.dont_write_bytecode = True  # write nothing under perfbench/
    import workloads

    classes = {cls.name: cls for cls in (workloads.PerronDense, workloads.CoeffAlgebra, workloads.RadiusScale)}
    total = hashlib.sha256()
    for name in args.workload:
        for seed in args.seeds:
            for idx, op in enumerate(classes[name](args.root, seed, args.root).build()):
                h = hashlib.sha256()
                try:
                    feed(h, op.call())
                except Exception as exc:  # noqa: BLE001 - an error is an output too
                    feed(h, (type(exc).__name__, str(exc)))
                total.update(h.digest())
                print(name, seed, idx, op.kind, op.input_id, h.hexdigest())
    from cpspectra.cli import main as cli_main

    os.chdir(here)  # the records' file paths are relative to the repository root
    for idx, record in enumerate(json.loads((here / "tests" / "data" / "cli_reports.json").read_text())):
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(record["argv"])
        h = hashlib.sha256(f"{code}\n{out.getvalue()}".encode())
        total.update(h.digest())
        print("cli", idx, code, " ".join(record["argv"]), h.hexdigest())
    print("total", total.hexdigest())
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
