"""Print every metric of every workload, untraced and traced, with units.

Usage (from the root of a checkout):

    python3 perfbench/report.py --seed 0 --seconds 20

For each workload this runs ``run.py`` once with ``--trace 0`` and once with
``--trace 1``, then prints the end-to-end metrics with their sample counts,
the per-layer metrics that are not zero, and the tracing overhead (traced
``ops_per_s`` against untraced ``ops_per_s``).  About four minutes in all.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
WORKLOADS = ("cli_oneshot", "perron_dense", "radius_scale", "coeff_algebra")


def run(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [
        sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    subprocess.run(cmd, check=True, stdout=subprocess.DEVNULL, timeout=600)
    path = os.path.join(HERE, "results", f"{workload}-seed{seed}-trace{trace}.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--workloads", nargs="*", default=list(WORKLOADS))
    args = ap.parse_args()
    for workload in args.workloads:
        plain = run(workload, args.seed, args.seconds, 0)
        traced = run(workload, args.seed, args.seconds, 1)
        res = plain["result"]
        print(f"== {workload} (seed {args.seed}, correct={res['correct']}, "
              f"attempted={res['attempted']}, failed={res['failed']})")
        print("   env " + json.dumps(plain["env"], sort_keys=True))
        for name, metric in res["metrics"].items():
            print(f"   {name:12s} {metric['value']:12.6g} {metric['unit']:6s} {plain['notes'][name]}")
        for failure, count in sorted(plain["failures"].items()):
            print(f"   failure x{count}: {failure}")
        layers = traced["result"]["metrics"]
        for name in sorted(layers):
            if layers[name]["value"]:
                print(f"   layer {name:44s} {layers[name]['value']:12.6g} {layers[name]['unit']}")
        overhead = res["metrics"]["ops_per_s"]["value"] / layers["trace.ops_per_s"]["value"]
        print(f"   tracing overhead: untraced ops_per_s / traced ops_per_s = {overhead:.3f}")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
