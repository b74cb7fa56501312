"""cpspectra benchmark: one workload, one seed, one timed phase.

Usage (from the root of a checkout):

    python3 perfbench/run.py --workload perron_dense --seed 0 --seconds 20 --trace 0

Untraced runs (``--trace 0``) print the end-to-end metrics; traced runs
(``--trace 1``) wrap the package's public functions and print per-layer
metrics instead.  The last line of stdout is the result object
``{"correct", "attempted", "failed", "metrics"}``; the lines before it give
the environment, every metric with its unit and sample count, and failures
by op kind and exception type.  See ``perfbench/README.md``.
"""

from __future__ import annotations

import time

START = time.perf_counter()

import argparse  # noqa: E402 - START must precede every import
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import warnings  # noqa: E402

# One BLAS thread in this process and every process it starts.  On a shared
# 2-vCPU host, interleaved runs with one thread spread a third as much from
# run to run as with two (perron_dense op_p50_s: 0.08 against 0.23).
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
SETUP_REPEATS = 3  # set-ups per run (this process and two children)
TAIL_PERCENTILES = (99.9, 99, 95, 90, 85, 80, 75, 70, 65, 60, 55, 50)
TAIL_BEYOND = 10  # samples that must lie beyond the tail percentile
MIN_SAMPLES = 30  # whole passes are run until at least this many ops are timed
PROBE_REPEATS = 3  # interpreter / import probes per traced run


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    raise SystemExit(2)


def add_paths() -> None:
    """Put this checkout's ``src`` first on the path, refusing to run without it."""
    if not os.path.isfile(os.path.join(SRC, "cpspectra", "__init__.py")):
        fail(f"no cpspectra sources under {SRC}; run from a full checkout")
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)


def import_package() -> None:
    import cpspectra

    if os.path.dirname(os.path.dirname(os.path.abspath(cpspectra.__file__))) != SRC:
        fail(f"imported cpspectra from {cpspectra.__file__}, not from {SRC}")


def make_workload(name: str, seed: int, work_dir: str, traced: bool):
    import workloads

    kinds = (workloads.CliOneshot, workloads.PerronDense, workloads.RadiusScale, workloads.CoeffAlgebra)
    classes = {cls.name: cls for cls in kinds}
    if name not in classes:
        fail(f"unknown workload {name!r}; choose from {sorted(classes)}")
    if name == "cli_oneshot":
        child = os.path.join(HERE, "cli_child.py") if traced else None
        return classes[name](ROOT, seed, work_dir, child)
    return classes[name](ROOT, seed, work_dir)


def set_up(name: str, seed: int, work_dir: str, tracer):
    """Imports, input generation and warm-up: everything before the first timed op.

    ``cli_oneshot`` drives the package only through CLI processes, so it
    imports numpy for its checks but not the package itself.
    """
    import numpy  # noqa: F401 - part of the set-up cost

    if name != "cli_oneshot":
        import_package()
        if tracer is not None:
            tracer.install()
    workload = make_workload(name, seed, work_dir, tracer is not None)
    ops = workload.build()
    workload.warm_up()
    return workload, ops


# ---------------------------------------------------------------- environment


def blas_threads() -> str:
    """OpenBLAS thread count, read from the loaded library itself."""
    import ctypes

    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            libs = {line.split()[-1] for line in handle if "openblas" in line.lower() and ".so" in line}
    except OSError:
        libs = set()
    for lib in sorted(libs):
        try:
            dll = ctypes.CDLL(lib)
        except OSError:
            continue
        for sym in (
            "scipy_openblas_get_num_threads64_",
            "openblas_get_num_threads64_",
            "openblas_get_num_threads",
        ):
            fn = getattr(dll, sym, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return str(fn())
    return os.environ.get("OPENBLAS_NUM_THREADS", "unknown")


def git_commit() -> str:
    head = os.path.join(ROOT, ".git", "HEAD")
    try:
        with open(head, encoding="utf-8") as handle:
            ref = handle.read().strip()
        if not ref.startswith("ref: "):
            return ref
        ref = ref[5:]
        path = os.path.join(ROOT, ".git", ref)
        if os.path.isfile(path):
            with open(path, encoding="utf-8") as handle:
                return handle.read().strip()
        with open(os.path.join(ROOT, ".git", "packed-refs"), encoding="utf-8") as handle:
            for line in handle:
                if line.strip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def environment(args) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            models = (line.split(":", 1)[1].strip() for line in handle if line.startswith("model name"))
            cpu = next(models, cpu)
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', 'unknown')} {blas.get('version', '')}".strip(),
        "blas_threads": blas_threads(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "commit": git_commit(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
    }


# ---------------------------------------------------------------- timed phase


def timed_phase(ops, seconds: float, tracer, workload):
    """Closed loop, one op at a time, over passes of the schedule ``ops``.

    Runs until ``seconds`` of op time are spent and whole passes hold at
    least MIN_SAMPLES ops.  Only complete passes are measured, so every run
    times the same op mix whatever op the deadline falls on.  Checks run
    between ops and are not timed.  Returns records ``[op, duration, outcome, detail]`` of the
    complete passes and the deferred checks.
    """
    import workloads

    records, deferred = [], []
    busy, i = 0.0, 0
    min_ops = len(ops) * -(-MIN_SAMPLES // len(ops))
    spans = getattr(workload, "spans_path", lambda: None)()
    while busy < seconds or i < min_ops:
        op = ops[i % len(ops)]
        if tracer is not None:
            tracer.op_id = i
        error, result = None, None
        t0 = time.perf_counter()
        try:
            result = op.call()
        except Exception as exc:  # noqa: BLE001 - every failure is counted by type
            error = exc
        duration = time.perf_counter() - t0
        if tracer is not None:
            tracer.op_id = -1
            if spans is not None and os.path.exists(spans):
                tracer.merge(spans, i)
                os.remove(spans)
        busy += duration
        outcome, detail = "pass", ""
        if error is not None:
            detail = type(error).__name__
            if op.expect is None or not isinstance(error, op.expect):
                outcome = "fail"
        elif op.expect is not None:
            outcome, detail = "fail", f"no {op.expect.__name__}"
        else:
            try:
                deferred += [(op, check) for check in op.check(result)]
            except workloads.WrongOutput as exc:
                outcome, detail = "wrong", str(exc)
        del result
        records.append([op, duration, outcome, detail])
        i += 1
    complete = len(records) - len(records) % len(ops)
    # A wrong answer in the discarded partial pass still makes the run incorrect.
    wrong_extra = [rec for rec in records[complete:] if rec[2] == "wrong"]
    return records[:complete], deferred, wrong_extra


def run_deferred(records, deferred, refs) -> None:
    """Reference checks after the timed phase; a failed one marks its op wrong."""
    failed_ops = {}
    for op, check in deferred:
        message = check(refs)
        if message is not None:
            failed_ops.setdefault(id(op), message)
    for rec in records:
        if rec[2] == "pass" and id(rec[0]) in failed_ops:
            rec[2], rec[3] = "wrong", failed_ops[id(rec[0])]


def tail(durations):
    """Value at the highest listed percentile with >= TAIL_BEYOND samples beyond it."""
    ordered = sorted(durations)
    n = len(ordered)
    for pct in TAIL_PERCENTILES:
        pos = pct / 100.0 * (n - 1)
        lo = int(pos)
        hi = min(lo + 1, n - 1)
        value = ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)
        if sum(1 for d in ordered if d > value) >= TAIL_BEYOND:
            return value, pct
    return ordered[-1], 100.0


# ---------------------------------------------------------------- cli probes


def cli_probes(work_dir: str) -> dict:
    """Interpreter start and import cost of ``cpspectra.cli``, in fresh processes."""
    env = dict(os.environ, PYTHONPATH=SRC)
    interp, total, scipy_s = [], [], []
    for _ in range(PROBE_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], check=True, env=env, cwd=work_dir, timeout=60)
        interp.append(time.perf_counter() - t0)
        out = subprocess.run(
            [sys.executable, "-X", "importtime", "-c", "import cpspectra.cli"],
            check=True, env=env, cwd=work_dir, timeout=60, capture_output=True, text=True,
        ).stderr
        self_us, scipy_us = 0, 0
        for line in out.splitlines():
            parts = line.split("|")
            if len(parts) != 3 or not parts[0].startswith("import time:"):
                continue
            try:
                us = int(parts[0].split(":")[1])
            except ValueError:
                continue  # the header line
            self_us += us
            if parts[2].strip().split(".")[0] == "scipy":
                scipy_us += us
        total.append(self_us / 1e6)
        scipy_s.append(scipy_us / 1e6)
    return {
        "cli.interp_s": statistics.median(interp),
        "cli.import_s": statistics.median(total),
        "cli.import_scipy_s": statistics.median(scipy_s),
    }


# ---------------------------------------------------------------- main


def parse_args():
    ap = argparse.ArgumentParser(description="cpspectra benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", metavar="WORK_DIR", help=argparse.SUPPRESS)
    return ap.parse_args()


def child_setups(args, work_root: str) -> list[float]:
    """Repeat the whole set-up in fresh processes; each reports its own time."""
    times = []
    for k in range(SETUP_REPEATS - 1):
        work_dir = os.path.join(work_root, f"setup{k}")
        os.makedirs(work_dir, exist_ok=True)
        cmd = [
            sys.executable, os.path.abspath(__file__), "--setup-only", work_dir,
            "--workload", args.workload, "--seed", str(args.seed), "--trace", str(args.trace),
        ]
        out = subprocess.run(cmd, check=True, capture_output=True, text=True, timeout=170).stdout
        times.append(float(out.split()[-1]))
    return times


def new_tracer(args):
    if not args.trace:
        return None
    from tracer import Tracer

    return Tracer()


def main() -> int:
    args = parse_args()
    add_paths()
    warnings.simplefilter("ignore")  # overflow warnings of failing ops are counted, not printed
    if args.setup_only:
        set_up(args.workload, args.seed, args.setup_only, new_tracer(args))
        print(f"READY {time.perf_counter() - START:.6f}")
        return 0
    if args.seconds <= 0:
        fail("--seconds must be positive")

    work_root = os.path.join(HERE, "_work", f"{args.workload}-{args.seed}-{os.getpid()}")
    work_dir = os.path.join(work_root, "main")
    os.makedirs(work_dir, exist_ok=True)
    try:
        return measure(args, work_root, work_dir)
    finally:
        shutil.rmtree(work_root, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(work_root))
        except OSError:
            pass  # another run is still using it


def measure(args, work_root: str, work_dir: str) -> int:
    tracer = new_tracer(args)
    workload, ops = set_up(args.workload, args.seed, work_dir, tracer)
    setups = [time.perf_counter() - START] + child_setups(args, work_root)
    env = environment(args)

    records, deferred, wrong_extra = timed_phase(ops, args.seconds, tracer, workload)
    if args.workload == "cli_oneshot":
        peak_mb = workload.maxrss_kb / 1024.0
    else:
        peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    run_deferred(records, deferred, workload.refs)

    durations = [rec[1] for rec in records]
    attempted, passes = len(records), len(records) // len(ops)
    failed = sum(1 for rec in records if rec[2] != "pass")
    wrong = [rec for rec in records if rec[2] == "wrong"] + wrong_extra
    tail_value, tail_pct = tail(durations)
    ops_per_s = attempted / sum(durations)
    e2e = {
        "setup_s": (statistics.median(setups), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "op_tail_s": (tail_value, "s"),
        "ops_per_s": (ops_per_s, "1/s"),
        "peak_rss_mb": (peak_mb, "MB"),
        "pass_ratio": ((attempted - failed) / attempted, "ratio"),
    }
    notes = {
        "setup_s": f"median of {len(setups)} set-ups: " + ", ".join(f"{s:.3f}" for s in setups),
        "op_p50_s": f"n={attempted} ops in {passes} pass(es) of {len(ops)}",
        "op_tail_s": f"p{tail_pct:g} of n={attempted} ops, >= {TAIL_BEYOND} beyond",
        "ops_per_s": f"{attempted} ops in {sum(durations):.2f} s of op time",
        "peak_rss_mb": "largest CLI process" if args.workload == "cli_oneshot" else "this process",
        "pass_ratio": f"fail_ratio = {failed}/{attempted} = {failed / attempted:.4f}",
    }

    if tracer is None:
        metrics = e2e
    else:
        from tracer import layer_metrics

        metrics = layer_metrics(tracer, attempted)
        metrics.update({k: (v, "s") for k, v in cli_probes(work_dir).items()})
        elapsed = getattr(workload, "elapsed", [])
        metrics["cli.run_s"] = (statistics.median(elapsed) if elapsed else 0.0, "s")
        metrics["trace.ops_per_s"] = (ops_per_s, "1/s")
        spans = sum(value for name, (value, _) in metrics.items() if name.endswith(".calls"))
        metrics["trace.spans"] = (spans, "count")
        if tracer.missing:
            print(f"# not traced (absent from the package): {', '.join(tracer.missing)}")

    failures = {}
    for rec in records:
        if rec[2] != "pass":
            key = f"{rec[0].kind} [{rec[0].input_id}] {rec[2]}: {rec[3]}"
            failures[key] = failures.get(key, 0) + 1

    print("# env " + json.dumps(env, sort_keys=True))
    for name, (value, unit) in e2e.items():
        print(f"# {args.workload} {name} = {value:.6g} {unit} ({notes[name]})")
    if tracer is not None:
        for name, (value, unit) in sorted(metrics.items()):
            print(f"# {args.workload} layer {name} = {value:.6g} {unit}")
    for key, count in sorted(failures.items()):
        print(f"# failure x{count}: {key}")

    result = {
        "correct": not wrong,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    results_dir = os.path.join(HERE, "results")
    os.makedirs(results_dir, exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    with open(os.path.join(results_dir, stem + ".json"), "w", encoding="utf-8") as handle:
        samples = [[rec[0].kind, rec[0].input_id, rec[1], rec[2]] for rec in records]
        json.dump(
            {"env": env, "notes": notes, "failures": failures, "result": result, "ops": samples},
            handle,
            indent=1,
        )
    if tracer is not None:
        tracer.dump(os.path.join(results_dir, stem + "-spans.json"))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
