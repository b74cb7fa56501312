"""Span tracer for the traced benchmark run.

The tracer replaces selected public functions of ``cpspectra`` with wrappers
that record one span per call: name, start, end, parent span and op id.  The
package's modules import names from each other directly (``perron`` holds its
own ``numerical_rank`` reference), so every ``cpspectra.*`` module attribute
that refers to a wrapped function is replaced, not only the defining one.

Spans stay in memory and are written out when the run ends.  A span's self
time is its duration minus the durations of its direct children; calls are
sequential in one thread, so children never overlap.
"""

from __future__ import annotations

import functools
import json
import sys
import time

# Layer (module) -> functions wrapped in that layer.  Hot helpers such as
# ``as_matrix`` or ``vec`` are left out: they run thousands of times per op
# and the wrapper would dominate their cost.  ``_spectral_projector`` and
# ``_cesaro_limit`` are private, but they are the two stages of
# ``maximal_part`` an optimisation is most likely to move.
WRAPPED = {
    "cli": ("main",),
    "spectra": (
        "spectral_radius_of",
        "outer_radius",
        "outer_radius_gelfand",
        "jsr_brute",
        "jsr_tensor_approx",
        "friedland_value",
        "neumann_witness",
        "balance_similarity",
        "conjugate_map",
        "positive_map_norm",
    ),
    "perron": (
        "spectral_structure",
        "_spectral_projector",
        "_cesaro_limit",
        "maximal_part",
        "perron_vector",
        "maximal_factorization",
        "irreducible_cp",
        "algebra_basis",
        "maximal_ideal_check",
    ),
    "cpmap": (
        "algebra_map",
        "superop_of",
        "choi_of",
        "choi_of_superop",
        "kraus_of_choi",
        "coefficient_space",
        "canonical_extension",
        "dominates",
        "membership",
        "is_cp",
        "preserves_algebra",
    ),
    "algebra": ("compress_superop", "compress", "in_algebra"),
    "mats": (
        "eigenvalues",
        "spectral_radius",
        "numerical_rank",
        "psd_report",
        "op_norm",
        "inverse",
        "psd_sqrt",
        "matrix_from_json",
        "matrix_to_json",
    ),
}

# Computed counts: span name -> (metric suffix, function of the result).
COUNTS = {"cpmap.superop_of": ("bytes", lambda result: result.matrix.nbytes)}


def span_names() -> list[str]:
    return [f"{layer}.{fn}" for layer, fns in WRAPPED.items() for fn in fns]


class Tracer:
    """Records spans of wrapped calls; ``op_id`` tags spans with the current op."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start_ns, end_ns, parent, op_id(, count)]
        self.op_id = -1
        self.missing: list[str] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack
        count = COUNTS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            rec = [name, 0, 0, stack[-1] if stack else -1, self.op_id]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                rec[2] = time.perf_counter_ns()
                stack.pop()
            if count is not None:
                rec.append(int(count[1](result)))
            return result

        return traced

    def install(self) -> None:
        """Wrap every listed function at every ``cpspectra.*`` attribute naming it."""
        import importlib

        modules = {layer: importlib.import_module(f"cpspectra.{layer}") for layer in WRAPPED}
        originals = {}
        for layer, fns in WRAPPED.items():
            for fn in fns:
                obj = getattr(modules[layer], fn, None)
                if obj is None or not callable(obj):
                    self.missing.append(f"{layer}.{fn}")
                    continue
                originals[id(obj)] = (obj, self._wrap(f"{layer}.{fn}", obj))
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "cpspectra" or modname.startswith("cpspectra.")):
                continue
            for attr, value in list(vars(mod).items()):
                hit = originals.get(id(value))
                if hit is not None and hit[0] is value:
                    setattr(mod, attr, hit[1])

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.spans, handle)

    def merge(self, path: str, op_id: int) -> None:
        """Append spans written by a traced child process, tagged with ``op_id``."""
        with open(path, "r", encoding="utf-8") as handle:
            spans = json.load(handle)
        base = len(self.spans)
        for span in spans:
            span[3] = span[3] + base if span[3] >= 0 else -1
            span[4] = op_id
            self.spans.append(span)


def layer_metrics(tracer: Tracer, ops: int) -> dict[str, tuple[float, str]]:
    """``L.F.calls`` and ``L.F.self_s`` for every wrapped function, plus counts,
    over the spans of ops ``0 .. ops-1`` (warm-up spans have op id -1)."""
    calls = {name: 0 for name in span_names()}
    self_ns = {name: 0 for name in span_names()}
    child_ns = [0] * len(tracer.spans)
    for name, start, end, parent, _ in (span[:5] for span in tracer.spans):
        if parent >= 0:
            child_ns[parent] += end - start
    for idx, (name, start, end, _, op_id) in enumerate(span[:5] for span in tracer.spans):
        if 0 <= op_id < ops:
            calls[name] += 1
            self_ns[name] += end - start - child_ns[idx]
    out: dict[str, tuple[float, str]] = {}
    for name in span_names():
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (self_ns[name] / 1e9, "s")
    for name, (suffix, _) in COUNTS.items():
        measured = (span for span in tracer.spans if span[0] == name and 0 <= span[4] < ops)
        out[f"{name}.{suffix}"] = (sum(span[5] for span in measured), suffix)
    return out
