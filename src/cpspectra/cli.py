"""Command-line front end: JSON in, JSON report out.

Every command prints one report object with the fields ``command``,
``inputs_digest``, ``values``, ``residuals``, ``warnings`` and ``elapsed``.
Floats are rendered with 17 significant digits so reports round-trip exactly
and are byte-stable for identical inputs, flags and seed; wall-clock time is
reported only under ``--timing`` (otherwise ``elapsed`` is 0.0).

Exit codes: 0 success, 2 precondition violation (machine-readable error
object), 3 malformed JSON or a matrix of the wrong side, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import time

import numpy as np

from . import reference_maps
from .algebra import AlgebraShape
from .cpmap import (
    CpMap,
    choi_of,
    choi_rank,
    coefficient_space,
    kraus_of_choi,
    membership,
)
from .errors import BudgetExceededError, ConvergenceError, FormatError, PreconditionError
from .mats import CONV_TOL, PSD_TOL, RANK_TOL, Tolerance, matrix_from_json, matrix_to_json
from .perron import (
    algebra_basis,
    irreducible_cp,
    maximal_factorization,
    maximal_ideal_check,
    maximal_part,
    perron_vector,
)
from .spectra import (
    balance_similarity,
    friedland_value,
    jsr_brute,
    jsr_tensor_approx,
    neumann_witness,
    norm_achieving_check,
    outer_radius,
    spectral_radius_of,
)

ENV_PREFIX = "CPSPECTRA_"

EXIT_OK = 0
EXIT_PRECONDITION = 2
EXIT_FORMAT = 3
EXIT_BUDGET = 4

# error class -> (report code, exit code)
_ERROR_EXITS = {
    FormatError: ("format", EXIT_FORMAT),
    BudgetExceededError: ("budget", EXIT_BUDGET),
    PreconditionError: ("precondition", EXIT_PRECONDITION),
    ConvergenceError: ("precondition", EXIT_PRECONDITION),
}


def _render_json(obj) -> str:
    """Canonical JSON with 17-significant-digit floats and sorted keys."""
    if obj is None:
        return "null"
    if isinstance(obj, bool) or isinstance(obj, np.bool_):
        return "true" if obj else "false"
    if isinstance(obj, (int, np.integer)):
        return str(int(obj))
    if isinstance(obj, (float, np.floating)):
        value = float(obj)
        if value != value or value in (float("inf"), float("-inf")):
            raise FormatError("non-finite value in report")
        return format(value, ".17g")
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        return "[" + ",".join(_render_json(x) for x in obj) + "]"
    if isinstance(obj, dict):
        items = sorted(obj.items())
        return "{" + ",".join(json.dumps(str(k)) + ":" + _render_json(v) for k, v in items) + "}"
    raise FormatError(f"cannot serialize {type(obj).__name__} in a report")


def _digest(command: str, inputs: dict, flags: dict) -> str:
    payload = _render_json({"command": command, "inputs": inputs, "flags": flags})
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()


def _load_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as handle:
            return json.load(handle)
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    except ValueError as exc:  # a JSONDecodeError, or an integer past Python's digit limit
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc


def _env_default(name: str, cast, fallback, warnings: list[str]):
    """The value of ``CPSPECTRA_<name>``; a malformed one falls back with a warning."""
    raw = os.environ.get(ENV_PREFIX + name)
    if raw is None:
        return fallback
    try:
        return cast(raw)
    except ValueError:
        warnings.append(f"malformed {ENV_PREFIX}{name}={raw!r} ignored; using {fallback!r}")
        return fallback


def _read_map(raw, args) -> CpMap:
    return CpMap.from_json(raw, AlgebraShape.parse(args.shape) if args.shape else None)


def _read_tuple(raw, args) -> list[np.ndarray]:
    if not isinstance(raw, dict) or not isinstance(raw.get("matrices"), list):
        raise FormatError('tuple JSON must be {"matrices": [matrix, ...]}')
    mats = [matrix_from_json(m) for m in raw["matrices"]]
    if not mats:
        raise FormatError("tuple JSON contains no matrices")
    return mats


def _read_matrix(raw, args) -> np.ndarray:
    return matrix_from_json(raw)


# input file flag -> the reader of its JSON; --map comes with --shape
_READERS = {"map": _read_map, "tuple": _read_tuple, **dict.fromkeys(("matrix", "w", "choi"), _read_matrix)}

# global flag -> (type, default, help): "tol_rank" is --tol-rank, CPSPECTRA_TOL_RANK and digest key tol_rank
_GLOBAL_FLAGS = {
    "tol_rank": (float, RANK_TOL, None),
    "tol_psd": (float, PSD_TOL, None),
    "tol_conv": (float, CONV_TOL, None),
    "budget": (int, 10**6, "word budget of jsr --method brute"),
    "seed": (int, 0, None),
}


def _outer_radius(args, tol, inputs):
    return {"value": outer_radius(args.tuple)}, {}


def _jsr(args, tol, inputs):
    if args.method == "brute":
        est = jsr_brute(args.tuple, args.n, budget=args.budget)
    else:
        est = jsr_tensor_approx(args.tuple, args.k)
    inputs["method"], inputs["parameter"] = est.method, est.parameter
    values = {"lower": est.lower, "upper": est.upper, "method": est.method, "parameter": est.parameter}
    return values, {"bound_gap": est.upper - est.lower}


def _friedland(args, tol, inputs):
    value = friedland_value(args.map, args.w, psd_tol=tol.psd_tol)
    radius = spectral_radius_of(args.map)
    return {"value": value, "radius": radius}, {"above_radius": value - radius}


def _witness(args, tol, inputs):
    tau, s = args.map, args.s
    inputs["s"] = s
    w = neumann_witness(tau, s, conv_tol=tol.conv_tol, psd_tol=tol.psd_tol)
    residual = float(np.linalg.norm(tau(w) - s * (w - np.eye(tau.m))))
    return {"witness": matrix_to_json(w), "s": s}, {"equation": residual}


def _balance(args, tol, inputs):
    if args.epsilon is not None:
        inputs["epsilon"] = args.epsilon
    result = balance_similarity(args.matrix, epsilon=args.epsilon)
    values = {"p": matrix_to_json(result.p), "norm": result.norm, "radius": result.radius}
    return values, {"norm_excess": result.norm - result.radius}


def _choi(args, tol, inputs):
    c = choi_of(args.map)
    values = {"choi": matrix_to_json(c), "rank": choi_rank(args.map, tol.rank_tol)}  # from the Kraus stack
    return values, {"hermitian_gap": float(np.linalg.norm(c - c.conj().T))}


def _kraus(args, tol, inputs):
    ops = kraus_of_choi(args.choi, rank_tol=tol.rank_tol, psd_tol=tol.psd_tol)
    rebuilt = choi_of(CpMap(tuple(ops), AlgebraShape.full(ops[0].shape[0])))
    residual = float(np.linalg.norm(rebuilt - args.choi))
    return {"kraus": [matrix_to_json(a) for a in ops]}, {"reassembly": residual}


def _coeff_space(args, tol, inputs):
    space = coefficient_space(args.map, rank_tol=tol.rank_tol)
    gram = np.array([[np.vdot(a, b) for b in space.basis] for a in space.basis], dtype=complex)
    values = {"dimension": space.dimension, "basis": [matrix_to_json(b) for b in space.basis]}
    return values, {"orthonormality": float(np.linalg.norm(gram - np.eye(space.dimension)))}


def _member(args, tol, inputs):
    result = membership(args.matrix, args.map, rank_tol=tol.rank_tol)
    values = {"member": result.member}
    if result.q is not None:
        values["q"] = result.q
    return values, {"projection": result.residual}


def _maximal_part(args, tol, inputs):
    mp = maximal_part(args.map, rank_tol=tol.rank_tol)
    values = {
        "superop": matrix_to_json(mp.superop.matrix),
        "radius": mp.radius,
        "degeneracy": mp.degeneracy,
        "idempotent": mp.idempotent,
    }
    return values, {"route_gap": mp.route_gap}


def _perron(args, tol, inputs):
    tau = args.map
    ell = perron_vector(tau, psd_tol=tol.psd_tol, rank_tol=tol.rank_tol)
    r = spectral_radius_of(tau)
    residual = float(np.linalg.norm(tau(ell) - r * ell) / np.linalg.norm(ell))
    return {"radius": r, "eigenvector": matrix_to_json(ell)}, {"eigen_equation": residual}


def _irreducible(args, tol, inputs):
    tau = args.map
    rng = np.random.default_rng(args.seed)
    rep = irreducible_cp(tau, rank_tol=tol.rank_tol, psd_tol=tol.psd_tol, rng=rng)
    values = {
        "irreducible": rep.irreducible,
        "dimension": rep.dimension,
        "strict_probes": rep.strict_probes,
        "probes": rep.probes,
    }
    if rep.witness is not None:
        values["witness"] = matrix_to_json(rep.witness)
    return values, {"dimension_gap": float(tau.m**2 - rep.dimension)}


def _algebra_dim(args, tol, inputs):
    mats, unital = args.tuple, bool(args.unital)
    inputs["unital"] = unital
    gen = algebra_basis(mats, unital=unital, rank_tol=tol.rank_tol)
    values = {"dimension": gen.dimension, "stabilization_index": gen.stabilization_index, "unital": unital}
    return values, {"stabilization_margin": float(mats[0].shape[0] ** 2 - gen.stabilization_index)}


def _factorize(args, tol, inputs):
    fact = maximal_factorization(args.map, rank_tol=tol.rank_tol, psd_tol=tol.psd_tol)
    values = {
        "radius": fact.radius,
        "eigenvector": matrix_to_json(fact.eigenvector),
        "state": matrix_to_json(fact.state),
    }
    return values, dict(fact.residuals)


def _check(args, tol, inputs):
    """Key invariants on the bundled reference maps, one case per line item."""
    cases = []

    def case(name: str, residual: float, bound: float = 1e-8):
        cases.append({"name": name, "residual": float(residual), "ok": bool(residual <= bound)})

    gold = (1 + math.sqrt(5)) / 2
    tau = reference_maps.golden_ratio_map()
    case("golden_ratio.radius", abs(spectral_radius_of(tau) - gold))
    ell = perron_vector(tau, psd_tol=tol.psd_tol, rank_tol=tol.rank_tol)
    case(
        "golden_ratio.perron",
        float(np.abs(ell - np.diag([gold**2, gold**2, gold]) / math.sqrt(5)).max()),
    )
    check = norm_achieving_check(tau, ell, psd_tol=tol.psd_tol)
    case("golden_ratio.norm_achieving", abs(check.norm - gold))

    tau = reference_maps.path_adjacency_map()
    mp = maximal_part(tau, rank_tol=tol.rank_tol)
    case("path_adjacency.radius", abs(mp.radius - math.sqrt(2)))
    fact = maximal_factorization(tau, rank_tol=tol.rank_tol, psd_tol=tol.psd_tol)
    case("path_adjacency.state_trace", fact.residuals["state_trace"])

    tau = reference_maps.trace_corner_map()
    corner = maximal_part(tau, rank_tol=tol.rank_tol).superop(np.eye(2))
    case("trace_corner.norm", abs(float(np.linalg.norm(corner, 2)) - 2.0))

    tau = reference_maps.double_trace_map()
    rep = irreducible_cp(tau, rank_tol=tol.rank_tol, psd_tol=tol.psd_tol)
    case("double_trace.irreducible_dimension", abs(rep.dimension - 4))
    ideal = maximal_ideal_check(tau, rank_tol=tol.rank_tol)
    case("double_trace.ideal", max(ideal.subalgebra_residual, ideal.ideal_residual))

    failed = sum(1 for c in cases if not c["ok"])
    if failed:
        raise PreconditionError(f"{failed} bundled checks failed")
    values = {"cases": cases, "passed": len(cases) - failed, "failed": failed}
    return values, {"max_residual": max(c["residual"] for c in cases)}


def _arg(*names, **kwargs):
    return names, kwargs


# subcommand -> (help, input file flags, other argument specs, runner), in --help order.  The runner
# returns (values, residuals); main reads the files into args.<flag> and inputs[<flag>] first, and
# the runner adds to inputs what else changes its result.  A list of specs is a mutually exclusive group.
_COMMANDS = {
    "outer-radius": ("outer spectral radius of a matrix tuple", ("tuple",), (), _outer_radius),
    "jsr": (
        "joint spectral radius bounds",
        ("tuple",),
        (
            _arg("--method", choices=["brute", "tensor"], required=True),
            _arg("--n", type=int, default=10, help="max word length (brute)"),
            _arg("--k", type=int, default=1, help="symmetric tensor power (tensor)"),
        ),
        _jsr,
    ),
    "friedland": ("eigenvalue-quotient evaluator r(w^-1 phi(w))", ("map", "w"), (), _friedland),
    "witness": (
        "resolvent witness of r(phi) < s", ("map",), (_arg("--s", type=float, required=True),), _witness
    ),
    "balance": (
        "similarity achieving norm = spectral radius", ("matrix",), (_arg("--epsilon", type=float),), _balance
    ),
    "choi": ("Choi matrix of a CP map", ("map",), (), _choi),
    "kraus": ("Kraus operators of a PSD Choi matrix", ("choi",), (), _kraus),
    "coeff-space": ("orthonormal basis of the coefficient space", ("map",), (), _coeff_space),
    "member": ("membership of a matrix in a coefficient space", ("map", "matrix"), (), _member),
    "maximal-part": ("maximal part of a positive map", ("map",), (), _maximal_part),
    "perron": ("Perron eigenvector and spectral radius", ("map",), (), _perron),
    "irreducible": ("irreducibility via the canonical extension", ("map",), (), _irreducible),
    "algebra-dim": (
        "dimension of the generated algebra",
        ("tuple",),
        (
            [
                _arg("--unital", action="store_true", default=True),
                _arg("--non-unital", dest="unital", action="store_false"),
            ],
        ),
        _algebra_dim,
    ),
    "factorize": ("rank-one factorization of the maximal part", ("map",), (), _factorize),
    "check": ("run the bundled reference maps through the invariants", (), (), _check),
}


def _add_arguments(target, specs) -> None:
    for spec in specs:
        if isinstance(spec, list):
            _add_arguments(target.add_mutually_exclusive_group(), spec)
        else:
            target.add_argument(*spec[0], **spec[1])


def _build_parser(env_warnings: list[str]) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cpspectra",
        description="Spectral invariants of positive maps on block-diagonal algebras.",
    )
    for name, (cast, fallback, help_text) in _GLOBAL_FLAGS.items():
        default = _env_default(name.upper(), cast, fallback, env_warnings)
        ap.add_argument("--" + name.replace("_", "-"), type=cast, default=default, help=help_text)
    ap.add_argument("--timing", action="store_true", help="report measured wall time")
    sub = ap.add_subparsers(dest="command", required=True)
    for command, (help_text, files, specs, _) in _COMMANDS.items():
        p = sub.add_parser(command, help=help_text)
        for name in files:
            p.add_argument("--" + name, required=True, dest=name + "_file")
            if name == "map":
                p.add_argument("--shape")
        _add_arguments(p, specs)
    return ap


def main(argv=None) -> int:
    env_warnings: list[str] = []
    args = _build_parser(env_warnings).parse_args(argv)
    flags = {name: getattr(args, name) for name in _GLOBAL_FLAGS}
    _, files, _, run = _COMMANDS[args.command]
    inputs: dict = {}
    start = time.perf_counter()
    try:
        tol = Tolerance(rank_tol=args.tol_rank, psd_tol=args.tol_psd, conv_tol=args.tol_conv)
        if args.seed < 0:
            raise PreconditionError(f"--seed must be non-negative (got {args.seed})")
        for name in files:
            inputs[name] = _load_json(getattr(args, name + "_file"))
            setattr(args, name, _READERS[name](inputs[name], args))
            if name == "map" and args.shape:  # the parsed blocks, so "2,1" and " 2, 1" hash alike
                inputs["shape"] = list(args.map.shape.blocks)
        values, residuals = run(args, tol, inputs)
    except tuple(_ERROR_EXITS) as exc:
        code, status = next(v for cls, v in _ERROR_EXITS.items() if isinstance(exc, cls))
        print(_render_json({"command": args.command, "error": {"code": code, "message": str(exc)}}))
        return status
    elapsed = time.perf_counter() - start if args.timing else 0.0
    report = {
        "command": args.command,
        "inputs_digest": _digest(args.command, inputs, flags),
        "values": values,
        "residuals": residuals,
        "warnings": env_warnings,
        "elapsed": elapsed,
    }
    print(_render_json(report))
    return EXIT_OK


if __name__ == "__main__":
    raise SystemExit(main())
