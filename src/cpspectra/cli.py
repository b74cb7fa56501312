"""Command-line front end: JSON in, JSON report out.

Every command prints one report object with the fields ``command``,
``inputs_digest``, ``values``, ``residuals``, ``warnings`` and ``elapsed``.
Floats are rendered with 17 significant digits so reports round-trip exactly
and are byte-stable for identical inputs, flags and seed; wall-clock time is
reported only under ``--timing`` (otherwise ``elapsed`` is 0.0).

Exit codes: 0 success, 2 precondition violation (machine-readable error
object), 3 malformed JSON, 4 budget exceeded.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import time

import numpy as np

from . import reference_maps
from .algebra import AlgebraShape
from .cpmap import (
    CpMap,
    choi_of,
    coefficient_space,
    kraus_of_choi,
    membership,
)
from .errors import BudgetExceededError, ConvergenceError, FormatError, PreconditionError
from .mats import CONV_TOL, PSD_TOL, RANK_TOL, Tolerance, matrix_from_json, matrix_to_json, numerical_rank
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
    conjugate_map,
    friedland_value,
    jsr_brute,
    jsr_tensor_approx,
    neumann_witness,
    outer_radius,
    positive_map_norm,
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
    except json.JSONDecodeError as exc:
        raise FormatError(f"malformed JSON in {path}: {exc}") from exc


def _load_matrix(path: str):
    raw = _load_json(path)
    return matrix_from_json(raw), raw


def _load_tuple(path: str):
    obj = _load_json(path)
    if not isinstance(obj, dict) or "matrices" not in obj or not isinstance(obj["matrices"], list):
        raise FormatError('tuple JSON must be {"matrices": [matrix, ...]}')
    mats = [matrix_from_json(m) for m in obj["matrices"]]
    if not mats:
        raise FormatError("tuple JSON contains no matrices")
    return mats, obj


def _load_map(path: str, shape_text: str | None):
    obj = _load_json(path)
    shape = AlgebraShape.parse(shape_text) if shape_text else None
    return CpMap.from_json(obj, shape), obj


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


def _build_parser(env_warnings: list[str]) -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="cpspectra",
        description="Spectral invariants of positive maps on block-diagonal algebras.",
    )
    ap.add_argument("--tol-rank", type=float, default=_env_default("TOL_RANK", float, RANK_TOL, env_warnings))
    ap.add_argument("--tol-psd", type=float, default=_env_default("TOL_PSD", float, PSD_TOL, env_warnings))
    ap.add_argument("--tol-conv", type=float, default=_env_default("TOL_CONV", float, CONV_TOL, env_warnings))
    budget = _env_default("BUDGET", int, 10**6, env_warnings)
    ap.add_argument("--budget", type=int, default=budget, help="word budget of jsr --method brute")
    ap.add_argument("--seed", type=int, default=_env_default("SEED", int, 0, env_warnings))
    ap.add_argument("--timing", action="store_true", help="report measured wall time")
    sub = ap.add_subparsers(dest="command", required=True)

    map_args = argparse.ArgumentParser(add_help=False)
    map_args.add_argument("--map", required=True, dest="map_file")
    map_args.add_argument("--shape", default=None)

    p = sub.add_parser("outer-radius", help="outer spectral radius of a matrix tuple")
    p.add_argument("--tuple", required=True, dest="tuple_file")

    p = sub.add_parser("jsr", help="joint spectral radius bounds")
    p.add_argument("--tuple", required=True, dest="tuple_file")
    p.add_argument("--method", choices=["brute", "tensor"], required=True)
    p.add_argument("--n", type=int, default=10, help="max word length (brute)")
    p.add_argument("--k", type=int, default=1, help="symmetric tensor power (tensor)")

    p = sub.add_parser("friedland", parents=[map_args], help="eigenvalue-quotient evaluator r(w^-1 phi(w))")
    p.add_argument("--w", required=True, dest="w_file")

    p = sub.add_parser("witness", parents=[map_args], help="resolvent witness of r(phi) < s")
    p.add_argument("--s", type=float, required=True)

    p = sub.add_parser("balance", help="similarity achieving norm = spectral radius")
    p.add_argument("--matrix", required=True, dest="matrix_file")
    p.add_argument("--epsilon", type=float, default=None)

    sub.add_parser("choi", parents=[map_args], help="Choi matrix of a CP map")

    p = sub.add_parser("kraus", help="Kraus operators of a PSD Choi matrix")
    p.add_argument("--choi", required=True, dest="choi_file")

    sub.add_parser("coeff-space", parents=[map_args], help="orthonormal basis of the coefficient space")

    p = sub.add_parser("member", parents=[map_args], help="membership of a matrix in a coefficient space")
    p.add_argument("--matrix", required=True, dest="matrix_file")

    sub.add_parser("maximal-part", parents=[map_args], help="maximal part of a positive map")

    sub.add_parser("perron", parents=[map_args], help="Perron eigenvector and spectral radius")

    sub.add_parser("irreducible", parents=[map_args], help="irreducibility via the canonical extension")

    p = sub.add_parser("algebra-dim", help="dimension of the generated algebra")
    p.add_argument("--tuple", required=True, dest="tuple_file")
    group = p.add_mutually_exclusive_group()
    group.add_argument("--unital", action="store_true", default=True)
    group.add_argument("--non-unital", dest="unital", action="store_false")

    sub.add_parser("factorize", parents=[map_args], help="rank-one factorization of the maximal part")

    sub.add_parser("check", help="run the bundled reference maps through the invariants")
    return ap


def _run_command(args, tol: Tolerance):
    values: dict = {}
    residuals: dict = {}
    inputs: dict = {}

    cmd = args.command
    if hasattr(args, "map_file"):
        tau, inputs["map"] = _load_map(args.map_file, args.shape)
        if args.shape:  # the parsed blocks, so "2,1" and " 2, 1" hash alike
            inputs["shape"] = list(tau.shape.blocks)

    if cmd == "outer-radius":
        mats, raw = _load_tuple(args.tuple_file)
        inputs["tuple"] = raw
        values["value"] = outer_radius(mats)

    elif cmd == "jsr":
        mats, raw = _load_tuple(args.tuple_file)
        inputs["tuple"] = raw
        if args.method == "brute":
            est = jsr_brute(mats, args.n, budget=args.budget)
        else:
            est = jsr_tensor_approx(mats, args.k)
        inputs["method"], inputs["parameter"] = est.method, est.parameter
        values.update(
            {"lower": est.lower, "upper": est.upper, "method": est.method, "parameter": est.parameter}
        )
        residuals["bound_gap"] = est.upper - est.lower

    elif cmd == "friedland":
        w, inputs["w"] = _load_matrix(args.w_file)
        value = friedland_value(tau, w, psd_tol=tol.psd_tol)
        values["value"] = value
        values["radius"] = spectral_radius_of(tau)
        residuals["above_radius"] = value - values["radius"]

    elif cmd == "witness":
        inputs["s"] = args.s
        w = neumann_witness(tau, args.s, conv_tol=tol.conv_tol, psd_tol=tol.psd_tol)
        values["witness"] = matrix_to_json(w)
        values["s"] = args.s
        residuals["equation"] = float(np.linalg.norm(tau(w) - args.s * (w - np.eye(tau.m))))

    elif cmd == "balance":
        mat, inputs["matrix"] = _load_matrix(args.matrix_file)
        if args.epsilon is not None:
            inputs["epsilon"] = args.epsilon
        result = balance_similarity(mat, epsilon=args.epsilon)
        values["p"] = matrix_to_json(result.p)
        values["norm"] = result.norm
        values["radius"] = result.radius
        residuals["norm_excess"] = result.norm - result.radius

    elif cmd == "choi":
        c = choi_of(tau)
        values["choi"] = matrix_to_json(c)
        values["rank"] = numerical_rank(c, tol.rank_tol)
        residuals["hermitian_gap"] = float(np.linalg.norm(c - c.conj().T))

    elif cmd == "kraus":
        c, raw = _load_matrix(args.choi_file)
        inputs["choi"] = raw
        ops = kraus_of_choi(c, rank_tol=tol.rank_tol, psd_tol=tol.psd_tol)
        values["kraus"] = [matrix_to_json(a) for a in ops]
        rebuilt = choi_of(CpMap(tuple(ops), AlgebraShape.full(ops[0].shape[0])))
        residuals["reassembly"] = float(np.linalg.norm(rebuilt - c))

    elif cmd == "coeff-space":
        space = coefficient_space(tau, rank_tol=tol.rank_tol)
        values["dimension"] = space.dimension
        values["basis"] = [matrix_to_json(b) for b in space.basis]
        gram = np.array(
            [[np.vdot(a, b) for b in space.basis] for a in space.basis], dtype=complex
        )
        residuals["orthonormality"] = float(
            np.linalg.norm(gram - np.eye(space.dimension))
        )

    elif cmd == "member":
        mat, inputs["matrix"] = _load_matrix(args.matrix_file)
        result = membership(mat, tau, rank_tol=tol.rank_tol)
        values["member"] = result.member
        if result.q is not None:
            values["q"] = result.q
        residuals["projection"] = result.residual

    elif cmd == "maximal-part":
        mp = maximal_part(tau, rank_tol=tol.rank_tol)
        values["superop"] = matrix_to_json(mp.superop.matrix)
        values["radius"] = mp.radius
        values["degeneracy"] = mp.degeneracy
        values["idempotent"] = mp.idempotent
        residuals["route_gap"] = mp.route_gap

    elif cmd == "perron":
        ell = perron_vector(tau, psd_tol=tol.psd_tol, rank_tol=tol.rank_tol)
        r = spectral_radius_of(tau)
        values["radius"] = r
        values["eigenvector"] = matrix_to_json(ell)
        residuals["eigen_equation"] = float(
            np.linalg.norm(tau(ell) - r * ell) / np.linalg.norm(ell)
        )

    elif cmd == "irreducible":
        rep = irreducible_cp(
            tau,
            rank_tol=tol.rank_tol,
            psd_tol=tol.psd_tol,
            rng=np.random.default_rng(args.seed),
        )
        values["irreducible"] = rep.irreducible
        values["dimension"] = rep.dimension
        values["strict_probes"] = rep.strict_probes
        values["probes"] = rep.probes
        if rep.witness is not None:
            values["witness"] = matrix_to_json(rep.witness)
        residuals["dimension_gap"] = float(tau.m**2 - rep.dimension)

    elif cmd == "algebra-dim":
        mats, raw = _load_tuple(args.tuple_file)
        inputs["tuple"], inputs["unital"] = raw, bool(args.unital)
        gen = algebra_basis(mats, unital=args.unital, rank_tol=tol.rank_tol)
        values["dimension"] = gen.dimension
        values["stabilization_index"] = gen.stabilization_index
        values["unital"] = bool(args.unital)
        residuals["stabilization_margin"] = float(
            mats[0].shape[0] ** 2 - gen.stabilization_index
        )

    elif cmd == "factorize":
        fact = maximal_factorization(tau, rank_tol=tol.rank_tol, psd_tol=tol.psd_tol)
        values["radius"] = fact.radius
        values["eigenvector"] = matrix_to_json(fact.eigenvector)
        values["state"] = matrix_to_json(fact.state)
        residuals.update(fact.residuals)

    elif cmd == "check":
        cases = _run_check(tol)
        values["cases"] = cases
        values["passed"] = sum(1 for c in cases if c["ok"])
        values["failed"] = sum(1 for c in cases if not c["ok"])
        residuals["max_residual"] = max(c["residual"] for c in cases)
        if values["failed"]:
            raise PreconditionError(f"{values['failed']} bundled checks failed")

    else:  # pragma: no cover - argparse enforces the choices
        raise FormatError(f"unknown command {cmd}")

    return inputs, values, residuals


def _run_check(tol: Tolerance) -> list[dict]:
    """Key invariants on the bundled reference maps, one case per line item."""
    import math

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
    root = np.asarray(np.diag(np.sqrt(np.diag(ell).real)))
    sigma = conjugate_map(tau, root, psd_tol=tol.psd_tol)
    case("golden_ratio.norm_achieving", abs(positive_map_norm(sigma) - gold))

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
    return cases


def main(argv=None) -> int:
    env_warnings: list[str] = []
    args = _build_parser(env_warnings).parse_args(argv)
    flags = {
        "tol_rank": args.tol_rank,
        "tol_psd": args.tol_psd,
        "tol_conv": args.tol_conv,
        "budget": args.budget,
        "seed": args.seed,
    }
    start = time.perf_counter()
    try:
        tol = Tolerance(rank_tol=args.tol_rank, psd_tol=args.tol_psd, conv_tol=args.tol_conv)
        if args.seed < 0:
            raise PreconditionError(f"--seed must be non-negative (got {args.seed})")
        inputs, values, residuals = _run_command(args, tol)
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
