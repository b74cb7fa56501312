"""Dense complex linear-algebra kernel.

Conventions used across the whole package:

* matrices are ``numpy.ndarray`` of ``complex128``;
* vectorization is column-stacking, ``vec(X)[i + j*m] = X[i, j]`` (0-based),
  so the elementary matrix ``E_ij`` maps to the standard basis vector at
  index ``i + j*m``;
* superoperators and Choi matrices elsewhere in the package use the Kronecker
  layout matched to this convention, i.e. ``vec(P @ X @ Q) = kron(Q.T, P) @ vec(X)``.

Rank decisions are relative to the largest singular value so that scaling a
matrix never changes its reported rank.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ConvergenceError, FormatError, PreconditionError

RANK_TOL = 1e-9
PSD_TOL = 1e-9
CONV_TOL = 1e-10
CLUSTER_TOL = 1e-8  # eigenvalues within CLUSTER_TOL * r form one cluster, r the spectral radius
CHECK_TOL = 1e-8  # bound on the residuals that certify a computed result


@dataclass(frozen=True)
class Tolerance:
    """Bundle of the three tolerances used throughout.

    ``rank_tol`` is relative to the largest singular value, ``psd_tol`` is an
    eigenvalue floor, ``conv_tol`` stops iterations and bounds residuals.
    """

    rank_tol: float = RANK_TOL
    psd_tol: float = PSD_TOL
    conv_tol: float = CONV_TOL

    def __post_init__(self):
        if not all(0.0 < t < np.inf for t in (self.rank_tol, self.psd_tol, self.conv_tol)):
            raise PreconditionError("tolerances must be finite and strictly positive")


def as_matrix(a) -> np.ndarray:
    """Coerce ``a`` to a finite 2-d complex array."""
    m = np.asarray(a, dtype=complex)
    if m.ndim != 2:
        raise FormatError(f"expected a 2-d array, got shape {m.shape}")
    if not np.isfinite(m).all():
        raise FormatError("matrix entries must be finite")
    return m


def _square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise FormatError(f"expected a square matrix, got shape {m.shape}")
    return m


def kron(a, b) -> np.ndarray:
    """Kronecker product of two dense matrices."""
    return np.kron(as_matrix(a), as_matrix(b))


def vec(a) -> np.ndarray:
    """Column-stacking vectorization of a square matrix."""
    return _square(a).ravel(order="F")


def side_of(n: int) -> int:
    """The side ``m`` with ``m * m == n``: of an m^2 vector, superoperator or Choi matrix."""
    m = int(round(np.sqrt(n)))
    if m * m != n:
        raise FormatError(f"size {n} is not a perfect square m*m")
    return m


def unvec(v, m: int | None = None) -> np.ndarray:
    """Inverse of :func:`vec`; ``m`` defaults to ``sqrt(len(v))``."""
    v = np.asarray(v, dtype=complex).ravel()
    if m is None:
        m = side_of(v.size)
    elif m * m != v.size:
        raise FormatError(f"vector of length {v.size} is not an m*m stack")
    return v.reshape((m, m), order="F")


def eigenvalues(a) -> np.ndarray:
    """Eigenvalues of a square matrix, with algebraic multiplicity.

    Eigensolver non-convergence is reported as :class:`ConvergenceError`,
    distinct from shape or finiteness errors.
    """
    m = _square(a)
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"eigensolver failed to converge: {exc}") from exc


def spectral_radius(a) -> float:
    """max |eigenvalue| of a square matrix."""
    return float(np.abs(eigenvalues(a)).max())


def op_norm(a) -> float:
    """Operator (spectral) 2-norm."""
    return float(np.linalg.norm(as_matrix(a), 2))


def numerical_rank(a, rank_tol: float = RANK_TOL) -> int:
    """Number of singular values above ``rank_tol`` times the largest one.

    The zero matrix has rank 0; unitary conjugation does not change the
    result because singular values are invariant.
    """
    s = np.linalg.svd(as_matrix(a), compute_uv=False)
    if s.size == 0 or s[0] == 0.0:
        return 0
    return int(np.count_nonzero(s > rank_tol * s[0]))


@dataclass(frozen=True)
class PsdReport:
    is_hermitian: bool
    is_psd: bool
    is_strictly_positive: bool
    min_eigenvalue: float


def psd_report(a, psd_tol: float = PSD_TOL) -> PsdReport:
    """Hermiticity / positivity report for a square matrix.

    The matrix counts as Hermitian when ``||M - M*|| <= psd_tol * ||M||``
    (Frobenius norms).  Eigenvalue floors are taken on the symmetrized part
    ``(M + M*) / 2`` to suppress round-off asymmetry: PSD means minimum
    eigenvalue ``>= -psd_tol``, strictly positive means ``> psd_tol``.
    """
    m = _square(a)
    herm_gap = np.linalg.norm(m - m.conj().T)
    hermitian = bool(herm_gap <= psd_tol * np.linalg.norm(m))
    sym = (m + m.conj().T) / 2.0
    min_eig = float(np.linalg.eigvalsh(sym).min()) if m.shape[0] else 0.0
    return PsdReport(
        is_hermitian=hermitian,
        is_psd=hermitian and min_eig >= -psd_tol,
        is_strictly_positive=hermitian and min_eig > psd_tol,
        min_eigenvalue=min_eig,
    )


def psd_sqrt(a, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix (negative dust clipped to 0)."""
    m = _square(a)
    rep = psd_report(m, psd_tol)
    if not rep.is_psd:
        raise PreconditionError(
            f"psd_sqrt requires a PSD input (min eigenvalue {rep.min_eigenvalue:.3e})"
        )
    w, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    w = np.clip(w, 0.0, None)
    return (u * np.sqrt(w)) @ u.conj().T


def inverse(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Matrix inverse, refusing numerically singular inputs."""
    m = _square(a)
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= rank_tol * s[0]:
        raise PreconditionError("matrix is numerically singular")
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=complex))


def matrix_to_json(a) -> dict:
    """Serialize to ``{"rows": m, "cols": n, "data": [[re, im], ...]}`` (row-major)."""
    m = as_matrix(a)
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix JSON schema, rejecting shape/length mismatches."""
    if not isinstance(obj, dict):
        raise FormatError("matrix JSON must be an object")
    try:
        rows, cols, data = int(obj["rows"]), int(obj["cols"]), obj["data"]
    except (KeyError, TypeError, ValueError) as exc:
        raise FormatError(f"matrix JSON missing or invalid field: {exc}") from exc
    if rows <= 0 or cols <= 0:
        raise FormatError("matrix dimensions must be positive")
    if not isinstance(data, list) or len(data) != rows * cols:
        raise FormatError(
            f"matrix data length {len(data) if isinstance(data, list) else '?'}"
            f" does not match rows*cols = {rows * cols}"
        )
    flat = np.empty(rows * cols, dtype=complex)
    for k, entry in enumerate(data):
        if not isinstance(entry, (list, tuple)) or len(entry) != 2:
            raise FormatError("matrix entries must be [re, im] pairs")
        flat[k] = complex(float(entry[0]), float(entry[1]))
    return as_matrix(flat.reshape((rows, cols), order="C"))
