"""Dense complex linear-algebra kernel.

Conventions used across the whole package:

* matrices are ``numpy.ndarray`` of ``complex128``;
* vectorization is column-stacking, ``vec(X)[i + j*m] = X[i, j]`` (0-based),
  so the elementary matrix ``E_ij`` maps to the standard basis vector at
  index ``i + j*m``;
* superoperators and Choi matrices elsewhere in the package use the Kronecker
  layout matched to this convention, i.e. ``vec(P @ X @ Q) = kron(Q.T, P) @ vec(X)``.

Rank decisions are relative to the largest singular value so that scaling a
matrix never changes its reported rank; :func:`frobenius_norm` squares no
entry past the float range.  The one Schur kernel of the package, which the
maximal part and ``balance_similarity`` share, is :func:`schur`,
:func:`reorder_schur` (``trsen``) and :func:`schur_sylvester` (``trsyl``).
"""

from __future__ import annotations

import math
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


def frobenius_norm(a) -> float:
    """Frobenius norm that no square takes out of the float range: where ``np.linalg.norm``
    overflows or underflows, it is taken on ``a`` scaled exactly by the power of two that
    brings the largest modulus into ``[1/2, 1)``.  Elsewhere it is ``np.linalg.norm(a)``."""
    with np.errstate(over="ignore"):  # an overflowed norm is taken again below
        norm = float(np.linalg.norm(a))
    if 1e-140 < norm < math.inf:
        return norm
    a = np.asarray(a)
    scale = math.ldexp(1.0, -math.frexp(float(np.abs(a).max(initial=0.0)))[1])
    return float(np.linalg.norm(a * scale)) / scale  # inf beyond the float range


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
    (:func:`frobenius_norm`).  Eigenvalue floors are taken on the symmetrized part
    ``(M + M*) / 2`` to suppress round-off asymmetry: PSD means minimum
    eigenvalue ``>= -psd_tol``, strictly positive means ``> psd_tol``.
    """
    m = _square(a)
    hermitian = frobenius_norm(m - m.conj().T) <= psd_tol * frobenius_norm(m)
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


def _lapack(name: str, a: np.ndarray):
    """The LAPACK routine ``name`` for the dtype of ``a``: ``d...`` if real, ``z...`` if complex."""
    from scipy.linalg import lapack  # deferred: scipy is most of the package's import time

    return getattr(lapack, ("z" if np.iscomplexobj(a) else "d") + name)


def schur(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Schur form ``mat = q t q*``: real quasi-triangular for a real ``mat``, whose
    2 x 2 blocks ``[[a, b], [c, a]]`` hold ``a +- i sqrt(|b c|)``; triangular for a complex one."""
    import scipy.linalg  # deferred: scipy is most of the package's import time

    output = "complex" if np.iscomplexobj(mat) else "real"
    try:
        return scipy.linalg.schur(mat, output=output, check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Schur decomposition failed: {exc}") from exc


def schur_pairs(t: np.ndarray) -> np.ndarray:
    """Leading indices of the 2 x 2 blocks of a real Schur form (none in a complex one)."""
    return np.flatnonzero(np.diag(t, -1)) if not np.iscomplexobj(t) else np.empty(0, dtype=int)


def reorder_schur(t: np.ndarray, q: np.ndarray | None, members: np.ndarray):
    """Reorder a Schur form so the ``members`` of its diagonal lead (LAPACK ``trsen``).

    A 2 x 2 block of a real form moves whole, so a non-real eigenvalue
    brings its conjugate.  Returns ``(t, q, sdim)``, ``sdim`` the size of the
    leading block; ``q`` is updated only when given.
    """
    select = members.copy()
    k = schur_pairs(t)
    select[k] = select[k + 1] = select[k] | select[k + 1]
    out = _lapack("trsen", t)(  # q is a required argument even unused
        select.astype(np.int32), t, t if q is None else q, job="N", wantq=int(q is not None)
    )
    ts, qs, sdim, info = out[0], out[1], out[-4], out[-1]
    if info != 0 or sdim != int(select.sum()):
        raise ConvergenceError(f"Schur reordering failed (trsen info {info})")
    return ts, None if q is None else qs, sdim


def schur_sylvester(t: np.ndarray, sdim: int) -> np.ndarray:
    """The ``sdim x (n - sdim)`` block ``y`` with ``t11 y - y t22 = -t12`` that decouples the
    leading block of a Schur form ``t`` from the rest (LAPACK ``trsyl`` on the blocks, which
    are already (quasi-)triangular); empty when ``sdim`` is the side."""
    t11, t12, t22 = t[:sdim, :sdim], t[:sdim, sdim:], t[sdim:, sdim:]
    if sdim == t.shape[0]:
        return t12
    y, scale, info = _lapack("trsyl", t)(t11, t22, -t12, isgn=-1)
    if info < 0:
        raise ConvergenceError(f"Sylvester solve failed (trsyl info {info})")
    return y / scale


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
