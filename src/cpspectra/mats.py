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
maximal part and ``balance_similarity`` share, is :func:`schur` (LAPACK ``gees``),
:func:`reorder_schur` (``trsen``) and :func:`schur_sylvester` (``trsyl``).  It
calls LAPACK through ``ctypes`` in the build numpy bundles and has loaded
(:func:`_numpy_lapack`), so it imports no scipy; where numpy's build does not
export those routines it calls them through ``scipy.linalg.lapack``.  On
it sits the one Jordan-block decision: :func:`schur_clusters`, which clusters by
distance and, near the spectral circle, by conditioning, :func:`degeneracy`, the size
of a cluster's largest Jordan block, and :func:`peripheral`, the one peripheral window.
"""

from __future__ import annotations

import ctypes
import math
import operator
from dataclasses import dataclass
from typing import NamedTuple

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
    eigenvalue floor relative to the largest eigenvalue modulus (:func:`psd_report`),
    ``conv_tol`` stops iterations and bounds residuals.
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


def as_matrices(mats_list) -> list[np.ndarray]:
    """Coerce a tuple to a non-empty list of finite complex matrices of one square side."""
    mats = [as_matrix(a) for a in mats_list]
    if not mats:
        raise PreconditionError("tuple of matrices must be non-empty")
    if any(a.shape != (mats[0].shape[0],) * 2 for a in mats):
        raise PreconditionError("all matrices in the tuple must share one square side")
    return mats


def _square(a) -> np.ndarray:
    m = as_matrix(a)
    if m.shape[0] != m.shape[1]:
        raise FormatError(f"expected a square matrix, got shape {m.shape}")
    return m


def of_side(x, m: int) -> np.ndarray:
    """``x`` as a finite complex m x m array; another shape is a :class:`FormatError`."""
    x = as_matrix(x)
    if x.shape != (m, m):
        raise FormatError(f"input of shape {x.shape} does not match the map's side {m}")
    return x


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
    """The three verdicts of :func:`psd_report`, each unchanged by scaling the matrix by any
    ``c > 0``, and the least eigenvalue of the symmetrized part, which scales with it."""

    is_hermitian: bool
    is_psd: bool
    is_strictly_positive: bool
    min_eigenvalue: float


def psd_report(a, psd_tol: float = PSD_TOL) -> PsdReport:
    """Hermiticity / positivity report for a square matrix: the package's one positivity rule.

    The matrix counts as Hermitian when ``||M - M*|| <= psd_tol * ||M||``
    (:func:`frobenius_norm`).  Eigenvalue floors are taken on the symmetrized part
    ``(M + M*) / 2`` to suppress round-off asymmetry, at its own scale ``rho = max |lambda|``
    (``lambda_max`` for a PSD matrix): PSD means ``lambda_min >= -psd_tol * rho``, strictly
    positive means ``lambda_min > psd_tol * rho``.  So a verdict on ``c M`` is the verdict on
    ``M`` for every ``c > 0``; the zero matrix is PSD and not strictly positive.
    """
    m = _square(a)
    return _psd_verdicts(m, np.linalg.eigvalsh((m + m.conj().T) / 2.0), psd_tol)


def _psd_verdicts(m: np.ndarray, eig: np.ndarray, psd_tol: float) -> PsdReport:
    """The :func:`psd_report` of ``m`` from the ascending eigenvalues ``eig`` of its
    symmetrized part, for a caller that holds them already (none for an empty ``m``)."""
    hermitian = frobenius_norm(m - m.conj().T) <= psd_tol * frobenius_norm(m)
    low, high = (float(eig[0]), float(eig[-1])) if eig.size else (0.0, 0.0)
    floor = psd_tol * max(-low, high)  # psd_tol * rho
    return PsdReport(hermitian, hermitian and low >= -floor, hermitian and low > floor, low)


def gram_difference_is_psd(y1, y2, psd_tol: float = PSD_TOL) -> bool:
    """Whether ``Y1 Y1* - Y2 Y2*`` is PSD by :func:`psd_report`'s rule, for an ``n x k`` and
    an ``n x l`` factor, in ``O(n (k + l)^2)`` and without forming the side-``n`` matrix.

    One thin QR ``[Y1, Y2] = Q R`` gives ``C_i = Q* Y_i``, and the matrix is
    ``Q (C1 C1* - C2 C2*) Q*``: the core of side ``min(n, k + l)`` has its nonzero
    eigenvalues, and the zeros it leaves out move neither ``rho`` nor the floor of any PSD
    verdict.  So only PSD is decided here, never strict positivity.  The ``C_i`` are two
    products, so equal factors cancel to an exact zero.  Core eigenvalues within
    ``10 n eps max(||C1||_2^2, ||C2||_2^2)``, the rounding of the subtraction at side ``n``
    with :func:`schur_clusters`'s room of 10, are taken as 0, as :func:`psd_sqrt` drops its
    dust: two factors of one product, such as two Kraus lists of one map, differ by that
    rounding alone.  Both factors are first scaled by the one power of two that brings their
    largest modulus into ``[1/2, 1)``, which is exact and changes no verdict, so no product
    overflows or underflows at any scale.
    """
    y1, y2 = as_matrix(y1), as_matrix(y2)
    top = max(float(np.abs(y1).max(initial=0.0)), float(np.abs(y2).max(initial=0.0)))
    scale = math.ldexp(1.0, -math.frexp(top)[1])
    y1, y2 = scale * y1, scale * y2
    qh = np.linalg.qr(np.hstack([y1, y2]))[0].conj().T
    c1, c2 = qh @ y1, qh @ y2
    gram = c1 @ c1.conj().T - c2 @ c2.conj().T
    core = (gram + gram.conj().T) / 2.0  # Hermitian by construction: the rest is rounding
    eig = np.linalg.eigvalsh(core)
    rho = max(np.linalg.norm(c1, 2), np.linalg.norm(c2, 2)) ** 2
    dust = 10.0 * y1.shape[0] * np.finfo(float).eps * rho
    return _psd_verdicts(core, np.where(np.abs(eig) > dust, eig, 0.0), psd_tol).is_psd


def psd_sqrt(a, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Hermitian square root of a PSD matrix, by :func:`psd_report`'s rule (so at any scale)
    on the eigenvalues of the one ``eigh`` it takes.

    Eigenvalues at most ``n eps max |lambda|``, the rounding of ``eigh`` at side ``n``, are
    taken as 0: the root of such dust is noise of relative size ``sqrt(eps)``, which would
    differ between ``M`` and ``c M``.
    """
    m = _square(a)
    w, u = np.linalg.eigh((m + m.conj().T) / 2.0)
    rep = _psd_verdicts(m, w, psd_tol)
    if not rep.is_psd:
        raise PreconditionError(
            f"psd_sqrt requires a PSD input (min eigenvalue {rep.min_eigenvalue:.3e})"
        )
    dust = m.shape[0] * np.finfo(float).eps * float(np.abs(w).max(initial=0.0))
    w = np.where(w > dust, w, 0.0)
    return (u * np.sqrt(w)) @ u.conj().T


def inverse(a, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Matrix inverse, refusing numerically singular inputs."""
    m = _square(a)
    s = np.linalg.svd(m, compute_uv=False)
    if s[0] == 0.0 or s[-1] <= rank_tol * s[0]:
        raise PreconditionError("matrix is numerically singular")
    return np.linalg.solve(m, np.eye(m.shape[0], dtype=complex))


def _numpy_lapack() -> dict | None:
    """``gees``, ``trsen`` and ``trsyl``, real (``d``) and complex (``z``), bound once from the
    LAPACK that numpy's wheel bundles and has already loaded (the ILP64 ``scipy_<name>_64_``
    symbols of ``libscipy_openblas64_``); None where numpy's build does not export them.  Every
    argument is a raw address, INTEGER and LOGICAL ones of int64, and the hidden lengths of the
    two character arguments come last."""
    try:
        lib = ctypes.CDLL(np._core._multiarray_umath.__file__)
        routines = {name: getattr(lib, f"scipy_{name}_64_") for name in _ARGS}
    except (AttributeError, OSError):
        return None
    for name, routine in routines.items():
        routine.argtypes = [ctypes.c_void_p] * _ARGS[name] + [ctypes.c_size_t] * 2
        routine.restype = None
    return routines


_ARGS = {"dgees": 15, "zgees": 15, "dtrsen": 18, "ztrsen": 15, "dtrsyl": 13, "ztrsyl": 13}
_LAPACK = _numpy_lapack()  # None: the same routines through scipy.linalg.lapack
_GEES_LWORK: dict[tuple[str, int], int] = {}  # the queried workspace, per routine and side


def _address(x: np.ndarray) -> int:
    """The data address of a contiguous writable array (so ``ravel`` is a view), at a third of
    the cost of ``x.ctypes.data``."""
    return ctypes.addressof(ctypes.c_char.from_buffer(x.ravel(order="K")))


def _scratch(ints: list[int], words: int) -> tuple[np.ndarray, int]:
    """One int64 array for a LAPACK call: the integer arguments ``ints``, then ``words`` 8-byte
    words of scratch space that LAPACK fills with floats, starting 16-byte aligned; returns it
    with the index of that start."""
    start = len(ints) + len(ints) % 2
    iv = np.zeros(start + words, np.int64)
    iv[: len(ints)] = ints
    return iv, start


def _gees(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, int]:
    """``(t, q, info)`` of LAPACK ``gees`` on a float64 or complex128 ``a`` of side at least 1
    (left unchanged), with the queried optimal workspace, as ``scipy.linalg.schur`` runs it."""
    cplx = a.dtype == np.complex128
    if _LAPACK is None:
        from scipy.linalg import lapack

        gees = lapack.zgees if cplx else lapack.dgees
        lwork = gees(lambda *x: None, a, lwork=-1)[-2][0].real.astype(np.int_)
        out = gees(lambda *x: None, a, lwork=lwork)
        return out[0], out[-3], out[-1]
    name, n = ("zgees" if cplx else "dgees"), a.shape[0]
    t, q = np.array(a, order="F"), np.empty(a.shape, a.dtype, order="F")
    lwork = _GEES_LWORK.get((name, n))
    if lwork is None:
        lwork = _GEES_LWORK[name, n] = int(_run_gees(name, t, q, -1)[1])
    return t, q, _run_gees(name, t, q, lwork)[0]


def _run_gees(name: str, t: np.ndarray, q: np.ndarray, lwork: int) -> tuple[int, float]:
    """Run ``gees`` on ``t`` in place, the Schur vectors into ``q``; returns ``info`` and
    ``work[0]``, which after a workspace query (``lwork = -1``) is the optimal ``lwork``."""
    n, size, work = t.shape[0], 1 + (name == "zgees"), abs(lwork)  # one work entry for a query
    # n, ld, sdim, lwork, info, bwork; the eigenvalues, work and (complex) rwork
    iv, w0 = _scratch([n, n, 0, lwork, 0] + [0] * n, 2 * n + work * size + n)
    p, pt, pq = _address(iv), _address(t), _address(q)
    pe = p + 8 * w0
    pw = pe + 16 * n
    if size == 2:
        _LAPACK[name](b"V", b"N", None, p, pt, p + 8, p + 16, pe, pq, p + 8, pw, p + 24,
                      pw + 16 * work, p + 40, p + 32, 1, 1)
    else:
        _LAPACK[name](b"V", b"N", None, p, pt, p + 8, p + 16, pe, pe + 8 * n, pq, p + 8, pw,
                      p + 24, p + 40, p + 32, 1, 1)
    return int(iv[4]), iv[w0 + 2 * n : w0 + 2 * n + 1].view(np.float64).item()


def _trsen(select: np.ndarray, t: np.ndarray, q: np.ndarray | None):
    """``(t, q, m, info)`` of LAPACK ``trsen`` (``job = 'N'``) moving the ``select``ed diagonal
    of the Schur form ``t`` to the lead; ``q`` is updated when given, else returned as None."""
    cplx = t.dtype == np.complex128
    if _LAPACK is None:
        from scipy.linalg import lapack

        out = (lapack.ztrsen if cplx else lapack.dtrsen)(  # q is a required argument even unused
            select.astype(np.int32), t, t if q is None else q, job="N", wantq=int(q is not None)
        )
        return out[0], None if q is None else out[1], out[-4], out[-1]
    n, size = t.shape[0], 1 + cplx
    ts = np.array(t, order="F")
    qs = None if q is None else np.array(q, order="F")
    # n, ld, m, lwork, liwork, info, iwork, select; the eigenvalues, s and sep, and work, of
    # the size scipy's wrapper passes for job 'N'
    iv, w0 = _scratch([n, n, 0, n, 1, 0, 0] + select.tolist(), 2 * n + 2 + n * size)
    p, pt = _address(iv), _address(ts)
    pq, compq = (pt, b"N") if qs is None else (_address(qs), b"V")  # an unused q: any address
    pe = p + 8 * w0
    ps = pe + 16 * n
    if cplx:
        _LAPACK["ztrsen"](b"N", compq, p + 56, p, pt, p + 8, pq, p + 8, pe, p + 16, ps, ps + 8,
                          ps + 16, p + 24, p + 40, 1, 1)
    else:
        _LAPACK["dtrsen"](b"N", compq, p + 56, p, pt, p + 8, pq, p + 8, pe, pe + 8 * n, p + 16,
                          ps, ps + 8, ps + 16, p + 24, p + 48, p + 32, p + 40, 1, 1)
    return ts, qs, int(iv[2]), int(iv[5])


def _trsyl(t: np.ndarray, sdim: int) -> tuple[np.ndarray, float, int]:
    """``(y, scale, info)`` of LAPACK ``trsyl`` on the blocks of a Schur form ``t`` split at
    ``0 < sdim < n``: ``t11 y - y t22 = -scale t12``; ``t11`` and ``t22`` are read in place."""
    cplx = t.dtype == np.complex128
    if _LAPACK is None:
        from scipy.linalg import lapack

        trsyl = lapack.ztrsyl if cplx else lapack.dtrsyl
        return trsyl(t[:sdim, :sdim], t[sdim:, sdim:], -t[:sdim, sdim:], isgn=-1)
    n = t.shape[0]
    t = np.asfortranarray(t)
    y = np.negative(t[:sdim, sdim:], order="F")
    iv = np.array([-1, sdim, n - sdim, n, 0, 0], np.int64)  # isgn, m, n, ld, info, scale
    p, pt = _address(iv), _address(t)
    _LAPACK["ztrsyl" if cplx else "dtrsyl"](b"N", b"N", p, p + 8, p + 16, pt, p + 24,
                                            pt + t.itemsize * sdim * (n + 1), p + 24, _address(y),
                                            p + 8, p + 40, p + 32, 1, 1)
    return y, iv[5:].view(np.float64).item(), int(iv[4])


def schur(mat: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """One Schur form ``mat = q t q*``: real quasi-triangular for a real ``mat``, whose
    2 x 2 blocks ``[[a, b], [c, a]]`` hold ``a +- i sqrt(|b c|)``; triangular for a complex one.
    Any other shape than n x n is a :class:`FormatError`: ``gees`` writes n x n in place."""
    a = np.asarray(mat, complex if np.iscomplexobj(mat) else float)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise FormatError(f"expected a square matrix, got shape {a.shape}")
    if not a.size:
        return a.copy(), a.copy()
    t, q, info = _gees(a)
    if info != 0:
        raise ConvergenceError(f"Schur decomposition failed (gees info {info})")
    return t, q


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
    ts, qs, sdim, info = _trsen(select, t, q)
    if info != 0 or sdim != int(select.sum()):
        raise ConvergenceError(f"Schur reordering failed (trsen info {info})")
    return ts, qs, sdim


def schur_sylvester(t: np.ndarray, sdim: int) -> np.ndarray:
    """The ``sdim x (n - sdim)`` block ``y`` with ``t11 y - y t22 = -t12`` that decouples the
    leading block of a Schur form ``t`` from the rest (LAPACK ``trsyl`` on the blocks, which
    are already (quasi-)triangular); empty when ``sdim`` is the side."""
    if sdim == t.shape[0]:
        return t[:sdim, sdim:]
    y, scale, info = _trsyl(t, sdim)
    if info < 0:
        raise ConvergenceError(f"Sylvester solve failed (trsyl info {info})")
    return y / scale


class Cluster(NamedTuple):
    value: complex  # the mean of the members
    members: np.ndarray  # mask over the eigenvalues on the diagonal of the Schur form


def schur_clusters(t: np.ndarray) -> tuple[float, list[Cluster]]:
    """The spectral radius and the eigenvalue clusters of a Schur form ``t``, by decreasing modulus.

    Eigenvalues within ``CLUSTER_TOL * r`` form one cluster (:func:`_distance_clusters`).
    Rounding splits a Jordan block of size ``d`` and coupling ``c`` by about ``(eps
    c^(d-1))^(1/d)``, far more than that, so clusters with eigenvalues within ``w = 1e-2 r``
    of each other in ``|z| >= r - 2 w`` also merge, until none does, where a backward error of the
    Schur form could move one onto the other (first order, after Kagstrom & Ruhe, ACM TOMS
    6, 1980): ``|v_a - v_b| <= 10 n eps ||t||_2 max(kappa_a, kappa_b)``, ``kappa`` the
    :func:`_condition`.  A merged value is the members' mean, and ``r`` the largest ``|value|``.
    """
    eig = np.diag(t).astype(complex)  # a 2 x 2 block [[a, b], [c, a]] holds a +- i sqrt(|b c|)
    k = schur_pairs(t)
    im = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
    eig[k], eig[k + 1] = eig[k] + 1j * im, eig[k + 1] - 1j * im
    radius, clusters = _distance_clusters(eig)
    width = 1e-2 * radius
    near = np.flatnonzero(np.abs(eig) >= radius - 2.0 * width)
    i, j = near[np.argwhere(np.triu(np.abs(eig[near, None] - eig[None, near]) <= width, 1)).T]
    if not i.size:
        return radius, clusters
    label = np.stack([c.members for c in clusters]).argmax(axis=0)
    backward = 10.0 * eig.size * np.finfo(float).eps * op_norm(t)
    merged = dict(enumerate(clusters))
    while True:  # a merged cluster may reach another one
        pairs = {(min(a, b), max(a, b)) for a, b in zip(label[i].tolist(), label[j].tolist()) if a != b}
        hits = [(a, b) for a, b in sorted(pairs) if abs(merged[a].value - merged[b].value)
                <= backward * max(_condition(t, merged[a]), _condition(t, merged[b]))]
        if not hits:
            break
        a, b = hits[0]
        members = merged[a].members | merged.pop(b).members
        merged[a] = Cluster(complex(np.mean(eig[members])), members)
        label[members] = a
    if len(merged) == len(clusters):
        return radius, clusters
    out = [merged[k] for k in sorted(merged)]
    return max(abs(c.value) for c in out), out


def _condition(t: np.ndarray, c: Cluster) -> float:
    """A bound on the spectral projector norm of the cluster ``c``: ``sqrt(1 + ||Y||^2)`` for its
    :func:`schur_sylvester` block ``Y``, times ``(|p| + |q|) / (2 sqrt|p q|)`` for a real block
    ``[[x, p], [q, x]]`` it holds one half of; infinite where ``trsen`` cannot separate ``c``."""
    try:
        ts, _, sdim = reorder_schur(t, None, c.members)
    except ConvergenceError:
        return math.inf
    k = schur_pairs(t)
    half = k[c.members[k] != c.members[k + 1]]
    p, q = np.abs(t[half, half + 1]), np.abs(t[half + 1, half])
    block = float(np.max((p + q) / (2.0 * np.sqrt(p * q)), initial=1.0))
    return math.hypot(1.0, op_norm(schur_sylvester(ts, sdim))) * block


def _distance_clusters(eig: np.ndarray) -> tuple[float, list[Cluster]]:
    """The spectral radius and the clusters of ``eig`` by distance, by decreasing modulus.

    Eigenvalues within ``CLUSTER_TOL * r`` of each other form one cluster, walked
    greedily in the order of decreasing modulus, then real and imaginary part;
    its value is the members' mean.  An eigenvalue whose real or imaginary part
    is farther than that from every other one's is its own cluster, found by
    one sort each and taken with no distance row or mean.
    """
    n = eig.size
    radius = float(np.abs(eig).max()) if n else 0.0
    delta = CLUSTER_TOL * radius
    # hypot is bit for bit the scalar abs() of a sorted() key, so ties order alike; np.abs is not
    order = np.lexsort((eig.imag, eig.real, -np.hypot(eig.real, eig.imag)))  # stable
    single = _isolated(eig.real, delta) | _isolated(eig.imag, delta)
    taken = np.zeros(n, dtype=bool)
    clusters = []
    for idx in order:
        if single[idx]:
            members = np.zeros(n, dtype=bool)
            members[idx] = True
            clusters.append(Cluster(complex(eig[idx]), members))
        elif not taken[idx]:
            members = (np.abs(eig - eig[idx]) <= delta) & ~taken
            taken |= members
            clusters.append(Cluster(complex(np.mean(eig[members])), members))
    return radius, clusters


def _isolated(x: np.ndarray, delta: float) -> np.ndarray:
    """Whether each entry of the real ``x`` is farther than ``delta`` from every other one."""
    order = np.argsort(x, kind="stable")
    apart = np.diff(x[order]) > delta
    out = np.empty(x.size, dtype=bool)
    out[order] = np.concatenate([[True], apart]) & np.concatenate([apart, [True]])
    return out


def degeneracy(t: np.ndarray, cluster: Cluster, rank_tol: float = RANK_TOL) -> int:
    """Size of the largest Jordan block of a cluster of ``t``: the least ``j`` with ``rank(N^j)
    == rank(N^(j+1))``, ``N = (t11 - value) / ||t||_2`` on the cluster's block moved to the lead,
    by one SVD per power (rank 0 at norm at most ``rank_tol``); 1 for a simple cluster."""
    mult = int(cluster.members.sum())
    if mult == 1:  # the index never exceeds the multiplicity
        return 1
    t, _, sdim = reorder_schur(t, None, cluster.members)
    base = (t[:sdim, :sdim] - cluster.value * np.eye(sdim)) / (op_norm(t) or 1.0)

    def rank(x):
        s = np.linalg.svd(x, compute_uv=False)
        return int(np.count_nonzero(s > rank_tol * s[0])) if s[0] > rank_tol else 0

    cur, prev_rank = base, rank(base)
    for k in range(1, mult):
        cur = cur @ base
        cur_rank = rank(cur)
        if cur_rank == prev_rank:
            return k
        prev_rank = cur_rank
    return mult


class Peripheral(NamedTuple):
    radius: float
    clusters: list[Cluster]  # as schur_clusters gives them
    degeneracy: dict[int, int]  # index into clusters -> degeneracy, of the peripheral ones only
    at_radius: int | None  # the index of the peripheral cluster at the radius, if one is


def peripheral(t: np.ndarray, rank_tol: float = RANK_TOL) -> Peripheral:
    """The one peripheral decision of a Schur form ``t``: its :func:`schur_clusters`, the
    peripheral ones, ``|value| >= r (1 - CLUSTER_TOL)``, each with its :func:`degeneracy` at
    ``rank_tol``, and the first of them within ``CLUSTER_TOL r`` of ``r``."""
    radius, clusters = schur_clusters(t)
    floor = radius * (1.0 - CLUSTER_TOL)
    found = {k: degeneracy(t, c, rank_tol) for k, c in enumerate(clusters) if abs(c.value) >= floor}
    at = next((k for k in found if abs(clusters[k].value - radius) <= CLUSTER_TOL * radius), None)
    return Peripheral(radius, clusters, found, at)


def matrix_to_json(a) -> dict:
    """Serialize to ``{"rows": m, "cols": n, "data": [[re, im], ...]}`` (row-major)."""
    m = as_matrix(a)
    data = [[float(z.real), float(z.imag)] for z in m.ravel(order="C")]
    return {"rows": int(m.shape[0]), "cols": int(m.shape[1]), "data": data}


def as_integer(x, what: str) -> int:
    """``x`` as an int: an integer, numpy's included, or an integral float; anything else,
    a bool, a string or null included, is a :class:`FormatError` naming ``what``."""
    if not isinstance(x, (bool, np.bool_)):
        try:
            return operator.index(x)
        except TypeError:
            if isinstance(x, (float, np.floating)) and float(x).is_integer():
                return int(x)
    raise FormatError(f"{what} must be an integer, got {x!r}")


def _real(x) -> float:
    """A JSON number as a float; a :class:`FormatError` for anything else (a string, null,
    a bool) and for an integer beyond the float range."""
    if isinstance(x, (bool, np.bool_)) or not isinstance(x, (int, float, np.integer, np.floating)):
        raise FormatError(f"matrix entries must be numbers, got {x!r}")
    try:
        return float(x)
    except OverflowError as exc:
        raise FormatError(f"matrix entry of {x.bit_length()} bits is beyond the float range") from exc


def matrix_from_json(obj) -> np.ndarray:
    """Parse the matrix JSON schema, rejecting shape/length mismatches and non-numeric entries."""
    if not isinstance(obj, dict):
        raise FormatError("matrix JSON must be an object")
    try:
        rows, cols, data = obj["rows"], obj["cols"], obj["data"]
    except KeyError as exc:
        raise FormatError(f"matrix JSON missing or invalid field: {exc}") from exc
    rows, cols = as_integer(rows, "matrix rows"), as_integer(cols, "matrix cols")
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
        flat[k] = complex(_real(entry[0]), _real(entry[1]))
    return as_matrix(flat.reshape((rows, cols), order="C"))
