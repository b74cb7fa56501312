"""Completely positive maps: Kraus lists, Choi matrices, superoperators.

A :class:`CpMap` carries a Kraus list of side-``m`` matrices together with the
shape of the block-diagonal algebra it acts on.  The three views are related
by fixed conventions (see :mod:`cpspectra.mats`):

* the Choi matrix is the one product ``conj(V) V^T`` over the m^2 x k stack ``V``
  of the ``vec A_i``, and the superoperator ``S = sum_i kron(A_i.T, A_i.conj().T)``
  of ``X -> sum_i A_i* X A_i`` is its reshuffle ``S[p + r*m, i + j*m] = Choi[p*m + i, r*m + j]``;
* the conjugated Choi matrix is ``V V*``, so coefficient spaces, Choi ranks and
  canonical extensions all come from one thin SVD of ``V``, cut where
  ``sigma <= sqrt(rank_tol) * sigma_max`` (the Choi eigenvalues are the ``sigma^2``).

A map on ``M_{n1} + ... + M_{nd}`` is read as ``iota o tau o E``: ``E``
compresses to the block diagonal and ``iota`` embeds back into M_m, so the
off-block inputs of a Kraus list never count.  :func:`superop_matrix` is the
one coercion from a map to its matrix under this reading; spectral radii,
norms, powers and maximal parts all go through it.  Its matrix equals, up to
round-off, the superoperator of :func:`canonical_extension`.  Only
:func:`algebra_map`, which applies the mask, and :func:`preserves_algebra`,
which tests the off-block action, read the raw Kraus superoperator.  Calling
a :class:`CpMap` applies the same ``iota o tau o E`` through its Kraus list
(:meth:`CpMap.step`, which the radius, norm, witness and Gelfand routes of
:mod:`cpspectra.spectra` iterate for every CpMap) and never builds the matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .algebra import AlgebraShape
from .errors import ConvergenceError, FormatError, PreconditionError
from .mats import (
    CHECK_TOL,
    PSD_TOL,
    RANK_TOL,
    as_matrix,
    frobenius_norm,
    psd_report,
    side_of,
    unvec,
    vec,
)

__all__ = [
    "CpMap",
    "SuperOperator",
    "AlgebraMap",
    "CoefficientSpace",
    "MembershipResult",
    "superop_of",
    "compose",
    "map_power",
    "choi_of",
    "choi_of_superop",
    "kraus_of_choi",
    "choi_rank",
    "is_cp",
    "coefficient_space",
    "dominates",
    "membership",
    "canonical_extension",
    "algebra_map",
    "preserves_algebra",
]

_LEAK_TOL = 1e-10  # largest relative off-block image that preserves_algebra allows


def _of_side(x, m: int) -> np.ndarray:
    """``x`` as a finite complex m x m array; another shape is a :class:`FormatError`."""
    x = as_matrix(x)
    if x.shape != (m, m):
        raise FormatError(f"input of shape {x.shape} does not match the map's side {m}")
    return x


@dataclass(frozen=True)
class SuperOperator:
    """An m^2 x m^2 matrix acting on ``vec`` of m x m matrices."""

    m: int
    matrix: np.ndarray

    def __post_init__(self):
        mat = as_matrix(self.matrix)
        if mat.shape != (self.m**2, self.m**2):
            raise FormatError(
                f"superoperator matrix {mat.shape} does not match side {self.m}^2"
            )
        object.__setattr__(self, "matrix", mat)

    def __call__(self, x) -> np.ndarray:
        return unvec(self.matrix @ _of_side(x, self.m).ravel(order="F"), self.m)


@dataclass(frozen=True)
class CpMap:
    """CP map ``X -> sum_i A_i* E(X) A_i`` on the algebra described by ``shape``.

    The Kraus list is non-empty and all operators share side ``shape.m``.
    The induced Choi matrix is automatically PSD for any Kraus list.  Calling
    the map applies ``iota o tau o E``: ``E`` first zeroes the off-block
    entries of ``X``, so the raw Kraus action off the algebra never counts.
    """

    kraus: tuple[np.ndarray, ...]
    shape: AlgebraShape

    def __post_init__(self):
        mats = tuple(as_matrix(a) for a in self.kraus)
        if not mats:
            raise FormatError("Kraus list must be non-empty")
        m = self.shape.m
        for a in mats:
            if a.shape != (m, m):
                raise FormatError(
                    f"Kraus operator of shape {a.shape} does not match side {m}"
                )
        object.__setattr__(self, "kraus", mats)

    @property
    def m(self) -> int:
        return self.shape.m

    @cached_property
    def _stacked(self) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
        """The adjoint and Kraus stacks and the in-algebra mask, built once per map."""
        stack = np.stack(self.kraus)
        mask = None if self.shape.is_full else self.shape.vec_mask().reshape(self.m, self.m)
        return stack.conj().transpose(0, 2, 1), stack, mask

    def step(self, x: np.ndarray) -> np.ndarray:
        """``x -> tau(E(x))`` on a complex m x m array, unvalidated, for iterations.

        Costs ``O(k m^3)`` per call and builds no superoperator; equals
        ``superop_matrix(self)`` applied to ``vec x`` up to round-off.
        """
        adjoints, stack, mask = self._stacked
        if mask is not None:
            x = np.where(mask, x, 0)
        return (adjoints @ x @ stack).sum(axis=0)

    def __call__(self, x) -> np.ndarray:
        return self.step(_of_side(x, self.m))

    def to_json(self) -> dict:
        from .mats import matrix_to_json

        return {
            "shape": self.shape.to_json(),
            "kraus": [matrix_to_json(a) for a in self.kraus],
        }

    @classmethod
    def from_json(cls, obj, shape: AlgebraShape | None = None) -> "CpMap":
        from .mats import matrix_from_json

        if not isinstance(obj, dict) or "kraus" not in obj:
            raise FormatError('CP map JSON must contain a "kraus" list')
        if "shape" in obj:
            parsed = AlgebraShape.from_json(obj["shape"])
            if shape is not None and parsed.blocks != shape.blocks:
                raise FormatError(
                    f"shape {parsed.blocks} in file conflicts with {shape.blocks}"
                )
            shape = parsed
        kraus = tuple(matrix_from_json(k) for k in obj["kraus"])
        if shape is None:
            if not kraus:
                raise FormatError("empty Kraus list")
            shape = AlgebraShape.full(kraus[0].shape[0])
        return cls(kraus, shape)


@dataclass(frozen=True)
class AlgebraMap:
    """A general linear map on a block-diagonal algebra, as a superoperator.

    The superoperator is canonical in the sense that it annihilates the
    off-block complement (it represents ``iota o phi o compress``); use
    :func:`algebra_map` to construct one.
    """

    superop: SuperOperator
    shape: AlgebraShape

    @property
    def m(self) -> int:
        return self.shape.m

    def __call__(self, x) -> np.ndarray:
        return self.superop(x)


def algebra_map(op, shape: AlgebraShape | None = None) -> AlgebraMap:
    """Build an :class:`AlgebraMap` from a CpMap, SuperOperator or raw matrix.

    The superoperator is right-composed with the block compression (its
    off-block columns are zeroed) so the map never sees off-block input
    components.
    """
    if isinstance(op, AlgebraMap):
        return op
    if isinstance(op, CpMap):
        shape = op.shape
        mat = superop_of(op).matrix
    elif isinstance(op, SuperOperator):
        if shape is None:
            shape = AlgebraShape.full(op.m)
        mat = op.matrix
    else:
        mat = as_matrix(op)
        if shape is None:
            raise PreconditionError("a shape is required for a raw superoperator")
        if mat.shape != (shape.m**2, shape.m**2):
            raise FormatError(
                f"superoperator {mat.shape} does not match algebra side {shape.m}"
            )
    if not shape.is_full:
        mat = np.where(shape.vec_mask(), mat, 0)
    return AlgebraMap(SuperOperator(shape.m, mat), shape)


def superop_matrix(op) -> np.ndarray:
    """The matrix of a map: ``iota o tau o E`` for a CpMap / SuperOperator / AlgebraMap.

    Map objects go through :func:`algebra_map`, so a block-shaped map never
    sees off-block input; any other input is taken as a square matrix.
    """
    if isinstance(op, (CpMap, SuperOperator, AlgebraMap)):
        return algebra_map(op).superop.matrix
    mat = as_matrix(op)
    if mat.shape[0] != mat.shape[1]:
        raise PreconditionError("operator matrix must be square")
    return mat


def superop_of(tau: CpMap) -> SuperOperator:
    """Superoperator of a CP map under the package's vec convention.

    :func:`choi_of` with its indices permuted back (the inverse of
    :func:`choi_of_superop`); raises :class:`ConvergenceError` when its entries overflow.
    """
    m = tau.m
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        choi = choi_of(tau)
    if not np.isfinite(choi).all():
        raise ConvergenceError("superoperator entries overflow")
    return SuperOperator(m, choi.reshape(m, m, m, m).transpose(2, 0, 3, 1).reshape(m * m, m * m))


def compose(outer_map, inner_map) -> SuperOperator:
    """Superoperator of ``outer o inner`` (matrix product of superoperators)."""
    a, b = superop_matrix(outer_map), superop_matrix(inner_map)
    if a.shape != b.shape:
        raise PreconditionError("composed maps act on different sides")
    return SuperOperator(side_of(a.shape[0]), a @ b)


def map_power(op, n: int) -> SuperOperator:
    """n-th power of a map, by repeated squaring of its superoperator."""
    mat = superop_matrix(op)
    if n < 0:
        raise PreconditionError("map_power requires n >= 0")
    return SuperOperator(side_of(mat.shape[0]), np.linalg.matrix_power(mat, n))


def choi_of(tau: CpMap) -> np.ndarray:
    """Choi matrix of a CP map, PSD of side m^2 and linear in the map: ``conj(V) V^T``."""
    v = _vec_stack(tau.kraus)
    return v.conj() @ v.T


def _vec_stack(kraus) -> np.ndarray:
    """The m^2 x k stack ``V`` whose column ``i`` is ``vec A_i``, C-contiguous whatever the
    layout of the ``A_i``, so the products with it round alike."""
    stack = np.stack(kraus)  # stack[i, p, q] = A_i[p, q]
    return np.ascontiguousarray(stack.T.reshape(-1, stack.shape[0]))  # row p + q*m of column i


def choi_of_superop(s: SuperOperator) -> np.ndarray:
    """Choi matrix ``sum_ij kron(s(E_ij), E_ij)``, a reshuffled copy of ``S = s.matrix``.

    ``Choi[p*m + i, r*m + j] = S[p + r*m, i + j*m]``: axes (1, 3, 0, 2) of S as (m, m, m, m).
    """
    m = s.m
    shuffled = s.matrix.reshape(m, m, m, m).transpose(1, 3, 0, 2)
    return np.array(shuffled, order="C").reshape(m * m, m * m)


def kraus_of_choi(c, rank_tol: float = RANK_TOL, psd_tol: float = PSD_TOL) -> list[np.ndarray]:
    """Kraus operators of a PSD Choi matrix, one per retained eigenpair.

    ``psd_tol`` bounds the Hermiticity and positivity checks.  Eigenpairs with
    eigenvalue ``<= rank_tol * max eigenvalue`` are discarded, a rank decision
    (numerical Choi matrices of exact low-rank maps carry round-off tails).
    Each retained pair ``(lam, u)`` yields ``sqrt(lam) * unvec(conj(u))``.
    """
    c = as_matrix(c)
    if c.shape[0] != c.shape[1]:
        raise FormatError("Choi matrix must be square")
    m = side_of(c.shape[0])
    nrm = float(np.linalg.norm(c))
    if np.linalg.norm(c - c.conj().T) > psd_tol * max(1.0, nrm) * nrm:
        raise PreconditionError("Choi matrix is not Hermitian")
    w, u = np.linalg.eigh((c + c.conj().T) / 2.0)
    top = float(w.max(initial=0.0))
    if float(w.min(initial=0.0)) < -psd_tol * max(1.0, top):
        raise PreconditionError(
            f"Choi matrix is not PSD (min eigenvalue {w.min():.3e})"
        )
    keep = w > rank_tol * max(top, 0.0)
    if not np.any(keep):
        # zero map; represent it with a single zero Kraus operator
        return [np.zeros((m, m), dtype=complex)]
    return [
        unvec(np.sqrt(w[k]) * u[:, k].conj(), m) for k in np.flatnonzero(keep)
    ]


def _kraus_span(kraus, rank_tol: float) -> tuple[np.ndarray, np.ndarray]:
    """Singular pairs ``(u_j, sigma_j)`` of the stack of ``vec A_i`` kept by the Choi
    rule ``sigma > sqrt(rank_tol) * sigma_max`` (unsquared, so that no norm up to
    the largest float overflows); descending ``sigma``, and each ``u_j``'s
    largest-modulus entry real and positive, so only the map matters."""
    u, s, _ = np.linalg.svd(_vec_stack(kraus), full_matrices=False)
    keep = s > np.sqrt(rank_tol) * s[0]
    u, s = u[:, keep], s[keep]
    top = u[np.argmax(np.abs(u), axis=0), np.arange(u.shape[1])]
    return u * (top.conj() / np.abs(top)), s


def choi_rank(tau: CpMap, rank_tol: float = RANK_TOL) -> int:
    """Rank of the Choi matrix = dimension of the coefficient space."""
    return coefficient_space(tau, rank_tol).dimension


def is_cp(s: SuperOperator, psd_tol: float = PSD_TOL) -> bool:
    """Whether a superoperator represents a CP map (Choi matrix PSD)."""
    c = choi_of_superop(s)
    return psd_report(c, psd_tol * max(1.0, frobenius_norm(c))).is_psd


@dataclass(frozen=True)
class CoefficientSpace:
    """Orthonormal Hilbert-Schmidt basis of the span of a map's Kraus operators."""

    m: int
    basis: tuple[np.ndarray, ...] = field(default=())

    @property
    def dimension(self) -> int:
        return len(self.basis)

    def stacked(self) -> np.ndarray:
        """m^2 x dimension matrix with the vec of each basis element as a column."""
        return _vec_stack(self.basis) if self.basis else np.zeros((self.m**2, 0), dtype=complex)

    def projector(self) -> np.ndarray:
        """m^2 x m^2 orthogonal projector onto vec of the space."""
        v = self.stacked()
        return v @ v.conj().T

    def project(self, x) -> np.ndarray:
        v = self.stacked()
        return unvec(v @ (v.conj().T @ vec(x)), self.m)

    def residual(self, x) -> float:
        return frobenius_norm(as_matrix(x) - self.project(x))


def coefficient_space(tau: CpMap, rank_tol: float = RANK_TOL) -> CoefficientSpace:
    """span{A_i}, from the left singular vectors of the stack of ``vec A_i``.

    Independent of the particular Kraus list: any two lists of the same map
    give the same basis, and the dimension equals the Choi rank.
    """
    u, _ = _kraus_span(tau.kraus, rank_tol)
    return CoefficientSpace(tau.m, tuple(unvec(col, tau.m) for col in u.T))


def dominates(tau: CpMap, eta: CpMap, psd_tol: float = PSD_TOL) -> bool:
    """Whether ``tau - eta`` is CP, i.e. Choi(tau) - Choi(eta) is PSD."""
    if tau.m != eta.m:
        raise PreconditionError("maps act on different sides")
    diff = choi_of(tau) - choi_of(eta)
    return psd_report(diff, psd_tol * max(1.0, frobenius_norm(diff))).is_psd


@dataclass(frozen=True)
class MembershipResult:
    member: bool
    residual: float
    q: float | None = None


def membership(a, tau: CpMap, rank_tol: float = RANK_TOL) -> MembershipResult:
    """Decide whether ``a`` lies in the coefficient space of ``tau``.

    Decided by subspace projection: ``a`` is a member when its residual is at
    most ``CHECK_TOL * max(1, ||a||)``.  For members, also return the scalar
    certificate ``q = ||lambda||^2 + 1`` built from least-squares expansion
    coefficients of ``a`` in the given Kraus list; ``q * tau - alpha_a`` is
    then CP, which cross-checks the verdict through :func:`dominates`.
    ``rank_tol`` decides the dimension of the coefficient space.
    """
    a = as_matrix(a)
    if a.shape != (tau.m, tau.m):
        raise PreconditionError("matrix side does not match the map")
    space = coefficient_space(tau, rank_tol)
    residual = space.residual(a)
    member = residual <= CHECK_TOL * max(1.0, frobenius_norm(a))
    if not member:
        return MembershipResult(False, residual)
    lam, *_ = np.linalg.lstsq(_vec_stack(tau.kraus), vec(a), rcond=None)
    q = float(np.linalg.norm(lam) ** 2 + 1.0)
    return MembershipResult(True, residual, q)


def canonical_extension(tau: CpMap) -> CpMap:
    """Extension of a CP map on the block algebra to the full matrix algebra.

    The extension first compresses onto the block diagonal and then applies
    the map, ``E(X) = sum_k P_k X P_k``, so its Kraus list is ``{P_k A_i}``.  The
    result is the orthogonal list ``sigma_j unvec(u_j)`` of that list's span; it
    does not depend on how the input Kraus list acts off the algebra.
    """
    m = tau.m
    u, s = _kraus_span([p @ a for p in tau.shape.projections() for a in tau.kraus], RANK_TOL)
    kraus = [unvec(sig * col, m) for sig, col in zip(s, u.T)] or [np.zeros((m, m), dtype=complex)]
    return CpMap(tuple(kraus), AlgebraShape.full(m))


def preserves_algebra(tau: CpMap) -> bool:
    """Whether the Kraus action maps the block algebra into itself.

    Column ``i + j*m`` of the superoperator is ``vec tau(E_ij)``; for every
    in-algebra ``E_ij`` its off-block part must be at most
    ``_LEAK_TOL * max(1, ||tau(E_ij)||)``, with ``_LEAK_TOL = 1e-10``.
    """
    if tau.shape.is_full:
        return True
    mask = tau.shape.vec_mask()
    cols = superop_of(tau).matrix[:, mask]
    leak = np.linalg.norm(cols[~mask], axis=0)
    return bool(np.all(leak <= _LEAK_TOL * np.maximum(1.0, np.linalg.norm(cols, axis=0))))
