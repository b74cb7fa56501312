"""Constructive Perron theory for positive maps on block-diagonal algebras.

Every spectral stage runs on one Schur form of the map's matrix ``H`` in the
orthonormal Hermitian basis of its block algebra, of side ``n1^2 + ... + nd^2``
and real for every positive map, taken per group of blocks that reach each
other so a reducible map's block-triangular zeros stay exact.  The eigenvalue
clusters and their degeneracy indices (rank plateaus of powers of
``t11 - lambda`` on a cluster's reordered block) are read off it, and
:func:`spectral_structure` reports them.  The maximal part comes from the same
form along two routes that must agree:

* the projection ``(H - r)^(d-1) P_r``, with ``P_r`` from the Schur kernel of
  :mod:`cpspectra.mats` (reordering and triangular Sylvester solve);
* the limit of the averaged normalized powers
  ``(1/N) sum_n H^n / (binom(n, d-1) r^(n-d+1))``: for ``d = 1`` the Cesaro
  mean by partial-sum doubling with Richardson extrapolation, for ``d > 1``
  its closed form, the resolvent integral
  ``(1/2 pi i) oint (z - r)^(d-1) (z - H)^(-1) dz``, by the trapezoidal rule on
  a circle about ``r``.

The same machinery yields Perron eigenvectors, the rank-one factorization of
the maximal part of an irreducible CP map, irreducibility tests through
canonical extensions, and bases of the algebra generated by a tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from typing import NamedTuple

import numpy as np

from .algebra import AlgebraShape
from .cpmap import (
    CoefficientSpace,
    CpMap,
    SuperOperator,
    canonical_extension,
    choi_of_superop,
    coefficient_space,
    kraus_of_choi,
    map_matrix,
    superop_matrix,
)
from .errors import ConvergenceError, PreconditionError
from .mats import (
    CHECK_TOL,
    CLUSTER_TOL,
    PSD_TOL,
    RANK_TOL,
    as_matrices,
    numerical_rank,
    op_norm,
    psd_report,
    reorder_schur,
    schur,
    schur_pairs,
    schur_sylvester,
    side_of,
    unvec,
    vec,
)
from .spectra import spectral_radius_of

__all__ = [
    "EigenCluster",
    "SpectralStructure",
    "MaximalPart",
    "Factorization",
    "IrreducibilityReport",
    "GeneratedAlgebra",
    "IdealCheck",
    "spectral_structure",
    "maximal_part",
    "perron_vector",
    "maximal_factorization",
    "irreducible_cp",
    "algebra_basis",
    "resolvent_gamma",
    "exp_eta",
    "maximal_ideal_check",
]


_REAL_TOL = 1e-12  # largest relative imaginary part of coordinates that count as real
_ROUTE_TOL = 1e-6  # largest relative gap between the two maximal-part routes
_CESARO_TOL = 2.5e-7  # relative change of the Richardson value that stops the Cesaro doubling
_CESARO_TERMS = 2**26  # largest number of terms in the Cesaro mean
_CONTOUR_NODES = 64  # trapezoidal nodes of the contour route
_PROBES = 64  # random rank-one PSD probes of irreducible_cp


@dataclass(frozen=True)
class EigenCluster:
    value: complex
    multiplicity: int
    degeneracy: int


@dataclass(frozen=True)
class SpectralStructure:
    """Clustered eigenvalues with degeneracy indices and the maximal spectrum."""

    clusters: tuple[EigenCluster, ...]
    radius: float
    d_max: int
    maximal_spectrum: tuple[complex, ...]


def spectral_structure(op, rank_tol: float = RANK_TOL) -> SpectralStructure:
    """Eigenvalue clusters, degeneracy indices, and the maximal spectrum.

    Read off the Schur form of :func:`maximal_part`, of the map's matrix ``H`` in the
    coordinates of its algebra (M_m for a raw matrix of side m^2, and its own entries for a
    raw square array of another side), so a block map lists no zero cluster for its off-block
    entries; clustering merges eigenvalues within ``CLUSTER_TOL * r``.  The degeneracy index
    of a cluster of multiplicity ``k > 1`` at ``value`` is read off its leading block ``t11``
    of the reordered Schur form: with ``N = (t11 - value) / ||H||_2``, it is the smallest
    ``j`` with ``rank(N^j) == rank(N^(j+1))`` under the tolerant rank, where a power of norm
    at most ``rank_tol`` has rank 0.  A simple cluster has index 1 without a rank test.
    """
    _, _, t, _, radius, clusters = _schur_form(*map_matrix(op))
    out = tuple(
        EigenCluster(c.value, int(c.members.sum()), _degeneracy(t, c, rank_tol))
        for c in clusters
    )
    delta = CLUSTER_TOL * radius
    peripheral = [c for c in out if abs(c.value) >= radius - delta]
    d_max = max((c.degeneracy for c in peripheral), default=0)
    maximal = tuple(c.value for c in peripheral if c.degeneracy == d_max)
    return SpectralStructure(clusters=out, radius=radius, d_max=d_max, maximal_spectrum=maximal)


class _Cluster(NamedTuple):
    value: complex
    members: np.ndarray  # mask over the eigenvalues on the diagonal of the Schur form


def _schur_form(mat: np.ndarray, shape: AlgebraShape | None) -> tuple:
    """``(idx, h, t, q, radius, clusters)``: the :func:`_coordinates` ``h`` of ``mat`` in the
    algebra ``shape`` and their ``vec`` indices ``idx`` (``mat`` itself and None when ``shape``
    is None), the :func:`_block_schur` form ``h = q t q*``, and the spectral radius and the
    :func:`_clusters` of the eigenvalues on the diagonal blocks of ``t``."""
    if shape is None:
        h, idx, owner = mat, None, np.zeros(mat.shape[0], dtype=int)
    else:
        h, idx = _coordinates(mat, shape)
        owner = np.repeat(np.arange(shape.d), shape.blocks)[idx % shape.m]
    t, q = _block_schur(h, owner)
    eig = np.diag(t).astype(complex)  # a 2 x 2 block [[a, b], [c, a]] holds a +- i sqrt(|b c|)
    k = schur_pairs(t)
    im = np.sqrt(np.abs(t[k, k + 1])) * np.sqrt(np.abs(t[k + 1, k]))
    eig[k] += 1j * im
    eig[k + 1] -= 1j * im
    return (idx, h, t, q, *_clusters(eig))


def _clusters(eig: np.ndarray) -> tuple[float, list[_Cluster]]:
    """The spectral radius and the clusters of ``eig``, by decreasing modulus.

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
            clusters.append(_Cluster(complex(eig[idx]), members))
        elif not taken[idx]:
            members = (np.abs(eig - eig[idx]) <= delta) & ~taken
            taken |= members
            clusters.append(_Cluster(complex(np.mean(eig[members])), members))
    return radius, clusters


def _isolated(x: np.ndarray, delta: float) -> np.ndarray:
    """Whether each entry of the real ``x`` is farther than ``delta`` from every other one."""
    order = np.argsort(x, kind="stable")
    apart = np.diff(x[order]) > delta
    out = np.empty(x.size, dtype=bool)
    out[order] = np.concatenate([[True], apart]) & np.concatenate([apart, [True]])
    return out


def _degeneracy(t: np.ndarray, cluster: _Cluster, rank_tol: float) -> int:
    """Degeneracy index of a cluster of the Schur form ``t``: the rank-plateau index of
    ``t11 - value``, ``t11`` the cluster's block moved to the lead by :func:`reorder_schur`.

    ``t11`` holds the ``mult`` eigenvalues of the cluster, and in a real form
    also their conjugates when ``value`` is not real; ``t11 - value`` is
    invertible on those, so they do not move the plateau.  The block is
    divided by ``||t||_2 = ||H||_2``, so the index does not depend on the
    map's scale.
    """
    mult = int(cluster.members.sum())
    if mult == 1:  # the index never exceeds the multiplicity
        return 1
    t, _, sdim = reorder_schur(t, None, cluster.members)
    base = (t[:sdim, :sdim] - cluster.value * np.eye(sdim)) / (op_norm(t) or 1.0)

    def rank(x):
        return numerical_rank(x, rank_tol) if op_norm(x) > rank_tol else 0

    cur, prev_rank = base, rank(base)
    for k in range(1, mult):
        cur = cur @ base
        cur_rank = rank(cur)
        if cur_rank == prev_rank:
            return k
        prev_rank = cur_rank
    return mult


def _spectral_projector(t: np.ndarray, q: np.ndarray, sdim: int) -> np.ndarray:
    """Riesz projection of ``q t q*`` onto the eigenvalues of the leading ``sdim x sdim`` block.

    ``t`` is a Schur form whose cluster already leads (see :func:`reorder_schur`),
    and ``y`` is its :func:`schur_sylvester` block, so no further Schur form is computed.
    """
    n = t.shape[0]
    if sdim == n:
        return np.eye(n, dtype=t.dtype)
    # q [[1, -y], [0, 0]] q* = q1 (q1* - y q2*): rank sdim, with no n x n product
    q1 = q[:, :sdim]
    return q1 @ (q1.conj().T - schur_sylvester(t, sdim) @ q[:, sdim:].conj().T)


def _cesaro_limit(mat: np.ndarray, radius: float) -> np.ndarray:
    """Cesaro mean of ``(T / r)^n`` for ``d = 1``, by partial-sum doubling.

    The mean of ``N`` terms is ``P + K / N`` up to geometric decay (``K`` the
    reduced resolvent), so the Richardson value ``2 avg(2N) - avg(N)`` cancels
    the slow term.  Stops when two consecutive values agree within
    ``_CESARO_TOL`` relative to ``max(1, largest entry)``; ``N`` never exceeds
    ``_CESARO_TERMS``; an overflow raises :class:`ConvergenceError`.
    """
    power = partial = avg = mat / radius  # partial: the sum of the first ``count`` powers
    count, prev = 1, None
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        while 2 * count <= _CESARO_TERMS:
            partial = partial + power @ partial
            power = power @ power
            count *= 2
            avg, last = partial / count, avg
            cur = 2.0 * avg - last
            size = float(np.abs(cur).max())
            if not size < np.inf:  # inf or nan
                raise ConvergenceError(f"Cesaro partial sums overflow at {count} terms")
            if prev is not None and float(np.abs(cur - prev).max()) <= _CESARO_TOL * max(1.0, size):
                return cur
            prev = cur
    raise ConvergenceError(f"Cesaro mean did not converge within {_CESARO_TERMS} terms")


def _contour_limit(mat: np.ndarray, radius: float, degeneracy: int, rho: float) -> np.ndarray:
    """``(T - r)^(d-1) P_r = (1/2 pi i) oint (z - r)^(d-1) (z - T)^(-1) dz`` for ``d >= 2``.

    Trapezoidal rule on the circle ``|z - r| = rho``, which must hold no other
    eigenvalue; with ``rho`` half the distance to the nearest one the error
    falls like ``2^-nodes``.
    """
    eye = np.eye(mat.shape[0])
    acc = np.zeros(mat.shape, dtype=complex)
    for w in rho * np.exp(2j * np.pi * np.arange(_CONTOUR_NODES) / _CONTOUR_NODES):
        acc += w**degeneracy * np.linalg.inv((radius + w) * eye - mat)
    return acc / _CONTOUR_NODES


@dataclass(frozen=True)
class MaximalPart:
    """The dominant (Cesaro-limit) part of a positive map."""

    superop: SuperOperator
    radius: float
    degeneracy: int
    idempotent: bool
    route_gap: float


def maximal_part(phi, rank_tol: float = RANK_TOL) -> MaximalPart:
    """Maximal part of a positive map with non-zero spectral radius.

    Runs on the map's matrix ``H`` in the orthonormal Hermitian basis of its
    block algebra (a SuperOperator or a raw matrix is a map on the full
    algebra): in real arithmetic when the imaginary part of ``H`` is at most
    ``_REAL_TOL = 1e-12`` relative to its largest entry, as for every CpMap
    and positive map, and on the map's own complex entries otherwise.

    Eigenvalues within ``CLUSTER_TOL * r`` (``CLUSTER_TOL = 1e-8``) form one
    cluster; the clusters, their degeneracy indices (see
    :func:`spectral_structure`) and ``P_r`` come from one Schur form of ``H``.
    The projection ``(H - r)^(d-1) P_r`` and the second route (see the module
    docstring) must agree within ``_ROUTE_TOL = 1e-6``, relative to the
    result's largest entry once that exceeds 1, since an ill-conditioned
    spectral projector inflates both routes alike.  The Cesaro mean (``d = 1``)
    stops when two consecutive values agree within ``_CESARO_TOL = 2.5e-7``
    relative to ``max(1, largest entry)``, and raises :class:`ConvergenceError`
    past ``_CESARO_TERMS = 2**26`` terms or on overflow; the contour route
    (``d > 1``) takes ``_CONTOUR_NODES = 64`` nodes on the circle about ``r``
    of half the distance to the nearest other cluster.

    The result is embedded back at side m^2; on a map that leaks out of its
    algebra, its off-algebra rows are ``B hat / r``, with ``B`` the map's
    off-algebra rows on the algebra columns.

    Raises on maps with zero spectral radius (nilpotent, no maximal part)
    and on maps whose spectral radius is not an eigenvalue or does not carry
    a largest Jordan block (the claimed positivity is then false).
    """
    return _maximal_part(phi, rank_tol)[0]


def _maximal_part(phi, rank_tol: float) -> tuple[MaximalPart, np.ndarray]:
    """:func:`maximal_part` of ``phi`` and the map's m^2 x m^2 matrix."""
    mat, shape = map_matrix(phi)
    idx, h, t, q, r, clusters = _schur_form(mat, shape or AlgebraShape.full(side_of(mat.shape[0])))
    if r <= 1e-300:
        raise PreconditionError(
            "maximal part is undefined when the spectral radius is zero"
        )
    delta = CLUSTER_TOL * r
    target = next((c for c in clusters if abs(c.value - r) <= delta), None)
    if target is None:
        raise PreconditionError(
            "spectral radius is not an eigenvalue; the map cannot be positive"
        )
    d = _degeneracy(t, target, rank_tol)
    if any(
        _degeneracy(t, c, rank_tol) > d
        for c in clusters
        if c is not target and abs(c.value) >= r - delta
    ):
        raise PreconditionError(
            "a peripheral eigenvalue away from the spectral radius has a larger "
            "Jordan block; the map cannot be positive"
        )

    proj = _spectral_projector(*reorder_schur(t, q, target.members))
    if d == 1:
        hat, route, other = proj, "Cesaro", _cesaro_limit(h, r)
    else:
        hat = np.linalg.matrix_power(h - r * np.eye(h.shape[0]), d - 1) @ proj
        # half the distance to the nearest other cluster; with none, any circle will do
        rho = min((abs(c.value - r) for c in clusters if c is not target), default=r) / 2
        route, other = "contour", _contour_limit(h, r, d, rho)

    # relative beyond unit scale: ill-conditioned eigenbases inflate both
    # routes' entries by the same factor
    size = float(np.abs(hat).max())
    gap = float(np.abs(hat - other).max())
    if gap > _ROUTE_TOL * max(1.0, size):
        raise ConvergenceError(
            f"projection and {route} routes disagree by {gap:.3e} (> {_ROUTE_TOL})"
        )

    # d = 1 needs a projector and d > 1 a nilpotent part, relative at every scale:
    # a nilpotent part with entries below 1e-8 is no projector
    idempotent = d == 1
    sq = hat @ hat
    if not float(np.abs(sq - hat if idempotent else sq).max()) < 1e-8 * size:
        kind = "idempotent" if idempotent else "nilpotent"
        raise ConvergenceError(f"maximal part is not {kind} within tolerance at degeneracy index {d}")
    return MaximalPart(
        superop=SuperOperator(side_of(mat.shape[0]), _embed(hat, idx, mat, r)),
        radius=r,
        degeneracy=d,
        idempotent=idempotent,
        route_gap=gap,
    ), mat


def _coordinates(mat: np.ndarray, shape: AlgebraShape) -> tuple[np.ndarray, np.ndarray]:
    """``mat`` in an orthonormal basis of the algebra ``shape``, and the ``vec`` indices
    of the matrix units that basis is built on.

    The basis is first the Hermitian one: ``E_ii``, then ``(E_ij + E_ji)/sqrt 2`` and
    then ``i (E_ij - E_ji)/sqrt 2`` for i < j in one block.  Each coordinate entry
    combines at most four entries of ``mat``, and no basis matrix is formed.  A
    map that sends Hermitian matrices to Hermitian ones has real coordinates
    there; when the imaginary part is at most ``_REAL_TOL`` relative to the
    largest entry, the real part is returned.  Any other map is returned in
    the matrix units of the algebra, in ``vec`` order: its own entries, complex.
    """
    m, idx = shape.m, _hermitian_units(shape)
    h = _to_hermitian(_to_hermitian(mat[np.ix_(idx, idx)], m, 1j).T, m, -1j).T
    if float(np.abs(h.imag).max()) <= _REAL_TOL * float(np.abs(h).max()):
        return np.ascontiguousarray(h.real), idx
    idx = np.flatnonzero(shape.vec_mask())
    return mat[np.ix_(idx, idx)], idx


@lru_cache(maxsize=64)
def _hermitian_units(shape: AlgebraShape) -> np.ndarray:
    """``vec`` indices of the ``E_ii``, then the ``E_ij`` and then the ``E_ji`` (i < j in one block)."""
    m, upper = shape.m, []
    for sl in shape.slices():
        i, j = np.triu_indices(sl.stop - sl.start, 1)
        upper.append((i + sl.start, j + sl.start))
    i, j = (np.concatenate(ax) for ax in zip(*upper))
    idx = np.concatenate([np.arange(m) * (m + 1), i + j * m, j + i * m])
    idx.flags.writeable = False  # shared between calls
    return idx


def _embed(hat: np.ndarray, idx: np.ndarray, mat: np.ndarray, radius: float) -> np.ndarray:
    """The m^2 x m^2 matrix of a result ``hat`` in the coordinates of :func:`_coordinates`.

    A real ``hat`` is in the Hermitian basis, a complex one in the matrix units
    at ``idx``.  ``hat`` satisfies ``(H - radius) hat = 0`` for the coordinate
    matrix ``H``, so the off-algebra rows of the result are ``B X / radius``,
    with ``X`` the embedded ``hat`` and ``B`` the off-algebra rows of ``mat`` on
    the algebra columns (zero for a map that keeps its algebra): ``mat`` fixes
    the result up to ``radius`` at every row.  The off-algebra columns are zero.
    """
    n = mat.shape[0]
    m = side_of(n)
    if np.iscomplexobj(hat):
        block = hat
    else:
        block = _from_hermitian(_from_hermitian(hat, m, 1j).T, m, -1j).T
    out = np.zeros(mat.shape, dtype=complex)
    out[np.ix_(idx, idx)] = block
    if idx.size < n:
        off = np.ones(n, dtype=bool)
        off[idx] = False
        leak = mat[np.ix_(off, idx)]
        if leak.any():
            out[np.ix_(off, idx)] = leak @ block / radius
    return out


def _to_hermitian(a: np.ndarray, k: int, phase: complex) -> np.ndarray:
    """Rows of ``a`` at the ``k`` diagonal units, then the ``E_ij`` and then the ``E_ji`` of
    :func:`_coordinates`, taken to ``(x_ij + x_ji)/sqrt 2`` and ``phase (x_ji - x_ij)/sqrt 2``."""
    h, half = (a.shape[0] - k) // 2, np.sqrt(0.5)
    upper, lower = a[k : k + h], a[k + h :]
    return np.concatenate([a[:k], half * (upper + lower), (phase * half) * (lower - upper)])


def _from_hermitian(a: np.ndarray, k: int, phase: complex) -> np.ndarray:
    """Inverse of :func:`_to_hermitian` for the same ``phase``."""
    h, half = (a.shape[0] - k) // 2, np.sqrt(0.5)
    sym, anti = half * a[k : k + h], (phase * half) * a[k + h :]
    return np.concatenate([a[:k], sym + anti, sym - anti])


def _block_schur(h: np.ndarray, owner: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """A Schur form ``h = q t q*`` that keeps the zeros between the algebra's blocks.

    ``owner`` is the algebra block of each coordinate.  Blocks that reach each
    other through ``h`` form one group, and a group reached from more blocks
    comes first; ``h`` is then block upper triangular over the groups (a
    reducible map).  Each group's diagonal block gets its own Schur form, and
    ``t`` is ``q* h q`` with those forms on its diagonal and exact zeros below.
    A dense Schur form of such an ``h`` rounds into the zero blocks, which moves
    an ill-conditioned ``P_r`` by up to ``1e-11``; here they stay exact.  With
    one group this is the Schur form of ``h``.
    """
    nb = int(owner.max()) + 1
    # reach[j, i]: a path from block i to block j, by squaring the one-step relation
    member = (owner[:, None] == np.arange(nb)).astype(float)
    reach = (member.T @ (h != 0) @ member > 0).astype(int) + np.eye(nb, dtype=int)
    for _ in range(nb.bit_length()):
        reach = np.minimum(reach @ reach, 1)
    keys = sorted({tuple(row) for row in reach}, key=lambda row: (-sum(row), row))
    if len(keys) == 1:
        return schur(h)
    group = np.array([keys.index(tuple(row)) for row in reach])[owner]
    q = np.zeros_like(h)
    diag, start = [], 0
    for g in range(len(keys)):
        sel = np.flatnonzero(group == g)
        span = slice(start, start + sel.size)
        t_g, q[sel, span] = schur(h[np.ix_(sel, sel)])
        diag.append((span, t_g))
        start = span.stop
    t = q.conj().T @ h @ q  # exactly zero below the groups' diagonal blocks
    for span, t_g in diag:
        t[span, span] = t_g
    return t, q


def perron_vector(phi, psd_tol: float = PSD_TOL, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Positive eigenvector ``L = maximal_part(phi)(1)`` at the spectral radius."""
    return _perron_of(*_maximal_part(phi, rank_tol), psd_tol)[0]


def _perron_of(mp: MaximalPart, mat: np.ndarray, psd_tol: float) -> tuple[np.ndarray, float, float]:
    """``(L, ||mat L - r L||, lambda_min(L))`` for ``L = mp(1)`` made Hermitian; raises unless ``L``
    is non-zero, PSD and that residual at most ``CHECK_TOL * r * ||L||``, its rounding scale."""
    m = mp.superop.m
    ell = mp.superop(np.eye(m, dtype=complex))
    ell = (ell + ell.conj().T) / 2.0
    norm = float(np.linalg.norm(ell))
    if norm <= psd_tol:
        raise ConvergenceError("maximal part annihilates the identity")
    rep = psd_report(ell, psd_tol * max(1.0, norm))
    if not rep.is_psd:
        raise ConvergenceError("computed Perron vector is not PSD")
    residual = float(np.linalg.norm(unvec(mat @ vec(ell), m) - mp.radius * ell))
    if residual > CHECK_TOL * mp.radius * norm:
        raise ConvergenceError(
            f"Perron eigenvector residual {residual:.3e} exceeds {CHECK_TOL} * r * ||L||"
        )
    return ell, residual, rep.min_eigenvalue


@dataclass(frozen=True)
class Factorization:
    """Rank-one factorization ``X -> trace(state @ X) * eigenvector`` of a maximal part."""

    radius: float
    eigenvector: np.ndarray
    state: np.ndarray
    residuals: dict


def maximal_factorization(
    tau: CpMap, rank_tol: float = RANK_TOL, psd_tol: float = PSD_TOL
) -> Factorization:
    """Factor the maximal part of an irreducible CP map.

    Returns the spectral radius ``r``, the strictly positive eigenvector ``L``
    (with ``tau(L) = r L``), and the strictly positive density matrix ``R`` of
    the invariant faithful state (``trace(R L) = 1``; the adjoint superoperator
    fixes ``vec(R)`` up to the factor ``r``).  The map is irreducible iff ``d = 1``, the
    maximal part is rank one and ``L, R > 0`` (Evans & Hoegh-Krohn 1978; Arias, Gheondea &
    Gudder 2002); the first that fails raises :class:`PreconditionError` "map is reducible
    (...)" with its margin.  :class:`ConvergenceError` is a failed route check, Hermitian gap
    of ``R`` or residual (``CHECK_TOL`` times ``r ||L||``, ``r ||R||``, or 1 for ``trace(R L)``).
    """
    mp, mat = _maximal_part(tau, rank_tol=rank_tol)  # mat: iota o tau o E, the extension's matrix
    hat, r = mp.superop.matrix, mp.radius
    if mp.degeneracy != 1:
        raise PreconditionError(f"map is reducible (degeneracy index {mp.degeneracy} != 1)")

    svals = np.linalg.svd(hat[:, tau.shape.vec_mask()], compute_uv=False)  # other columns are zero
    rank_gap = float(svals[1] / svals[0]) if svals.size > 1 and svals[0] > 0 else 0.0
    if rank_gap > rank_tol:
        raise PreconditionError(f"map is reducible (sigma2/sigma1 = {rank_gap:.3e} > rank_tol)")

    ell, resid_eig, low = _perron_of(mp, mat, psd_tol)
    if not low > psd_tol:
        raise PreconditionError(f"map is reducible (lambda_min(L) = {low:.3e} <= psd_tol)")
    vl = vec(ell)
    raw_state = unvec(hat.conj().T @ vl / float(np.vdot(vl, vl).real), tau.m)
    herm_gap = float(np.linalg.norm(raw_state - raw_state.conj().T))
    if herm_gap > CHECK_TOL * max(1.0, float(np.linalg.norm(raw_state))):
        raise ConvergenceError(
            f"recovered state is not Hermitian (gap {herm_gap:.3e}); not silently fixed"
        )
    state = (raw_state + raw_state.conj().T) / 2.0
    trace_raw = float(np.trace(state @ ell).real)
    state = state / trace_raw
    low = psd_report(state, psd_tol).min_eigenvalue  # of R, made exactly Hermitian
    if not low > psd_tol:
        raise PreconditionError(f"map is reducible (lambda_min(R) = {low:.3e} <= psd_tol)")

    resid_adj = float(np.linalg.norm(mat.conj().T @ vec(state) - r * vec(state)))
    resid_trace = abs(trace_raw - 1.0)
    residuals = {
        "eigenvector": resid_eig,
        "adjoint": resid_adj,
        "state_trace": resid_trace,
        "rank_gap": rank_gap,
    }
    # _perron_of checked resid_eig
    if resid_adj > CHECK_TOL * r * float(np.linalg.norm(state)) or resid_trace > CHECK_TOL:
        raise ConvergenceError(f"factorization residuals too large: {residuals}")
    return Factorization(radius=r, eigenvector=ell, state=state, residuals=residuals)


@dataclass(frozen=True)
class GeneratedAlgebra:
    """Orthonormal basis of the (unital or not) algebra generated by a tuple."""

    space: CoefficientSpace
    unital: bool
    stabilization_index: int

    @property
    def dimension(self) -> int:
        return self.space.dimension

    @property
    def basis(self) -> tuple[np.ndarray, ...]:
        return self.space.basis


def algebra_basis(mats_list, unital: bool, rank_tol: float = RANK_TOL) -> GeneratedAlgebra:
    """Burnside-style closure: iterate left multiplication until the span stabilizes.

    Starts from span{1} (unital) or span{A_i} (non-unital) and adds products
    ``A_i @ B`` over the current basis until one full sweep adds nothing.
    Stabilization is guaranteed no later than word length m^2; the reported
    ``stabilization_index`` is the word length at which the span last grew.

    Orthonormalization is classical Gram-Schmidt, applied twice, in the
    Hilbert-Schmidt inner product, against the basis kept as rows of one array.
    The tuple is first scaled by the power of two that brings its largest entry into
    ``[1/2, 1)``: exact, so the algebra is unchanged, and no norm or product overflows.
    """
    mats = as_matrices(mats_list)
    m = mats[0].shape[0]
    exp = np.frexp(max(float(np.abs(x).max()) for a in mats for x in (a.real, a.imag)))[1]
    mats = [np.ldexp(a.real, -exp) + 1j * np.ldexp(a.imag, -exp) for a in mats]

    rows = np.empty((1, m * m), dtype=complex)  # orthonormal basis, one row each
    count = 0
    max_norm = max(float(np.linalg.norm(a)) for a in mats) or 1.0

    def try_add(candidate: np.ndarray) -> np.ndarray | None:
        nonlocal rows, count, max_norm
        v = candidate.ravel(order="F")
        nrm = float(np.linalg.norm(v))
        max_norm = max(max_norm, nrm)
        if nrm <= rank_tol * max_norm:
            return None
        v = _orthogonal_part(rows[:count], v)
        res = float(np.linalg.norm(v))
        if res <= rank_tol * nrm:
            return None
        v = v / res
        if count == rows.shape[0]:  # grow geometrically, keeping memory O(dim * m^2)
            grown = np.empty((2 * count, m * m), dtype=complex)
            grown[:count] = rows
            rows = grown
        rows[count] = v
        count += 1
        return v.reshape((m, m), order="F")

    if unital:
        seeds = [np.eye(m, dtype=complex)]
        length = 0
    else:
        seeds = mats
        length = 1
    frontier = [mat for mat in (try_add(s) for s in seeds) if mat is not None]
    stabilization = length if frontier else 0

    for _ in range(m * m + 1):
        if not frontier:
            break
        new = []
        for g in mats:
            for b in frontier:
                # a basis of all of M_m takes no more candidates
                added = try_add(g @ b) if count < m * m else None
                if added is not None:
                    new.append(added)
        if new:
            length += 1
            stabilization = length
        frontier = new

    space = CoefficientSpace(m, tuple(unvec(v, m) for v in rows[:count]))
    return GeneratedAlgebra(space=space, unital=unital, stabilization_index=stabilization)


def _orthogonal_part(rows: np.ndarray, v: np.ndarray) -> np.ndarray:
    """``v`` minus its projection on the orthonormal ``rows``, by classical Gram-Schmidt
    applied twice ("twice is enough")."""
    for _ in range(2):
        v = v - (rows @ v.conj()).conj() @ rows
    return v


@dataclass(frozen=True)
class IrreducibilityReport:
    irreducible: bool
    dimension: int
    witness: np.ndarray | None
    strict_probes: int
    probes: int
    probes_consistent: bool


def irreducible_cp(
    tau: CpMap,
    rank_tol: float = RANK_TOL,
    psd_tol: float = PSD_TOL,
    rng: np.random.Generator | None = None,
) -> IrreducibilityReport:
    """Deterministic irreducibility test for a CP map on a block algebra.

    The verdict is the algebra-dimension criterion applied to a Kraus list of
    the canonical extension: the map is irreducible iff that list generates
    the full matrix algebra (dimension m^2).  When reducible, a witness
    matrix HS-orthogonal to the generated algebra is returned.

    A randomized corroborator applies ``(1 + T / ||T(1)||)^(m-1)``, ``T`` the
    extension, to ``_PROBES = 64`` random rank-one PSD probes; an image is
    strictly positive when ``lambda_min > psd_tol * lambda_max``, so the count
    does not depend on the map's scale.  For an irreducible map every image
    is, so a dimension-m^2 verdict with one that is not raises
    :class:`ConvergenceError` naming the count (``probes_consistent`` is True
    on every returned report).  Pass a seeded ``rng`` for reproducibility
    (default seed 0).
    """
    ext = canonical_extension(tau)
    gen = algebra_basis(ext.kraus, unital=False, rank_tol=rank_tol)
    m = tau.m
    verdict = gen.dimension == m * m

    witness = None
    if not verdict:
        u = np.linalg.svd(gen.space.stacked(), full_matrices=True)[0]  # eye if dimension 0
        witness = unvec(u[:, gen.dimension], m)

    rng = rng if rng is not None else np.random.default_rng(0)
    strict = int(np.count_nonzero(_probe_ratios(superop_matrix(ext), rng) > psd_tol))
    if verdict and strict < _PROBES:
        message = f"only {strict} of {_PROBES} probe images are strictly positive"
        raise ConvergenceError(f"algebra dimension {m * m} says irreducible, but {message}")
    return IrreducibilityReport(
        irreducible=verdict,
        dimension=gen.dimension,
        witness=witness,
        strict_probes=strict,
        probes=_PROBES,
        probes_consistent=True,
    )


def _probe_ratios(mat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """``lambda_min / lambda_max`` of ``(1 + T / ||T(1)||)^(m-1)`` applied to each of ``_PROBES`` probes.

    Probe ``k`` is ``h h*`` for ``h = (g[k, 0] + i g[k, 1]) / ||.||`` from one
    Gaussian draw ``g`` of shape ``(_PROBES, 2, m)``; the images are made
    Hermitian before their eigenvalues are taken.  ``T / ||T(1)||`` is CP of norm 1, so
    an image is at least its probe and at most ``2^(m-1)``: nothing overflows.
    """
    m = side_of(mat.shape[0])
    size = op_norm(unvec(mat @ vec(np.eye(m, dtype=complex)), m)) or 1.0
    g = rng.normal(size=(_PROBES, 2, m))
    h = g[:, 0] + 1j * g[:, 1]
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    # column k is vec(h_k h_k*): entry i + j*m is h_k[i] conj(h_k[j])
    probes = (h.conj()[:, :, None] * h[:, None, :]).reshape(_PROBES, m * m).T
    powered = np.linalg.matrix_power(np.eye(m * m, dtype=complex) + mat / size, m - 1)
    y = (powered @ probes).T.reshape(_PROBES, m, m).transpose(0, 2, 1)
    lam = np.linalg.eigvalsh((y + y.conj().transpose(0, 2, 1)) / 2.0)
    return lam[:, 0] / lam[:, -1]


def resolvent_gamma(tau: CpMap, b: float | None = None) -> tuple[SuperOperator, SuperOperator]:
    """Resolvent pair ``gamma0 = (1 - b tau)^(-1)`` and ``gamma1 = gamma0 - 1``.

    Both are CP when ``b > 0`` and ``b * r(tau) < 1``; their Choi ranks equal
    the dimensions of the unital / non-unital generated algebras of any Kraus
    list of ``tau``.  Default ``b = 1 / (2 max(1, r))``.
    """
    r = spectral_radius_of(tau)
    if b is None:
        b = 1.0 / (2.0 * max(1.0, r))
    if b <= 0.0 or b * r >= 1.0:
        raise PreconditionError(f"resolvent requires b > 0 and b * r < 1 (b={b}, r={r})")
    s = superop_matrix(tau)
    n = s.shape[0]
    g0 = np.linalg.solve(np.eye(n, dtype=complex) - b * s, np.eye(n, dtype=complex))
    m = tau.m
    return SuperOperator(m, g0), SuperOperator(m, g0 - np.eye(n))


def exp_eta(tau: CpMap, d: float = 1.0) -> tuple[SuperOperator, SuperOperator]:
    """Exponential pair ``eta0 = exp(d tau)`` and ``eta1 = eta0 - 1`` (both CP for d > 0)."""
    if d <= 0.0:
        raise PreconditionError("exp_eta requires d > 0")
    import scipy.linalg  # deferred: scipy is most of the package's import time

    s = superop_matrix(tau)
    e0 = scipy.linalg.expm(d * s)
    return SuperOperator(tau.m, e0), SuperOperator(tau.m, e0 - np.eye(s.shape[0]))


@dataclass(frozen=True)
class IdealCheck:
    is_subalgebra: bool
    is_ideal: bool
    subalgebra_residual: float
    ideal_residual: float
    dimension: int


def maximal_ideal_check(tau: CpMap, rank_tol: float = RANK_TOL) -> IdealCheck:
    """Closure checks for the Kraus span of the maximal part.

    With ``A_i`` a Kraus list of the canonical extension and ``B_j`` a Kraus
    list of its maximal part, span{B_j} must be closed under multiplication
    (a subalgebra) and under left/right multiplication by the ``A_i`` (an
    ideal in the generated algebra).  Residuals are HS projection gaps, and
    each closure holds when its residual is at most ``CHECK_TOL``.
    ``rank_tol`` reaches ``maximal_part``, ``kraus_of_choi`` and the cut of
    span{B_j}.
    """
    ext = canonical_extension(tau)
    mp = maximal_part(ext, rank_tol=rank_tol)
    b_list = kraus_of_choi(choi_of_superop(mp.superop), rank_tol=rank_tol)
    a_list = ext.kraus
    residual = coefficient_space(CpMap(tuple(b_list), ext.shape), rank_tol).residual
    sub_res = max(residual(bi @ bj) for bi in b_list for bj in b_list)
    ideal_res = max(
        max(residual(a @ b) for a in a_list for b in b_list),
        max(residual(b @ a) for a in a_list for b in b_list),
    )
    return IdealCheck(
        is_subalgebra=sub_res <= CHECK_TOL,
        is_ideal=ideal_res <= CHECK_TOL,
        subalgebra_residual=sub_res,
        ideal_residual=ideal_res,
        dimension=len(b_list),
    )
