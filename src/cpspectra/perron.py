"""Constructive Perron theory for positive maps on block-diagonal algebras.

Each call computes one complex Schur form ``T = q t q*``: the eigenvalues are
its diagonal, and degeneracy indices come from tolerant rank plateaus of
powers of ``t11 - lambda`` on a cluster's reordered Schur block; Jordan bases
are never formed.  The maximal part of a map is computed along two
independent routes and cross-checked:

* projection route: ``(T - r)^(d-1)`` composed with the spectral projector at
  the eigenvalue ``r``, from the same Schur form with the cluster at ``r``
  moved to the leading block (LAPACK ``trsen``) and the Sylvester equation
  between its triangular blocks solved directly (LAPACK ``trsyl``);
* second route, the limit of the averaged normalized powers
  ``(1/N) sum_n T^n / (binom(n, d-1) r^(n-d+1))``: for ``d = 1`` the Cesaro
  mean by exact partial-sum doubling with Richardson extrapolation; for
  ``d > 1`` its closed form, the resolvent integral
  ``(1/2 pi i) oint (z - r)^(d-1) (z - T)^(-1) dz`` by the trapezoidal rule on
  a circle about ``r``.

The same machinery yields Perron eigenvectors, the rank-one factorization of
the maximal part of irreducible CP maps, irreducibility tests through
canonical extensions, and bases of the algebra generated by a matrix tuple.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .cpmap import (
    CoefficientSpace,
    CpMap,
    SuperOperator,
    canonical_extension,
    choi_of_superop,
    coefficient_space,
    kraus_of_choi,
    superop_matrix,
)
from .errors import ConvergenceError, PreconditionError
from .mats import (
    CHECK_TOL,
    CLUSTER_TOL,
    PSD_TOL,
    RANK_TOL,
    as_matrix,
    eigenvalues,
    numerical_rank,
    op_norm,
    psd_report,
    side_of,
    unvec,
    vec,
)

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

    The eigenvalues are the diagonal of one complex Schur form ``T = q t q*``;
    clustering merges eigenvalues within ``CLUSTER_TOL * max(r, 1)``.  The
    degeneracy index of a cluster of multiplicity ``k > 1`` at ``value`` is
    read off the cluster's leading ``k x k`` block ``t11`` of the reordered
    Schur form: with ``N = (t11 - value) / ||T||_2``, it is the smallest
    ``j`` with ``rank(N^j) == rank(N^(j+1))`` under the tolerant rank, where
    a power of norm at most ``rank_tol`` has rank 0.  A simple cluster has
    index 1 without a rank test.
    """
    t, _, radius, clusters = _schur_clusters(superop_matrix(op))
    out = tuple(
        EigenCluster(c.value, int(c.members.sum()), _cluster_degeneracy(t, c, rank_tol))
        for c in clusters
    )
    delta = CLUSTER_TOL * max(radius, 1.0)
    peripheral = [c for c in out if abs(c.value) >= radius - delta]
    d_max = max((c.degeneracy for c in peripheral), default=0)
    maximal = tuple(c.value for c in peripheral if c.degeneracy == d_max)
    return SpectralStructure(clusters=out, radius=radius, d_max=d_max, maximal_spectrum=maximal)


class _Cluster(NamedTuple):
    value: complex
    members: np.ndarray  # mask over diag(t) of the Schur form


def _schur_clusters(mat: np.ndarray):
    """One complex Schur form ``mat = q t q*`` and the eigenvalue clusters on ``diag(t)``.

    Returns ``(t, q, radius, clusters)``, the clusters by decreasing modulus.
    """
    import scipy.linalg  # deferred: scipy is most of the package's import time

    try:
        t, q = scipy.linalg.schur(mat, output="complex", check_finite=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceError(f"Schur decomposition failed: {exc}") from exc
    eig = np.diag(t)
    n = eig.size
    radius = float(np.abs(eig).max()) if n else 0.0
    delta = CLUSTER_TOL * max(radius, 1.0)

    order = sorted(range(n), key=lambda i: (-abs(eig[i]), eig[i].real, eig[i].imag))
    taken = np.zeros(n, dtype=bool)
    clusters = []
    for idx in order:
        if taken[idx]:
            continue
        members = ~taken & (np.abs(eig - eig[idx]) <= delta)
        taken |= members
        clusters.append(_Cluster(complex(np.mean(eig[members])), members))
    return t, q, radius, clusters


def _cluster_degeneracy(t: np.ndarray, cluster: _Cluster, rank_tol: float) -> int:
    """Degeneracy index of a cluster of the Schur form ``t``; see :func:`_degeneracy`."""
    mult = int(cluster.members.sum())
    if mult == 1:  # the index never exceeds the multiplicity
        return 1
    return _degeneracy(_reorder(t, None, cluster.members)[0], mult, cluster.value, rank_tol)


def _degeneracy(t: np.ndarray, mult: int, value: complex, rank_tol: float) -> int:
    """Rank-plateau index of ``t11 - value``, ``t11`` the leading ``mult x mult`` block of ``t``.

    The block is divided by ``||t||_2 = ||T||_2``, so the index does not
    depend on the map's scale.
    """
    if mult == 1:
        return 1
    base = (t[:mult, :mult] - value * np.eye(mult)) / (op_norm(t) or 1.0)

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


def _reorder(t: np.ndarray, q: np.ndarray | None, members: np.ndarray):
    """Reorder a complex Schur form so the ``members`` of ``diag(t)`` lead (LAPACK ``trsen``).

    Returns ``(t, q)``; ``q`` is updated only when given.
    """
    from scipy.linalg import lapack

    ts, qs, _, sdim, _, _, info = lapack.ztrsen(  # q is a required argument even unused
        members.astype(np.int32), t, t if q is None else q, job="N", wantq=int(q is not None)
    )
    if info != 0 or sdim != int(members.sum()):
        raise ConvergenceError(f"Schur reordering failed (trsen info {info})")
    return ts, None if q is None else qs


def _spectral_projector(t: np.ndarray, q: np.ndarray, sdim: int) -> np.ndarray:
    """Riesz projection of ``q t q*`` onto the eigenvalues of the leading ``sdim x sdim`` block.

    ``t`` is a complex Schur form whose cluster already leads (see
    :func:`_reorder`); ``t11 y - y t22 = -t12`` is solved on the triangular
    blocks (LAPACK ``trsyl``), so no further Schur form is computed.
    """
    from scipy.linalg import lapack

    n = t.shape[0]
    if sdim == n:
        return np.eye(n, dtype=complex)
    t11, t12, t22 = t[:sdim, :sdim], t[:sdim, sdim:], t[sdim:, sdim:]
    y, scale, info = lapack.ztrsyl(t11, t22, -t12, isgn=-1)
    if info < 0:
        raise ConvergenceError(f"Sylvester solve failed (trsyl info {info})")
    # q [[1, -y], [0, 0]] q* = q1 (q1* - y q2*): rank sdim, with no n x n product
    q1 = q[:, :sdim]
    return q1 @ (q1.conj().T - (y / scale) @ q[:, sdim:].conj().T)


def _cesaro_limit(mat: np.ndarray, radius: float) -> np.ndarray:
    """Cesaro mean of ``(T / r)^n`` for ``d = 1``, by partial-sum doubling.

    The mean of ``N`` terms is ``P + K / N`` up to geometric decay (``K`` the
    reduced resolvent), so the Richardson value ``2 avg(2N) - avg(N)`` cancels
    the slow term.  Stops when two consecutive values agree within
    ``_CESARO_TOL`` relative to ``max(1, largest entry)``; ``N`` never exceeds
    ``_CESARO_TERMS``.
    """
    power = partial = avg = mat / radius  # partial: the sum of the first ``count`` powers
    count, prev = 1, None
    while 2 * count <= _CESARO_TERMS:
        partial = partial + power @ partial
        power = power @ power
        count *= 2
        avg, last = partial / count, avg
        cur = 2.0 * avg - last
        if prev is not None:
            scale = max(1.0, float(np.abs(cur).max()))
            if float(np.abs(cur - prev).max()) <= _CESARO_TOL * scale:
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

    Eigenvalues within ``CLUSTER_TOL = 1e-8`` (relative to ``max(r, 1)``)
    form one cluster; they, the degeneracy indices of the clusters on the
    spectral circle (see :func:`spectral_structure`) and ``P_r`` all come from
    one complex Schur form.  Primary route is the spectral projection
    ``(T - r)^(d-1) P_r``; the limit of averaged normalized powers is
    evaluated independently and both must agree within ``_ROUTE_TOL = 1e-6``
    (relative to the result's largest entry once that exceeds 1, since an
    ill-conditioned spectral projector inflates both routes alike).

    For ``d = 1`` the second route is the Cesaro mean of ``(T / r)^n`` over
    ``N = 2, 4, 8, ...`` terms with Richardson extrapolation; it stops when
    two consecutive values agree within ``_CESARO_TOL = 2.5e-7`` (relative
    to ``max(1, largest entry)``) and raises :class:`ConvergenceError` if
    that needs more than ``_CESARO_TERMS = 2**26`` terms.  For ``d > 1`` it
    is the trapezoidal rule with ``_CONTOUR_NODES = 64`` nodes for the
    resolvent integral on the circle about ``r`` of half the distance to the
    nearest other eigenvalue cluster.

    Raises on maps with zero spectral radius (nilpotent, no maximal part)
    and on maps whose spectral radius is not an eigenvalue or does not carry
    a largest Jordan block (the claimed positivity is then false).
    """
    mat = superop_matrix(phi)
    m = side_of(mat.shape[0])
    t, q, r, clusters = _schur_clusters(mat)
    if r <= 1e-300:
        raise PreconditionError(
            "maximal part is undefined when the spectral radius is zero"
        )
    delta = CLUSTER_TOL * max(r, 1.0)
    target = next((c for c in clusters if abs(c.value - r) <= delta), None)
    if target is None:
        raise PreconditionError(
            "spectral radius is not an eigenvalue; the map cannot be positive"
        )
    others = [
        _cluster_degeneracy(t, c, rank_tol)
        for c in clusters
        if c is not target and abs(c.value) >= r - delta
    ]
    # one reordering with the cluster at r leading gives both d and P_r
    sdim = int(target.members.sum())
    t_lead, q_lead = _reorder(t, q, target.members)
    d = _degeneracy(t_lead, sdim, target.value, rank_tol)
    if d < max(others, default=d):
        raise PreconditionError(
            "a peripheral eigenvalue away from the spectral radius has a larger "
            "Jordan block; the map cannot be positive"
        )

    proj = _spectral_projector(t_lead, q_lead, sdim)
    if d == 1:
        hat = proj
    else:
        hat = np.linalg.matrix_power(mat - r * np.eye(mat.shape[0]), d - 1) @ proj

    # relative beyond unit scale: ill-conditioned eigenbases inflate both
    # routes' entries by the same factor
    size = float(np.abs(hat).max())
    scale = max(1.0, size)
    if d == 1:
        route, other = "Cesaro", _cesaro_limit(mat, r)
    else:
        # half the distance to the nearest other cluster; with none, any circle will do
        rho = min((abs(c.value - r) for c in clusters if c is not target), default=r) / 2
        route, other = "contour", _contour_limit(mat, r, d, rho)
    gap = float(np.abs(hat - other).max())
    if gap > _ROUTE_TOL * scale:
        raise ConvergenceError(
            f"projection and {route} routes disagree by {gap:.3e} (> {_ROUTE_TOL})"
        )

    # relative at every scale: a nilpotent part with entries below 1e-8 is no projector
    sq = hat @ hat
    if float(np.abs(sq - hat).max()) < 1e-8 * size:
        idempotent = True
    elif float(np.abs(sq).max()) < 1e-8 * size:
        idempotent = False
    else:
        raise ConvergenceError(
            "maximal part is neither idempotent nor nilpotent within tolerance"
        )
    if idempotent != (d == 1):
        raise ConvergenceError(
            f"idempotency branch contradicts degeneracy index {d}"
        )
    return MaximalPart(
        superop=SuperOperator(m, hat),
        radius=r,
        degeneracy=d,
        idempotent=idempotent,
        route_gap=gap,
    )


def perron_vector(phi, psd_tol: float = PSD_TOL, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Positive eigenvector ``L = maximal_part(phi)(1)`` at the spectral radius."""
    mat = superop_matrix(phi)
    return _perron_of(maximal_part(mat, rank_tol=rank_tol), mat, psd_tol)


def _perron_of(mp: MaximalPart, mat: np.ndarray, psd_tol: float) -> np.ndarray:
    """``L = mp(1)``, made Hermitian and checked: non-zero, PSD, ``mat`` fixes it up to ``r``."""
    m = mp.superop.m
    ell = mp.superop(np.eye(m, dtype=complex))
    ell = (ell + ell.conj().T) / 2.0
    norm = float(np.linalg.norm(ell))
    if norm <= psd_tol:
        raise ConvergenceError("maximal part annihilates the identity")
    if not psd_report(ell, psd_tol * max(1.0, norm)).is_psd:
        raise ConvergenceError("computed Perron vector is not PSD")
    residual = float(np.linalg.norm(unvec(mat @ vec(ell), m) - mp.radius * ell))
    if residual > CHECK_TOL * norm:
        raise ConvergenceError(
            f"Perron eigenvector residual {residual:.3e} exceeds {CHECK_TOL} * ||L||"
        )
    return ell


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
    fixes ``vec(R)`` up to the factor ``r``).  The maximal part must be
    numerically rank one; anything else signals reducibility or a tolerance
    failure.
    """
    m = tau.m
    ext = canonical_extension(tau)
    dimension = algebra_basis(ext.kraus, unital=False, rank_tol=rank_tol).dimension
    if dimension != m * m:
        raise PreconditionError(
            f"map is reducible (generated algebra has dimension {dimension} < {m ** 2})"
        )
    mat = superop_matrix(ext)
    mp = maximal_part(mat, rank_tol=rank_tol)
    hat, r = mp.superop.matrix, mp.radius

    svals = np.linalg.svd(hat, compute_uv=False)
    rank_gap = float(svals[1] / svals[0]) if svals.size > 1 and svals[0] > 0 else 0.0
    if svals[0] == 0.0 or rank_gap > rank_tol:
        raise ConvergenceError(
            f"maximal part is not numerically rank one (sigma2/sigma1 = {rank_gap:.3e})"
        )

    ell = _perron_of(mp, mat, psd_tol)
    if not psd_report(ell, psd_tol).is_strictly_positive:
        raise ConvergenceError("Perron eigenvector of an irreducible map must be strictly positive")

    vl = vec(ell)
    raw_state = unvec(hat.conj().T @ vl / float(np.vdot(vl, vl).real), m)
    herm_gap = float(np.linalg.norm(raw_state - raw_state.conj().T))
    if herm_gap > CHECK_TOL * max(1.0, float(np.linalg.norm(raw_state))):
        raise ConvergenceError(
            f"recovered state is not Hermitian (gap {herm_gap:.3e}); not silently fixed"
        )
    state = (raw_state + raw_state.conj().T) / 2.0
    trace_raw = float(np.trace(state @ ell).real)
    state = state / trace_raw
    if not psd_report(state, psd_tol).is_strictly_positive:
        raise ConvergenceError("recovered state is not strictly positive")

    resid_eig = float(np.linalg.norm(unvec(mat @ vl, m) - r * ell))
    resid_adj = float(np.linalg.norm(mat.conj().T @ vec(state) - r * vec(state)))
    resid_trace = abs(trace_raw - 1.0)
    residuals = {
        "eigenvector": resid_eig,
        "adjoint": resid_adj,
        "state_trace": resid_trace,
        "rank_gap": rank_gap,
    }
    scale = max(1.0, float(np.linalg.norm(ell)))
    if resid_eig > CHECK_TOL * scale or resid_adj > CHECK_TOL or resid_trace > CHECK_TOL:
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
    """
    mats = [as_matrix(a) for a in mats_list]
    if not mats:
        raise PreconditionError("tuple of matrices must be non-empty")
    m = mats[0].shape[0]
    for a in mats:
        if a.shape != (m, m):
            raise PreconditionError("all matrices must share one square side")

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

    A randomized corroborator additionally applies ``(1 + ext)^(m-1)`` to
    ``_PROBES = 64`` random rank-one PSD probes; for an irreducible map every
    probe must come out strictly positive.  The probes can refute but never
    certify irreducibility, so ``probes_consistent`` only flags the
    contradictory case.  Pass a seeded ``rng`` for reproducibility (default
    seed 0).
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
    strict = int(np.count_nonzero(_probe_minima(superop_matrix(ext), rng) > psd_tol))
    return IrreducibilityReport(
        irreducible=verdict,
        dimension=gen.dimension,
        witness=witness,
        strict_probes=strict,
        probes=_PROBES,
        probes_consistent=not (verdict and strict < _PROBES),
    )


def _probe_minima(mat: np.ndarray, rng: np.random.Generator) -> np.ndarray:
    """Smallest eigenvalue of ``(1 + T)^(m-1)`` applied to each of ``_PROBES`` probes.

    Probe ``k`` is ``h h*`` for ``h = (g[k, 0] + i g[k, 1]) / ||.||`` from one
    Gaussian draw ``g`` of shape ``(_PROBES, 2, m)``; the images are made
    Hermitian before their eigenvalues are taken.
    """
    m = side_of(mat.shape[0])
    g = rng.normal(size=(_PROBES, 2, m))
    h = g[:, 0] + 1j * g[:, 1]
    h /= np.linalg.norm(h, axis=1, keepdims=True)
    # column k is vec(h_k h_k*): entry i + j*m is h_k[i] conj(h_k[j])
    probes = (h.conj()[:, :, None] * h[:, None, :]).reshape(_PROBES, m * m).T
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        powered = np.linalg.matrix_power(np.eye(m * m, dtype=complex) + mat, m - 1)
        y = (powered @ probes).T.reshape(_PROBES, m, m).transpose(0, 2, 1)
    if not np.isfinite(y).all():
        raise ConvergenceError("probe images of (1 + T)^(m-1) overflow")
    return np.linalg.eigvalsh((y + y.conj().transpose(0, 2, 1)) / 2.0)[:, 0]


def resolvent_gamma(tau: CpMap, b: float | None = None) -> tuple[SuperOperator, SuperOperator]:
    """Resolvent pair ``gamma0 = (1 - b tau)^(-1)`` and ``gamma1 = gamma0 - 1``.

    Both are CP when ``b > 0`` and ``b * r(tau) < 1``; their Choi ranks equal
    the dimensions of the unital / non-unital generated algebras of any Kraus
    list of ``tau``.  Default ``b = 1 / (2 max(1, r))``.
    """
    s = superop_matrix(tau)
    r = float(np.abs(eigenvalues(s)).max())
    if b is None:
        b = 1.0 / (2.0 * max(1.0, r))
    if b <= 0.0 or b * r >= 1.0:
        raise PreconditionError(f"resolvent requires b > 0 and b * r < 1 (b={b}, r={r})")
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
