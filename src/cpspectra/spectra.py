"""Spectral radii of matrix tuples and positive maps.

Covers the plain spectral radius of a map, the outer spectral radius of a
tuple (square root of the spectral radius of the associated CP map), brute
force and tensor-power bounds for the joint spectral radius, scaled-norm and
eigenvalue-quotient evaluators, resolvent witnesses and similarity balancing,
which runs on the Schur and Jordan-block kernel of :mod:`cpspectra.mats` and
scales the interior block by the root of one Stein equation.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

import numpy as np

from .algebra import AlgebraShape, compress, in_algebra
from .cpmap import AlgebraMap, CpMap, algebra_map, superop_matrix
from .errors import BudgetExceededError, ConvergenceError, PreconditionError
from .mats import (
    CHECK_TOL,
    CONV_TOL,
    PSD_TOL,
    RANK_TOL,
    as_matrices,
    as_matrix,
    frobenius_norm,
    inverse,
    kron,
    of_side,
    op_norm,
    peripheral,
    psd_report,
    psd_sqrt,
    reorder_schur,
    schur,
    schur_sylvester,
    spectral_radius,
    unvec,
    vec,
)

__all__ = [
    "RadiusBounds",
    "JsrEstimate",
    "BalanceResult",
    "NormAchievingResult",
    "spectral_radius_of",
    "spectral_radius_bounds",
    "positive_map_norm",
    "outer_radius",
    "outer_radius_gelfand",
    "jsr_brute",
    "jsr_tensor_approx",
    "scaled_outer_radius",
    "friedland_value",
    "neumann_witness",
    "conjugate_map",
    "norm_achieving_check",
    "balance_similarity",
    "singular_psd_combination",
]


_KRAUS_STEPS = 400  # step cap of the matrix-free iterations
_CHECK_EVERY = 5  # power steps between two brackets
_BRACKET_TOL = 1e-12  # relative width at which a bracket counts as closed
_POSITIVE_FLOOR = 1e-10  # lambda_min(w) / lambda_max(w) below which w is not strictly positive
_TENSOR_SIDE = 4096  # largest superoperator side C(m+k-1, k)^2 of jsr_tensor_approx
_BALANCE_SLACK = 1e-6  # relative excess of the balanced norm over r


def _finite(x: np.ndarray, what: str) -> np.ndarray:
    """``x`` itself; :class:`ConvergenceError` when an entry overflowed."""
    if not np.isfinite(x).all():
        raise ConvergenceError(f"{what} overflows")
    return x


def _action(phi) -> CpMap | AlgebraMap:
    """The map object that applies ``phi`` by its ``step``: a CpMap, else :func:`algebra_map`."""
    return phi if isinstance(phi, CpMap) else algebra_map(phi)


def _image(step, x: np.ndarray, what: str) -> np.ndarray:
    """``step(x)``; :class:`ConvergenceError` when an entry overflows."""
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        image = step(x)
    return _finite(image, what)


def _positive_element(w, shape: AlgebraShape, psd_tol: float, name: str) -> np.ndarray:
    """``w`` as a matrix; :class:`PreconditionError` unless strictly positive in the algebra."""
    w = as_matrix(w)
    if not in_algebra(w, shape, psd_tol):
        raise PreconditionError(f"{name} must belong to the block algebra")
    if not psd_report(w, psd_tol).is_strictly_positive:
        raise PreconditionError(f"{name} must be strictly positive")
    return w


@dataclass(frozen=True)
class RadiusBounds:
    """Certified bracket ``lower <= r(tau) <= upper`` at a strictly positive ``w``.

    ``w`` lies in the block algebra, and ``lower`` and ``upper`` are the
    extreme eigenvalues of ``w^(-1/2) E(tau(w)) w^(-1/2)``; for a map that
    keeps its algebra, ``upper`` is ``friedland_value(tau, w)``.  ``steps``
    counts the applications of the map.
    """

    lower: float
    upper: float
    steps: int
    w: np.ndarray


def spectral_radius_bounds(tau: CpMap) -> RadiusBounds:
    """Bracket the spectral radius of a CP map without its superoperator.

    A block-shaped map means ``iota o tau o E``; its nonzero spectrum is that
    of ``psi = E o tau`` on the algebra, since ``TM`` and ``MTM`` share their
    nonzero eigenvalues.  Power iteration ``x <- psi(x) / ||psi(x)||`` from
    ``x = 1`` runs through the Kraus list.  Every few steps the iterate ``w``
    gives the bracket ``lambda_min <= r <= lambda_max`` of
    ``w^(-1/2) psi(w) w^(-1/2)``, valid at any strictly positive ``w`` (the
    upper end is the Wielandt-Friedland quotient).  Returns once
    ``upper - lower <= 1e-12 * upper``.

    Raises :class:`ConvergenceError` when an iterate loses strict
    positivity (``lambda_min(w) <= 1e-10 * lambda_max(w)``, as on reducible
    maps), when ``tau(x)`` is 0, overflows or is NaN, or when 400 steps do
    not close the bracket.
    """
    if not isinstance(tau, CpMap):
        raise PreconditionError("spectral_radius_bounds requires a CpMap")
    x = np.eye(tau.m, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for n in range(_KRAUS_STEPS):
            y = tau.step(x)
            if not tau.shape.is_full:
                y = compress(y, tau.shape)
            y = (y + y.conj().T) / 2.0
            size = float(np.linalg.norm(y))
            if not 0.0 < size < math.inf:
                raise ConvergenceError(f"the map sends its iterate to {size} at step {n + 1}")
            if n % _CHECK_EVERY == 0:
                lam, u = np.linalg.eigh(x)
                if not lam[0] > _POSITIVE_FLOOR * lam[-1]:
                    raise ConvergenceError(
                        f"power iterate lost strict positivity at step {n}"
                        f" (eigenvalue ratio {lam[0] / lam[-1]:.3e})"
                    )
                root_inv = u / np.sqrt(lam)
                quotient = np.linalg.eigvalsh(root_inv.conj().T @ y @ root_inv)
                lower, upper = float(quotient[0]), float(quotient[-1])
                if upper - lower <= _BRACKET_TOL * upper:
                    return RadiusBounds(lower, upper, n + 1, x)
            x = y / size
    raise ConvergenceError(
        f"radius bracket did not close within {_KRAUS_STEPS} steps"
        f" (last width {upper - lower:.3e} at {upper:.6e})"
    )


def _bracket_midpoint(op) -> float | None:
    """Midpoint of the closed :func:`spectral_radius_bounds` of a CpMap; None for
    any other map, and where the bracket raises :class:`ConvergenceError`."""
    if not isinstance(op, CpMap):
        return None
    try:
        bounds = spectral_radius_bounds(op)
    except ConvergenceError:
        return None
    return (bounds.lower + bounds.upper) / 2.0


def spectral_radius_of(op) -> float:
    """Spectral radius of a map given as CpMap / AlgebraMap / SuperOperator / matrix.

    A CpMap returns the midpoint of its :func:`spectral_radius_bounds`, at any
    side; the dense ``eig`` of the superoperator answers where no bracket
    closes (periodic, reducible or zero maps) and for every other input.
    """
    r = _bracket_midpoint(op)
    return spectral_radius(superop_matrix(op)) if r is None else r


def positive_map_norm(op) -> float:
    """Norm of a positive map, ``||phi|| = ||phi(1)||``, applied by the map object's ``step``."""
    act = _action(op)
    return op_norm(_image(act.step, np.eye(act.m, dtype=complex), "the image of 1"))


def _tuple_map(mats) -> CpMap:
    return CpMap(tuple(mats), AlgebraShape.full(mats[0].shape[0]))


def outer_radius(mats_list) -> float:
    """Outer spectral radius of a tuple: sqrt of the CP map's spectral radius."""
    mats = as_matrices(mats_list)
    return math.sqrt(spectral_radius_of(_tuple_map(mats)))


def outer_radius_gelfand(mats_list, n: int) -> float:
    """Gelfand-style estimate ``||tau^n(1)||^(1/2n)`` for the outer radius.

    Never enumerates the d^n products: the Kraus action is applied n times
    to 1, at ``O(d m^3)`` a step.  Each image is renormalized and its scale
    accumulated in a log, so that large ``n`` neither overflows nor
    underflows.
    """
    mats = as_matrices(mats_list)
    if n < 1:
        raise PreconditionError("outer_radius_gelfand requires n >= 1")
    tau = _tuple_map(mats)
    x, log_x = np.eye(tau.m, dtype=complex), 0.0
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for _ in range(n):
            x = tau.step(x)
            scale = float(np.abs(x).max())
            if scale == 0.0:
                return 0.0
            if not math.isfinite(scale):
                raise ConvergenceError("the Kraus iterate overflows")
            x, log_x = x / scale, log_x + math.log(scale)
    return math.exp((log_x + math.log(op_norm(x))) / (2.0 * n))


@dataclass(frozen=True)
class JsrEstimate:
    """Two-sided joint spectral radius estimate with its method tag."""

    lower: float
    upper: float
    method: str
    parameter: int

    def __post_init__(self):
        if self.lower > self.upper * (1.0 + 1e-12):
            raise ConvergenceError(
                f"inconsistent JSR bounds: lower {self.lower} > upper {self.upper}"
            )


def jsr_brute(mats_list, n_max: int, budget: int = 10**6) -> JsrEstimate:
    """Brute-force joint spectral radius bounds from words up to length n_max.

    upper = min over n of max over length-n words of ``||product||^(1/n)``;
    lower = max over enumerated words of ``r(product)^(1/|word|)``, with eigenvalues for
    one Lyndon word per primitive necklace: rotations of a word share its spectrum, and
    ``W = U^j``, ``|U| = n0``, has ``r(W)^(1/(j n0)) = r(U)^(1/n0)``.  The enumeration size
    ``d + d^2 + ... + d^n_max`` must fit the budget; it is summed only when its leading
    power ``d^n_max`` is at most ``2^64 (|budget| + 1)``, so a huge ``n_max`` is refused at
    once, naming that power.
    """
    mats = as_matrices(mats_list)
    if n_max < 1:
        raise PreconditionError("jsr_brute requires n_max >= 1")
    d = len(mats)
    # d^n_max > 2^64 (|budget| + 1), decided in logs; an int n_max past the float range compares exactly
    if d > 1 and n_max > (64.0 + math.log2(abs(budget) + 1)) / math.log2(d):
        raise BudgetExceededError(
            f"word enumeration size of at least {d}^{n_max} exceeds the budget {budget}"
        )
    total = n_max if d == 1 else (d ** (n_max + 1) - d) // (d - 1)
    if total > budget:
        raise BudgetExceededError(
            f"word enumeration size {total} exceeds the budget {budget}"
        )
    gens = np.stack(mats)
    level = gens
    lower, upper = 0.0, math.inf
    for n in range(1, n_max + 1):
        if n > 1:
            with np.errstate(over="ignore", invalid="ignore"):  # reported below
                level = np.matmul(level[:, None], gens[None]).reshape(-1, *gens.shape[1:])
        try:
            svals = np.linalg.svd(level, compute_uv=False)
            radii_max = float(np.abs(np.linalg.eigvals(level[_lyndon_words(d, n)])).max(initial=0.0))
        except np.linalg.LinAlgError as exc:
            _finite(level, f"the products of {n} letters")
            raise ConvergenceError(f"words of length {n}: {exc}") from exc
        norms_max = float(svals[:, 0].max())
        upper = min(upper, norms_max ** (1.0 / n))
        lower = max(lower, radii_max ** (1.0 / n))
    return JsrEstimate(lower, upper, "brute", n_max)


def _lyndon_words(d: int, n: int) -> np.ndarray:
    """Indices of the length-n words over d letters that are strictly less than each
    nontrivial cyclic rotation; a word's index has its first letter most significant."""
    words = np.arange(d**n)
    least, rotated = d**n, words
    for _ in range(n - 1):
        rotated = (rotated % d ** (n - 1)) * d + rotated // d ** (n - 1)
        least = np.minimum(least, rotated)
    return words[words < least]


def _symmetric_lifts(m: int, k: int) -> list[np.ndarray]:
    """The real isometries ``W_j`` of ``Sym^j(C^m)`` into ``C^m (x) Sym^(j-1)(C^m)``, j = 2..k.

    The basis of ``Sym^j`` is the sorted index tuples ``t`` in lexicographic
    order, ``e_t`` the normalised sum of the distinct rearrangements of ``t``.
    Grouping the rearrangements by their first letter gives
    ``e_t = sum_i sqrt(mult_t(i) / j) e_i (x) e_(t - i)``, with rows ordered
    like :func:`numpy.kron`.
    """
    lifts = []
    index = {(i,): i for i in range(m)}
    for j in range(2, k + 1):
        tuples = list(itertools.combinations_with_replacement(range(m), j))
        w = np.zeros((m * len(index), len(tuples)))
        for col, t in enumerate(tuples):
            for i in set(t):
                rest = list(t)
                rest.remove(i)
                w[i * len(index) + index[tuple(rest)], col] = math.sqrt(t.count(i) / j)
        lifts.append(w)
        index = {t: n for n, t in enumerate(tuples)}
    return lifts


def _lifted_radius(tau: CpMap, k: int) -> float:
    """Spectral radius of the map of a lifted tuple, checked to be well determined.

    A closed Kraus bracket is certified.  Otherwise the dense ``eig`` of the
    superoperator ``M`` moves each eigenvalue ``lambda_j`` by about
    ``eps ||M||_F ||x_j|| ||y_j||`` (first order, ``y_j*`` the rows of the
    inverse eigenvector matrix), and the spectral radius lies between the
    largest ``|lambda_j| -`` and ``|lambda_j| +`` that error.  Raises
    :class:`ConvergenceError` when this bracket, carried to the k-th root
    bound ``r^(1/2k)``, is wider than ``CHECK_TOL`` relative; a singular
    eigenvector matrix (a defective eigenvalue) gives no bound and raises too.
    """
    r = _bracket_midpoint(tau)
    if r is not None:
        return r
    mat = superop_matrix(tau)
    lam, right = np.linalg.eig(mat)
    try:
        left = np.linalg.inv(right)
    except np.linalg.LinAlgError:  # a defective eigenvalue: no first-order bound
        left = np.full_like(right, np.inf)
    mag = np.abs(lam)
    radius = float(mag.max())
    with np.errstate(over="ignore", invalid="ignore"):
        err = (
            np.finfo(float).eps
            * np.linalg.norm(mat)
            * np.linalg.norm(right, axis=0)
            * np.linalg.norm(left, axis=1)
        )
        width = float(np.max(mag + err) - max(np.max(mag - err), 0.0))
    if not width <= 2.0 * k * CHECK_TOL * radius:
        raise ConvergenceError(
            f"lifted spectral radius {radius:.6e} is ill-conditioned at k = {k}"
            f" (first-order error bracket of width {width:.3e})"
        )
    return radius


def jsr_tensor_approx(mats_list, k: int) -> JsrEstimate:
    """Joint spectral radius sandwich from k-fold symmetric tensor powers.

    ``A^(x)k`` leaves ``Sym^k(C^m)``, of dimension ``D = C(m+k-1, k)``,
    invariant, and on it ``||A_w^(x)k|| = ||A_w||^k`` (attained at
    ``v^(x)k``), so the restricted tuple ``B_i = V* A_i^(x)k V`` has joint
    spectral radius ``rho^k``.  With ``rho_k`` its outer radius,
    ``d^(-1/2k) * rho_k^(1/k) <= rho <= rho_k^(1/k)``.  ``B_i`` is built by
    ``B^(j) = W_j* (A_i (x) B^(j-1)) W_j`` (see :func:`_symmetric_lifts`), so
    no m^k-side power is formed.  Raises :class:`BudgetExceededError` when
    the superoperator side ``D^2`` exceeds ``_TENSOR_SIDE = 4096``.

    k = 1 is :func:`outer_radius` of the tuple itself.  From k = 2 the
    lifted radius must be well determined (:func:`_lifted_radius`): for a
    non-normal tuple the eigenvalue's condition grows with k, and where its
    error could move ``rho_k^(1/k)`` by more than ``CHECK_TOL = 1e-8``
    relative, :class:`ConvergenceError` is raised in place of bounds.
    """
    mats = as_matrices(mats_list)
    if k < 1:
        raise PreconditionError("jsr_tensor_approx requires k >= 1")
    m, d = mats[0].shape[0], len(mats)
    side = math.comb(m + k - 1, k) ** 2
    if side > _TENSOR_SIDE:
        raise BudgetExceededError(
            f"symmetric-power superoperator side {side} exceeds {_TENSOR_SIDE}"
        )
    if k == 1:
        rho_k = outer_radius(mats)
    else:
        lifts = _symmetric_lifts(m, k)
        powers = []
        with np.errstate(over="ignore", invalid="ignore"):  # reported below
            for a in mats:
                b = a
                for w in lifts:
                    b = _finite(w.T @ kron(a, b) @ w, "the symmetric tensor power")
                powers.append(b)
        rho_k = math.sqrt(_lifted_radius(_tuple_map(powers), k))
    upper = rho_k ** (1.0 / k)
    lower = d ** (-1.0 / (2.0 * k)) * upper
    return JsrEstimate(lower, upper, "tensor_power", k)


def scaled_outer_radius(mats_list, v, psd_tol: float = PSD_TOL) -> float:
    """Scaled-norm upper evaluator ``|| sum (v A v^-1)* (v A v^-1) ||^(1/2)``.

    Always at least the outer radius; equality is approached at Perron-type
    scalings.  ``v`` must be strictly positive.
    """
    mats = as_matrices(mats_list)
    v = of_side(v, mats[0].shape[0])
    if not psd_report(v, psd_tol).is_strictly_positive:
        raise PreconditionError("scaling matrix v must be strictly positive")
    vi = inverse(v)
    total = np.zeros_like(mats[0])
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        for a in mats:
            b = v @ a @ vi
            total = total + b.conj().T @ b
    return math.sqrt(op_norm(_finite(total, "the scaled sum")))


def friedland_value(phi, w, psd_tol: float = PSD_TOL) -> float:
    """Eigenvalue-quotient evaluator ``r(w^-1 phi(w))`` at a strictly positive w.

    Always at least the spectral radius of the (positive) map; equality holds
    at a Perron eigenvector.
    """
    act = _action(phi)
    w = _positive_element(w, act.shape, psd_tol, "w")
    return spectral_radius(inverse(w) @ _image(act.step, w, "phi(w)"))


def neumann_witness(phi, s: float, conv_tol: float = CONV_TOL, psd_tol: float = PSD_TOL) -> np.ndarray:
    """Witness ``w = (id - phi/s)^(-1)(1)`` of ``r(phi) < s``.

    Satisfies ``phi(w) = s (w - 1)`` and ``w >= 1``, and is the same matrix for ``(c phi, c s)``
    at every ``c > 0``: each gate compares with ``conv_tol * s``, the scale of ``s (w - 1)``.
    Raises on an infinite ``s``, on ``s <= r`` (and on NaN ``s``), on ``s - r <= 10 conv_tol s``
    and on near-singular solves whose residual ``||phi(w) - s (w - 1)||`` reaches ``conv_tol s``.
    ``w >= 1`` has unit scale, so ``lambda_min(w - 1) >= -psd_tol`` is absolute.  Every map is
    solved by the fixed point ``w <- 1 + phi(w)/s`` through its ``step`` (a CpMap's Kraus list,
    any other map's superoperator), at any side, to a residual below ``1e-2 conv_tol s``, and by
    the dense solve when it stalls or when its contraction rate ``r/s`` shows before the loop
    that it cannot converge in time.
    """
    if math.isinf(s):
        raise PreconditionError(f"neumann_witness requires a finite s (got {s})")
    act = _action(phi)
    r = spectral_radius_of(act)
    if not s > r:
        raise PreconditionError(f"neumann_witness requires s > r(phi) = {r}")
    if s - r <= 10.0 * conv_tol * s:
        raise ConvergenceError(
            f"resolvent at s = {s} is near-singular (spectral radius {r})"
        )
    m = act.m
    one = np.eye(m, dtype=complex)
    tol = 1e-2 * conv_tol * s
    # iterate n leaves s ||(phi/s)^(n+1)(1)|| >= s (r/s)^(n+1) for a positive map: hopeless within the cap?
    w = None if s * (r / s) ** _KRAUS_STEPS >= tol else _neumann_iterate(act.step, s, one, tol)
    if w is None:
        w = unvec(np.linalg.solve(np.eye(m * m) - superop_matrix(act) / s, vec(one)), m)
    w = (w + w.conj().T) / 2.0
    residual = float(np.linalg.norm(act(w) - s * (w - one)))
    if residual >= conv_tol * s:
        raise ConvergenceError(
            f"resolvent solve is near-singular (residual {residual:.3e} >= {conv_tol} * s)"
        )
    low = psd_report(w - one, psd_tol).min_eigenvalue  # w is Hermitian
    if low < -psd_tol:
        raise ConvergenceError(f"negative witness: min eigenvalue of w - 1 is {low:.3e}")
    return w


def _neumann_iterate(step, s: float, one: np.ndarray, tol: float) -> np.ndarray | None:
    """Fixed point of ``w <- 1 + phi(w) / s`` through ``step = phi``, converging at
    rate ``r / s``; None when ``||phi(w) - s (w - 1)|| < tol`` is not reached
    within the step cap."""
    w = one
    for _ in range(_KRAUS_STEPS):
        image = step(w)
        if np.linalg.norm(image - s * (w - one)) < tol:
            return w
        w = one + image / s
    return None


def conjugate_map(phi, v, psd_tol: float = PSD_TOL) -> AlgebraMap:
    """Similarity ``x -> v^-1 phi(v x v) v^-1`` for strictly positive v in the algebra.

    Preserves the spectral radius; its norm is ``||v^-1 phi(v^2) v^-1||``.
    """
    phi = algebra_map(phi)
    v = _positive_element(v, phi.shape, psd_tol, "v")
    vi = inverse(v)
    outer_k = kron(v.T, v.conj().T)
    inner_k = kron(vi.T, vi.conj().T)
    mat = inner_k @ superop_matrix(phi) @ outer_k
    return algebra_map(mat, phi.shape)


@dataclass(frozen=True)
class NormAchievingResult:
    v: np.ndarray
    norm: float
    radius: float


def norm_achieving_check(phi, w, psd_tol: float = PSD_TOL) -> NormAchievingResult:
    """Constructive check that conjugation by ``v = w^(1/2)`` achieves norm = radius.

    Requires ``phi(w) <= r w``: ``r w - phi(w)`` must be Hermitian and PSD within
    ``psd_tol * r * ||w||``, its rounding scale, else its violating eigenvalue is
    reported.  The conjugated norm, ``||v^-1 phi(w) v^-1||`` for a positive map,
    must meet ``r`` within ``CHECK_TOL * r``.  The map applies itself by its ``step``.
    """
    act = _action(phi)
    w = _positive_element(w, act.shape, psd_tol, "w")
    r = spectral_radius_of(act)
    image = _image(act.step, w, "phi(w)")
    slack, scale = r * w - image, r * frobenius_norm(w)
    low = float(np.linalg.eigvalsh((slack + slack.conj().T) / 2.0).min())
    if frobenius_norm(slack - slack.conj().T) > psd_tol * scale or low < -psd_tol * scale:
        raise PreconditionError(f"phi(w) <= r*w fails: violating eigenvalue {low:.6e}")
    v = psd_sqrt(w, psd_tol)
    vi = inverse(v)
    norm = op_norm(vi @ image @ vi)
    if abs(norm - r) > CHECK_TOL * r:
        raise ConvergenceError(
            f"conjugated norm {norm} misses the spectral radius {r} by {abs(norm - r):.3e}"
        )
    return NormAchievingResult(v=v, norm=norm, radius=r)


@dataclass(frozen=True)
class BalanceResult:
    p: np.ndarray
    norm: float
    radius: float


def balance_similarity(a) -> BalanceResult:
    """Invertible P with ``||P a P^-1|| <= r(a) * (1 + _BALANCE_SLACK)``, slack ``1e-6``.

    Exists exactly when the normalized powers ``(a/r)^n`` stay bounded, that is when no
    peripheral eigenvalue carries a Jordan block.  On one complex Schur form of ``a``, ``r``,
    the peripheral clusters and their degeneracy indices are :func:`~cpspectra.mats.peripheral`'s,
    the window of :func:`~cpspectra.perron.spectral_structure` and ``maximal_part`` too; a
    degeneracy above 1 raises :class:`PreconditionError`.  They are moved to lead and
    diagonalized by their eigenvectors; the interior block ``t22`` is decoupled by the
    Sylvester solve and scaled by ``C``, the Cholesky root of ``X = C* C`` solving the Stein
    equation ``X - S* X S = 1`` for ``S = t22 / (r rho)``, ``rho = (1 + mu) / 2`` and ``mu``
    the largest interior ``|lambda| / r``.  Then ``||C t22 C^-1||^2 <= r^2 rho^2 ||1 - X^-1||``.
    Smith's doubling sums ``X = sum_k (S^k)* S^k`` as ``X <- X + A* X A``, ``A <- A^2`` until
    ``||A||_F^2 <= eps``.  An overflow, a failed Cholesky factorisation or a norm above the
    slack raises :class:`ConvergenceError`; a non-square ``a`` is a :class:`FormatError`.
    """
    a = as_matrix(a)
    n = a.shape[0]
    t, q = schur(a)
    spec = peripheral(t)
    r = spec.radius
    if r <= 1e-300:
        raise PreconditionError("balance_similarity requires a positive spectral radius")
    if max(spec.degeneracy.values()) > 1:
        raise PreconditionError("unbounded normalized powers (peripheral Jordan block detected)")
    members = np.logical_or.reduce([spec.clusters[k].members for k in spec.degeneracy])
    t, q, p_count = reorder_schur(t, q, members)

    vmat = np.linalg.eig(t[:p_count, :p_count])[1]
    vmat = vmat / np.linalg.norm(vmat, axis=0, keepdims=True)
    # P = f g_inv w_inv q*: w_inv decouples the interior block, g_inv diagonalizes the
    # peripheral one, and f scales the interior one
    w_inv = np.eye(n, dtype=complex)
    w_inv[:p_count, p_count:] = -schur_sylvester(t, p_count)
    g_inv = np.eye(n, dtype=complex)
    g_inv[:p_count, :p_count] = np.linalg.inv(vmat)
    t22 = t[p_count:, p_count:] / r
    s = t22 / ((1.0 + float(np.abs(np.diag(t22)).max(initial=0.0))) / 2.0)
    x, f = np.eye(n - p_count, dtype=complex), np.eye(n, dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):  # reported below
        # a float mu / rho = 2 mu / (1 + mu) below 1 is at most 1 - 2^-53, and (1 - 2^-53)^(2^64)
        # underflows: 64 doublings take S^(2^k) below eps unless it overflows; the norm check decides
        for _ in range(64):
            if np.linalg.norm(s) ** 2 <= np.finfo(float).eps:
                break
            x, s = x + s.conj().T @ x @ s, s @ s
        try:
            f[p_count:, p_count:] = np.linalg.cholesky(_finite(x, "the Stein doubling")).conj().T
        except np.linalg.LinAlgError as exc:
            raise ConvergenceError("the Stein solution is not positive definite") from exc
        p_full = f @ g_inv @ w_inv @ q.conj().T
        balanced = p_full @ a @ np.linalg.inv(p_full)
    norm = op_norm(_finite(balanced, "the balanced matrix"))
    if norm > r * (1.0 + _BALANCE_SLACK):
        raise ConvergenceError(f"balanced norm {norm} exceeds the spectral radius {r} past the slack")
    return BalanceResult(p=p_full, norm=norm, radius=r)


def singular_psd_combination(w1, w2, psd_tol: float = PSD_TOL, rank_tol: float = RANK_TOL) -> np.ndarray:
    """Non-zero singular PSD element of span{w1, w2} for independent PSD inputs.

    If either input is already singular it is returned directly; otherwise
    the combination ``w1 - w2/d`` with ``d = r(w1^-1/2 w2 w1^-1/2)`` is
    singular and PSD.
    """
    w1 = as_matrix(w1)
    w2 = of_side(w2, w1.shape[0])
    rep1, rep2 = psd_report(w1, psd_tol), psd_report(w2, psd_tol)
    if not rep1.is_psd or not rep2.is_psd:
        raise PreconditionError("inputs must both be PSD")
    v1, v2 = vec(w1), vec(w2)
    n1, n2 = np.linalg.norm(v1), np.linalg.norm(v2)
    if n1 == 0.0 or n2 == 0.0 or abs(np.vdot(v1, v2)) >= (1.0 - 1e-12) * n1 * n2:
        raise PreconditionError("inputs must be linearly independent")
    if not rep1.is_strictly_positive:
        return w1
    if not rep2.is_strictly_positive:
        return w2
    root_inv = inverse(psd_sqrt(w1, psd_tol), rank_tol)
    d = spectral_radius(root_inv @ w2 @ root_inv)
    w3 = w1 - w2 / d
    return (w3 + w3.conj().T) / 2.0
