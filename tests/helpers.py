"""Shared random generators for the test suite (all explicitly seeded by callers)."""

import numpy as np

from cpspectra import AlgebraShape, CpMap, unvec, vec
from cpspectra.mats import CLUSTER_TOL, side_of


def random_matrix(rng, m, scale=1.0):
    return scale * (rng.normal(size=(m, m)) + 1j * rng.normal(size=(m, m))) / np.sqrt(2 * m)


def random_psd(rng, m):
    a = random_matrix(rng, m)
    return a @ a.conj().T


def random_strictly_positive(rng, m):
    return random_psd(rng, m) + (0.2 + rng.uniform()) * np.eye(m)


def random_unitary(rng, m):
    q, r = np.linalg.qr(random_matrix(rng, m))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def block_unitary(rng, shape):
    """A unitary that is block diagonal in ``shape``, so conjugation keeps the algebra."""
    u = np.zeros((shape.m, shape.m), dtype=complex)
    for sl in shape.slices():
        u[sl, sl] = random_unitary(rng, sl.stop - sl.start)
    return u


def random_normal_matrix(rng, m, radius=1.0):
    """Unitary conjugation of a diagonal, max |eigenvalue| exactly ``radius``."""
    mags = rng.uniform(0.2, 1.0, size=m)
    mags[int(rng.integers(m))] = 1.0
    phases = np.exp(2j * np.pi * rng.uniform(size=m))
    u = random_unitary(rng, m)
    return u @ np.diag(radius * mags * phases) @ u.conj().T


def random_block_kraus(rng, shape, terms=4, scale=1.0):
    """Kraus operators each supported on one (block, block) rectangle, so the
    induced CP map sends the block-diagonal algebra into itself."""
    sls = shape.slices()
    d = len(sls)
    out = []
    for _ in range(terms):
        k, l = int(rng.integers(d)), int(rng.integers(d))
        a = np.zeros((shape.m, shape.m), dtype=complex)
        rows, cols = sls[k], sls[l]
        nr, nc = rows.stop - rows.start, cols.stop - cols.start
        a[rows, cols] = scale * (rng.normal(size=(nr, nc)) + 1j * rng.normal(size=(nr, nc)))
        out.append(a)
    return out


def random_cpmap(rng, blocks, terms=4, scale=1.0):
    shape = AlgebraShape(tuple(blocks))
    return CpMap(tuple(random_block_kraus(rng, shape, terms, scale)), shape)


def rect_kraus(rng, blocks, pairs):
    """One Kraus operator per (k, l) pair, a Gaussian supported on rows of
    block k and columns of block l (the benchmark's construction)."""
    shape = AlgebraShape(tuple(blocks))
    sls = shape.slices()
    out = []
    for k, l in pairs:
        rows, cols = blocks[k], blocks[l]
        a = np.zeros((shape.m, shape.m), dtype=complex)
        gauss = rng.normal(size=(rows, cols)) + 1j * rng.normal(size=(rows, cols))
        a[sls[k], sls[l]] = gauss / np.sqrt(2 * max(rows, cols))
        out.append(a)
    return out


def triangular_pairs(d):
    """Diagonal and upper rectangles: block upper triangular, so reducible."""
    return [(k, k) for k in range(d)] + [(k, k + 1) for k in range(d - 1)]


def ring_pairs(d):
    """Diagonal and cyclic rectangles: irreducible."""
    return [(k, k) for k in range(d)] + [(k, (k + 1) % d) for k in range(d)]


def perron_dense_map(rng, cls, blocks):
    """A map of the benchmark's perron_dense kinds: "irreducible" (ring rectangles),
    "reducible" (triangular rectangles) or "jordan" (blocks (1, 1), diag(a, b) ->
    r diag(a + 4 b, b) with r uniform in [1, 2])."""
    shape = AlgebraShape(tuple(blocks))
    if cls == "jordan":
        r = rng.uniform(1.0, 2.0)
        couple = np.zeros((2, 2), dtype=complex)
        couple[1, 0] = np.sqrt(4.0 * r)
        return CpMap((np.sqrt(r) * np.eye(2, dtype=complex), couple), shape)
    pairs = ring_pairs(len(blocks)) if cls == "irreducible" else triangular_pairs(len(blocks))
    return CpMap(tuple(rect_kraus(rng, blocks, pairs)), shape)


def reference_superop(kraus):
    """``sum_i kron(A_i.T, A_i.conj().T)``: the superoperator of ``X -> sum_i A_i* X A_i``
    built from one Kronecker product per Kraus operator."""
    return sum(np.kron(a.T, a.conj().T) for a in kraus)


def reference_probe_ratios(mat, rng, probes=64):
    """The one-probe-at-a-time loop of irreducible_cp: for each random rank-one
    probe ``h h*``, ``lambda_min / lambda_max`` of the Hermitian part of
    ``(1 + T / ||T(1)||)^(m-1)`` applied to it."""
    m = side_of(mat.shape[0])
    size = np.linalg.norm(unvec(mat @ vec(np.eye(m)), m), 2) or 1.0
    powered = np.linalg.matrix_power(np.eye(m * m, dtype=complex) + mat / size, m - 1)
    ratios = []
    for _ in range(probes):
        h = rng.normal(size=m) + 1j * rng.normal(size=m)
        h /= np.linalg.norm(h)
        y = unvec(powered @ vec(np.outer(h, h.conj())), m)
        lam = np.linalg.eigvalsh((y + y.conj().T) / 2.0)
        ratios.append(lam[0] / lam[-1])
    return np.array(ratios)


def reference_maximal_hat(mat, degeneracy):
    """``(T - r)^(d-1) P_r`` from three factorisations: ``eigvals`` for ``r``, a
    Schur form sorted by the cluster at ``r``, and ``scipy.linalg.solve_sylvester``
    (which computes two more Schur forms) for the projector.

    When ``r`` is a simple eigenvalue, ``P_r = x y* / (y* x)`` is then refined
    by Newton steps on its right and left eigenvectors with the residuals in
    extended precision (``np.clongdouble``), so the result is the projector of
    ``mat`` to double rounding even where ``P_r`` is ill-conditioned, which a
    dense Schur form is not: its rounding moves such a ``P_r`` by up to 1e-11.
    """
    import scipy.linalg

    n = mat.shape[0]
    r = float(np.abs(np.linalg.eigvals(mat)).max())
    delta = CLUSTER_TOL * max(r, 1.0)
    t, q, sdim = scipy.linalg.schur(mat, output="complex", sort=lambda z: abs(z - r) <= delta)
    proj = np.eye(n, dtype=complex)
    if sdim < n:
        t11, t12, t22 = t[:sdim, :sdim], t[:sdim, sdim:], t[sdim:, sdim:]
        core = np.zeros((n, n), dtype=complex)
        core[:sdim, :sdim] = np.eye(sdim)
        core[:sdim, sdim:] = -scipy.linalg.solve_sylvester(t11, -t22, -t12)
        proj = q @ core @ q.conj().T
    if sdim == 1 and n > 1:
        i, j = np.unravel_index(np.abs(proj).argmax(), proj.shape)
        x = _refined_eigenvector(mat, r, proj[:, j])
        y = _refined_eigenvector(mat.conj().T, r, proj[i, :].conj())
        proj = ((x[:, None] * y.conj()) / np.vdot(y, x)).astype(complex)
    return np.linalg.matrix_power(mat - r * np.eye(n), degeneracy - 1) @ proj


def _refined_eigenvector(mat, value, x, steps=4):
    """Newton steps on ``mat x = lam x``, ``c* x = 1`` from ``(value, x)``: the bordered
    system is solved in double, its residual and the iterate kept in ``np.clongdouble``."""
    n = mat.shape[0]
    c = x / np.vdot(x, x)
    wide = mat.astype(np.clongdouble)
    x, lam = x.astype(np.clongdouble), np.clongdouble(value)
    for _ in range(steps):
        res = np.concatenate([wide @ x - lam * x, [np.vdot(c, x) - 1]])
        jac = np.zeros((n + 1, n + 1), dtype=complex)
        jac[:n, :n] = mat - complex(lam) * np.eye(n)
        jac[:n, n] = -x.astype(complex)
        jac[n, :n] = c.conj()
        step = np.linalg.solve(jac, -res.astype(complex))
        x, lam = x + step[:n], lam + step[n]
    return x


def hermitian_basis(shape):
    """The m^2 x (n1^2 + ... + nd^2) matrix whose columns are ``vec`` of ``E_ii``, then
    ``(E_ij + E_ji)/sqrt 2`` and then ``i (E_ij - E_ji)/sqrt 2`` for i < j in one
    block, built one element at a time."""
    m = shape.m

    def unit(i, j):
        e = np.zeros((m, m), dtype=complex)
        e[i, j] = 1.0
        return e

    pairs = [(i, j) for sl in shape.slices() for i in range(sl.start, sl.stop) for j in range(i + 1, sl.stop)]
    cols = [vec(unit(i, i)) for i in range(m)]
    cols += [vec(unit(i, j) + unit(j, i)) / np.sqrt(2) for i, j in pairs]
    cols += [vec(1j * (unit(i, j) - unit(j, i))) / np.sqrt(2) for i, j in pairs]
    return np.column_stack(cols)


def reference_clusters(eig, delta):
    """The per-eigenvalue loop that clustered Schur eigenvalues: ``sorted`` by
    ``(-|z|, re, im)``, each untaken eigenvalue takes every untaken one within
    ``delta``, and the cluster's value is their ``np.mean``."""
    order = sorted(range(eig.size), key=lambda i: (-abs(eig[i]), eig[i].real, eig[i].imag))
    taken = np.zeros(eig.size, dtype=bool)
    out = []
    for idx in order:
        if taken[idx]:
            continue
        members = ~taken & (np.abs(eig - eig[idx]) <= delta)
        taken |= members
        out.append((complex(np.mean(eig[members])), members))
    return out
