"""Shared random generators for the test suite (all explicitly seeded by callers)."""

import numpy as np

from cpspectra import AlgebraShape, CpMap


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
