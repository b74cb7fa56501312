"""Small bundled CP maps exercising every corner of the package.

Each map is named for what it does; together they cover a bounded-power map
with no norm-achieving scaling, an irreducible map with golden-ratio growth,
an irreducible map whose given Kraus pair shares an invariant subspace, and
a diagonal map driven by a path-graph adjacency matrix.
"""

from __future__ import annotations

import numpy as np

from .algebra import AlgebraShape
from .cpmap import CpMap

__all__ = [
    "trace_corner_map",
    "golden_ratio_map",
    "double_trace_map",
    "path_adjacency_map",
]


def _unit(m: int, i: int, j: int) -> np.ndarray:
    e = np.zeros((m, m), dtype=complex)
    e[i, j] = 1.0
    return e


def trace_corner_map() -> CpMap:
    """On M_2: X -> trace(X) E_11.  Spectral radius 1, ||tau^n|| = 2 for all n.

    Its normalized powers stay bounded, yet no strictly positive w satisfies
    tau(w) <= w, so no similarity achieves norm equal to the radius.
    """
    return CpMap((_unit(2, 0, 0), _unit(2, 1, 0)), AlgebraShape.full(2))


def golden_ratio_map() -> CpMap:
    """Irreducible CP map on M_2 + M_1 with Fibonacci growth.

    diag-blocks ([[a, b], [c, d]], [e]) map to ([[a+e, 0], [0, a+e]], [d]);
    the spectral radius is the golden ratio (1 + sqrt 5) / 2.
    """
    kraus = (
        _unit(3, 0, 0),  # a -> position (0, 0)
        _unit(3, 0, 1),  # a -> position (1, 1)
        _unit(3, 2, 0),  # e -> position (0, 0)
        _unit(3, 2, 1),  # e -> position (1, 1)
        _unit(3, 1, 2),  # d -> position (2, 2)
    )
    return CpMap(kraus, AlgebraShape((2, 1)))


def double_trace_map() -> CpMap:
    """On the diagonal algebra M_1 + M_1: X -> 2 trace(X) 1.

    Strictly positive (hence irreducible) even though the two given Kraus
    operators share the invariant span of (1, 1).
    """
    a = np.array([[1.0, 1.0], [1.0, 1.0]], dtype=complex)
    b = np.array([[1.0, -1.0], [1.0, -1.0]], dtype=complex)
    return CpMap((a, b), AlgebraShape((1, 1)))


def path_adjacency_map() -> CpMap:
    """On the diagonal algebra of M_3: coordinates evolve by the path-graph
    adjacency matrix [[0,1,0],[1,0,1],[0,1,0]]; spectral radius sqrt(2)."""
    kraus = (
        _unit(3, 1, 0),  # b -> position (0, 0)
        _unit(3, 0, 1),  # a -> position (1, 1)
        _unit(3, 2, 1),  # c -> position (1, 1)
        _unit(3, 1, 2),  # b -> position (2, 2)
    )
    return CpMap(kraus, AlgebraShape((1, 1, 1)))
