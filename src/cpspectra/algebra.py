"""Block-diagonal matrix algebras M_{n1} + ... + M_{nd} inside M_m.

An algebra element is carried as the full embedded m x m matrix; all
superoperators downstream act on ``vec`` of the embedded matrix.  The algebra
itself is represented by one boolean mask over ``vec`` indices
(:meth:`AlgebraShape.vec_mask`): compression zeroes the entries outside it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import FormatError
from .mats import PSD_TOL, as_integer, frobenius_norm, of_side

__all__ = [
    "AlgebraShape",
    "compress",
    "in_algebra",
]


@dataclass(frozen=True)
class AlgebraShape:
    """Block sizes ``[n1, ..., nd]`` of a block-diagonal subalgebra of M_m."""

    blocks: tuple[int, ...]

    def __post_init__(self):
        blocks = tuple(as_integer(n, "a block size") for n in self.blocks)
        if len(blocks) < 1 or any(n < 1 for n in blocks):
            raise FormatError(f"invalid block sizes {self.blocks}")
        object.__setattr__(self, "blocks", blocks)

    @property
    def m(self) -> int:
        return sum(self.blocks)

    @property
    def d(self) -> int:
        return len(self.blocks)

    @property
    def is_full(self) -> bool:
        return len(self.blocks) == 1

    def slices(self) -> list[slice]:
        out, start = [], 0
        for n in self.blocks:
            out.append(slice(start, start + n))
            start += n
        return out

    def vec_mask(self) -> np.ndarray:
        """Boolean mask over ``vec`` indices: True at ``i + j*m`` when i and j share a block."""
        label = np.repeat(np.arange(self.d), self.blocks)
        return (label[:, None] == label[None, :]).ravel(order="F")

    def projections(self) -> list[np.ndarray]:
        """Orthogonal projections onto the block subspaces, as m x m matrices."""
        out = []
        for sl in self.slices():
            p = np.zeros((self.m, self.m), dtype=complex)
            p[sl, sl] = np.eye(sl.stop - sl.start)
            out.append(p)
        return out

    @classmethod
    def full(cls, m: int) -> "AlgebraShape":
        return cls((int(m),))

    @classmethod
    def parse(cls, text: str) -> "AlgebraShape":
        """Parse a shape given as comma-separated block sizes, e.g. ``"2,1"``."""
        try:
            return cls(tuple(int(tok) for tok in str(text).split(",") if tok.strip()))
        except ValueError as exc:
            raise FormatError(f"cannot parse shape {text!r}") from exc

    def to_json(self) -> dict:
        return {"blocks": list(self.blocks)}

    @classmethod
    def from_json(cls, obj) -> "AlgebraShape":
        if not isinstance(obj, dict) or not isinstance(obj.get("blocks"), list):
            raise FormatError('shape JSON must be {"blocks": [n1, ...]}')
        return cls(tuple(obj["blocks"]))


def compress(x, shape: AlgebraShape) -> np.ndarray:
    """Block-diagonal part of ``x``: off-diagonal blocks zeroed.

    Idempotent and positivity-preserving (it is X |-> sum_k P_k X P_k).
    """
    x = of_side(x, shape.m)
    return np.where(shape.vec_mask().reshape(shape.m, shape.m), x, 0)  # the mask is symmetric


def in_algebra(x, shape: AlgebraShape, psd_tol: float = PSD_TOL) -> bool:
    """Numeric membership, relative to the scale of ``x``: ``||x - compress(x)|| <= psd_tol * ||x||``."""
    x = of_side(x, shape.m)
    return frobenius_norm(x - compress(x, shape)) <= psd_tol * frobenius_norm(x)
