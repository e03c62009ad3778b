"""Sparse examples, growable dense vectors and margin loss primitives.

Everything downstream (learners, pipeline, CLI) is written in terms of the
two containers defined here: :class:`SparseExample` for streamed instances
and :class:`DenseVector` for model state. All arithmetic is float64; the
covariance recursion used by the second-order learners compounds
multiplicatively and drifts visibly in anything narrower.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Tuple

import numpy as np


@dataclass(eq=False)
class SparseExample:
    """One labelled instance: a label in {-1, +1} plus sorted sparse features.

    ``indices`` must be strictly increasing (0-based, no duplicates) and
    ``values`` must contain no exact zeros. The constructor checks neither:
    the libsvm parser, which builds every example read from a file, rejects
    indices out of order and drops zero values. Instances are treated as
    immutable once built, and compare equal only to themselves.
    """

    label: int
    indices: np.ndarray
    values: np.ndarray

    def pairs(self) -> Iterator[Tuple[int, float]]:
        return zip(self.indices.tolist(), self.values.tolist())

    def __repr__(self) -> str:  # keeps test failures readable
        body = " ".join(f"{i}:{v:g}" for i, v in self.pairs())
        return f"SparseExample({self.label:+d} {body})"


def grown_capacity(n: int) -> int:
    """Capacity a growable buffer reallocates to for ``n`` cells.

    The next power of two, at least 8: growth is amortised O(1) per cell,
    and the capacity depends on ``n`` alone, so a buffer that first grew to
    just below its final length is not doubled again for the last cells.
    """
    return max(8, 1 << (n - 1).bit_length())


class DenseVector:
    """Contiguous float64 vector that grows on demand and never shrinks.

    ``array`` is the view of the live cells that reads and writes go
    through. Only :meth:`ensure` grows the vector, rebinding ``array``; new
    cells take the ``fill`` value (0 for weights, 1 for a covariance).
    """

    __slots__ = ("_buf", "array", "fill")

    def __init__(self, size: int = 0, fill: float = 0.0):
        if size < 0:
            raise ValueError("size must be non-negative")
        self.fill = float(fill)
        self._buf = np.full(max(size, 8), self.fill, dtype=np.float64)
        self.array = self._buf[:size]

    def __len__(self) -> int:
        return len(self.array)

    def ensure(self, n: int) -> None:
        """Grow the live region to at least ``n`` cells."""
        old = len(self.array)
        if n <= old:
            return
        if n > len(self._buf):
            buf = np.full(grown_capacity(n), self.fill, dtype=np.float64)
            buf[:old] = self.array
            self._buf = buf
        # slack cells were pre-filled, so extending the live region suffices
        self.array = self._buf[:n]


def sparse_dot(w: DenseVector, x: SparseExample) -> float:
    """Dot product of dense weights with a sparse example.

    Feature indices at or beyond the current length of ``w`` contribute
    zero; the vector is not grown.
    """
    idx = x.indices
    if len(idx) == 0:
        return 0.0
    a = w.array
    n = len(a)
    # + 0.0 maps the -0.0 that a one-term ndarray.dot can return to 0.0,
    # as a summed dot product (or ``@``) gives
    if idx[-1] < n:
        return float(a[idx].dot(x.values)) + 0.0
    m = int(np.searchsorted(idx, n))  # indices are sorted, so a prefix is in range
    return float(a[idx[:m]].dot(x.values[:m])) + 0.0


def squared_hinge(w: DenseVector, x: SparseExample, y: int) -> float:
    """Squared hinge loss (max(0, 1 - y * (w . x)))^2.

    Continuously differentiable in w, which is what lets the second-order
    update be checked against finite differences.
    """
    h = max(0.0, 1.0 - y * sparse_dot(w, x))
    return h * h


def squared_hinge_slope(margin: float, y: int) -> float:
    """Derivative of the squared hinge (max(0, 1 - y * margin))^2 w.r.t. the margin.

    The gradient w.r.t. the weights on the active coordinates is this
    slope times ``x.values``; the second-order step scales it by the
    covariance.
    """
    h = 1.0 - y * margin
    return -2.0 * h * y if h > 0.0 else 0.0
