"""Sparse examples, growable dense vectors and margin loss primitives.

Everything downstream (learners, pipeline, CLI) is written in terms of the
two containers defined here: :class:`SparseExample` for streamed instances
and :class:`DenseVector` for model state. All arithmetic is float64; the
covariance recursion used by the second-order learners compounds
multiplicatively and drifts visibly in anything narrower.
"""
from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Iterator, Tuple

import numpy as np

VALID_LABELS = (-1, 1)


@dataclass
class SparseExample:
    """One labelled instance: a label in {-1, +1} plus sorted sparse features.

    ``indices`` must be strictly increasing (0-based, no duplicates) and
    ``values`` must contain no exact zeros. Construct through
    :meth:`from_pairs` unless the arrays are already known to satisfy both
    invariants. Instances are treated as immutable once built.
    """

    label: int
    indices: np.ndarray
    values: np.ndarray

    @classmethod
    def from_pairs(cls, label: int, pairs: Iterable[Tuple[int, float]]) -> "SparseExample":
        """Build and validate an example from (index, value) pairs.

        Zero-valued entries are dropped; negative, duplicate or out-of-order
        indices raise ``ValueError``.
        """
        if label not in VALID_LABELS:
            raise ValueError(f"label must be -1 or +1, got {label!r}")
        idx: list[int] = []
        vals: list[float] = []
        last = -1
        for i, v in pairs:
            i = int(i)
            if i < 0:
                raise ValueError(f"negative feature index {i}")
            if i <= last:
                raise ValueError(f"feature indices not strictly increasing at {i}")
            last = i
            v = float(v)
            if v != 0.0:
                idx.append(i)
                vals.append(v)
        return cls(int(label), np.asarray(idx, dtype=np.int64), np.asarray(vals, dtype=np.float64))

    @property
    def nnz(self) -> int:
        return len(self.indices)

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

    Cells created by growth take the configured ``fill`` value (0 for
    weights, 1 for a covariance diagonal). Reads beyond the current length
    return ``fill`` without growing; writes grow the vector.
    """

    __slots__ = ("_buf", "_n", "fill")

    def __init__(self, size: int = 0, fill: float = 0.0):
        if size < 0:
            raise ValueError("size must be non-negative")
        self.fill = float(fill)
        self._n = int(size)
        self._buf = np.full(max(self._n, 8), self.fill, dtype=np.float64)

    @classmethod
    def from_array(cls, values, fill: float = 0.0) -> "DenseVector":
        arr = np.asarray(values, dtype=np.float64)
        vec = cls(len(arr), fill)
        vec._buf[: len(arr)] = arr
        return vec

    def __len__(self) -> int:
        return self._n

    @property
    def array(self) -> np.ndarray:
        """View of the live cells; writes go through to the vector."""
        return self._buf[: self._n]

    def ensure(self, n: int) -> None:
        """Grow the live region to at least ``n`` cells."""
        if n <= self._n:
            return
        if n > len(self._buf):
            buf = np.full(grown_capacity(n), self.fill, dtype=np.float64)
            buf[: self._n] = self._buf[: self._n]
            self._buf = buf
        # slack cells were pre-filled, so extending the live region suffices
        self._n = n

    def get(self, i: int) -> float:
        if i < 0:
            raise IndexError("negative index")
        return float(self._buf[i]) if i < self._n else self.fill

    __getitem__ = get

    def __setitem__(self, i: int, value: float) -> None:
        if i < 0:
            raise IndexError("negative index")
        if i >= self._n:
            self.ensure(i + 1)
        self._buf[i] = value

    def to_list(self) -> list[float]:
        return self.array.tolist()

    def __repr__(self) -> str:
        shown = ", ".join(f"{v:g}" for v in self.array[:8])
        tail = ", ..." if self._n > 8 else ""
        return f"DenseVector([{shown}{tail}], len={self._n}, fill={self.fill:g})"


def sparse_dot(w: DenseVector, x: SparseExample) -> float:
    """Dot product of dense weights with a sparse example.

    Feature indices at or beyond the current length of ``w`` contribute
    zero; the vector is not grown.
    """
    idx = x.indices
    if len(idx) == 0:
        return 0.0
    n = len(w)
    if n == 0:
        return 0.0
    a = w.array
    if int(idx[-1]) < n:
        return float(a[idx] @ x.values)
    m = int(np.searchsorted(idx, n))  # indices are sorted, so a prefix is in range
    return float(a[idx[:m]] @ x.values[:m])


def squared_hinge(w: DenseVector, x: SparseExample, y: int) -> float:
    """Squared hinge loss (max(0, 1 - y * (w . x)))^2.

    Continuously differentiable in w, which is what lets the second-order
    update be checked against finite differences.
    """
    h = max(0.0, 1.0 - y * sparse_dot(w, x))
    return h * h


def squared_hinge_grad(w: DenseVector, x: SparseExample, y: int) -> np.ndarray:
    """Gradient of the squared hinge w.r.t. ``w`` on the active coordinates.

    Returns an array aligned with ``x.indices``; all other coordinates of
    the gradient are zero.
    """
    h = max(0.0, 1.0 - y * sparse_dot(w, x))
    return (-2.0 * h * y) * x.values
