"""Keeps the B best-scoring features among those kept and those just touched.

Scores are smaller-is-better and ties go to the lower index: ``sofs``
scores a feature by its covariance σ, ``pet`` by -|w|. The kept set is a
dense bool mask plus an index buffer of capacity B, with a cached upper
bound on the worst kept score. An update reads scores only at kept and
touched features, never over all d. Usually that is O(m) numpy work:
touched kept features need nothing, and touched outsiders worse than the
bound are dropped at once. Only an outsider reaching the bound costs one
partition over the B + k candidates, which also refreshes the bound; while
the set fills, outsiders are appended.

Untouched outsiders are never reconsidered. That is exact when kept scores
only improve (σ), or when outsiders score the worst possible (-|w| of a
zero weight); kept scores that get worse raise the bound.
"""
from __future__ import annotations

from enum import Enum
from typing import Callable, List, Optional, Tuple

import numpy as np

from .core import grown_capacity


class Outcome(Enum):
    """What happened to a (feature, value) pair handed to ``offer``."""

    ADJUSTED_IN_PLACE = "adjusted_in_place"
    ADMITTED = "admitted"
    ADMITTED_EVICTING = "admitted_evicting"
    REJECTED = "rejected"


class TopBTracker:
    """Tracks the ``capacity`` features first in (score, index) order.

    ``score`` maps an index array to the current scores of those features;
    the tracker calls it for kept features only when the kept set may
    change.
    """

    __slots__ = ("capacity", "score", "_mask", "_keys", "_n", "_bound")

    def __init__(self, capacity: int, score: Callable[[np.ndarray], np.ndarray]):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.score = score
        self._mask = np.zeros(0, dtype=bool)
        self._keys = np.empty(self.capacity, dtype=np.int64)
        self._n = 0
        # at least the worst kept score once full; None while filling
        self._bound: Optional[float] = None

    def __len__(self) -> int:
        return self._n

    def indices(self) -> List[int]:
        return self._keys[: self._n].tolist()

    def select(self, idx: np.ndarray, scores: Optional[np.ndarray] = None) -> np.ndarray:
        """Keep the B first in (score, index) order among kept and ``idx``.

        ``idx`` holds strictly increasing feature indices and ``scores``
        their current scores, read through ``score`` when not given.
        Returns the indices that are not kept after the call, among ``idx``
        and the features kept before it: the caller zeroes their weights.
        """
        if len(idx) == 0:
            return idx
        if scores is None:
            scores = self.score(idx)
        if idx[-1] >= len(self._mask):
            self._grow(int(idx[-1]) + 1)
        inside = self._mask[idx]
        bound = self._bound
        if bound is not None:
            worse = scores > bound
            if np.count_nonzero(worse != inside) == len(idx):
                # every outsider is worse than the bound, no kept score rose above it
                return idx[worse]
            if inside.any():
                bound = self._bound = max(bound, float(scores[inside].max()))
        out = ~inside
        new, s = idx[out], scores[out]
        if bound is None:
            if self._n + len(new) <= self.capacity:
                self._append(new)
                return new[:0]
            return self._reselect(new, s)
        near = s <= bound
        if not near.any():
            return new
        return np.concatenate((new[~near], self._reselect(new[near], s[near])))

    def offer(self, idx: int, value: float) -> Tuple[Outcome, Optional[int]]:
        """One-feature form of :meth:`select`; ``value`` is the current score of ``idx``.

        Returns the outcome plus the evicted feature index when admission
        displaced one. The learners call :meth:`select`; the benchmark's
        traced run wraps this method by name.
        """
        kept = idx < len(self._mask) and bool(self._mask[idx])
        dropped = self.select(np.array([idx], dtype=np.int64), np.array([value], dtype=np.float64))
        if kept:
            return Outcome.ADJUSTED_IN_PLACE, None
        if not self._mask[idx]:
            return Outcome.REJECTED, None
        if len(dropped):
            return Outcome.ADMITTED_EVICTING, int(dropped[0])
        return Outcome.ADMITTED, None

    def _grow(self, n: int) -> None:
        mask = np.zeros(grown_capacity(n), dtype=bool)
        mask[: len(self._mask)] = self._mask
        self._mask = mask

    def _append(self, new: np.ndarray) -> None:
        n = self._n + len(new)
        self._keys[self._n : n] = new
        self._mask[new] = True
        self._n = n
        if n == self.capacity:
            self._bound = float(self.score(self._keys).max())

    def _reselect(self, new: np.ndarray, s: np.ndarray) -> np.ndarray:
        keys = self._keys[: self._n]
        cand = np.concatenate((keys, new))
        cs = np.concatenate((self.score(keys), s))
        b = self.capacity
        cut = np.partition(cs, b - 1)[b - 1]
        keep = cs < cut
        ties = np.flatnonzero(cs == cut)
        short = b - int(np.count_nonzero(keep))
        if len(ties) > short:
            ties = ties[np.argpartition(cand[ties], short - 1)[:short]]
        keep[ties] = True
        self._mask[cand] = keep
        self._keys[:] = cand[keep]
        self._n = b
        self._bound = float(cut)
        return cand[~keep]

    def __repr__(self) -> str:
        return f"TopBTracker(capacity={self.capacity}, size={self._n})"
