"""Keeps the B best-scoring features among those kept and those just touched.

Scores are smaller-is-better and ties go to the lower index: ``sofs``
scores a feature by its covariance σ, ``pet`` by -|w|. The kept set is a
dense bool mask plus the array of kept indices, so memory grows with the
kept set, not with B, and a cached upper bound on the worst kept score,
+inf while the set fills. An update reads scores only at kept and touched
features, never over all d. Usually that is O(m) numpy work: touched kept
features at or below the bound need nothing, and touched outsiders worse
than it are dropped at once. Otherwise one pass reselects over the kept
set and every touched outsider: all are kept while they fit in B, else
:func:`first_b`, shared with ``learners.truncate``, picks B and the bound.

Untouched outsiders are never reconsidered. That is exact when kept scores
only improve (σ), or when outsiders score the worst possible (-|w| of a
zero weight); a kept score that gets worse than the bound reselects.
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


def first_b(keys: np.ndarray, scores: np.ndarray, b: int) -> Tuple[np.ndarray, float]:
    """The mask of the ``b`` first of the distinct ``keys`` in (score, key)
    order, 1 <= b <= len(keys), and the b-th smallest score."""
    cut = np.partition(scores, b - 1)[b - 1]
    keep = scores < cut
    ties = np.flatnonzero(scores == cut)
    short = b - int(np.count_nonzero(keep))
    if len(ties) > short:
        ties = ties[np.argpartition(keys[ties], short - 1)[:short]]
    keep[ties] = True
    return keep, float(cut)


class TopBTracker:
    """Tracks the ``capacity`` features first in (score, index) order.

    ``score`` maps an index array to the current scores of those features;
    the tracker calls it for kept features only when the kept set may
    change. Any capacity >= 1 is accepted: nothing is allocated per slot.
    """

    __slots__ = ("capacity", "score", "_mask", "_keys", "_bound")

    def __init__(self, capacity: int, score: Callable[[np.ndarray], np.ndarray]):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = int(capacity)
        self.score = score
        self._mask = np.zeros(0, dtype=bool)
        self._keys = np.zeros(0, dtype=np.int64)
        # at least the worst kept score once full; +inf while the set fills
        self._bound = np.inf

    def __len__(self) -> int:
        return len(self._keys)

    def indices(self) -> List[int]:
        return self._keys.tolist()

    def select(self, idx: np.ndarray, scores: np.ndarray) -> np.ndarray:
        """Keep the B first in (score, index) order among kept and ``idx``.

        ``idx`` holds strictly increasing feature indices and ``scores``
        their current scores. Returns the indices that are not kept after
        the call, among ``idx`` and the features kept before it: the caller
        zeroes their weights. A failed O(m) check costs one pass over the
        kept set and every touched outsider, a :func:`first_b` once full.
        """
        if len(idx) and idx[-1] >= len(self._mask):
            mask = np.zeros(grown_capacity(int(idx[-1]) + 1), dtype=bool)
            mask[: len(self._mask)] = self._mask
            self._mask = mask
        inside = self._mask[idx]
        worse = scores > self._bound
        if np.count_nonzero(worse != inside) == len(idx):
            # every outsider is worse than the bound, no kept score rose above it
            return idx[worse]
        out = ~inside
        new = idx[out]
        cand = np.concatenate((self._keys, new))
        if len(cand) < self.capacity:
            self._mask[new] = True
            self._keys = cand
            return new[:0]
        keep, self._bound = first_b(cand, np.concatenate((self.score(self._keys), scores[out])), self.capacity)
        self._mask[cand] = keep
        self._keys = cand[keep]
        return cand[~keep]

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

    def __repr__(self) -> str:
        return f"TopBTracker(capacity={self.capacity}, size={len(self._keys)})"
