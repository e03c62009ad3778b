"""Shared test fixtures: random sparse streams, reference selectors, and
each learner's rule and the synthetic generator restated in plain form."""
from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Optional, Sequence

import numpy as np

from ofs.core import DenseVector, SparseExample, squared_hinge_slope
from ofs.data import _CHUNK, SyntheticGenerator
from ofs.learners import (
    BUDGETED,
    ArowModel,
    FirstOrderModel,
    FofsModel,
    OgdModel,
    PetModel,
    SofsModel,
    make_learner,
)
from ofs.pipeline import RunReport, evaluate, train_stream


def random_example(rng: np.random.Generator, d: int, max_nnz: int = 12) -> SparseExample:
    k = int(rng.integers(1, max_nnz + 1))
    k = min(k, d)
    idx = np.sort(rng.choice(d, size=k, replace=False)).astype(np.int64)
    vals = rng.standard_normal(k)
    vals[vals == 0.0] = 1.0
    label = 1 if rng.random() < 0.5 else -1
    return SparseExample(label, idx, vals)


def random_stream(rng: np.random.Generator, n: int, d: int, max_nnz: int = 12) -> List[SparseExample]:
    return [random_example(rng, d, max_nnz) for _ in range(n)]


def tied_stream(rng: np.random.Generator, n: int, d: int, m: int) -> List[SparseExample]:
    """n examples with m nonzeros each, every value 1.0: covariances tie."""
    ones = np.ones(m)
    return [
        SparseExample(int(rng.integers(0, 2)) * 2 - 1, np.sort(rng.choice(d, size=m, replace=False)), ones)
        for _ in range(n)
    ]


def bulk_stream(rng: np.random.Generator, n: int, d: int, m: int) -> List[SparseExample]:
    """n examples over d dimensions with exactly m nonzeros each, built in bulk."""
    idx = np.argpartition(rng.random((n, d)), m - 1, axis=1)[:, :m]
    idx.sort(axis=1)
    idx = idx.astype(np.int64)
    vals = rng.standard_normal((n, m))
    vals[vals == 0.0] = 1.0
    labels = rng.integers(0, 2, size=n) * 2 - 1
    return [SparseExample(int(labels[r]), idx[r], vals[r]) for r in range(n)]


class SortSelectSofs:
    """Sort-based reference for the budgeted second-order learner.

    Shares the closed-form update with ArowModel but reselects the kept
    set from scratch after every update: all touched coordinates are
    ordered by (covariance, index) ascending, the first B keep their
    weights, the rest are zeroed. Quadratic-ish and only fit for tests.
    It must keep re-sorting all touched coordinates by (covariance, index)
    after every update and share no code with ``TopBTracker``: it is both
    the equivalence oracle and the timing yardstick of acceptance 01, so a
    faster or heap-like reference would hollow out both checks.
    """

    def __init__(self, budget: int, gamma: float = 1.0):
        self.inner = ArowModel(gamma=gamma)
        self.budget = int(budget)
        self._touched = np.zeros(0, dtype=bool)

    @property
    def weights(self):
        return self.inner.mu

    def update(self, ex: SparseExample) -> float:
        margin = self.inner.update(ex)
        if ex.label * margin >= 1.0 or len(ex.indices) == 0:
            return margin
        n = len(self.inner.mu)
        if len(self._touched) < n:
            grown = np.zeros(n, dtype=bool)
            grown[: len(self._touched)] = self._touched
            self._touched = grown
        self._touched[ex.indices] = True
        touched = np.flatnonzero(self._touched)
        if len(touched) > self.budget:
            sig = self.inner.sigma.array[touched]
            order = np.argsort(sig, kind="stable")  # ties keep the lower index
            self.inner.mu.array[touched[order[self.budget :]]] = 0.0
        return margin


def dense_truncate(w: DenseVector, budget: int) -> DenseVector:
    """Zero all but the ``budget`` largest-magnitude entries of ``w``.

    Ties at the cutoff keep the lower index. Idempotent; returns ``w`` for
    chaining.

    The dense O(d) form over every coordinate, kept as the reference the
    package's ``truncate``, which ranks only the nonzero entries, must
    match byte for byte.
    """
    if budget < 1:
        raise ValueError("budget must be >= 1")
    a = w.array
    if budget >= len(a) or int(np.count_nonzero(a)) <= budget:
        return w
    ab = np.abs(a)
    cut = np.partition(ab, len(ab) - budget)[len(ab) - budget]
    keep = ab > cut
    short = budget - int(np.count_nonzero(keep))
    if short > 0:
        ties = np.flatnonzero(ab == cut)
        keep[ties[:short]] = True
    a[~keep] = 0.0
    return w


class TruncatePet(FirstOrderModel):
    """Reference for ``pet``: the same mistake step, then the dense O(d)
    :func:`dense_truncate` over every coordinate instead of the tracker."""

    algo = "pet"

    def __init__(self, budget: int, eta: float = 0.2):
        super().__init__(eta=eta)
        self.budget = int(budget)

    def update(self, ex: SparseExample) -> float:
        margin, _ = self._grown_margin(ex)
        y = ex.label
        if (1 if margin >= 0.0 else -1) != y:
            self.w.array[ex.indices] += self.eta * y * ex.values
            dense_truncate(self.w, self.budget)
        return margin


# Each learner's rule in its plain form: every read gathers afresh, every
# step is ``w[idx] += delta`` and every dot product is ``@``. The learners
# gather the touched weights once and use ``ndarray.dot``; the two forms
# must agree bit for bit.


def plain_dot(w, x: SparseExample) -> float:
    """``sparse_dot`` in its plain form."""
    idx = x.indices
    if len(idx) == 0 or len(w) == 0:
        return 0.0
    a = w.array
    if int(idx[-1]) < len(w):
        return float(a[idx] @ x.values)
    m = int(np.searchsorted(idx, len(w)))
    return float(a[idx[:m]] @ x.values[:m])


def _plain_margin(model, ex: SparseExample) -> float:
    idx = ex.indices
    if len(idx) == 0:
        return 0.0
    last = int(idx[-1])
    if last >= len(model.weights):
        model._ensure(last + 1)
    return float(model.weights.array[idx] @ ex.values)


def _plain_arow_step(model, idx: np.ndarray, vals: np.ndarray, y: int, margin: float) -> np.ndarray:
    gamma = model.gamma
    sig = model.sigma.array
    sx = sig[idx]
    sxv = sx * vals
    c = -0.5 * squared_hinge_slope(margin, y) / (float(sxv @ vals) + gamma)
    model.mu.array[idx] += c * sxv
    new_sig = sx * gamma / (gamma + sxv * vals)
    sig[idx] = new_sig
    return new_sig


class PlainArow(ArowModel):
    def update(self, ex: SparseExample) -> float:
        margin = _plain_margin(self, ex)
        y = ex.label
        if y * margin < 1.0 and len(ex.indices):
            _plain_arow_step(self, ex.indices, ex.values, y, margin)
        return margin


class PlainSofs(SofsModel):
    def update(self, ex: SparseExample) -> float:
        y = ex.label
        margin = _plain_margin(self, ex)
        if y * margin >= 1.0 or len(ex.indices) == 0:
            return margin
        new_sig = _plain_arow_step(self, ex.indices, ex.values, y, margin)
        dropped = self.tracker.select(ex.indices, new_sig)
        if len(dropped):
            self.mu.array[dropped] = 0.0
        return margin


class PlainPet(PetModel):
    def update(self, ex: SparseExample) -> float:
        margin = _plain_margin(self, ex)
        y = ex.label
        if (1 if margin >= 0.0 else -1) != y:
            a = self.w.array
            a[ex.indices] += self.eta * y * ex.values
            dropped = self.tracker.select(ex.indices, -np.abs(a[ex.indices]))
            if len(dropped):
                a[dropped] = 0.0
        return margin


class PlainFofs(FofsModel):
    def update(self, ex: SparseExample) -> float:
        margin = _plain_margin(self, ex)
        y = ex.label
        if (1 if margin >= 0.0 else -1) != y:
            a = self.w.array
            a *= 1.0 - self.lam * self.eta
            a[ex.indices] += self.eta * y * ex.values
            radius = 1.0 / math.sqrt(self.lam)
            norm = float(np.linalg.norm(a))
            if norm > radius:
                a *= radius / norm
            dense_truncate(self.w, self.budget)
        return margin


class PlainOgd(OgdModel):
    def update(self, ex: SparseExample) -> float:
        self.t += 1
        margin = _plain_margin(self, ex)
        y = ex.label
        if y * margin < 1.0 and len(ex.indices):
            step = self.eta / math.sqrt(self.t)
            self.w.array[ex.indices] += step * y * ex.values
        return margin


class PlainSyntheticGenerator(SyntheticGenerator):
    """The synthetic generator in its plain form: draws a chunk like the
    generator does, then concatenates and stable-sorts every row on its
    own. The chunked generator must yield the same bytes."""

    def _stream(self, key: int, n: int) -> Iterator[SparseExample]:
        spec = self.spec
        rng = np.random.default_rng([spec.seed, key])
        S = self.informative
        idim, ndim = spec.idim, spec.ndim
        done = 0
        while done < n:
            c = min(_CHUNK, n - done)
            inf_vals = rng.standard_normal((c, idim))
            noise_idx = self._noise_indices(rng, c)
            noise_vals = rng.standard_normal((c, ndim))
            margins = inf_vals @ self.w_star
            labels = np.where(margins >= 0.0, 1, -1)
            for r in range(c):
                idx = np.concatenate([S, noise_idx[r]])
                vals = np.concatenate([inf_vals[r], noise_vals[r]])
                order = np.argsort(idx, kind="stable")
                yield SparseExample(int(labels[r]), idx[order], vals[order])
            done += c

    def _noise_indices(self, rng: np.random.Generator, c: int) -> np.ndarray:
        """Per-row noise coordinates: unique, uniform outside the informative set."""
        spec = self.spec
        ndim = spec.ndim
        if ndim == 0:
            return np.empty((c, 0), dtype=np.int64)
        m = spec.dim - spec.idim  # size of the complement
        if m >= ndim * (ndim - 1):
            # collisions are rare when the complement dwarfs the draw count;
            # rows conditioned on being duplicate-free are uniform subsets
            rows = rng.integers(0, m, size=(c, ndim))
            if ndim > 1:
                srt = np.sort(rows, axis=1)
                for r in np.flatnonzero((np.diff(srt, axis=1) == 0).any(axis=1)):
                    while True:
                        row = rng.integers(0, m, size=ndim)
                        if len(np.unique(row)) == ndim:
                            rows[r] = row
                            break
        else:
            rows = np.stack([rng.permutation(m)[:ndim] for _ in range(c)])
        # map complement rank v to the v-th non-informative index
        shift = np.searchsorted(self._gaps, rows.ravel(), side="right")
        return (rows + shift.reshape(rows.shape)).astype(np.int64)


def plain_learner(algo: str, budget: int, gamma: float, eta: float, lam: float):
    """The plain-form twin of ``make_learner(algo, ...)``."""
    if algo == "sofs":
        return PlainSofs(budget, gamma=gamma)
    if algo == "arow":
        return PlainArow(gamma=gamma)
    if algo == "pet":
        return PlainPet(budget, eta=eta)
    if algo == "fofs":
        return PlainFofs(budget, eta=eta, lam=lam)
    if algo == "ogd":
        return PlainOgd(eta=eta)
    raise ValueError(algo)


def in_memory_sweep(
    algos: Sequence[str],
    budgets: Sequence[int],
    train: Iterable[SparseExample],
    test: Iterable[SparseExample],
    repeats: int,
    *,
    base_seed: int = 0,
    dim: Optional[int] = None,
    **params: float,
) -> List[RunReport]:
    """``benchmark_sweep`` with no row cache: each repeat trains on a list
    of the training examples in its permuted order and evaluates on a list
    of the test examples. Both timing fields are 0."""
    train, test = list(train), list(test)
    reports = []
    for r in range(repeats):
        seed = base_seed + r
        shuffled = [train[i] for i in np.random.default_rng(seed).permutation(len(train))]
        for algo in algos:
            for budget in budgets if algo in BUDGETED else (0,):
                learner = make_learner(algo, budget=budget or None, **params)
                result = train_stream(learner, shuffled)
                accuracy = evaluate(learner, test)
                d = max(dim or 0, len(learner.weights))
                sparsity = 100.0 * (1.0 - learner.nonzero_count() / d) if d else 0.0
                reports.append(
                    RunReport(algo, budget, seed, accuracy, result.mistakes, sparsity, 0.0, 0.0,
                              learner.selected_indices(), result.examples)
                )
    return reports
