"""Single-pass training, evaluation, cross-validation and benchmark sweeps.

Training is a strict single pass in one loop on the calling thread: each
example is read (parsed, for a file stream), then handed to exactly one
``update`` call, in stream order. Any error, from the parser or from the
learner, reaches the caller at once. Cross-validation and sweeps walk
their input many times; each reads it once into a :class:`_RowCache` in
a temporary directory and walks that.
"""
from __future__ import annotations

import itertools
import os
import tempfile
import time
from array import array
from dataclasses import dataclass
from typing import Dict, Iterable, Iterator, List, Optional, Sequence, Tuple

import numpy as np

from .core import SparseExample
from .learners import (
    BUDGETED,
    OnlineLearner,
    _check_hyperparam,
    check_savable,
    format_grid_point,
    learner_class,
    make_learner,
)

CSV_HEADER = "algo,B,seed,accuracy,mistakes,sparsity_pct,train_s,total_s"
# the temporary directories that hold row caches are named <prefix><random>
CACHE_DIR_PREFIX = "ofs-rows-"


@dataclass
class TrainResult:
    mistakes: int
    examples: int
    train_seconds: float


@dataclass
class RunReport:
    """One row of a benchmark sweep; ``selected`` stays out of the CSV."""

    algo: str
    budget: int
    seed: int
    accuracy: float
    mistakes: int
    sparsity_pct: float
    train_seconds: float
    total_seconds: float
    selected: frozenset
    n_train: int

    def csv_row(self) -> str:
        return (
            f"{self.algo},{self.budget},{self.seed},{self.accuracy:.6f},"
            f"{self.mistakes},{self.sparsity_pct:.4f},"
            f"{self.train_seconds:.4f},{self.total_seconds:.4f}"
        )


def write_reports_csv(reports: Iterable[RunReport], path) -> None:
    with open(path, "w", encoding="ascii") as fh:
        fh.write(CSV_HEADER + "\n")
        for rep in reports:
            fh.write(rep.csv_row() + "\n")


def format_report_table(reports: Sequence[RunReport]) -> str:
    header = f"{'algo':<6} {'B':>6} {'seed':>6} {'accuracy':>9} {'mistakes':>9} {'sparsity%':>10} {'train_s':>8} {'total_s':>8}"
    lines = [header, "-" * len(header)]
    for r in reports:
        lines.append(
            f"{r.algo:<6} {r.budget:>6} {r.seed:>6} {r.accuracy:>9.4f} "
            f"{r.mistakes:>9} {r.sparsity_pct:>10.4f} {r.train_seconds:>8.3f} {r.total_seconds:>8.3f}"
        )
    return "\n".join(lines)


def train_stream(learner: OnlineLearner, stream: Iterable[SparseExample], *, threads: int = 1) -> TrainResult:
    """Drive one pass over ``stream``, one update per example, in order.

    ``stream`` is any iterable of examples, such as a one-shot generator
    from :func:`~ofs.data.read_libsvm`, and is read once. A mistake is
    counted when the pre-update prediction differs from the label.
    ``train_seconds`` covers first example to last update.

    ``threads`` exists only because the benchmark in ``perfbench/`` still
    passes ``threads=1``; any other value raises ``ValueError``. It goes
    once the benchmark stops passing it.
    """
    if threads != 1:
        raise ValueError(f"training runs on one thread; threads={threads!r} is not supported")
    mistakes = 0
    count = 0
    t0 = None
    update = learner.update
    for ex in stream:
        if t0 is None:
            t0 = time.perf_counter()
        margin = update(ex)
        if (1 if margin >= 0.0 else -1) != ex.label:
            mistakes += 1
        count += 1
    elapsed = 0.0 if t0 is None else time.perf_counter() - t0
    return TrainResult(mistakes, count, elapsed)


def evaluate(model: OnlineLearner, stream: Iterable[SparseExample]) -> float:
    """Accuracy of ``model`` on ``stream``; the model is not mutated."""
    correct = 0
    total = 0
    predict = model.predict
    for ex in stream:
        if predict(ex) == ex.label:
            correct += 1
        total += 1
    if total == 0:
        raise ValueError("cannot evaluate on an empty stream")
    return correct / total


@dataclass
class CvGrid:
    """Hyperparameter candidates; each algorithm reads the lists it uses."""

    gammas: Sequence[float] = (1.0,)
    etas: Sequence[float] = (0.2,)
    lambdas: Sequence[float] = (0.01,)
    folds: int = 5

    def __post_init__(self):
        if self.folds < 2:
            raise ValueError("folds must be >= 2")
        if not (self.gammas and self.etas and self.lambdas):
            raise ValueError("grid lists must be non-empty")
        # checked whichever algorithm reads them, as make_learner does
        for key, values in self._lists().items():
            for value in values:
                _check_hyperparam(key, value)

    def _lists(self) -> Dict[str, Sequence[float]]:
        """The candidates for each :func:`make_learner` keyword."""
        return {"gamma": self.gammas, "eta": self.etas, "lam": self.lambdas}

    def combinations(self, algo: str) -> List[Dict[str, float]]:
        """Every keyword dict over the lists ``algo`` reads, the first key outermost."""
        keys = learner_class(algo).reads
        lists = self._lists()
        return [dict(zip(keys, values)) for values in itertools.product(*(lists[k] for k in keys))]


def cross_validate(
    algo: str,
    budget: Optional[int],
    grid: CvGrid,
    stream: Iterable[SparseExample],
) -> Tuple[Dict[str, float], List[Tuple[Dict[str, float], float]]]:
    """Mean validation accuracy per grid point over contiguous-block folds.

    Folds are contiguous blocks in stream order (no shuffling), each used
    once for validation while the learner trains on the rest in a single
    pass. Returns (best_params, results) with results in grid order; ties
    keep the earlier grid point. One learner is built per grid point before
    the stream is read, so a bad name, budget or hyperparameter fails first.
    ``stream`` is any iterable of examples, read once into a
    :class:`_RowCache` in a temporary directory that is removed on return,
    as :func:`benchmark_sweep` does; the cache takes 16 bytes per nonzero
    there, and a malformed line fails before any row trains. A trained
    state that cannot be saved raises ``ValueError`` naming the grid point,
    as :func:`~ofs.learners.format_grid_point` spells it, and the fold.
    """
    combinations = grid.combinations(algo)
    for params in combinations:
        make_learner(algo, budget=budget, **params)
    k = grid.folds
    results: List[Tuple[Dict[str, float], float]] = []
    best: Dict[str, float] = {}
    best_acc = -1.0
    with tempfile.TemporaryDirectory(prefix=CACHE_DIR_PREFIX) as tmp:
        rows = _RowCache(stream, tmp, "cv")
        n = len(rows)
        if n < k:
            raise ValueError(f"{n} examples cannot be split into {k} folds")
        bounds = [i * n // k for i in range(k + 1)]
        for params in combinations:
            accs = []
            for f in range(k):
                lo, hi = bounds[f], bounds[f + 1]
                learner = make_learner(algo, budget=budget, **params)
                train_stream(learner, rows.rows(np.r_[0:lo, hi:n]))
                check_savable(learner, f"cv {algo} {format_grid_point(params)} fold {f + 1}")
                accs.append(evaluate(learner, rows.rows(np.arange(lo, hi))))
            mean = sum(accs) / k
            results.append((params, mean))
            if mean > best_acc:
                best, best_acc = params, mean
    return best, results


class _RowCache:
    """One pass over a stream into CSR arrays: labels, indptr, indices, values.

    Each row's indices and values are written once, as int64 and float64,
    as the row is read, to the two raw files ``<name>.idx`` and
    ``<name>.val`` in ``directory``, each opened once, and are read back
    through ``np.memmap``. Their pages are file-backed, so under memory
    pressure the kernel can drop them and read them again later. Labels and
    row offsets stay in memory.
    """

    _CHUNK = 4096  # rows whose labels and offsets a walk converts at once

    def __init__(self, stream: Iterable[SparseExample], directory: str, name: str):
        labels, indptr = array("b"), array("q", [0])
        paths = [os.path.join(directory, f"{name}.{part}") for part in ("idx", "val")]
        with open(paths[0], "wb") as idx, open(paths[1], "wb") as val:
            for ex in stream:
                labels.append(ex.label)
                indptr.append(indptr[-1] + len(ex.indices))
                idx.write(np.ascontiguousarray(ex.indices, np.int64))
                val.write(np.ascontiguousarray(ex.values, np.float64))
        self.labels = np.frombuffer(labels, dtype=np.int8)
        self.indptr = np.frombuffer(indptr, dtype=np.int64)
        nnz = indptr[-1]
        # mapping an empty file fails; an empty read-only array stands in
        self.indices, self.values = (
            np.memmap(path, dtype=dt, mode="r", shape=(nnz,)) if nnz else np.frombuffer(b"", dt)
            for path, dt in zip(paths, (np.int64, np.float64))
        )

    def __len__(self) -> int:
        return len(self.labels)

    def rows(self, order: Optional[np.ndarray] = None) -> Iterator[SparseExample]:
        """Yield the rows in stream order, or in ``order``, as read-only views
        of the cache. Labels and offsets become Python ints ``_CHUNK`` rows
        at a time, so a walk holds the same memory whatever the row count."""
        # plain ndarray views: slicing an np.memmap row by row runs its
        # Python-level __getitem__ and __array_finalize__ on every row
        idx, val = np.asarray(self.indices), np.asarray(self.values)
        n = len(self) if order is None else len(order)
        for lo in range(0, n, self._CHUNK):
            r = np.arange(lo, min(lo + self._CHUNK, n)) if order is None else order[lo : lo + self._CHUNK]
            for y, a, b in zip(self.labels[r].tolist(), self.indptr[r].tolist(), self.indptr[r + 1].tolist()):
                yield SparseExample(y, idx[a:b], val[a:b])


def benchmark_sweep(
    algos: Sequence[str],
    budgets: Sequence[int],
    train: Iterable[SparseExample],
    test: Iterable[SparseExample],
    repeats: int,
    *,
    base_seed: int = 0,
    gamma: float = 1.0,
    eta: float = 0.2,
    lam: float = 0.01,
    dim: Optional[int] = None,
) -> List[RunReport]:
    """Train and evaluate every (algo, budget, repeat) combination.

    One learner is built per (algo, budget) before any input is read, so a
    bad name, budget or hyperparameter fails first. ``train`` and ``test``
    are then any iterables of examples, each read once into a
    :class:`_RowCache` in a temporary directory that is removed on return;
    the caches take 16 bytes per nonzero there. A malformed line fails
    while the caches are built, before any row trains. Learners without a
    budget train once per repeat and report B = 0. Repeat r walks the
    training rows in the order of
    ``np.random.default_rng(base_seed + r).permutation(n)``, shared by every
    algorithm and budget in that repeat so comparisons are paired. Sparsity
    is measured against ``dim``, the one place the dimensionality is
    declared, or against the learner's own dimension if that is larger.
    A trained state that cannot be saved raises ``ValueError`` naming the
    algorithm, budget and seed.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    if dim is not None and dim < 1:
        raise ValueError("dim must be >= 1")
    params = {"gamma": gamma, "eta": eta, "lam": lam}
    runs = [(algo, budget) for algo in algos for budget in (budgets if algo in BUDGETED else (0,))]
    for algo, budget in runs:
        make_learner(algo, budget=budget, **params)
    reports: List[RunReport] = []
    with tempfile.TemporaryDirectory(prefix=CACHE_DIR_PREFIX) as tmp:
        train_rows = _RowCache(train, tmp, "train")
        test_rows = _RowCache(test, tmp, "test")
        for r in range(repeats):
            seed = base_seed + r
            order = np.random.default_rng(seed).permutation(len(train_rows))
            for algo, budget in runs:
                learner = make_learner(algo, budget=budget, **params)
                started = time.perf_counter()
                tr = train_stream(learner, train_rows.rows(order))
                check_savable(learner, f"sweep {algo} B={budget} seed={seed}")
                accuracy = evaluate(learner, test_rows.rows())
                total = time.perf_counter() - started
                d = max(dim or 0, len(learner.weights))
                nnz = learner.nonzero_count()
                sparsity = 100.0 * (1.0 - nnz / d) if d else 0.0
                reports.append(
                    RunReport(
                        algo=algo,
                        budget=budget,
                        seed=seed,
                        accuracy=accuracy,
                        mistakes=tr.mistakes,
                        sparsity_pct=sparsity,
                        train_seconds=tr.train_seconds,
                        total_seconds=total,
                        selected=learner.selected_indices(),
                        n_train=tr.examples,
                    )
                )
    return reports
