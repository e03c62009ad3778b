"""Single-pass training, evaluation, cross-validation and benchmark sweeps.

Training is a strict single pass: each example is seen once, in stream
order, with exactly one ``update`` call. By default parsing runs in a
separate reader thread feeding a bounded in-order queue (two-stage
pipeline); setting the environment variable ``OFS_THREADS=1`` or passing
``threads=1`` forces the single-threaded path. Both paths produce
identical results by construction, timing aside.
"""
from __future__ import annotations

import gzip
import os
import queue
import shutil
import tempfile
import threading
import time
from dataclasses import dataclass
from typing import Dict, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from .data import DatasetStream, LibsvmFormatError
from .learners import BUDGETED, OnlineLearner, make_learner

DEFAULT_QUEUE_CAPACITY = 1024
_BATCH = 128

CSV_HEADER = "algo,B,seed,accuracy,mistakes,sparsity_pct,train_s,total_s"


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


def _thread_count(threads: Optional[int]) -> int:
    if threads is not None:
        return int(threads)
    env = os.environ.get("OFS_THREADS")
    if env:
        return int(env)
    return 2


def train_stream(
    learner: OnlineLearner,
    stream: Iterable,
    *,
    threads: Optional[int] = None,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
) -> TrainResult:
    """Drive one pass over ``stream``, one update per example, in order.

    A mistake is counted when the pre-update prediction differs from the
    label. ``train_seconds`` covers first example to last update.
    """
    if _thread_count(threads) <= 1:
        return _train_serial(learner, stream)
    return _train_threaded(learner, stream, queue_capacity)


def _train_serial(learner: OnlineLearner, stream: Iterable) -> TrainResult:
    mistakes = 0
    count = 0
    t0 = None
    it = iter(stream)
    while True:
        try:
            ex = next(it)
        except StopIteration:
            break
        except LibsvmFormatError as err:
            err.example_ordinal = count
            raise
        if t0 is None:
            t0 = time.perf_counter()
        margin = learner.update(ex)
        if (1 if margin >= 0.0 else -1) != ex.label:
            mistakes += 1
        count += 1
    elapsed = 0.0 if t0 is None else time.perf_counter() - t0
    return TrainResult(mistakes, count, elapsed)


class _ReaderFailure:
    __slots__ = ("error",)

    def __init__(self, error: BaseException):
        self.error = error


_DONE = object()


def _train_threaded(learner: OnlineLearner, stream: Iterable, capacity: int) -> TrainResult:
    # examples travel in small batches to amortise queue overhead; the
    # queue bound is expressed in examples
    q: queue.Queue = queue.Queue(maxsize=max(1, capacity // _BATCH))

    def reader():
        batch = []
        try:
            for ex in stream:
                batch.append(ex)
                if len(batch) >= _BATCH:
                    q.put(batch)
                    batch = []
            if batch:
                q.put(batch)
            q.put(_DONE)
        except BaseException as err:  # propagated to the consumer
            if batch:
                q.put(batch)
            q.put(_ReaderFailure(err))

    t = threading.Thread(target=reader, name="ofs-reader", daemon=True)
    t.start()
    mistakes = 0
    count = 0
    t0 = None
    try:
        while True:
            item = q.get()
            if item is _DONE:
                break
            if isinstance(item, _ReaderFailure):
                err = item.error
                if isinstance(err, LibsvmFormatError):
                    err.example_ordinal = count
                raise err
            if t0 is None:
                t0 = time.perf_counter()
            for ex in item:
                margin = learner.update(ex)
                if (1 if margin >= 0.0 else -1) != ex.label:
                    mistakes += 1
                count += 1
    finally:
        t.join(timeout=5.0)
    elapsed = 0.0 if t0 is None else time.perf_counter() - t0
    return TrainResult(mistakes, count, elapsed)


def evaluate(model: OnlineLearner, stream: Iterable) -> float:
    """Accuracy of ``model`` on ``stream``; the model is not mutated."""
    correct = 0
    total = 0
    for ex in stream:
        if model.predict(ex) == ex.label:
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

    def combinations(self, algo: str) -> List[Dict[str, float]]:
        if algo in ("sofs", "arow"):
            return [{"gamma": g} for g in self.gammas]
        if algo in ("pet", "ogd"):
            return [{"eta": e} for e in self.etas]
        if algo == "fofs":
            return [{"eta": e, "lam": l} for e in self.etas for l in self.lambdas]
        raise ValueError(f"unknown algorithm {algo!r}")


def cross_validate(
    algo: str,
    budget: Optional[int],
    grid: CvGrid,
    stream: Iterable,
) -> Tuple[Dict[str, float], List[Tuple[Dict[str, float], float]]]:
    """Mean validation accuracy per grid point over contiguous-block folds.

    Folds are contiguous blocks in stream order (no shuffling), each used
    once for validation while the learner trains on the rest in a single
    pass. Returns (best_params, results) with results in grid order; ties
    keep the earlier grid point.
    """
    examples = list(stream)
    k = grid.folds
    n = len(examples)
    if n < k:
        raise ValueError(f"{n} examples cannot be split into {k} folds")
    bounds = [i * n // k for i in range(k + 1)]
    results: List[Tuple[Dict[str, float], float]] = []
    best: Dict[str, float] = {}
    best_acc = -1.0
    for params in grid.combinations(algo):
        accs = []
        for f in range(k):
            lo, hi = bounds[f], bounds[f + 1]
            learner = make_learner(algo, budget=budget, **params)
            _train_serial(learner, examples[:lo] + examples[hi:])
            accs.append(evaluate(learner, examples[lo:hi]))
        mean = sum(accs) / k
        results.append((params, mean))
        if mean > best_acc:
            best, best_acc = params, mean
    return best, results


class _PermutationSource:
    """Prepares seed-permuted views of the training data for sweeps.

    Data up to ``max_in_memory`` examples is materialized once and
    index-permuted per repeat. Beyond that the stream must be file backed:
    a plain-text copy is made if the source is gzipped, line offsets are
    collected once, and each repeat writes one shuffled on-disk copy.
    """

    def __init__(self, stream: DatasetStream, max_in_memory: int):
        self._stream = stream
        self._limit = max_in_memory
        self._examples: Optional[list] = None
        self._scanned = False
        self._tmp: Optional[tempfile.TemporaryDirectory] = None
        self._plain_path: Optional[str] = None
        self._offsets: Optional[list] = None
        self._copies: Dict[int, str] = {}

    def permuted(self, seed: int) -> DatasetStream:
        if not self._scanned:
            self._scan()
        if self._examples is not None:
            rng = np.random.default_rng(seed)
            perm = rng.permutation(len(self._examples))
            ordered = [self._examples[i] for i in perm]
            return DatasetStream.from_examples(ordered, dim=self._stream.dim)
        return DatasetStream.from_file(self._shuffled_copy(seed), dim=self._stream.dim)

    def _scan(self) -> None:
        self._scanned = True
        examples = []
        for ex in self._stream:
            examples.append(ex)
            if len(examples) > self._limit:
                examples = None
                break
        if examples is not None:
            self._examples = examples
            return
        path = getattr(self._stream, "path", None)
        if path is None:
            raise ValueError(
                f"stream exceeds the in-memory budget of {self._limit} examples "
                "and is not file backed; raise max_in_memory or point the sweep at a file"
            )
        self._tmp = tempfile.TemporaryDirectory(prefix="ofs-sweep-")
        if str(path).endswith(".gz"):
            plain = os.path.join(self._tmp.name, "train.svm")
            with gzip.open(path, "rt", encoding="ascii") as src, open(plain, "w", encoding="ascii") as dst:
                shutil.copyfileobj(src, dst)
            path = plain
        self._plain_path = str(path)
        offsets = []
        with open(path, "rb") as fh:
            pos = fh.tell()
            for line in iter(fh.readline, b""):
                if line.strip():
                    offsets.append(pos)
                pos = fh.tell()
        self._offsets = offsets

    def _shuffled_copy(self, seed: int) -> str:
        if seed in self._copies:
            return self._copies[seed]
        rng = np.random.default_rng(seed)
        perm = rng.permutation(len(self._offsets))
        out = os.path.join(self._tmp.name, f"train_perm_{seed}.svm")
        with open(self._plain_path, "rb") as src, open(out, "wb") as dst:
            for i in perm:
                src.seek(self._offsets[i])
                line = src.readline()
                if not line.endswith(b"\n"):
                    line += b"\n"
                dst.write(line)
        self._copies[seed] = out
        return out


def benchmark_sweep(
    algos: Sequence[str],
    budgets: Sequence[int],
    train: DatasetStream,
    test: DatasetStream,
    repeats: int,
    *,
    base_seed: int = 0,
    gamma: float = 1.0,
    eta: float = 0.2,
    lam: float = 0.01,
    threads: Optional[int] = None,
    queue_capacity: int = DEFAULT_QUEUE_CAPACITY,
    dim: Optional[int] = None,
    max_in_memory: int = 1_000_000,
) -> List[RunReport]:
    """Train and evaluate every (algo, budget, repeat) combination.

    Learners without a budget train once per repeat and report B = 0.
    Repeat r re-permutes the training data with seed ``base_seed + r``; the
    permutation is shared by every algorithm and budget in that repeat so
    comparisons are paired. Sparsity is measured against the declared
    dimensionality when available, else the largest dimension seen.
    """
    if repeats < 1:
        raise ValueError("repeats must be >= 1")
    declared = dim if dim is not None else train.dim
    source = _PermutationSource(train, max_in_memory)
    reports: List[RunReport] = []
    for r in range(repeats):
        seed = base_seed + r
        ptrain = source.permuted(seed)
        for algo in algos:
            for budget in budgets if algo in BUDGETED else (0,):
                learner = make_learner(
                    algo,
                    budget=budget or None,
                    gamma=gamma,
                    eta=eta,
                    lam=lam,
                )
                started = time.perf_counter()
                tr = train_stream(learner, ptrain, threads=threads, queue_capacity=queue_capacity)
                accuracy = evaluate(learner, test)
                total = time.perf_counter() - started
                d = max(int(declared or 0), len(learner.weights))
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
