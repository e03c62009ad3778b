"""Acceptance suite: every headline claim of the package in one place.

Each test carries an ``acceptance`` marker; the conftest plugin prints a
one-line PASS/FAIL verdict per criterion after the run. Tolerances and
sizes are pinned here and should not be loosened to make a failing
criterion pass.
"""
import gc
import itertools
import time

import numpy as np
import pytest

from ofs import pipeline
from ofs.core import SparseExample, sparse_dot
from ofs.data import SyntheticSpec, generate_synthetic, read_libsvm, write_libsvm
from ofs.learners import make_learner, load_model, save_model
from ofs.pipeline import CvGrid, benchmark_sweep, cross_validate, evaluate, train_stream

from helpers import SortSelectSofs, bulk_stream, in_memory_sweep, random_stream


@pytest.mark.acceptance("01", "top-B selection matches sort-based reference on 100 streams")
def test_selection_matches_sort_reference():
    # one budget per stream, cycling through {1, 5, 20}; d and the number
    # of nonzeros vary per stream; equality must hold after every update.
    # Cost is checked against the sort reference on the same streams, not
    # against the wall clock: incremental top-B selection must cost no more
    # than re-sorting every touched coordinate. Stream generation and the
    # equality check are left out of both sums.
    rng = np.random.default_rng(2024)
    budgets = (1, 5, 20)
    clock = time.perf_counter
    started = clock()
    selection_s = ref_s = 0.0
    divergences = 0
    for s in range(100):
        d = int(rng.integers(20, 301))
        m = int(rng.integers(1, min(13, d + 1)))
        stream = bulk_stream(rng, 1000, d, m)
        budget = budgets[s % 3]
        selection = make_learner("sofs", budget=budget)
        ref = SortSelectSofs(budget=budget)
        for x in stream:
            t0 = clock()
            ms = selection.update(x)
            t1 = clock()
            mr = ref.update(x)
            t2 = clock()
            selection_s += t1 - t0
            ref_s += t2 - t1
            if ms != mr or not np.array_equal(selection.weights.array, ref.weights.array):
                divergences += 1
    elapsed = clock() - started
    assert divergences == 0
    assert selection_s <= ref_s, (
        f"selection updates took {selection_s:.2f}s, sort reference {ref_s:.2f}s "
        f"(ratio {selection_s / ref_s:.2f}); whole run {elapsed:.2f}s"
    )


@pytest.mark.acceptance("02", "nonzero count never exceeds the budget (10^4 updates per learner)")
def test_budget_invariant():
    rng = np.random.default_rng(41)
    for algo in ("sofs", "pet", "fofs"):
        budget = 25
        learner = make_learner(algo, budget=budget)
        updates = 0
        for x in random_stream(rng, 10_500, 150):
            learner.update(x)
            updates += 1
            assert learner.nonzero_count() <= budget, (algo, updates)
        assert updates >= 10_000


@pytest.mark.acceptance("03", "covariance diagonal stays in (0,1] and never increases")
def test_covariance_monotone():
    rng = np.random.default_rng(42)
    for algo, budget in (("sofs", 25), ("arow", None)):
        learner = make_learner(algo, budget=budget)
        prev = np.ones(0)
        checks = 0
        for x in random_stream(rng, 10_500, 150):
            learner.update(x)
            sig = learner.sigma.array
            if len(prev) < len(sig):
                grown = np.ones(len(sig))
                grown[: len(prev)] = prev
                prev = grown
            assert np.all(sig > 0.0)
            assert np.all(sig <= 1.0)
            assert np.all(sig <= prev), (algo, checks)
            prev = sig.copy()
            checks += 1
        assert checks >= 10_000


@pytest.mark.acceptance("04", "loss gradient matches central finite differences (rel err < 1e-5)")
def test_gradient_against_finite_differences():
    from ofs.core import DenseVector, squared_hinge, squared_hinge_slope

    rng = np.random.default_rng(43)
    eps = 1e-6
    checked = 0
    while checked < 10:
        w = DenseVector.from_array(rng.uniform(-1.0, 1.0, size=8))
        pairs = [(i, float(v)) for i, v in enumerate(rng.standard_normal(8))]
        x = SparseExample.from_pairs(1, pairs)
        y = 1 if rng.random() < 0.5 else -1
        if abs(1.0 - y * sparse_dot(w, x)) < 1e-3:
            continue  # too close to the hinge kink for finite differences
        # the slope the second-order step scales, times x: the gradient in w
        g = squared_hinge_slope(sparse_dot(w, x), y) * x.values
        for k, j in enumerate(x.indices.tolist()):
            wp = DenseVector.from_array(w.array)
            wm = DenseVector.from_array(w.array)
            wp.array[j] += eps
            wm.array[j] -= eps
            num = (squared_hinge(wp, x, y) - squared_hinge(wm, x, y)) / (2 * eps)
            if num == 0.0 and g[k] == 0.0:
                continue
            rel = abs(g[k] - num) / max(abs(num), abs(g[k]))
            assert rel < 1e-5
        checked += 1


def _fixed_nnz_stream(rng, n, d, m):
    rows = rng.integers(0, d, size=(n, m))
    srt = np.sort(rows, axis=1)
    for r in np.flatnonzero((np.diff(srt, axis=1) == 0).any(axis=1)):
        while True:
            row = np.sort(rng.integers(0, d, size=m))
            if (np.diff(row) != 0).all():
                rows[r] = row
                break
    rows.sort(axis=1)
    vals = rng.standard_normal((n, m))
    vals[vals == 0.0] = 1.0
    labels = rng.integers(0, 2, size=n) * 2 - 1
    return [
        SparseExample(int(labels[r]), rows[r].astype(np.int64), vals[r])
        for r in range(n)
    ]


def _paired_median_update_micros(algo, budget, streams, warmup=500):
    """Median update time of one learner per stream, in microseconds.

    The learners are timed alternately, update by update, so that a shift
    in host speed during the run reaches every median alike.
    """
    learners = [make_learner(algo, budget=budget) for _ in streams]
    for learner, stream in zip(learners, streams):
        for x in stream[:warmup]:
            learner.update(x)
    samples = [[] for _ in streams]
    gc.disable()
    try:
        for xs in zip(*(stream[warmup:] for stream in streams)):
            for learner, x, out in zip(learners, xs, samples):
                t0 = time.perf_counter()
                margin = learner.update(x)
                dt = time.perf_counter() - t0
                y = x.label
                if algo == "sofs":
                    triggered = y * margin < 1.0
                else:  # fofs updates only on prediction mistakes
                    triggered = (1 if margin >= 0.0 else -1) != y
                if triggered:
                    out.append(dt)
    finally:
        gc.enable()
    for out in samples:
        assert len(out) >= 500, f"only {len(out)} update-triggering calls"
    return [float(np.median(out) * 1e6) for out in samples]


@pytest.mark.acceptance("05", "per-update cost flat in d for sofs, linear in d for fofs")
def test_complexity_scaling():
    started = time.perf_counter()
    rng = np.random.default_rng(44)
    n = 2500  # 500 warm-up updates, then 2000 timed
    sofs_streams = [_fixed_nnz_stream(rng, n, d, 50) for d in (10**5, 10**6)]
    fofs_streams = [_fixed_nnz_stream(rng, n, d, 50) for d in (10**5, 10**6)]
    sofs_small, sofs_large = _paired_median_update_micros("sofs", 100, sofs_streams)
    fofs_small, fofs_large = _paired_median_update_micros("fofs", 100, fofs_streams)
    elapsed = time.perf_counter() - started

    change = abs(sofs_large - sofs_small) / sofs_small
    assert change < 0.20, (
        f"sofs median moved {100 * change:.1f}% "
        f"({sofs_small:.1f}us -> {sofs_large:.1f}us) when d grew 10x"
    )
    ratio = fofs_large / fofs_small
    assert ratio >= 5.0, (
        f"fofs median grew only {ratio:.1f}x "
        f"({fofs_small:.1f}us -> {fofs_large:.1f}us) when d grew 10x"
    )
    assert elapsed < 120.0, f"scaling harness took {elapsed:.1f}s, budget is 2min"


@pytest.mark.acceptance("06", "synthetic recovery: sofs beats pet, stays near arow, recovers truth")
def test_synthetic_recovery():
    started = time.perf_counter()
    wins = {100: 0, 200: 0}
    sofs200 = []
    arow_accs = []
    recoveries = []
    for seed in range(10):
        spec = SyntheticSpec(
            n_train=10_000, n_test=1_000, dim=2_000, idim=100, ndim=200, seed=seed
        )
        train, test, informative = generate_synthetic(spec)
        accs = {}
        for algo, budget in (("sofs", 100), ("sofs", 200), ("pet", 100), ("pet", 200)):
            learner = make_learner(algo, budget=budget)
            train_stream(learner, train)
            accs[(algo, budget)] = evaluate(learner, test)
            if (algo, budget) == ("sofs", 200):
                hits = len(learner.selected_indices() & informative)
                recoveries.append(hits / len(informative))
        arow = make_learner("arow")
        train_stream(arow, train)
        arow_accs.append(evaluate(arow, test))
        sofs200.append(accs[("sofs", 200)])
        for budget in (100, 200):
            if accs[("sofs", budget)] >= accs[("pet", budget)]:
                wins[budget] += 1
    elapsed = time.perf_counter() - started

    assert wins[100] >= 8, f"sofs beat pet at B=100 on only {wins[100]}/10 seeds"
    assert wins[200] >= 8, f"sofs beat pet at B=200 on only {wins[200]}/10 seeds"
    mean_sofs = sum(sofs200) / len(sofs200)
    mean_arow = sum(arow_accs) / len(arow_accs)
    assert mean_sofs >= mean_arow - 0.02, (
        f"sofs at B=200 averaged {mean_sofs:.4f}, more than 2 points "
        f"below full-covariance baseline {mean_arow:.4f}"
    )
    assert min(recoveries) >= 0.8, f"worst-seed recovery {min(recoveries):.2f}"
    assert elapsed < 180.0, f"recovery harness took {elapsed:.1f}s, budget is 3min"


@pytest.mark.acceptance("07", "million-dimension run: budgeted sofs matches full ogd at 99.9% sparsity")
def test_high_dimensional_benchmark():
    started = time.perf_counter()
    spec = SyntheticSpec(
        n_train=100_000, n_test=10_000, dim=1_000_000, idim=500, ndim=500, seed=7
    )
    train, test, _ = generate_synthetic(spec)

    # hyperparameters come from five-fold cross validation on a training
    # prefix, one wide grid per algorithm, same protocol for both sides
    prefix = list(itertools.islice(iter(train), 5_000))
    best_sofs, _ = cross_validate("sofs", 500, CvGrid(gammas=(1.0, 32.0, 1024.0)), prefix)
    best_ogd, _ = cross_validate("ogd", None, CvGrid(etas=(0.05, 0.2, 0.8)), prefix)

    sofs = make_learner("sofs", budget=500, gamma=best_sofs["gamma"])
    train_stream(sofs, train)
    sofs_acc = evaluate(sofs, test)

    ogd = make_learner("ogd", eta=best_ogd["eta"])
    train_stream(ogd, train)
    ogd_acc = evaluate(ogd, test)

    sparsity = 100.0 * (1.0 - sofs.nonzero_count() / spec.dim)
    elapsed = time.perf_counter() - started

    assert sofs_acc >= ogd_acc - 0.005, (
        f"sofs {sofs_acc:.4f} (gamma={best_sofs['gamma']:g}) vs "
        f"ogd {ogd_acc:.4f} (eta={best_ogd['eta']:g})"
    )
    assert sparsity >= 99.9, f"sparsity {sparsity:.4f}%"
    assert elapsed < 300.0, f"benchmark took {elapsed:.1f}s, budget is 5min"


@pytest.mark.acceptance("08", "spilled, file-backed sweep reports identical to in-memory runs")
def test_loader_equivalence(tmp_path, monkeypatch):
    spec = SyntheticSpec(n_train=2_000, n_test=500, dim=500, idim=30, ndim=60, seed=8)
    train, test, _ = generate_synthetic(spec)
    write_libsvm(train, tmp_path / "train.svm")
    write_libsvm(test, tmp_path / "test.svm")
    args = (["sofs", "pet"], [30])

    mapped = []
    cache = pipeline._RowCache

    def spying(*args, **kwargs):
        built = cache(*args, **kwargs)
        mapped.append(isinstance(built.indices, np.memmap) and isinstance(built.values, np.memmap))
        return built

    monkeypatch.setattr(pipeline, "_RowCache", spying)
    spilled = benchmark_sweep(
        *args, read_libsvm(tmp_path / "train.svm"), read_libsvm(tmp_path / "test.svm"), repeats=5, dim=spec.dim
    )
    assert mapped == [True, True]  # both caches are read back from their files
    in_memory = in_memory_sweep(*args, list(train), list(test), repeats=5, dim=spec.dim)
    assert len(in_memory) == len(spilled) == 10
    for a, b in zip(in_memory, spilled):
        # csv row minus the two trailing timing fields
        assert a.csv_row().split(",")[:6] == b.csv_row().split(",")[:6]
        assert a.selected == b.selected


@pytest.mark.acceptance("09", "model save/load preserves every prediction on 10^3 examples")
def test_round_trip_predictions(tmp_path):
    rng = np.random.default_rng(45)
    probe = random_stream(rng, 1_000, 120)
    for algo, budget in (("sofs", 20), ("pet", 20), ("fofs", 20), ("ogd", None), ("arow", None)):
        learner = make_learner(algo, budget=budget, gamma=0.9, eta=0.3, lam=0.02)
        for x in random_stream(rng, 600, 100):
            learner.update(x)
        path = tmp_path / f"{algo}.model"
        save_model(learner, path)
        loaded = load_model(path)
        mismatches = sum(
            1 for x in probe if loaded.predict(x) != learner.predict(x)
        )
        assert mismatches == 0, f"{algo}: {mismatches} prediction mismatches"


@pytest.mark.acceptance("10", "fofs weights stay inside the projection ball (10^4 updates)")
def test_projection_ball():
    rng = np.random.default_rng(46)
    for lam in (0.01, 1.0):
        learner = make_learner("fofs", budget=15, eta=0.4, lam=lam)
        radius = 1.0 / np.sqrt(lam)
        updates = 0
        for x in random_stream(rng, 5_500, 80):
            learner.update(x)
            updates += 1
            norm = float(np.linalg.norm(learner.weights.array))
            assert norm <= radius + 1e-12, (lam, updates, norm)
        assert updates >= 5_000
