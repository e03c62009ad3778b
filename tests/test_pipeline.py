import hashlib
import os
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest

from ofs import data, pipeline
from ofs.core import SparseExample
from ofs.data import DatasetStream, LibsvmFormatError, SyntheticSpec, generate_synthetic, read_libsvm, write_libsvm
from ofs.learners import ALGOS, ArowModel, make_learner
from ofs.pipeline import (
    CSV_HEADER,
    CvGrid,
    RunReport,
    _RowCache,
    benchmark_sweep,
    cross_validate,
    evaluate,
    format_report_table,
    train_stream,
    write_reports_csv,
)

from helpers import random_stream


def ex(label, *pairs):
    return SparseExample.from_pairs(label, pairs)


SEPARABLE = [
    ex(1, (0, 1.0)),
    ex(-1, (1, 1.0)),
    ex(1, (0, 0.8), (1, 0.2)),
    ex(-1, (0, 0.1), (1, 0.9)),
]


class TestTrainStream:
    def test_empty_stream(self):
        m = make_learner("arow")
        result = train_stream(m, [])
        assert result.mistakes == 0
        assert result.examples == 0
        assert m.nonzero_count() == 0

    def test_sign_zero_counts_first_negative_as_mistake(self):
        m = make_learner("arow")
        result = train_stream(m, [ex(-1, (0, 1.0))])
        assert result.mistakes == 1

    def test_first_positive_is_not_a_mistake(self):
        m = make_learner("arow")
        result = train_stream(m, [ex(1, (0, 1.0))])
        assert result.mistakes == 0

    def test_separable_toy_set_learned_by_arow(self):
        m = ArowModel()
        train_stream(m, SEPARABLE)
        assert evaluate(m, SEPARABLE) == 1.0

    def test_single_pass_contract(self):
        seen = []
        stream = DatasetStream(lambda: iter(SEPARABLE))
        calls = []

        class Spy(ArowModel):
            def update(self, x):
                calls.append(x)
                return super().update(x)

        train_stream(Spy(), stream)
        assert len(calls) == len(SEPARABLE)
        assert [id(c) for c in calls] == [id(s) for s in SEPARABLE]

    def test_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.svm"
        path.write_text("+1 1:1.0\n-1 2:1.0\n+1 3:oops\n")
        m = make_learner("arow")
        with pytest.raises(LibsvmFormatError) as info:
            train_stream(m, read_libsvm(path))
        assert info.value.line_no == 3

    def test_learner_error_surfaces_and_leaves_no_thread(self, tmp_path):
        # long enough that a reader running ahead of the learner would fill
        # any bounded queue and block on it
        path = tmp_path / "long.svm"
        path.write_text("+1 1:1.0 2:0.5\n-1 2:1.0 3:0.25\n" * 1500)

        class Failing(ArowModel):
            seen = 0

            def update(self, x):
                self.seen += 1
                if self.seen == 7:
                    raise RuntimeError("update 7 failed")
                return super().update(x)

        before = threading.enumerate()
        with pytest.raises(RuntimeError, match="update 7 failed"):
            train_stream(Failing(), read_libsvm(path))
        assert threading.enumerate() == before

    @pytest.mark.parametrize("threads", [0, 2])
    def test_only_one_thread_accepted(self, threads):
        with pytest.raises(ValueError, match="one thread"):
            train_stream(make_learner("arow"), SEPARABLE, threads=threads)


class TestEvaluate:
    def test_constant_model(self):
        m = make_learner("arow")  # zero weights predict +1 everywhere
        assert evaluate(m, [ex(1, (0, 1.0)), ex(1, (1, 1.0))]) == 1.0
        assert evaluate(m, [ex(-1, (0, 1.0)), ex(-1, (1, 1.0))]) == 0.0

    def test_pure(self):
        rng = np.random.default_rng(32)
        examples = random_stream(rng, 100, 20)
        m = make_learner("sofs", budget=5)
        train_stream(m, examples[:50])
        state = m.weights.to_list()
        first = evaluate(m, examples[50:])
        second = evaluate(m, examples[50:])
        assert first == second
        assert m.weights.to_list() == state

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            evaluate(make_learner("arow"), [])


class TestCvGrid:
    def test_validation(self):
        with pytest.raises(ValueError):
            CvGrid(folds=1)
        with pytest.raises(ValueError):
            CvGrid(gammas=())

    @pytest.mark.parametrize(
        "lists,message",
        [
            pytest.param({"gammas": (1.0, float("nan"))}, "gamma must be positive and finite, got nan", id="gamma-nan"),
            pytest.param({"gammas": (0.0,)}, "gamma must be positive and finite, got 0.0", id="gamma-0"),
            pytest.param({"etas": (0.2, -0.1)}, "eta must be non-negative and finite, got -0.1", id="eta-negative"),
            pytest.param({"etas": (float("inf"),)}, "eta must be non-negative and finite, got inf", id="eta-inf"),
            pytest.param({"lambdas": (-3.0,)}, "lambda must be positive and finite, got -3.0", id="lambda-negative"),
        ],
    )
    def test_every_grid_value_checked(self, lists, message):
        # each list is checked whichever algorithm later reads it
        with pytest.raises(ValueError) as info:
            CvGrid(**lists)
        assert str(info.value) == message

    def test_combinations_per_algo(self):
        grid = CvGrid(gammas=(1.0, 2.0), etas=(0.1,), lambdas=(0.01, 0.1))
        assert grid.combinations("sofs") == [{"gamma": 1.0}, {"gamma": 2.0}]
        assert grid.combinations("arow") == [{"gamma": 1.0}, {"gamma": 2.0}]
        assert grid.combinations("ogd") == [{"eta": 0.1}]
        assert grid.combinations("fofs") == [
            {"eta": 0.1, "lam": 0.01},
            {"eta": 0.1, "lam": 0.1},
        ]
        with pytest.raises(ValueError):
            grid.combinations("nope")


class TestCrossValidate:
    def synthetic(self, seed=40):
        spec = SyntheticSpec(n_train=800, n_test=400, dim=400, idim=25, ndim=50, seed=seed)
        return generate_synthetic(spec)

    def test_single_candidate_returned(self):
        train, _, _ = self.synthetic()
        best, results = cross_validate("sofs", 25, CvGrid(gammas=(1.0,)), train)
        assert best == {"gamma": 1.0}
        assert len(results) == 1

    def test_degenerate_eta_loses(self):
        train, _, _ = self.synthetic()
        best, results = cross_validate("ogd", None, CvGrid(etas=(0.0, 0.2)), train)
        assert best == {"eta": 0.2}
        scores = dict((tuple(p.items()), a) for p, a in results)
        assert scores[(("eta", 0.2),)] > scores[(("eta", 0.0),)]

    def test_too_few_examples(self):
        with pytest.raises(ValueError):
            cross_validate("ogd", None, CvGrid(folds=5), SEPARABLE)

    def test_gamma_grid_pick_close_to_test_optimum(self):
        train, test, _ = self.synthetic(seed=41)
        grid = CvGrid(gammas=(0.25, 1.0, 4.0))
        best, _ = cross_validate("sofs", 25, grid, train)
        test_acc = {}
        for g in grid.gammas:
            m = make_learner("sofs", budget=25, gamma=g)
            train_stream(m, train)
            test_acc[g] = evaluate(m, test)
        chosen = test_acc[best["gamma"]]
        assert chosen >= max(test_acc.values()) - 0.01

    def test_results_in_grid_order_and_first_wins_ties(self):
        train, _, _ = self.synthetic()
        # eta=0 twice: identical accuracy, first grid point must win
        best, results = cross_validate("pet", 25, CvGrid(etas=(0.0, 0.0)), train)
        assert [p for p, _ in results] == [{"eta": 0.0}, {"eta": 0.0}]
        assert results[0][1] == results[1][1]
        assert best is results[0][0]


class TestSweep:
    def desk_data(self, seed=50):
        spec = SyntheticSpec(n_train=600, n_test=300, dim=300, idim=20, ndim=40, seed=seed)
        train, test, _ = generate_synthetic(spec)
        return list(train), list(test)

    def test_shapes_and_seeds(self):
        train, test = self.desk_data()
        reports = benchmark_sweep(["sofs", "pet"], [10, 20], train, test, repeats=3, base_seed=100, dim=300)
        assert len(reports) == 12
        assert sorted({r.seed for r in reports}) == [100, 101, 102]
        for r in reports:
            assert 0.0 <= r.accuracy <= 1.0
            assert 0.0 <= r.sparsity_pct <= 100.0
            assert r.n_train == 600

    def test_dense_baseline_once_per_repeat(self):
        train, test = self.desk_data(seed=53)
        reports = benchmark_sweep(["sofs", "ogd"], [10, 20, 50], train, test, repeats=2, dim=300)
        ogd = [r for r in reports if r.algo == "ogd"]
        assert len(ogd) == 2
        assert [r.budget for r in ogd] == [0, 0]
        assert sorted((r.budget, r.seed) for r in reports if r.algo == "sofs") == [
            (b, s) for b in (10, 20, 50) for s in (0, 1)
        ]

    def test_deterministic_modulo_timing(self):
        train, test = self.desk_data(seed=51)
        a = benchmark_sweep(["sofs"], [15], train, test, repeats=2, base_seed=7, dim=300)
        b = benchmark_sweep(["sofs"], [15], train, test, repeats=2, base_seed=7, dim=300)
        for ra, rb in zip(a, b):
            assert (ra.algo, ra.budget, ra.seed, ra.accuracy, ra.mistakes, ra.sparsity_pct) == (
                rb.algo,
                rb.budget,
                rb.seed,
                rb.accuracy,
                rb.mistakes,
                rb.sparsity_pct,
            )
            assert ra.selected == rb.selected

    def test_permutation_shared_within_repeat(self):
        # same algorithm twice in one sweep must see the same stream order,
        # giving identical rows apart from timing
        train, test = self.desk_data(seed=52)
        reports = benchmark_sweep(["sofs", "sofs"], [15], train, test, repeats=1, dim=300)
        assert reports[0].mistakes == reports[1].mistakes
        assert reports[0].accuracy == reports[1].accuracy
        assert reports[0].selected == reports[1].selected

    def test_budget_above_touched_reports_actual_nonzeros(self):
        # ndim=0 caps the touchable coordinates at idim, far below B
        spec = SyntheticSpec(n_train=200, n_test=50, dim=300, idim=20, ndim=0, seed=53)
        train, test, _ = generate_synthetic(spec)
        (r,) = benchmark_sweep(["sofs"], [250], list(train), list(test), repeats=1, dim=300)
        nnz = 300 * (1.0 - r.sparsity_pct / 100.0)
        assert nnz <= 20 + 1e-9

    def test_spill_to_disk_matches_in_memory(self, tmp_path):
        spec = SyntheticSpec(n_train=300, n_test=100, dim=200, idim=10, ndim=20, seed=54)
        train, test, _ = generate_synthetic(spec)
        path = tmp_path / "train.svm.gz"
        write_libsvm(train, path)
        test = list(test)

        mem = benchmark_sweep(["sofs"], [10], read_libsvm(path), test, repeats=2, dim=200)
        disk = benchmark_sweep(
            ["sofs"], [10], read_libsvm(path), test, repeats=2, dim=200, max_in_memory=10
        )
        for ra, rb in zip(mem, disk):
            assert ra.accuracy == rb.accuracy
            assert ra.mistakes == rb.mistakes
            assert ra.selected == rb.selected

    def test_oversized_in_memory_stream_spills(self, monkeypatch):
        # the spill writes its own files, so an in-memory list spills too
        train, test = self.desk_data(seed=55)
        args = (["sofs", "pet", "ogd"], [10], train, test)
        mem = benchmark_sweep(*args, repeats=2, dim=300)
        cache = pipeline._RowCache
        mapped = []

        def spying(*a, **k):
            built = cache(*a, **k)
            mapped.append(built.indices.filename if isinstance(built.indices, np.memmap) else None)
            return built

        monkeypatch.setattr(pipeline, "_RowCache", spying)
        spilled = benchmark_sweep(*args, repeats=2, dim=300, max_in_memory=10)
        assert mapped[0].endswith("train.idx") and mapped[1].endswith("test.idx")
        assert [(r.accuracy, r.mistakes, r.selected) for r in spilled] == [
            (r.accuracy, r.mistakes, r.selected) for r in mem
        ]

    def test_accuracy_rises_with_budget_until_idim(self):
        spec = SyntheticSpec(n_train=2000, n_test=500, dim=500, idim=40, ndim=80, seed=56)
        train, test, _ = generate_synthetic(spec)
        train, test = list(train), list(test)
        acc = {}
        for budget in (10, 20, 40, 80):
            (r,) = benchmark_sweep(["sofs"], [budget], train, test, repeats=1, dim=500)
            acc[budget] = r.accuracy
        assert acc[20] >= acc[10] - 0.01
        assert acc[40] >= acc[20] - 0.01
        assert abs(acc[80] - acc[40]) <= 0.02  # flat beyond idim

    def test_csv_output(self, tmp_path):
        train, test = self.desk_data(seed=57)
        reports = benchmark_sweep(["pet"], [10], train, test, repeats=2, dim=300)
        path = tmp_path / "out.csv"
        write_reports_csv(reports, path)
        lines = path.read_text().splitlines()
        assert lines[0] == CSV_HEADER
        assert lines[0] == "algo,B,seed,accuracy,mistakes,sparsity_pct,train_s,total_s"
        assert len(lines) == 3
        first = lines[1].split(",")
        assert first[0] == "pet"
        assert first[1] == "10"
        assert first[2] == "0"
        float(first[3])
        int(first[4])

    def test_format_table(self):
        rep = RunReport(
            algo="sofs",
            budget=5,
            seed=0,
            accuracy=0.5,
            mistakes=3,
            sparsity_pct=99.0,
            train_seconds=0.1,
            total_seconds=0.2,
            selected=frozenset(),
            n_train=10,
        )
        table = format_report_table([rep])
        assert "sofs" in table
        assert "accuracy" in table.splitlines()[0]

    def test_repeats_validated(self):
        train, test = self.desk_data(seed=58)
        with pytest.raises(ValueError):
            benchmark_sweep(["sofs"], [10], train, test, repeats=0, dim=300)

    def test_max_in_memory_validated(self):
        train, test = self.desk_data(seed=58)
        with pytest.raises(ValueError, match="max_in_memory must be >= 0"):
            benchmark_sweep(["sofs"], [10], train, test, repeats=1, dim=300, max_in_memory=-5)

    @pytest.mark.parametrize("dim", [0, -5])
    def test_dim_validated(self, dim):
        train, test = self.desk_data(seed=58)
        with pytest.raises(ValueError, match="dim must be >= 1"):
            benchmark_sweep(["sofs"], [10], train, test, repeats=1, dim=dim)

    @pytest.mark.parametrize("kind", [list, iter], ids=["list", "generator"])
    def test_any_iterable_accepted(self, kind):
        # a one-shot iterator is enough: each stream is read once, into the row cache
        train, test = self.desk_data(seed=59)
        got = benchmark_sweep(["sofs", "ogd"], [10], kind(train), kind(test), repeats=2)
        replayed = DatasetStream(lambda: iter(train)), DatasetStream(lambda: iter(test))
        want = benchmark_sweep(["sofs", "ogd"], [10], *replayed, repeats=2)
        assert _row_fields(got) == _row_fields(want)

    def test_dim_sets_sparsity_denominator(self):
        train, test = self.desk_data(seed=59)
        seen = 1 + max(int(ex.indices.max()) for ex in train)
        sparsity = {}
        for dim in (None, 5, 10_000):
            (r,) = benchmark_sweep(["sofs"], [10], train, test, repeats=1, dim=dim)
            assert len(r.selected) == 10
            sparsity[dim] = r.sparsity_pct
        assert sparsity[10_000] == 100.0 * (1.0 - 10 / 10_000)
        assert sparsity[None] == 100.0 * (1.0 - 10 / seen)
        assert sparsity[5] == sparsity[None]  # below the learner's own dimension, dim is ignored


def _row_fields(reports):
    return [
        (r.algo, r.budget, r.seed, r.accuracy, r.mistakes, r.sparsity_pct, r.selected, r.n_train)
        for r in reports
    ]


class TestSweepCache:
    N_TRAIN, N_TEST = 120, 80

    def files(self, tmp_path, seed=60):
        spec = SyntheticSpec(n_train=self.N_TRAIN, n_test=self.N_TEST, dim=200, idim=10, ndim=20, seed=seed)
        train, test, _ = generate_synthetic(spec)
        write_libsvm(train, tmp_path / "train.svm")
        write_libsvm(test, tmp_path / "test.svm")
        return tmp_path / "train.svm", tmp_path / "test.svm"

    def sweep(self, files, algos, budgets, **kwargs):
        """``benchmark_sweep`` over fresh readers of ``files``."""
        train, test = files
        return benchmark_sweep(algos, budgets, read_libsvm(train), read_libsvm(test), dim=200, **kwargs)

    # sha256 of every report's algo, B, seed, accuracy, mistakes, sparsity
    # and sorted selected set, as the row cache gave them before it wrote
    # rows as it read them; each limit must give these reports bit for bit
    SWEEP_DIGEST = "f7f945ee0bec1783507849b1658bb685fd9c604837e054ec2ae745a20a12b6c3"

    @pytest.mark.parametrize("max_in_memory", [1_000_000, 200, 10, 0])
    def test_sweep_output_pinned(self, tmp_path, max_in_memory):
        spec = SyntheticSpec(n_train=300, n_test=250, dim=500, idim=20, ndim=40, seed=63)
        train, test, _ = generate_synthetic(spec)
        write_libsvm(train, tmp_path / "train.svm")
        write_libsvm(test, tmp_path / "test.svm")
        reports = benchmark_sweep(
            ALGOS,
            [10, 30],
            read_libsvm(tmp_path / "train.svm"),
            read_libsvm(tmp_path / "test.svm"),
            2,
            base_seed=5,
            dim=500,
            max_in_memory=max_in_memory,
        )
        assert len(reports) == 16
        h = hashlib.sha256()
        for r in reports:
            fields = (r.algo, r.budget, r.seed, r.accuracy.hex(), r.mistakes, r.sparsity_pct.hex(), sorted(r.selected))
            h.update(repr(fields).encode("ascii"))
        assert h.hexdigest() == self.SWEEP_DIGEST

    @pytest.mark.parametrize("max_in_memory", [1_000_000, 10])
    def test_each_file_parsed_once(self, tmp_path, monkeypatch, max_in_memory):
        files = self.files(tmp_path)
        parse = data.parse_libsvm_line
        calls = []

        def counting(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(data, "parse_libsvm_line", counting)
        reports = self.sweep(files, ["sofs", "ogd"], [10, 20], repeats=3, max_in_memory=max_in_memory)
        assert len(reports) == 9  # three rows per repeat
        assert len(calls) == self.N_TRAIN + self.N_TEST

    def test_spilled_test_file_gives_identical_rows(self, tmp_path):
        files = self.files(tmp_path, seed=61)
        args = (files, ["sofs", "pet", "ogd"], [5, 15])
        mem = self.sweep(*args, repeats=2, base_seed=3)
        spilled = self.sweep(*args, repeats=2, base_seed=3, max_in_memory=self.N_TEST - 1)
        assert _row_fields(spilled) == _row_fields(mem)

    def test_malformed_test_line_fails_before_training(self, tmp_path, monkeypatch):
        files = self.files(tmp_path)
        with open(files[1], "a", encoding="ascii") as fh:
            fh.write("+1 3:oops\n")
        trained = []
        monkeypatch.setattr(pipeline, "train_stream", lambda *a, **k: trained.append(a))
        with pytest.raises(LibsvmFormatError) as info:
            self.sweep(files, ["sofs"], [10], repeats=2)
        assert str(info.value).startswith(f"{files[1]}: line {self.N_TEST + 1}: ")
        assert trained == []

    @pytest.mark.parametrize("malformed", [False, True])
    def test_spill_directory_removed(self, tmp_path, monkeypatch, malformed):
        files = self.files(tmp_path)
        if malformed:
            with open(files[1], "a", encoding="ascii") as fh:
                fh.write("-1 4:1.0 2:1.0\n")
        scratch = tmp_path / "scratch"
        scratch.mkdir()
        monkeypatch.setattr(tempfile, "tempdir", str(scratch))
        spilled = []
        cache = pipeline._RowCache

        def spying(*args, **kwargs):
            built = cache(*args, **kwargs)
            spilled.append(isinstance(built.indices, np.memmap))
            return built

        monkeypatch.setattr(pipeline, "_RowCache", spying)
        if malformed:
            with pytest.raises(LibsvmFormatError):
                self.sweep(files, ["sofs"], [10], repeats=1, max_in_memory=10)
            assert spilled == [True]  # the train cache spilled, then the test file failed
        else:
            self.sweep(files, ["sofs"], [10], repeats=1, max_in_memory=10)
            assert spilled == [True, True]
        assert os.listdir(scratch) == []


class TestRowCache:
    @pytest.mark.parametrize("limit,mapped", [(1_000, False), (7, True), (0, True)])
    def test_rows_round_trip(self, tmp_path, limit, mapped):
        rng = np.random.default_rng(62)
        examples = random_stream(rng, 50, 30) + [SparseExample(-1, np.empty(0, np.int64), np.empty(0))]
        cache = _RowCache(examples, limit, str(tmp_path), "t")
        assert len(cache) == len(examples)
        assert isinstance(cache.indices, np.memmap) == mapped
        order = rng.permutation(len(examples))
        for got, want in zip(cache.rows(order), [examples[i] for i in order]):
            assert type(got.indices) is np.ndarray and type(got.values) is np.ndarray
            assert got.label == want.label
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.values, want.values)
        assert [ex.label for ex in cache.rows()] == [ex.label for ex in examples]

    def test_only_empty_rows_spill(self, tmp_path):
        empty = [SparseExample(1, np.empty(0, np.int64), np.empty(0))] * 3
        cache = _RowCache(empty, 1, str(tmp_path), "t")
        assert [(ex.label, ex.nnz) for ex in cache.rows()] == [(1, 0)] * 3

    @pytest.mark.parametrize("limit", [1_000, 7, 0])
    def test_rows_are_read_only_views(self, tmp_path, limit):
        examples = random_stream(np.random.default_rng(64), 30, 30)
        cache = _RowCache(examples, limit, str(tmp_path), "t")
        for got in cache.rows():
            for arr, whole in ((got.indices, cache.indices), (got.values, cache.values)):
                assert not arr.flags.writeable
                assert np.shares_memory(arr, whole)

    def test_spill_files_opened_once(self, tmp_path, monkeypatch):
        examples = random_stream(np.random.default_rng(65), 50, 30)
        opened = []
        monkeypatch.setattr(pipeline, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k), raising=False)
        cache = _RowCache(examples, 0, str(tmp_path), "t")
        assert sorted(os.path.basename(path) for path in opened) == ["t.idx", "t.val"]
        assert [ex.label for ex in cache.rows()] == [ex.label for ex in examples]

    def test_in_memory_peak_near_one_copy(self, tmp_path):
        # one copy of the indices and values, plus the buffers' growth slack
        spec = SyntheticSpec(n_train=4_000, n_test=1, dim=5_000, idim=20, ndim=80, seed=66)
        train, _, _ = generate_synthetic(spec)
        path = tmp_path / "train.svm"
        write_libsvm(train, path)
        tracemalloc.start()
        try:
            cache = _RowCache(read_libsvm(path), 1_000_000, str(tmp_path), "t")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = cache.indices.nbytes + cache.values.nbytes
        assert payload >= 5 * 2**20
        assert peak <= 1.3 * payload, f"peak {peak / payload:.2f}x the index and value bytes"
