import hashlib
import os
import re
import tempfile
import threading
import tracemalloc

import numpy as np
import pytest

from ofs import data, pipeline
from ofs.cli import main as cli_main
from ofs.core import SparseExample
from ofs.data import DatasetStream, LibsvmFormatError, SyntheticSpec, generate_synthetic, read_libsvm, write_libsvm
from ofs.learners import ALGOS, BUDGETED, ArowModel, make_learner
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

from helpers import from_pairs, in_memory_sweep, random_stream


def ex(label, *pairs):
    return from_pairs(label, pairs)


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
        state = m.weights.array.tolist()
        first = evaluate(m, examples[50:])
        second = evaluate(m, examples[50:])
        assert first == second
        assert m.weights.array.tolist() == state

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

    @pytest.mark.parametrize(
        "algo,budget,grid,message",
        [
            pytest.param("sofs", 0, CvGrid(), "sofs needs B >= 1, got 0", id="budget-0"),
            pytest.param("pet", None, CvGrid(), "pet needs B >= 1, got None", id="no-budget"),
            pytest.param(
                "fofs", 5, CvGrid(etas=(0.2, 1.0), lambdas=(0.5, 3.0)), "fofs needs lambda * eta <= 1", id="fofs-shrink"
            ),
        ],
    )
    def test_bad_arguments_fail_before_the_stream_is_read(self, algo, budget, grid, message):
        read = []

        def stream():
            read.append(True)
            yield from SEPARABLE * 5

        with pytest.raises(ValueError, match=re.escape(message)):
            cross_validate(algo, budget, grid, stream())
        assert read == []

    def test_results_in_grid_order_and_first_wins_ties(self):
        train, _, _ = self.synthetic()
        # eta=0 twice: identical accuracy, first grid point must win
        best, results = cross_validate("pet", 25, CvGrid(etas=(0.0, 0.0)), train)
        assert [p for p, _ in results] == [{"eta": 0.0}, {"eta": 0.0}]
        assert results[0][1] == results[1][1]
        assert best is results[0][0]

    def test_grid_point_named_as_a_plain_float(self):
        # ogd's weight overflows to inf, and the refusal names the grid point
        examples = [ex(1, (0, 2.0)), ex(-1, (1, 1.0))]
        grid = CvGrid(etas=(np.float64(1.2345678e308),), folds=2)
        with np.errstate(over="ignore", invalid="ignore"), pytest.raises(ValueError) as info:
            cross_validate("ogd", None, grid, examples)
        assert str(info.value).startswith("cv ogd eta=1.2345678e+308 fold 2: coordinate 0 holds weight inf")

    def test_peak_far_below_one_copy(self, tmp_path):
        # the input is read once into a row cache, as a sweep reads it
        spec = SyntheticSpec(n_train=3_000, n_test=1, dim=5_000, idim=20, ndim=80, seed=68)
        path = tmp_path / "cv.svm"
        write_libsvm(generate_synthetic(spec)[0], path)
        payload = 16 * spec.n_train * (spec.idim + spec.ndim)  # the cache's index and value bytes
        tracemalloc.start()
        try:
            best, _ = cross_validate("ogd", None, CvGrid(folds=2), read_libsvm(path))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert best == {"eta": 0.2}
        assert peak <= 0.1 * payload, f"peak {peak / payload:.3f}x the index and value bytes"

    # sha256 of cross_validate's (best, results) for every algorithm, as
    # they were while cv held its input as a list
    CV_DIGEST = "37b5959e6b02020a0692572caa45bd7dd8a3bcf0bad3e7841ebc24f1800a5d5b"

    def test_cv_output_pinned(self, tmp_path):
        spec = SyntheticSpec(n_train=130, n_test=1, dim=200, idim=10, ndim=20, seed=67)
        rows = list(generate_synthetic(spec)[0])
        rows.insert(57, SparseExample(1, np.empty(0, np.int64), np.empty(0)))
        path = tmp_path / "cv.svm"
        write_libsvm(rows, path)
        # 131 rows in 7 folds: the folds differ in size
        grid = CvGrid(gammas=(0.5, 2.0), etas=(0.1, 0.5), lambdas=(0.01, 0.1), folds=7)
        h = hashlib.sha256()
        for algo in ALGOS:
            best, results = cross_validate(algo, 15 if algo in BUDGETED else None, grid, read_libsvm(path))
            h.update(repr((algo, best, [(params, acc.hex()) for params, acc in results])).encode("ascii"))
        assert h.hexdigest() == self.CV_DIGEST


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

        disk = benchmark_sweep(["sofs"], [10], read_libsvm(path), test, repeats=2, dim=200)
        mem = in_memory_sweep(["sofs"], [10], read_libsvm(path), test, repeats=2, dim=200)
        assert _row_fields(disk) == _row_fields(mem)

    def test_oversized_in_memory_stream_spills(self, monkeypatch):
        # the cache writes its own files, so an in-memory list is written too
        train, test = self.desk_data(seed=55)
        args = (["sofs", "pet", "ogd"], [10], train, test)
        cache = pipeline._RowCache
        mapped = []

        def spying(*a, **k):
            built = cache(*a, **k)
            mapped.append(built.indices.filename if isinstance(built.indices, np.memmap) else None)
            return built

        monkeypatch.setattr(pipeline, "_RowCache", spying)
        spilled = benchmark_sweep(*args, repeats=2, dim=300)
        assert mapped[0].endswith("train.idx") and mapped[1].endswith("test.idx")
        assert _row_fields(spilled) == _row_fields(in_memory_sweep(*args, repeats=2, dim=300))

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

    @pytest.mark.parametrize(
        "algos,budgets,params,message",
        [
            pytest.param(["ogd", "sofs"], [0], {}, "sofs needs B >= 1, got 0", id="budget-0"),
            pytest.param(["ogd", "nope"], [5], {}, "unknown algorithm 'nope'", id="unknown-algo"),
            pytest.param(["fofs"], [5], {"eta": 1.0, "lam": 3.0}, "fofs needs lambda * eta <= 1", id="fofs-shrink"),
            pytest.param(["arow"], [5], {"gamma": 0.0}, "gamma must be positive", id="gamma-0"),
        ],
    )
    def test_bad_arguments_fail_before_any_input_is_read(self, algos, budgets, params, message):
        read = []

        def stream():
            read.append(True)
            yield SEPARABLE[0]

        with pytest.raises(ValueError, match=re.escape(message)):
            benchmark_sweep(algos, budgets, stream(), stream(), repeats=1, **params)
        assert read == []

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
    # rows as it read them
    SWEEP_DIGEST = "f7f945ee0bec1783507849b1658bb685fd9c604837e054ec2ae745a20a12b6c3"

    @staticmethod
    def cli_sweep(monkeypatch, line):
        """Run ``ofs sweep`` on ``line`` and return the reports it printed."""
        sweep, got = pipeline.benchmark_sweep, []
        monkeypatch.setattr(pipeline, "benchmark_sweep", lambda *a, **k: got.extend(sweep(*a, **k)) or got)
        assert cli_main(["sweep", *line.split()]) == 0
        return got

    # ofs sweep accepts --max-in-memory and ignores it: every value must
    # give these reports bit for bit
    @pytest.mark.parametrize("max_in_memory", [1_000_000, 200, 10, 0])
    def test_sweep_output_pinned(self, tmp_path, monkeypatch, capsys, max_in_memory):
        spec = SyntheticSpec(n_train=300, n_test=250, dim=500, idim=20, ndim=40, seed=63)
        train, test, _ = generate_synthetic(spec)
        write_libsvm(train, tmp_path / "train.svm")
        write_libsvm(test, tmp_path / "test.svm")
        reports = self.cli_sweep(
            monkeypatch,
            f"--algos {','.join(ALGOS)} --B 10,30 --train {tmp_path / 'train.svm'} --test {tmp_path / 'test.svm'}"
            f" --repeats 2 --seed 5 --dim 500 --max-in-memory {max_in_memory}",
        )
        assert len(reports) == 16
        h = hashlib.sha256()
        for r in reports:
            fields = (r.algo, r.budget, r.seed, r.accuracy.hex(), r.mistakes, r.sparsity_pct.hex(), sorted(r.selected))
            h.update(repr(fields).encode("ascii"))
        assert h.hexdigest() == self.SWEEP_DIGEST

    @pytest.mark.parametrize("max_in_memory", [1_000_000, 10])
    def test_each_file_parsed_once(self, tmp_path, monkeypatch, capsys, max_in_memory):
        train, test = self.files(tmp_path)
        parse = data.parse_libsvm_line
        calls = []

        def counting(*args):
            calls.append(args)
            return parse(*args)

        monkeypatch.setattr(data, "parse_libsvm_line", counting)
        reports = self.cli_sweep(
            monkeypatch,
            f"--algos sofs,ogd --B 10,20 --train {train} --test {test} --repeats 3 --dim 200"
            f" --max-in-memory {max_in_memory}",
        )
        assert len(reports) == 9  # three rows per repeat
        assert len(calls) == self.N_TRAIN + self.N_TEST

    def test_spilled_test_file_gives_identical_rows(self, tmp_path):
        files = self.files(tmp_path, seed=61)
        args = (["sofs", "pet", "ogd"], [5, 15])
        spilled = self.sweep(files, *args, repeats=2, base_seed=3)
        mem = in_memory_sweep(*args, *map(read_libsvm, files), repeats=2, base_seed=3, dim=200)
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
                self.sweep(files, ["sofs"], [10], repeats=1)
            assert spilled == [True]  # the train cache was written, then the test file failed
        else:
            self.sweep(files, ["sofs"], [10], repeats=1)
            assert spilled == [True, True]
        assert os.listdir(scratch) == []


class TestRowCache:
    # n random rows, then one row with no nonzeros if empty_last
    @pytest.mark.parametrize("n,empty_last", [(1_000, False), (7, True), (0, True), (9_000, True)])
    def test_rows_round_trip(self, tmp_path, n, empty_last):
        rng = np.random.default_rng(62)
        examples = random_stream(rng, n, 30) + [SparseExample(-1, np.empty(0, np.int64), np.empty(0))] * empty_last
        cache = _RowCache(examples, str(tmp_path), "t")
        assert len(cache) == len(examples)
        # with no nonzeros there is no file to map
        assert isinstance(cache.indices, np.memmap) == isinstance(cache.values, np.memmap) == (n > 0)
        order = rng.permutation(len(examples))
        for got, want in zip(cache.rows(order), [examples[i] for i in order]):
            assert type(got.indices) is np.ndarray and type(got.values) is np.ndarray
            assert got.label == want.label
            assert np.array_equal(got.indices, want.indices)
            assert np.array_equal(got.values, want.values)
        assert [ex.label for ex in cache.rows()] == [ex.label for ex in examples]

    def test_walk_peak_independent_of_row_count(self, tmp_path):
        # a walk converts labels and row offsets to Python ints a chunk at
        # a time; whole-cache lists would hold about 88 B per row
        def walk_peak(n: int) -> int:
            one, vals = np.arange(n, dtype=np.int64), np.ones(1)
            stream = (SparseExample(1 - 2 * (i & 1), one[i : i + 1], vals) for i in range(n))
            cache = _RowCache(stream, str(tmp_path), f"r{n}")
            order = np.random.default_rng(67).permutation(n)
            tracemalloc.start()
            try:
                assert sum(ex.label for ex in cache.rows(order)) == 0
                return tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()

        small, large = walk_peak(50_000), walk_peak(200_000)
        assert large <= 1.25 * small, f"walk peak {small} B at 50,000 rows, {large} B at 200,000"

    def test_only_empty_rows_spill(self, tmp_path):
        empty = [SparseExample(1, np.empty(0, np.int64), np.empty(0))] * 3
        cache = _RowCache(empty, str(tmp_path), "t")
        assert [(ex.label, len(ex.indices)) for ex in cache.rows()] == [(1, 0)] * 3

    # n random rows and one row with no nonzeros
    @pytest.mark.parametrize("n", [1_000, 7, 0])
    def test_rows_are_read_only_views(self, tmp_path, n):
        examples = random_stream(np.random.default_rng(64), n, 30) + [SparseExample(1, np.empty(0, np.int64), np.empty(0))]
        cache = _RowCache(examples, str(tmp_path), "t")
        rows = list(cache.rows())
        assert len(rows) == n + 1
        for got in rows:
            for arr, whole in ((got.indices, cache.indices), (got.values, cache.values)):
                assert not arr.flags.writeable
                assert np.shares_memory(arr, whole) or arr.size == 0

    def test_spill_files_opened_once(self, tmp_path, monkeypatch):
        examples = random_stream(np.random.default_rng(65), 50, 30)
        opened = []
        monkeypatch.setattr(pipeline, "open", lambda *a, **k: opened.append(a[0]) or open(*a, **k), raising=False)
        cache = _RowCache(examples, str(tmp_path), "t")
        assert sorted(os.path.basename(path) for path in opened) == ["t.idx", "t.val"]
        assert [ex.label for ex in cache.rows()] == [ex.label for ex in examples]

    def test_build_peak_far_below_one_copy(self, tmp_path):
        # the indices and values go to files as they are read; only labels,
        # row offsets and one parsed chunk of the input are held in memory
        spec = SyntheticSpec(n_train=4_000, n_test=1, dim=5_000, idim=20, ndim=80, seed=66)
        train, _, _ = generate_synthetic(spec)
        path = tmp_path / "train.svm"
        write_libsvm(train, path)
        tracemalloc.start()
        try:
            cache = _RowCache(read_libsvm(path), str(tmp_path), "t")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        payload = cache.indices.nbytes + cache.values.nbytes
        assert payload >= 5 * 2**20
        assert peak <= 0.1 * payload, f"peak {peak / payload:.3f}x the index and value bytes"
