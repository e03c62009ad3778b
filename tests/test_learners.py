import tempfile
from pathlib import Path

import numpy as np
import pytest

from ofs.core import DenseVector, SparseExample, sparse_dot
from ofs.learners import (
    ALGOS,
    BUDGETED,
    ArowModel,
    FofsModel,
    OgdModel,
    PetModel,
    SofsModel,
    load_model,
    make_learner,
    save_model,
    truncate,
)

from hypothesis import given, settings, strategies as st

from helpers import SortSelectSofs, TruncatePet, random_stream, tied_stream


def ex(label, *pairs):
    return SparseExample.from_pairs(label, pairs)


def kept_sigmas(m):
    """A sofs learner's kept set as (index, covariance) pairs."""
    keys = m.tracker.indices()
    return list(zip(keys, m.sigma.array[keys].tolist()))


class TestTruncate:
    def test_magnitude_ordering(self):
        w = DenseVector.from_array([3.0, -5.0, 2.0])
        truncate(w, 2)
        assert w.to_list() == [3.0, -5.0, 0.0]

    def test_under_budget_unchanged(self):
        w = DenseVector.from_array([1.0, 0.0, 2.0])
        truncate(w, 2)
        assert w.to_list() == [1.0, 0.0, 2.0]

    def test_tie_keeps_lower_index(self):
        w = DenseVector.from_array([1.0, 1.0, 1.0])
        truncate(w, 2)
        assert w.to_list() == [1.0, 1.0, 0.0]

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = DenseVector.from_array(rng.standard_normal(20))
            b = int(rng.integers(1, 21))
            truncate(w, b)
            once = w.to_list()
            truncate(w, b)
            assert w.to_list() == once
            assert int(np.count_nonzero(w.array)) <= b

    def test_kept_dominate_zeroed(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            orig = rng.standard_normal(15)
            w = DenseVector.from_array(orig)
            truncate(w, 5)
            kept = np.abs(orig[w.array != 0.0])
            dropped = np.abs(orig[(w.array == 0.0) & (orig != 0.0)])
            if len(kept) and len(dropped):
                assert kept.min() >= dropped.max()

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            truncate(DenseVector.from_array([1.0]), 0)


class TestArow:
    def test_single_feature_step(self):
        m = ArowModel(gamma=1.0)
        m.update(ex(1, (0, 1.0)))
        assert m.mu.array[0] == 0.5
        assert m.sigma.array[0] == 0.5

    def test_two_feature_step(self):
        m = ArowModel(gamma=1.0)
        m.update(ex(-1, (0, 1.0), (1, 1.0)))
        assert m.mu.array[0] == pytest.approx(-1.0 / 3.0)
        assert m.mu.array[1] == pytest.approx(-1.0 / 3.0)
        assert m.sigma.array[0] == 0.5
        assert m.sigma.array[1] == 0.5

    def test_zero_loss_no_change(self):
        m = ArowModel()
        m.update(ex(1, (0, 1.0)))
        mu = m.mu.to_list()
        sig = m.sigma.to_list()
        m.update(ex(1, (0, 2.5)))  # margin 1.25, squared hinge 0
        assert m.mu.to_list() == mu
        assert m.sigma.to_list() == sig

    def test_update_returns_pre_update_margin(self):
        rng = np.random.default_rng(13)
        m = ArowModel()
        for x in random_stream(rng, 200, 40):
            expect = sparse_dot(m.mu, x)
            assert m.update(x) == expect

    def test_gamma_validation(self):
        for gamma in (0.0, -1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="gamma must be positive and finite"):
                ArowModel(gamma=gamma)
        with pytest.raises(ValueError):
            make_learner("sofs", budget=5, gamma=float("nan"))
        with pytest.raises(ValueError):
            make_learner("arow", gamma=float("inf"))

    def test_nonzero_count_unbounded(self):
        rng = np.random.default_rng(14)
        m = ArowModel()
        for x in random_stream(rng, 300, 50):
            m.update(x)
        assert m.nonzero_count() > 40  # no selection pressure


class TestSofs:
    def test_budget_one_trace(self):
        m = SofsModel(budget=1, gamma=1.0)
        m.update(ex(1, (0, 1.0)))
        assert m.mu.to_list() == [0.5]
        assert m.sigma.array[0] == 0.5
        assert m.tracker.indices() == [0]
        m.update(ex(1, (1, 2.0)))
        assert m.mu.to_list() == [0.0, pytest.approx(0.4)]
        assert m.sigma.array[1] == pytest.approx(0.2)
        assert m.tracker.indices() == [1]
        assert m.nonzero_count() == 1

    def test_zero_loss_no_change(self):
        m = SofsModel(budget=2)
        m.update(ex(1, (0, 1.0)))
        snapshot = (m.mu.to_list(), m.sigma.to_list(), kept_sigmas(m))
        m.update(ex(1, (0, 3.0)))
        assert (m.mu.to_list(), m.sigma.to_list(), kept_sigmas(m)) == snapshot

    def test_single_feature_never_zeroed(self):
        m = SofsModel(budget=1)
        for _ in range(20):
            m.update(ex(1, (0, 0.5)))
        assert m.mu.array[0] != 0.0
        assert m.tracker.indices() == [0]

    def test_budget_requires_positive(self):
        with pytest.raises(ValueError):
            SofsModel(budget=0)

    def test_matches_arow_when_budget_covers_dimension(self):
        rng = np.random.default_rng(15)
        d = 30
        stream = random_stream(rng, 400, d)
        sofs = SofsModel(budget=d, gamma=0.7)
        arow = ArowModel(gamma=0.7)
        for x in stream:
            assert sofs.update(x) == arow.update(x)
        assert sofs.mu.to_list() == arow.mu.to_list()
        assert sofs.sigma.to_list() == arow.sigma.to_list()

    @pytest.mark.parametrize("budget", [1, 5, 20])
    def test_matches_sort_reference(self, budget):
        # the full-size version of this equivalence runs in the acceptance
        # suite; this one guards the invariant during development
        rng = np.random.default_rng(16 + budget)
        for trial in range(10):
            d = int(rng.integers(20, 120))
            sofs = SofsModel(budget=budget)
            ref = SortSelectSofs(budget=budget)
            for x in random_stream(rng, 300, d):
                assert sofs.update(x) == ref.update(x)
                assert sofs.mu.to_list() == ref.weights.to_list()

    @pytest.mark.parametrize("budget", [1, 5, 20])
    def test_tied_values_match_sort_reference(self, budget):
        # every value 1.0, so covariances tie all the time; ties go to the
        # lower index in the learner and in the reference alike
        rng = np.random.default_rng(30 + budget)
        sofs = SofsModel(budget=budget)
        ref = SortSelectSofs(budget=budget)
        for x in tied_stream(rng, 1500, 200, 8):
            assert sofs.update(x) == ref.update(x)
            assert np.array_equal(sofs.mu.array, ref.weights.array)

    def test_touches_only_example_and_evicted_coordinates(self):
        rng = np.random.default_rng(17)
        m = SofsModel(budget=5)
        prev = np.zeros(0)
        for x in random_stream(rng, 300, 60, max_nnz=8):
            m.update(x)
            cur = m.mu.array.copy()
            if len(prev) < len(cur):
                grown = np.zeros(len(cur))
                grown[: len(prev)] = prev
                prev = grown
            changed = np.flatnonzero(prev != cur)
            outside = set(changed.tolist()) - set(x.indices.tolist())
            # coordinates outside the example may only change by eviction,
            # to zero, and never more of them than the example has nonzeros
            assert len(outside) <= x.nnz
            assert all(cur[j] == 0.0 for j in outside)
            prev = cur

    def test_budget_invariant_randomized(self):
        rng = np.random.default_rng(18)
        for budget in (1, 3, 10):
            m = SofsModel(budget=budget)
            for x in random_stream(rng, 1500, 80):
                m.update(x)
                assert m.nonzero_count() <= budget

    def test_sigma_monotone_and_in_unit_interval(self):
        rng = np.random.default_rng(19)
        m = SofsModel(budget=8)
        prev = np.ones(0)
        for x in random_stream(rng, 1000, 50):
            m.update(x)
            sig = m.sigma.array.copy()
            if len(prev) < len(sig):
                grown = np.ones(len(sig))
                grown[: len(prev)] = prev
                prev = grown
            assert np.all(sig > 0.0)
            assert np.all(sig <= 1.0)
            assert np.all(sig <= prev + 1e-300)
            prev = sig


class TestPet:
    def test_correct_prediction_no_update(self):
        m = PetModel(budget=1, eta=1.0)
        m.update(ex(1, (0, 1.0), (1, 2.0)))  # sign(0) = +1 matches
        assert m.nonzero_count() == 0

    def test_mistake_step_and_truncation(self):
        m = PetModel(budget=1, eta=1.0)
        m.update(ex(-1, (0, 1.0), (1, 2.0)))
        assert m.w.to_list() == [0.0, -2.0]

    def test_budget_invariant_randomized(self):
        rng = np.random.default_rng(20)
        for budget in (1, 4, 12):
            m = PetModel(budget=budget)
            for x in random_stream(rng, 1500, 60):
                m.update(x)
                assert m.nonzero_count() <= budget

    def test_requires_budget(self):
        with pytest.raises(ValueError):
            PetModel(budget=None)

    @settings(max_examples=60, deadline=None)
    @given(
        budget=st.sampled_from([1, 5, 20]),
        seed=st.integers(0, 2**32 - 1),
        d=st.integers(2, 150),
        max_nnz=st.integers(1, 12),
        ties=st.booleans(),
    )
    def test_equals_dense_truncate(self, budget, seed, d, max_nnz, ties):
        # the tracker over kept and touched features gives the same weights,
        # bit for bit, as truncating the whole vector after every mistake
        rng = np.random.default_rng(seed)
        stream = random_stream(rng, 300, d, max_nnz)
        if ties:  # magnitudes from a few levels, so they tie at the cutoff
            stream = [ex(x.label, *zip(x.indices.tolist(), np.sign(x.values).tolist())) for x in stream]
        pet, ref = PetModel(budget=budget), TruncatePet(budget=budget)
        for x in stream:
            assert pet.update(x) == ref.update(x)
            assert np.array_equal(pet.w.array, ref.w.array)


class TestFofs:
    def test_projection_boundary_case(self):
        m = FofsModel(budget=1, eta=0.1, lam=4.0)
        m.w.ensure(1)
        m.w.array[0] = 1.0
        m.update(ex(-1, (0, 1.0)))
        assert m.w.to_list() == [0.5]

    def test_correct_prediction_no_update(self):
        m = FofsModel(budget=1, eta=0.1, lam=4.0)
        m.w.ensure(1)
        m.w.array[0] = 1.0
        m.update(ex(1, (0, 1.0)))
        assert m.w.to_list() == [1.0]

    def test_ball_and_budget_invariants_randomized(self):
        rng = np.random.default_rng(21)
        for lam in (0.01, 0.5, 4.0):
            m = FofsModel(budget=6, eta=0.3, lam=lam)
            radius = 1.0 / np.sqrt(lam)
            for x in random_stream(rng, 1000, 40):
                m.update(x)
                assert float(np.linalg.norm(m.w.array)) <= radius + 1e-12
                assert m.nonzero_count() <= 6

    def test_lambda_validation(self):
        for lam in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda must be positive and finite"):
                FofsModel(budget=1, lam=lam)
        with pytest.raises(ValueError):
            make_learner("fofs", budget=5, lam=float("nan"))


class TestOgd:
    def test_first_step(self):
        m = OgdModel(eta=1.0)
        m.update(ex(1, (0, 1.0)))
        assert m.w.to_list() == [1.0]
        assert m.t == 1

    def test_margin_beyond_one_no_step_but_t_advances(self):
        m = OgdModel(eta=1.0)
        m.update(ex(1, (0, 1.0)))
        m.update(ex(1, (0, 2.0)))  # margin 2, no step
        assert m.w.to_list() == [1.0]
        assert m.t == 2

    def test_step_decays_as_sqrt_t(self):
        m = OgdModel(eta=1.0)
        for _ in range(3):
            m.update(ex(-1, (0, 1.0)))  # always a loss, pushes negative
        m4 = OgdModel(eta=1.0)
        m4.t = 3
        m4.update(ex(1, (0, 1.0)))
        assert m4.w.array[0] == pytest.approx(1.0 / 2.0)  # eta / sqrt(4)

    def test_eta_zero_is_legal_and_inert(self):
        m = OgdModel(eta=0.0)
        for x in random_stream(np.random.default_rng(22), 50, 10):
            m.update(x)
        assert m.nonzero_count() == 0

    def test_negative_eta_rejected(self):
        for eta in (-0.1, float("nan"), float("inf"), float("-inf")):
            with pytest.raises(ValueError, match="eta must be non-negative and finite"):
                OgdModel(eta=eta)
        with pytest.raises(ValueError):
            make_learner("ogd", eta=float("nan"))
        with pytest.raises(ValueError):
            make_learner("pet", budget=5, eta=float("nan"))


class TestMakeLearner:
    def test_all_algorithms_constructible(self):
        assert make_learner("sofs", budget=3).algo == "sofs"
        assert make_learner("pet", budget=3).algo == "pet"
        assert make_learner("fofs", budget=3).algo == "fofs"
        assert make_learner("ogd").algo == "ogd"
        assert make_learner("arow").algo == "arow"

    @pytest.mark.parametrize("algo", ["sofs", "pet", "fofs"])
    def test_budgeted_require_budget(self, algo):
        with pytest.raises(ValueError):
            make_learner(algo)
        with pytest.raises(ValueError):
            make_learner(algo, budget=0)

    def test_unknown_algo(self):
        with pytest.raises(ValueError):
            make_learner("svm")

    @pytest.mark.parametrize("algo", ALGOS)
    def test_unread_hyperparameters_checked(self, algo):
        # a bad gamma, eta or lambda is rejected also by an algorithm that
        # does not read it, so no command accepts a flag unchecked
        budget = 3 if algo in BUDGETED else None
        nan, inf = float("nan"), float("inf")
        bad = [("gamma", nan), ("gamma", 0.0), ("eta", -0.1), ("eta", inf), ("lam", -3.0), ("lam", nan)]
        for key, value in bad:
            name = "lambda" if key == "lam" else key
            with pytest.raises(ValueError, match=f"{name} must be"):
                make_learner(algo, budget=budget, **{key: value})

    def test_hyperparams_forwarded(self):
        m = make_learner("fofs", budget=2, eta=0.5, lam=0.25)
        assert m.hyperparams() == {"eta": 0.5, "lambda": 0.25}
        assert make_learner("sofs", budget=2, gamma=3.0).hyperparams() == {"gamma": 3.0}


class TestPersistence:
    ALGOS = [("sofs", 7), ("pet", 7), ("fofs", 7), ("ogd", None), ("arow", None)]

    @pytest.mark.parametrize("algo,budget", ALGOS)
    def test_round_trip_preserves_predictions(self, algo, budget, tmp_path):
        rng = np.random.default_rng(23)
        m = make_learner(algo, budget=budget, gamma=0.8, eta=0.3, lam=0.05)
        for x in random_stream(rng, 400, 60):
            m.update(x)
        path = tmp_path / "model.txt"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.algo == algo
        assert loaded.budget == m.budget
        assert loaded.hyperparams() == m.hyperparams()
        for x in random_stream(rng, 200, 80):
            assert loaded.predict(x) == m.predict(x)
            assert loaded.raw_margin(x) == m.raw_margin(x)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_equal(self, data):
        # after any stream, values drawn from {-1, +1} (scores tie) or not,
        # a reload gives the same state vectors (bit for bit, but for the
        # sign of a zero weight, which the file does not store), kept set
        # and hyperparameters; the file stores only features whose state
        # differs from untouched, so the kept set is compared over those
        algo = data.draw(st.sampled_from(ALGOS), label="algo")
        budget = data.draw(st.integers(1, 8), label="B") if algo in BUDGETED else None
        positive = st.floats(0.01, 10.0)
        m = make_learner(
            algo,
            budget=budget,
            gamma=data.draw(positive, label="gamma"),
            eta=data.draw(st.floats(0.0, 10.0), label="eta"),
            lam=data.draw(positive, label="lam"),
        )
        d = data.draw(st.integers(1, 30), label="d")
        if data.draw(st.booleans(), label="tied"):
            value = st.sampled_from([-1.0, 1.0])
        else:
            value = st.floats(-100.0, 100.0, allow_nan=False).filter(bool)
        row = st.tuples(st.sampled_from([-1, 1]), st.dictionaries(st.integers(0, d - 1), value, max_size=8))
        for y, feats in data.draw(st.lists(row, max_size=60), label="stream"):
            keys = sorted(feats)
            m.update(SparseExample(y, np.array(keys, dtype=np.int64), np.array([feats[k] for k in keys])))
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            save_model(m, path)
            loaded = load_model(path)
        assert (loaded.algo, loaded.budget, loaded.hyperparams()) == (algo, m.budget, m.hyperparams())
        assert np.array_equal(loaded.weights.array, m.weights.array)
        if algo in ("sofs", "arow"):
            assert np.array_equal(loaded.sigma.array, m.sigma.array)
        if algo in ("sofs", "pet"):
            stored = m.weights.array != 0.0
            if algo == "sofs":
                stored |= m.sigma.array != 1.0
            assert sorted(loaded.tracker.indices()) == sorted(j for j in m.tracker.indices() if stored[j])
        assert loaded.selected_indices() == m.selected_indices()

    def test_loaded_sofs_continues_identically(self, tmp_path):
        rng = np.random.default_rng(24)
        m = SofsModel(budget=5, gamma=1.3)
        stream = random_stream(rng, 500, 40)
        for x in stream[:300]:
            m.update(x)
        path = tmp_path / "model.txt"
        save_model(m, path)
        loaded = load_model(path)
        assert sorted(kept_sigmas(loaded)) == sorted(kept_sigmas(m))
        for x in stream[300:]:
            assert loaded.update(x) == m.update(x)
        assert loaded.mu.to_list() == m.mu.to_list()

    @pytest.mark.parametrize("algo", ["sofs", "pet"])
    def test_tied_resume_is_bit_equal(self, algo, tmp_path):
        # with tied scores, the kept set rebuilt on load must follow the
        # learner's own (score, index) rule, or resuming changes the result
        rng = np.random.default_rng(25)
        stream = tied_stream(rng, 3000, 200, 8)
        m = make_learner(algo, budget=20)
        for x in stream[:1500]:
            m.update(x)
        path = tmp_path / "model.txt"
        save_model(m, path)
        loaded = load_model(path)
        assert loaded.selected_indices() == m.selected_indices()
        for x in stream[1500:]:
            assert loaded.update(x) == m.update(x)
        assert np.array_equal(loaded.weights.array, m.weights.array)

    def test_header_format(self, tmp_path):
        m = SofsModel(budget=3, gamma=1.0)
        m.update(ex(1, (0, 1.0)))
        path = tmp_path / "model.txt"
        save_model(m, path)
        lines = path.read_text().splitlines()
        assert lines[0] == "OFSMODEL v1 sofs 1 3 gamma=1.0"
        assert lines[1] == "0 0.5 0.5"

    def test_reject_foreign_file(self, tmp_path):
        path = tmp_path / "bogus.txt"
        path.write_text("not a model\n")
        with pytest.raises(ValueError):
            load_model(path)

    def test_reject_future_version(self, tmp_path):
        path = tmp_path / "future.txt"
        path.write_text("OFSMODEL v9 sofs 1 3 gamma=1.0\n")
        with pytest.raises(ValueError):
            load_model(path)

    @pytest.mark.parametrize(
        "body,message",
        [
            ("0 0.5 0.5\n-1 0.25 0.5\n", "index -1 outside [0, 4)"),
            ("0 0.5 0.5\n4 0.25 0.5\n", "index 4 outside [0, 4)"),
            ("0 0.5 0.5\n2 0.25 7.0\n", "covariance 7.0 outside (0, 1]"),
            ("0 0.5 0.5\n2 0.25 nan\n", "covariance nan outside (0, 1]"),
            ("0 0.5 0.5\n2 inf 0.5\n", "non-finite weight inf"),
            ("0 0.5 0.5\n2 0.25\n", "expected 3 numbers, got '2 0.25'"),
        ],
    )
    def test_reject_corrupt_body(self, body, message, tmp_path):
        path = tmp_path / "corrupt.txt"
        path.write_text("OFSMODEL v1 sofs 4 3 gamma=1.0\n" + body)
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize(
        "header,message",
        [
            pytest.param("OFSMODEL v1 sofs x 3 gamma=1.0", "d must be an integer >= 0, got 'x'", id="x"),
            pytest.param("OFSMODEL v1 sofs 4 3 gamma=nan", "gamma must be positive and finite, got nan", id="nan"),
            pytest.param("OFSMODEL v1 ogd -5 0 eta=0.2 t=3", "d must be an integer >= 0, got '-5'", id="-5"),
            pytest.param(
                "OFSMODEL v1 ogd 4 0 eta=0.2 t=3 bogus=7", "ogd keys must be eta, t, got eta, t, bogus", id="bogus=7"
            ),
            pytest.param("OFSMODEL v1 sofs 4 3 gamma", "expected key=value, got 'gamma'", id="gamma"),
            pytest.param("OFSMODEL v1 ogd 4 0 eta=0.2 t=2.7", "t must be an integer >= 0, got '2.7'", id="t=2.7"),
            pytest.param("OFSMODEL v1 svm 4 0", "unknown algorithm 'svm'", id="svm"),
            pytest.param("OFSMODEL v1 pet 4 0 eta=0.2", "pet needs B >= 1, got 0", id="B=0"),
            pytest.param("OFSMODEL v1 pet 4 +3 eta=0.2", "B must be an integer >= 0, got '+3'", id="B=+3"),
            pytest.param("OFSMODEL v1 arow 4 2 gamma=1.0", "arow has no budget, so B must be 0, got 2", id="arow-B=2"),
            pytest.param("OFSMODEL v1 fofs 4 2 eta=0.2", "fofs keys must be eta, lambda, got eta", id="no-lambda"),
            pytest.param("OFSMODEL v1 sofs 4 3 gamma=1.0 gamma=2.0", "duplicate key 'gamma'", id="duplicate"),
            pytest.param("OFSMODEL v1 ogd 4 0 eta=fast t=0", "eta must be a number, got 'fast'", id="eta=fast"),
        ],
    )
    def test_reject_corrupt_header(self, header, message, tmp_path):
        path = tmp_path / "corrupt.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: line 1: {message}"

    def test_reject_non_finite_first_order_weight(self, tmp_path):
        path = tmp_path / "corrupt.txt"
        path.write_text("OFSMODEL v1 ogd 4 0 eta=0.2 t=3\n1 -inf\n")
        with pytest.raises(ValueError, match="line 2: non-finite weight -inf"):
            load_model(path)
