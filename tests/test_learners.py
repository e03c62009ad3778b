import hashlib
import inspect
import math
import sys
import tempfile
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from ofs import learners
from ofs.core import SparseExample, sparse_dot
from ofs.data import SyntheticSpec, generate_synthetic
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
from ofs.pipeline import CvGrid

from hypothesis import event, example, given, settings, strategies as st

from helpers import (
    PlainFofs,
    SortSelectSofs,
    TruncatePet,
    dense_truncate,
    dense_vector,
    from_pairs,
    plain_dot,
    plain_learner,
    random_stream,
    tied_stream,
)


def ex(label, *pairs):
    return from_pairs(label, pairs)


def kept_sigmas(m):
    """A sofs learner's kept set as (index, covariance) pairs."""
    keys = m.tracker.indices()
    return list(zip(keys, m.sigma.array[keys].tolist()))


# corrupt or borderline spellings, drawn in place of a valid field
JUNK = ["nan", "-nan", "inf", "-inf", "Infinity", "1e999", "-1e400", "1e-320", "0", "-0", "-5", "2.5", "x", ""]


def draw_model_file(data, junk):
    """A model file's text and its header's d. Each header field and body
    line is valid most of the time and drawn from ``junk`` otherwise."""

    def mostly(valid, corrupt):
        return st.integers(0, 15).flatmap(lambda k: corrupt if k == 0 else valid)

    junk = st.sampled_from(junk)
    finite = st.floats(-1e100, 1e100).map(repr)
    algo = data.draw(mostly(st.sampled_from(ALGOS), st.just("svm")), label="algo")
    d = data.draw(st.integers(0, 40), label="d")
    budget = st.integers(1, 8) if algo in BUDGETED else st.just(0)
    b_tok = data.draw(mostly(budget.map(str), junk), label="B")
    values = {
        "gamma": st.floats(0.01, 10.0).map(repr),
        "eta": st.floats(0.0, 10.0).map(repr),
        "lambda": st.floats(0.01, 10.0).map(repr),
        "t": st.integers(0, 10**6).map(str),
    }
    written = {"sofs": ["gamma"], "arow": ["gamma"], "pet": ["eta"], "ogd": ["eta", "t"], "fofs": ["eta", "lambda"]}
    names = data.draw(mostly(st.just(written.get(algo, [])), st.lists(st.sampled_from(sorted(values)), max_size=4)))
    params = [f"{k}={data.draw(mostly(values[k], junk), label=k)}" for k in names]
    header = " ".join(["OFSMODEL", "v1", algo, data.draw(mostly(st.just(str(d)), junk), label="d"), b_tok] + params)
    fields = [mostly(st.integers(0, max(d - 1, 0)).map(str), junk), mostly(finite, junk)]
    if algo in ("sofs", "arow"):
        fields.append(mostly(st.floats(1e-300, 1.0).map(repr), junk))
    line = mostly(st.tuples(*fields).map(" ".join), st.lists(junk, max_size=4).map(" ".join))
    body = data.draw(st.lists(line, max_size=12), label="body")
    return "\n".join([header] + body) + "\n", d


class TestTruncate:
    def test_magnitude_ordering(self):
        w = dense_vector([3.0, -5.0, 2.0])
        truncate(w, 2)
        assert w.array.tolist() == [3.0, -5.0, 0.0]

    def test_under_budget_unchanged(self):
        w = dense_vector([1.0, 0.0, 2.0])
        truncate(w, 2)
        assert w.array.tolist() == [1.0, 0.0, 2.0]

    def test_tie_keeps_lower_index(self):
        w = dense_vector([1.0, 1.0, 1.0])
        truncate(w, 2)
        assert w.array.tolist() == [1.0, 1.0, 0.0]

    def test_idempotent(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            w = dense_vector(rng.standard_normal(20))
            b = int(rng.integers(1, 21))
            truncate(w, b)
            once = w.array.tolist()
            truncate(w, b)
            assert w.array.tolist() == once
            assert int(np.count_nonzero(w.array)) <= b

    def test_kept_dominate_zeroed(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            orig = rng.standard_normal(15)
            w = dense_vector(orig)
            truncate(w, 5)
            kept = np.abs(orig[w.array != 0.0])
            dropped = np.abs(orig[(w.array == 0.0) & (orig != 0.0)])
            if len(kept) and len(dropped):
                assert kept.min() >= dropped.max()

    def test_bad_budget(self):
        with pytest.raises(ValueError):
            truncate(dense_vector([1.0]), 0)

    @settings(max_examples=500, deadline=None)
    @given(
        values=st.lists(
            st.one_of(
                st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1.0, -1.0, 2.5, -2.5]),
                st.floats(allow_nan=False),
            ),
            max_size=40,
        ),
        budget=st.integers(1, 42),
    )
    @example(values=[0.0, -0.0, -0.0, 0.0], budget=1)  # all zero
    @example(values=[-0.0, 3.0, 0.0, -2.0, -0.0], budget=2)  # nnz = B
    @example(values=[-0.0, 3.0, -5e-324, -2.0, -0.0], budget=2)  # nnz = B + 1
    @example(values=[1.0, -0.0, -1.0, 1.0, 2.0, -1.0], budget=2)  # ties at the cutoff
    @example(values=[5e-324, -5e-324, -0.0, 5e-324], budget=2)
    def test_bytes_equal_dense_reference(self, values, budget):
        # ranking only the nonzero entries keeps the dense result, -0.0 included
        got, want = dense_vector(values), dense_vector(values)
        truncate(got, budget)
        dense_truncate(want, budget)
        assert got.array.tobytes() == want.array.tobytes()


class TestArow:
    def test_single_feature_step(self):
        m = ArowModel(gamma=1.0)
        m.update(ex(1, (0, 1.0)))
        assert m.weights.array[0] == 0.5
        assert m.sigma.array[0] == 0.5

    def test_two_feature_step(self):
        m = ArowModel(gamma=1.0)
        m.update(ex(-1, (0, 1.0), (1, 1.0)))
        assert m.weights.array[0] == pytest.approx(-1.0 / 3.0)
        assert m.weights.array[1] == pytest.approx(-1.0 / 3.0)
        assert m.sigma.array[0] == 0.5
        assert m.sigma.array[1] == 0.5

    def test_zero_loss_no_change(self):
        m = ArowModel()
        m.update(ex(1, (0, 1.0)))
        mu = m.weights.array.tolist()
        sig = m.sigma.array.tolist()
        m.update(ex(1, (0, 2.5)))  # margin 1.25, squared hinge 0
        assert m.weights.array.tolist() == mu
        assert m.sigma.array.tolist() == sig

    def test_update_returns_pre_update_margin(self):
        rng = np.random.default_rng(13)
        m = ArowModel()
        for x in random_stream(rng, 200, 40):
            expect = sparse_dot(m.weights, x)
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
        assert m.weights.array.tolist() == [0.5]
        assert m.sigma.array[0] == 0.5
        assert m.tracker.indices() == [0]
        m.update(ex(1, (1, 2.0)))
        assert m.weights.array.tolist() == [0.0, pytest.approx(0.4)]
        assert m.sigma.array[1] == pytest.approx(0.2)
        assert m.tracker.indices() == [1]
        assert m.nonzero_count() == 1

    def test_zero_loss_no_change(self):
        m = SofsModel(budget=2)
        m.update(ex(1, (0, 1.0)))
        snapshot = (m.weights.array.tolist(), m.sigma.array.tolist(), kept_sigmas(m))
        m.update(ex(1, (0, 3.0)))
        assert (m.weights.array.tolist(), m.sigma.array.tolist(), kept_sigmas(m)) == snapshot

    def test_single_feature_never_zeroed(self):
        m = SofsModel(budget=1)
        for _ in range(20):
            m.update(ex(1, (0, 0.5)))
        assert m.weights.array[0] != 0.0
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
        assert sofs.weights.array.tolist() == arow.weights.array.tolist()
        assert sofs.sigma.array.tolist() == arow.sigma.array.tolist()

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
                assert sofs.weights.array.tolist() == ref.weights.array.tolist()

    @pytest.mark.parametrize("budget", [1, 5, 20])
    def test_tied_values_match_sort_reference(self, budget):
        # every value 1.0, so covariances tie all the time; ties go to the
        # lower index in the learner and in the reference alike
        rng = np.random.default_rng(30 + budget)
        sofs = SofsModel(budget=budget)
        ref = SortSelectSofs(budget=budget)
        for x in tied_stream(rng, 1500, 200, 8):
            assert sofs.update(x) == ref.update(x)
            assert np.array_equal(sofs.weights.array, ref.weights.array)

    def test_touches_only_example_and_evicted_coordinates(self):
        rng = np.random.default_rng(17)
        m = SofsModel(budget=5)
        prev = np.zeros(0)
        for x in random_stream(rng, 300, 60, max_nnz=8):
            m.update(x)
            cur = m.weights.array.copy()
            if len(prev) < len(cur):
                grown = np.zeros(len(cur))
                grown[: len(prev)] = prev
                prev = grown
            changed = np.flatnonzero(prev != cur)
            outside = set(changed.tolist()) - set(x.indices.tolist())
            # coordinates outside the example may only change by eviction,
            # to zero, and never more of them than the example has nonzeros
            assert len(outside) <= len(x.indices)
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
        assert m.weights.array.tolist() == [0.0, -2.0]

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
            assert np.array_equal(pet.weights.array, ref.weights.array)


class TestFofs:
    def test_projection_boundary_case(self):
        m = FofsModel(budget=1, eta=0.1, lam=4.0)
        m.weights.ensure(1)
        m.weights.array[0] = 1.0
        m.update(ex(-1, (0, 1.0)))
        assert m.weights.array.tolist() == [0.5]

    def test_correct_prediction_no_update(self):
        m = FofsModel(budget=1, eta=0.1, lam=4.0)
        m.weights.ensure(1)
        m.weights.array[0] = 1.0
        m.update(ex(1, (0, 1.0)))
        assert m.weights.array.tolist() == [1.0]

    def test_ball_and_budget_invariants_randomized(self):
        rng = np.random.default_rng(21)
        # the last two shrink by 0.2 and by 0 (lambda * eta <= 1 is required)
        for lam, eta in ((0.01, 0.3), (0.5, 0.3), (4.0, 0.2), (4.0, 0.25)):
            m = FofsModel(budget=6, eta=eta, lam=lam)
            radius = 1.0 / np.sqrt(lam)
            for x in random_stream(rng, 1000, 40):
                m.update(x)
                assert float(np.linalg.norm(m.weights.array)) <= radius + 1e-12
                assert m.nonzero_count() <= 6

    @pytest.mark.parametrize("seed", range(4))
    def test_bytes_equal_dense_truncate_through_negative_zeros(self, seed, monkeypatch):
        # a large lambda and tiny values make the decay and the projection
        # underflow weights to -0.0, both in updates that truncate and in
        # updates left within budget; every update must leave the bytes the
        # dense truncation leaves
        cuts = []  # per truncate call: does it zero weights in a vector holding -0.0?

        def spying(w, budget):
            a = w.array
            cuts.append(np.count_nonzero(a) > budget and bool(np.signbit(a[a == 0.0]).any()))
            return truncate(w, budget)

        monkeypatch.setattr(learners, "truncate", spying)
        rng = np.random.default_rng(seed)
        levels = np.array([5e-324, 1e-322, 1e-320, 1.0, 1e3])
        model, plain = FofsModel(budget=8, eta=0.2, lam=4.0), PlainFofs(budget=8, eta=0.2, lam=4.0)
        kept_negative_zeros = 0
        for x in random_stream(rng, 400, 30, max_nnz=6):
            k = len(x.indices)
            x = SparseExample(x.label, x.indices, rng.choice([-1.0, 1.0], k) * rng.choice(levels, k))
            assert np.float64(model.update(x)).tobytes() == np.float64(plain.update(x)).tobytes()
            a = plain.weights.array
            assert model.weights.array.tobytes() == a.tobytes()
            kept_negative_zeros += int(np.count_nonzero(np.signbit(a[a == 0.0])))
        assert any(cuts) and kept_negative_zeros > 0

    def test_lambda_validation(self):
        for lam in (0.0, -0.5, float("nan"), float("inf")):
            with pytest.raises(ValueError, match="lambda must be positive and finite"):
                FofsModel(budget=1, lam=lam)
        with pytest.raises(ValueError):
            make_learner("fofs", budget=5, lam=float("nan"))

    def test_negative_shrink_factor_rejected(self):
        # a factor 1 - lambda * eta below 0 would flip every weight's sign on each mistake
        with pytest.raises(ValueError, match=r"^fofs needs lambda \* eta <= 1, got lambda=3.0 and eta=1.0$"):
            make_learner("fofs", 5, eta=1.0, lam=3.0)
        # a factor of 0 forgets every weight before the step, as eta = 0 never moves
        for eta, lam in ((1.0, 1.0), (10.0, 0.1), (0.0, 1e6)):
            make_learner("fofs", 5, eta=eta, lam=lam)
        m = make_learner("fofs", 5, eta=1.0, lam=1.0)
        for x in (ex(-1, (2, 1.0)), ex(-1, (3, 1.0))):
            m.update(x)
        assert m.weights.array.tolist() == [0.0, 0.0, 0.0, -1.0]


class TestOgd:
    def test_first_step(self):
        m = OgdModel(eta=1.0)
        m.update(ex(1, (0, 1.0)))
        assert m.weights.array.tolist() == [1.0]
        assert m.t == 1

    def test_margin_beyond_one_no_step_but_t_advances(self):
        m = OgdModel(eta=1.0)
        m.update(ex(1, (0, 1.0)))
        m.update(ex(1, (0, 2.0)))  # margin 2, no step
        assert m.weights.array.tolist() == [1.0]
        assert m.t == 2

    def test_step_decays_as_sqrt_t(self):
        m = OgdModel(eta=1.0)
        for _ in range(3):
            m.update(ex(-1, (0, 1.0)))  # always a loss, pushes negative
        m4 = OgdModel(eta=1.0)
        m4.t = 3
        m4.update(ex(1, (0, 1.0)))
        assert m4.weights.array[0] == pytest.approx(1.0 / 2.0)  # eta / sqrt(4)

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


class TestLearnerTable:
    # sha256 of save_model's output for each learner after the stream of
    # test_saved_bytes_unchanged: how learners are declared and built must
    # not change one byte of a saved model
    DIGESTS = {
        "sofs": "7a2e2441b27e2638ec7bed6aabec675771b8fe99eedb12825797777c23841c20",
        "pet": "38e095393706e60e59834107d33ddd5bfec965f15a2d442decac2c48540c7187",
        "fofs": "3d11856378ceedcdf32ae4a922c7676c744b57614e3925f74efa69d365c45a34",
        "ogd": "4b1d7500d3ca10962e1036b8b433db9618de69d2735035727199dd4e3964adb0",
        "arow": "a1feb244fa376e8770196ed81844001a064203b7554255d3bd99711656f81e8a",
    }

    @pytest.mark.parametrize("algo", ALGOS)
    def test_every_grid_point_is_the_learners_header(self, algo):
        grid = CvGrid(gammas=(0.5, 2.0), etas=(0.0, 0.3), lambdas=(0.01, 0.2))
        combos = grid.combinations(algo)
        assert combos and len({tuple(c.items()) for c in combos}) == len(combos)
        for params in combos:
            model = make_learner(algo, budget=3 if algo in BUDGETED else None, **params)
            written = {k: v for k, v in model.hyperparams().items() if k != "t"}
            assert written == {("lambda" if k == "lam" else k): v for k, v in params.items()}

    @pytest.mark.parametrize("algo", ALGOS)
    def test_saved_bytes_unchanged(self, algo, tmp_path):
        model = make_learner(algo, budget=6 if algo in BUDGETED else None, gamma=0.7, eta=0.3, lam=0.05)
        for x in random_stream(np.random.default_rng(11), 400, 80):
            model.update(x)
        path = tmp_path / "model.txt"
        save_model(model, path)
        assert hashlib.sha256(path.read_bytes()).hexdigest() == self.DIGESTS[algo]

    @pytest.mark.parametrize("budget", [None, 0])
    @pytest.mark.parametrize("cls", [SofsModel, PetModel, FofsModel])
    def test_budgeted_constructors_share_one_check(self, cls, budget):
        with pytest.raises(ValueError) as info:
            cls(budget)
        assert str(info.value) == f"{cls.algo} needs B >= 1, got {budget}"
        with pytest.raises(ValueError) as via_name:
            make_learner(cls.algo, budget=budget)
        assert str(via_name.value) == str(info.value)


class TestPaperShape:
    # sha256 of the weights, then the sorted kept indices as int64, after
    # training on a stream shaped like the paper's ultra-high-dimensional
    # regime but smaller: 200 nonzeros per example at d = 10^5, B = 100.
    # Nearly every pet mistake reselects over the kept set and the touched
    # outsiders, a regime the small tracker tests never reach.
    DIGESTS = {
        "sofs": "f6b83755cbbe74897fefdab2a33520818658ab73c55846b0aa63ec22162c3c78",
        "pet": "be4d0f283bff242a46875ee4071d001f8610656da0da05c806388aaf77126820",
    }

    @pytest.mark.parametrize("algo", sorted(DIGESTS))
    def test_selected_set_unchanged(self, algo):
        spec = SyntheticSpec(n_train=300, n_test=1, dim=100_000, idim=100, ndim=100, seed=2014)
        train, _, _ = generate_synthetic(spec)
        model = make_learner(algo, budget=100)
        for x in train:
            model.update(x)
        h = hashlib.sha256(model.weights.array.tobytes())
        h.update(np.sort(np.array(model.tracker.indices(), dtype=np.int64)).tobytes())
        assert len(model.tracker) == 100
        assert h.hexdigest() == self.DIGESTS[algo]


def growing_stream(rng: np.random.Generator, n: int) -> list:
    """Examples whose index range grows from 2 to 4,096 cells, so the state
    vectors grow across every power of two; about one in ten is empty, and
    half the values are +-1, so covariances and magnitudes tie."""
    out = []
    for r in range(n):
        d = int(2 ** (1 + 11 * r / n))
        m = 0 if rng.random() < 0.1 else int(rng.integers(1, min(d, 12) + 1))
        idx = np.sort(rng.choice(d, size=m, replace=False)).astype(np.int64)
        vals = rng.choice([-1.0, 1.0], size=m) if rng.random() < 0.5 else rng.standard_normal(m)
        vals[vals == 0.0] = 1.0
        out.append(SparseExample(int(rng.integers(0, 2)) * 2 - 1, idx, vals))
    return out


class TestPlainFormEquality:
    """Every learner is bit-equal to its rule in the plain form of
    ``helpers``: ``w[idx] += delta`` and ``@``, with a fresh gather for
    every read. ``fofs`` decays the whole vector between the margin and
    the step, so it must not reuse the weights the margin gathered."""

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("algo", ALGOS)
    def test_bit_equal_after_every_update(self, algo, seed):
        rng = np.random.default_rng([seed, ALGOS.index(algo)])
        budget = int(rng.integers(1, 30))
        gamma, eta, lam = float(rng.uniform(0.1, 3.0)), float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.001, 0.1))
        model = make_learner(algo, budget=budget, gamma=gamma, eta=eta, lam=lam)
        plain = plain_learner(algo, budget, gamma, eta, lam)
        second = hasattr(model, "sigma")
        for x in growing_stream(rng, 600):
            assert model.predict(x) == (1 if plain_dot(plain.weights, x) >= 0.0 else -1)
            assert np.float64(sparse_dot(model.weights, x)).tobytes() == np.float64(plain_dot(plain.weights, x)).tobytes()
            got, want = model.update(x), plain.update(x)
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
            assert model.weights.array.tobytes() == plain.weights.array.tobytes()
            if second:
                assert model.sigma.array.tobytes() == plain.sigma.array.tobytes()
            assert model.predict(x) == (1 if plain_dot(plain.weights, x) >= 0.0 else -1)
        assert len(model.weights) > 2048


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
            assert sparse_dot(loaded.weights, x) == sparse_dot(m.weights, x)

    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_round_trip_is_bit_equal(self, data):
        # after any stream of finite values, drawn from {-1, +1} (scores tie)
        # or not, with gamma and eta anywhere in their finite ranges, a
        # reload gives the same state vectors (bit for bit, but for the sign
        # of a zero weight, which the file does not store), kept set and
        # hyperparameters. A state that a step over- or underflowed into,
        # which load_model rejects, makes save_model raise and write nothing
        algo = data.draw(st.sampled_from(ALGOS), label="algo")
        budget = data.draw(st.integers(1, 8), label="B") if algo in BUDGETED else None
        finite = {"allow_nan": False, "allow_infinity": False}
        gamma = data.draw(st.floats(0.0, exclude_min=True, **finite), label="gamma")
        eta = data.draw(st.floats(0.0, **finite), label="eta")
        lam = st.floats(0.0, exclude_min=True, **finite)
        if algo == "fofs" and eta > 0.0:
            # fofs shrinks by 1 - lambda * eta, which must not be negative
            lam = st.floats(0.0, min(1.0 / eta, sys.float_info.max), exclude_min=True)
            lam = lam.filter(lambda lam: lam * eta <= 1.0)
        m = make_learner(algo, budget=budget, gamma=gamma, eta=eta, lam=data.draw(lam, label="lam"))
        d = data.draw(st.integers(1, 30), label="d")
        value = {
            "tied": st.sampled_from([-1.0, 1.0]),
            "any": st.floats(**finite).filter(bool),
            "square-overflows": st.floats(1.5e154, **finite).flatmap(lambda v: st.sampled_from([-v, v])),
        }[data.draw(st.sampled_from(["tied", "any", "square-overflows"]), label="values")]
        row = st.tuples(st.sampled_from([-1, 1]), st.dictionaries(st.integers(0, d - 1), value, max_size=8))
        with np.errstate(over="ignore", invalid="ignore"):
            for y, feats in data.draw(st.lists(row, max_size=60), label="stream"):
                keys = sorted(feats)
                m.update(SparseExample(y, np.array(keys, dtype=np.int64), np.array([feats[k] for k in keys])))
        savable = np.isfinite(m.weights.array).all()
        if algo in ("sofs", "arow"):
            savable &= ((m.sigma.array > 0.0) & (m.sigma.array <= 1.0)).all()
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            if not savable:
                event("refused")
                with pytest.raises(ValueError, match=r"^cannot save .*: coordinate \d+ holds weight "):
                    save_model(m, path)
                assert not path.exists()
                return
            event("saved")
            save_model(m, path)
            loaded = load_model(path)
        assert (loaded.algo, loaded.budget, loaded.hyperparams()) == (algo, m.budget, m.hyperparams())
        assert np.array_equal(loaded.weights.array, m.weights.array)
        if algo in ("sofs", "arow"):
            assert np.array_equal(loaded.sigma.array, m.sigma.array)
        if algo in ("sofs", "pet"):
            assert sorted(loaded.tracker.indices()) == sorted(m.tracker.indices())
        assert loaded.selected_indices() == m.selected_indices()

    @settings(max_examples=200, deadline=None)
    @given(data=st.data())
    def test_resume_after_reload_is_bit_equal(self, data):
        # feature values include subnormals, whose covariance step
        # underflows, and eta may be 0: a kept feature can then hold the
        # state of an untouched one, and must still be kept after a reload
        algo = data.draw(st.sampled_from(["sofs", "pet"]), label="algo")
        m = make_learner(
            algo,
            budget=data.draw(st.integers(1, 4), label="B"),
            gamma=data.draw(st.sampled_from([0.5, 1.0, 2.0]), label="gamma"),
            eta=data.draw(st.sampled_from([0.0, 0.2, 1.0]), label="eta"),
        )
        value = st.sampled_from([5e-324, -5e-324, 1e-310, -1e-200, 1e-200, 0.5, -1.0, 3.0])
        row = st.tuples(st.sampled_from([-1, 1]), st.dictionaries(st.integers(0, 7), value, min_size=1, max_size=4))
        streams = [
            [SparseExample(y, np.array(sorted(f), dtype=np.int64), np.array([f[k] for k in sorted(f)])) for y, f in rows]
            for rows in (data.draw(st.lists(row, max_size=12), label=name) for name in ("before", "after"))
        ]
        for x in streams[0]:
            m.update(x)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            save_model(m, path)
            loaded = load_model(path)
        assert sorted(loaded.tracker.indices()) == sorted(m.tracker.indices())
        for x in streams[1]:
            assert loaded.update(x) == m.update(x)
        assert np.array_equal(loaded.weights.array, m.weights.array)
        if algo == "sofs":
            assert np.array_equal(loaded.sigma.array, m.sigma.array)
        assert sorted(loaded.tracker.indices()) == sorted(m.tracker.indices())

    @pytest.mark.parametrize(
        "algo,kwargs,x,held",
        [
            pytest.param("ogd", {"eta": 1e308}, ex(-1, (0, 2.0)), "weight -inf", id="ogd-overflow"),
            pytest.param("sofs", {"budget": 2}, ex(1, (0, 1e200)), "weight 0.0 and covariance 0.0", id="sofs-overflow"),
            pytest.param("arow", {}, ex(1, (0, 1e200)), "weight 0.0 and covariance 0.0", id="arow-overflow"),
        ],
    )
    def test_save_refuses_a_state_load_model_rejects(self, algo, kwargs, x, held, tmp_path):
        # sigma * x**2 overflows to inf, so the covariance becomes 0; the
        # ogd step overflows to -inf
        m = make_learner(algo, **kwargs)
        with np.errstate(over="ignore", invalid="ignore"):
            m.update(x)
            m.update(ex(1, (1, 1.0)))
        path = tmp_path / "model.txt"
        path.write_text("earlier\n")
        with pytest.raises(ValueError) as info:
            save_model(m, path)
        assert str(info.value) == f"cannot save {path}: coordinate 0 holds {held}, which load_model would reject"
        assert path.read_text() == "earlier\n"  # checked before the file is opened

    def test_kept_default_state_feature_survives_reload(self, tmp_path):
        # sigma * x**2 underflows for x = -5e-324, so feature 1 is kept with
        # sigma 1 and mean 0, the state of a feature never touched
        m = SofsModel(budget=2, gamma=2.0)
        m.update(ex(-1, (1, -5e-324)))
        assert m.tracker.indices() == [1]
        assert (m.weights.array[1], m.sigma.array[1]) == (0.0, 1.0)
        path = tmp_path / "model.txt"
        save_model(m, path)
        assert path.read_text().splitlines()[1:] == ["1 0.0 1.0"]
        loaded = load_model(path)
        assert loaded.tracker.indices() == [1]
        x = ex(-1, (0, -5e-324), (2, 1e-200))
        assert loaded.update(x) == m.update(x)
        assert loaded.weights.array.tobytes() == m.weights.array.tobytes()
        assert loaded.tracker.indices() == m.tracker.indices()

    def test_listed_default_state_lines_rebuild_the_kept_set(self, tmp_path):
        # lines are listed in the kept-set rebuild whatever their values;
        # files without default-state lines load as before
        path = tmp_path / "model.txt"
        path.write_text("OFSMODEL v1 pet 4 2 eta=0.2\n3 0.0\n1 -0.5\n")
        assert sorted(load_model(path).tracker.indices()) == [1, 3]
        path.write_text("OFSMODEL v1 pet 4 2 eta=0.2\n1 -0.5\n")
        assert load_model(path).tracker.indices() == [1]

    def test_fofs_budget_applied_on_load(self, tmp_path):
        # a file listing more weights than B loads truncated, as fofs's own update leaves it
        path = tmp_path / "model.txt"
        path.write_text("OFSMODEL v1 fofs 4 1 eta=0.2 lambda=0.01\n0 0.5\n1 -0.25\n2 0.75\n")
        m = load_model(path)
        assert m.nonzero_count() == 1
        assert m.weights.array.tolist() == [0.0, 0.0, 0.75, 0.0]

    @pytest.mark.parametrize(
        "header,body",
        [("sofs 4 10000000000000 gamma=1.0", "1 0.5 0.25\n"), ("pet 4 10000000000000 eta=0.2", "1 0.5\n")],
        ids=["sofs", "pet"],
    )
    def test_any_budget_loads(self, tmp_path, header, body):
        # the kept set holds only the features it keeps, so a budget far
        # beyond memory costs nothing until that many features are kept
        path = tmp_path / "model.txt"
        path.write_text(f"OFSMODEL v1 {header}\n{body}")
        m = load_model(path)
        assert m.budget == 10**13
        assert m.tracker.indices() == [1]
        assert sparse_dot(m.weights, ex(1, (1, 2.0), (3, 1.0))) == 1.0
        assert m.predict(ex(-1, (1, -2.0))) == -1

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_any_loaded_model_predicts_finite_margins(self, data):
        # a model that loads must give a finite margin on any example.
        # Finite weights can still overflow on huge feature values, so every
        # drawn finite magnitude stays below 1e100 and no sum of products
        # nears the float64 range
        text, d = draw_model_file(data, JUNK)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            path.write_text(text, encoding="ascii")
            try:
                model = load_model(path)
            except ValueError:
                event("rejected")
                return
        event("loaded")
        value = st.floats(-1e100, 1e100).map(lambda v: v or 1.0)
        row = st.dictionaries(st.integers(0, d + 4), value, max_size=8)
        # the first example touches every coordinate the model holds
        examples = [SparseExample(1, np.arange(len(model.weights)), np.ones(len(model.weights)))]
        for feats in data.draw(st.lists(row, max_size=6), label="examples"):
            keys = sorted(feats)
            examples.append(SparseExample(1, np.array(keys, dtype=np.int64), np.array([feats[k] for k in keys])))
        for x in examples:
            margin = sparse_dot(model.weights, x)
            assert math.isfinite(margin)
            assert model.predict(x) == (1 if margin >= 0.0 else -1)

    @staticmethod
    def load_both(path):
        """What load_model and the line scan alone each make of ``path``: the
        weight, covariance and kept-set bytes, or the error string."""

        def outcome():
            try:
                m = load_model(path)
            except ValueError as err:
                return str(err)
            sigma = m.sigma.array.tobytes() if isinstance(m, (SofsModel, ArowModel)) else None
            kept = np.array(sorted(m.tracker.indices()), dtype=np.int64).tobytes() if m.algo in ("sofs", "pet") else None
            return m.weights.array.tobytes(), sigma, kept

        bulk = outcome()
        with mock.patch.object(learners, "_read_body", return_value=None):
            return bulk, outcome()

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_bulk_read_agrees_with_line_scan(self, data):
        # the junk adds spellings int() or float() accept and numpy's reader
        # does not, field and line separators, and a byte outside ASCII
        junk = JUNK + ["+5", "0_5", "1_0", "1.5", "1e3", "0x1p3", "+nan", "1\t2", "\t", "\x0b", "\x1c", "\r", "\xe9"]
        text, _ = draw_model_file(data, junk)
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "model.txt"
            path.write_bytes(text.encode("latin-1"))
            bulk, scanned = self.load_both(path)
        event("rejected" if isinstance(bulk, str) else "loaded")
        assert bulk == scanned

    @pytest.mark.parametrize(
        "header,first,line",
        [("OFSMODEL v1 sofs 9 2 gamma=1.0", "1 2.0 0.5", "3 -0.5 0.25"), ("OFSMODEL v1 ogd 9 0 eta=0.2 t=1", "1 2.0", "3 -0.5")],
        ids=["sofs", "ogd"],
    )
    def test_every_ascii_character_reads_as_in_the_line_scan(self, header, first, line, tmp_path):
        # each ASCII character at each position of a body line
        path = tmp_path / "model.txt"
        for c in map(chr, range(128)):
            for k in range(len(line) + 1):
                path.write_text(f"{header}\n{first}\n{line[:k]}{c}{line[k:]}\n")
                bulk, scanned = self.load_both(path)
                assert bulk == scanned, (c, k)

    @pytest.mark.parametrize("algo,budget", ALGOS)
    def test_saved_files_load_without_the_line_scan(self, algo, budget, tmp_path):
        rng = np.random.default_rng(26)
        m = make_learner(algo, budget=budget, gamma=0.8, eta=0.3, lam=0.05)
        for x in random_stream(rng, 400, 60):
            m.update(x)
        path = tmp_path / "model.txt"
        save_model(m, path)
        with mock.patch.object(learners, "_scan_body", side_effect=AssertionError("line scan reached")):
            loaded = load_model(path)
        assert np.array_equal(loaded.weights.array, m.weights.array)
        if algo in ("sofs", "arow"):
            assert np.array_equal(loaded.sigma.array, m.sigma.array)
        if algo in ("sofs", "pet"):
            assert sorted(loaded.tracker.indices()) == sorted(m.tracker.indices())

    @pytest.mark.parametrize(
        "body",
        [
            pytest.param("\n1 -0.5 0.25\n\n  \n3 2.0 1.0\n\n", id="blank-lines"),
            pytest.param("1 -0.5 0.25\r\n3 2.0 1.0\r\n", id="crlf"),
            pytest.param("1\t-0.5\t0.25\n3\t2.0\t1.0\n", id="tabs"),
            pytest.param("1 -0.5 0.25  \n3 2.0 1.0 \t\n", id="trailing-spaces"),
            pytest.param("1 -0.5 0.25\n3 2.0 1.0", id="no-final-newline"),
        ],
    )
    def test_edge_bodies_load_without_warnings(self, body, tmp_path):
        path = tmp_path / "model.txt"
        path.write_bytes(("OFSMODEL v1 sofs 5 2 gamma=1.0\n" + body).encode("ascii"))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with mock.patch.object(learners, "_scan_body", side_effect=AssertionError("line scan reached")):
                m = load_model(path)
        assert caught == []
        assert m.weights.array.tolist() == [0.0, -0.5, 0.0, 2.0, 0.0]
        assert m.sigma.array.tolist() == [1.0, 0.25, 1.0, 1.0, 1.0]
        assert sorted(m.tracker.indices()) == [1, 3]

    @pytest.mark.parametrize("body", ["", "\n \n\t\n"], ids=["empty", "blank"])
    def test_header_without_body_loads_without_warnings(self, body, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text("OFSMODEL v1 arow 6 0 gamma=1.0\n" + body)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")  # np.loadtxt warns on a body with no rows
            m = load_model(path)
        assert caught == []
        assert m.weights.array.tolist() == [0.0] * 6
        assert m.sigma.array.tolist() == [1.0] * 6

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
        assert loaded.weights.array.tolist() == m.weights.array.tolist()

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
            ("1 0.5 0.5\n1 -0.5 0.25\n", "index 1 listed twice"),
        ],
    )
    def test_reject_corrupt_body(self, body, message, tmp_path):
        path = tmp_path / "corrupt.txt"
        path.write_text("OFSMODEL v1 sofs 4 3 gamma=1.0\n" + body)
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: line 3: {message}"

    @pytest.mark.parametrize(
        "header,body,message",
        [
            pytest.param(
                "OFSMODEL v1 ogd 10 0 eta=0.2 t=3", "1 nan\n2 0.5\n2 0.25\n", "non-finite weight nan", id="nan-then-duplicate"
            ),
            pytest.param(
                "OFSMODEL v1 sofs 10 2 gamma=1.0",
                "1 0.5 1.5\n20 0.5 0.5\n",
                "covariance 1.5 outside (0, 1]",
                id="covariance-then-range",
            ),
            pytest.param(
                "OFSMODEL v1 arow 10 0 gamma=1.0",
                "1 0.5 0.0\n1 0.5 0.5\n",
                "covariance 0.0 outside (0, 1]",
                id="covariance-then-duplicate",
            ),
        ],
    )
    def test_first_bad_line_is_named(self, header, body, message, tmp_path):
        # each body holds two faults; the line scan alone names the first,
        # and so does load_model, whose bulk read rejects the body
        path = tmp_path / "corrupt.txt"
        path.write_text(f"{header}\n{body}")
        bulk, scanned = self.load_both(path)
        assert bulk == scanned == f"{path}: line 2: {message}"

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
            pytest.param(
                "OFSMODEL v1 fofs 4 2 eta=1.0 lambda=3.0",
                "fofs needs lambda * eta <= 1, got lambda=3.0 and eta=1.0",
                id="fofs-negative-shrink",
            ),
            pytest.param("OFSMODEL v1 sofs 4 3 gamma=1.0 gamma=2.0", "duplicate key 'gamma'", id="duplicate"),
            pytest.param("OFSMODEL v1 ogd 4 0 eta=fast t=0", "eta must be a number, got 'fast'", id="eta=fast"),
            # a counter is checked before any float, whatever the key order
            pytest.param("OFSMODEL v1 ogd 4 0 eta=fast t=x", "t must be an integer >= 0, got 'x'", id="t=x-before-eta"),
            # among the floats, the first bad key in file order is named
            pytest.param(
                "OFSMODEL v1 fofs 4 1 lambda=x eta=fast", "lambda must be a number, got 'x'", id="first-bad-in-file-order"
            ),
        ],
    )
    def test_reject_corrupt_header(self, header, message, tmp_path):
        path = tmp_path / "corrupt.txt"
        path.write_text(header + "\n")
        with pytest.raises(ValueError) as info:
            load_model(path)
        assert str(info.value) == f"{path}: line 1: {message}"

    @pytest.mark.parametrize(
        "header,params,t",
        [
            pytest.param("fofs 4 1 lambda=0.01 eta=0.2", {"eta": 0.2, "lambda": 0.01}, None, id="fofs"),
            pytest.param("ogd 4 0 t=3 eta=0.5", {"eta": 0.5, "t": 3}, 3, id="ogd"),
        ],
    )
    def test_header_keys_load_in_any_order(self, header, params, t, tmp_path):
        path = tmp_path / "model.txt"
        path.write_text(f"OFSMODEL v1 {header}\n")
        m = load_model(path)
        assert m.hyperparams() == params
        if t is not None:
            assert m.t == t

    def test_reject_non_finite_first_order_weight(self, tmp_path):
        path = tmp_path / "corrupt.txt"
        path.write_text("OFSMODEL v1 ogd 4 0 eta=0.2 t=3\n1 -inf\n")
        with pytest.raises(ValueError, match="line 2: non-finite weight -inf"):
            load_model(path)


class TestBudgetHooks:
    """``_listed`` and ``_impose_budget``: how the model-file code reaches
    each learner's budget rule without naming its class."""

    @pytest.mark.parametrize("algo", ALGOS)
    def test_impose_budget_after_updates_changes_nothing(self, algo, tmp_path):
        # values of +-1 make covariances and magnitudes tie. An update
        # already leaves the budget met, so imposing it over the indices a
        # model file lists must leave the state and the kept set bit-equal
        rng = np.random.default_rng(31)
        m = make_learner(algo, budget=5 if algo in BUDGETED else None)
        for x in random_stream(rng, 400, 40):
            m.update(SparseExample(x.label, x.indices, np.where(x.values < 0.0, -1.0, 1.0)))
        if algo in ("sofs", "pet"):
            assert m._listed().tolist() == m.tracker.indices()
            assert len(m._listed()) == 5
        else:
            assert m._listed().dtype == np.int64 and len(m._listed()) == 0
        path = tmp_path / "model.txt"
        save_model(m, path)
        keys = np.loadtxt(path, skiprows=1, usecols=0, dtype=np.int64, ndmin=1)
        before = [vec.array.tobytes() for vec in m._state()], m._listed().tobytes()
        m._impose_budget(keys)
        assert ([vec.array.tobytes() for vec in m._state()], m._listed().tobytes()) == before

    def test_model_file_code_names_no_learner_class(self):
        # each learner carries its budget rule and header counters, so the
        # model-file code needs no branch on the class
        classes = [
            name
            for name, obj in vars(learners).items()
            if isinstance(obj, type) and issubclass(obj, learners.OnlineLearner) and obj is not learners.OnlineLearner
        ]
        assert {"SofsModel", "PetModel", "FofsModel", "OgdModel", "ArowModel"} <= set(classes)
        for fn in (save_model, learners._load_header, load_model):
            source = inspect.getsource(fn)
            assert "isinstance" not in source, fn.__name__
            assert [name for name in classes if name in source] == [], fn.__name__
