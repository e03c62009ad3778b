"""TopBTracker checked the way the learners drive it.

Each tracker reads its scores from an array the test owns, as ``sofs``
reads σ and ``pet`` reads -|w|. The test writes a feature's new score into
that array, then calls ``select`` on the touched features, with their
scores passed in (as ``sofs`` does) or read through the score function (as
``pet`` does).
"""
import numpy as np
import pytest

from ofs.topb import Outcome, TopBTracker


def scored(capacity, n):
    """A tracker over a score array of ``n`` cells, all +inf until set."""
    s = np.full(n, np.inf)
    return TopBTracker(capacity, lambda ix: s[ix]), s


def touch(t, s, idx, values, pass_scores=True):
    """Set the scores of the sorted feature indices ``idx``, then select."""
    idx = np.asarray(idx, dtype=np.int64)
    s[idx] = values
    return t.select(idx, s[idx] if pass_scores else None)


class TestConstruction:
    def test_empty(self):
        t, _ = scored(5, 10)
        assert len(t) == 0
        assert t.capacity == 5
        assert t.indices() == []

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            scored(0, 10)

    def test_capacity_one(self):
        t, s = scored(1, 10)
        assert touch(t, s, [3], 0.5).tolist() == []
        assert touch(t, s, [4], 0.4).tolist() == [3]
        assert t.indices() == [4]


class TestLimit:
    """The cached bound on the worst kept score."""

    def test_absent_until_full(self):
        t, s = scored(2, 10)
        assert t._bound is None
        touch(t, s, [0], 0.8)
        assert t._bound is None
        touch(t, s, [1], 0.9)
        assert t._bound == 0.9

    def test_tracks_root_after_churn(self):
        t, s = scored(2, 10)
        touch(t, s, [0, 1], [0.8, 0.9])
        touch(t, s, [2], 0.85)
        assert t._bound == 0.85
        touch(t, s, [2], 0.1)
        check_state(t, s)
        assert sorted(t.indices()) == [0, 2]


class TestSelect:
    def test_admission_sequence(self):
        t, s = scored(2, 10)
        assert touch(t, s, [1], 0.9).tolist() == []
        assert touch(t, s, [2], 0.8).tolist() == []
        assert touch(t, s, [3], 0.85).tolist() == [1]
        assert sorted(t.indices()) == [2, 3]
        check_state(t, s)

    def test_adjust_in_place(self):
        t, s = scored(2, 10)
        touch(t, s, [1, 2], [0.9, 0.8])
        assert touch(t, s, [2], 0.7, pass_scores=False).tolist() == []
        assert sorted(t.indices()) == [1, 2]
        check_state(t, s)

    def test_reject_at_or_above_bound(self):
        t, s = scored(2, 10)
        touch(t, s, [1, 2], [0.9, 0.8])
        assert touch(t, s, [4], 0.95).tolist() == [4]
        assert touch(t, s, [4], 0.9).tolist() == [4]  # tie at 0.9: index 1 < 4 stays
        assert sorted(t.indices()) == [1, 2]

    def test_worse_kept_value_raises_bound(self):
        # scores of kept features may get worse (pet's -|w| does); the bound
        # follows, so a later select still evicts the true worst
        t, s = scored(2, 10)
        touch(t, s, [1], 0.5)
        touch(t, s, [2], 0.4)
        assert touch(t, s, [2], 0.9).tolist() == []
        assert t._bound == 0.9
        check_state(t, s)
        assert touch(t, s, [3], 0.7).tolist() == [2]
        assert sorted(t.indices()) == [1, 3]


class TestOffer:
    def test_admission_sequence(self):
        # offer is select on one feature, plus what happened to it
        rng = np.random.default_rng(9)
        seen = set()
        for capacity in (1, 3):
            t, s = scored(capacity, 30)
            twin, s_twin = scored(capacity, 30)
            for _ in range(400):
                j = int(rng.integers(0, 30))
                value = float(rng.choice([0.25, 0.5, 1.0])) if j % 2 else float(rng.uniform())
                kept = j in t.indices()
                s[j] = value
                out, evicted = t.offer(j, value)
                dropped = touch(twin, s_twin, [j], value).tolist()
                assert t.indices() == twin.indices()
                if kept:
                    assert (out, evicted) == (Outcome.ADJUSTED_IN_PLACE, None)
                    assert dropped == []
                elif j not in t.indices():
                    assert (out, evicted) == (Outcome.REJECTED, None)
                    assert dropped == [j]
                elif dropped:
                    assert (out, [evicted]) == (Outcome.ADMITTED_EVICTING, dropped)
                else:
                    assert (out, evicted) == (Outcome.ADMITTED, None)
                seen.add(out)
                check_state(t, s)
        assert seen == set(Outcome)


def check_state(t: TopBTracker, s: np.ndarray):
    """The mask marks exactly the kept buffer, and the cached bound covers
    the worst kept score in ``s`` once the set is full."""
    kept = t._keys[: t._n]
    assert t._n == len(t) <= t.capacity
    assert len(set(kept.tolist())) == t._n
    assert np.array_equal(np.flatnonzero(t._mask), np.sort(kept))
    if t._n == t.capacity:
        assert t._bound is not None and t._bound >= s[kept].max()
    else:
        assert t._bound is None


def value_index_order(current):
    return sorted(current, key=lambda j: (current[j], j))


class TestAgainstSortOracle:
    """Random monotone score sequences vs keeping the B smallest by sort."""

    @pytest.mark.parametrize("capacity", [1, 2, 5, 16])
    def test_contents_match_sorted_smallest(self, capacity):
        rng = np.random.default_rng(100 + capacity)
        for trial in range(250):  # 4 capacities x 250 = 1000 sequences
            universe = int(rng.integers(max(2, capacity), 40))
            t, s = scored(capacity, universe)
            current = {}  # idx -> latest score
            for _ in range(int(rng.integers(1, 201))):
                idx = int(rng.integers(0, universe))
                if idx in t.indices():
                    value = s[idx] * float(rng.uniform(0.3, 1.0))
                else:
                    value = float(rng.uniform(0.01, 1.0))
                touch(t, s, [idx], value, pass_scores=trial % 2 == 0)
                current[idx] = value
                check_state(t, s)
                # kept set == B smallest of the latest scores; the drawn
                # values are continuous so ties never materialize
                order = sorted(current, key=current.get)
                assert set(t.indices()) == set(order[:capacity])

    def test_exact_smallest_when_offers_are_final(self):
        # one select per index: the kept set must be exactly the B smallest
        rng = np.random.default_rng(7)
        for trial in range(200):
            capacity = int(rng.integers(1, 17))
            n = int(rng.integers(1, 60))
            vals = rng.uniform(0.0, 1.0, size=n)
            t, s = scored(capacity, n)
            for j in range(n):
                touch(t, s, [j], vals[j])
            order = np.argsort(vals, kind="stable")
            assert set(t.indices()) == set(order[:capacity].tolist())

    @pytest.mark.parametrize("capacity", [1, 2, 5, 16])
    def test_tied_values_match_value_index_sort(self, capacity):
        # values from a four-element set tie all the time; the kept set must
        # be the first B by (value, index), whether touched one at a time or
        # as one sorted batch
        levels = [0.125, 0.25, 0.5, 1.0]
        rng = np.random.default_rng(200 + capacity)
        for trial in range(100):
            universe = int(rng.integers(max(2, capacity), 40))
            t, s = scored(capacity, universe)
            current = {}
            for _ in range(int(rng.integers(1, 120))):
                k = int(rng.integers(1, 6))
                batch = np.sort(rng.choice(universe, size=min(k, universe), replace=False))
                kept = set(t.indices())
                vals = []
                for j in batch.tolist():
                    top = levels.index(current[j]) + 1 if j in kept else len(levels)
                    vals.append(levels[int(rng.integers(0, top))])
                touch(t, s, batch, vals, pass_scores=trial % 2 == 0)
                current.update(zip(batch.tolist(), vals))
                check_state(t, s)
                assert sorted(t.indices()) == sorted(value_index_order(current)[:capacity])


class TestState:
    def test_mask_buffer_and_bound_under_churn(self):
        # kept scores that improve (sofs) and that get worse (pet) alike
        for capacity in (1, 2, 5, 16, 64):
            rng = np.random.default_rng(capacity)
            t, s = scored(capacity, 200)
            for _ in range(2000):
                idx = int(rng.integers(0, 200))
                if idx in t.indices():
                    value = s[idx] * float(rng.uniform(0.5, 1.5))
                else:
                    value = float(rng.uniform(0.01, 1.0))
                touch(t, s, [idx], value)
                check_state(t, s)

    def test_dropped_are_exactly_those_that_left(self):
        rng = np.random.default_rng(5)
        t, s = scored(8, 100)
        for _ in range(500):
            before = set(t.indices())
            idx = np.sort(rng.choice(100, size=int(rng.integers(1, 12)), replace=False))
            dropped = touch(t, s, idx, rng.uniform(0.0, 1.0, size=len(idx)))
            after = set(t.indices())
            assert sorted(dropped.tolist()) == sorted((before | set(idx.tolist())) - after)

    def test_mask_grows_to_a_power_of_two(self):
        t, s = scored(4, 10**6)
        touch(t, s, [998_899], 0.5)
        touch(t, s, [999_999], 0.5)
        assert len(t._mask) == 2**20
