import numpy as np
import pytest

from ofs.topb import Outcome, TopBTracker


class TestConstruction:
    def test_empty(self):
        t = TopBTracker(5)
        assert len(t) == 0
        assert t.capacity == 5
        assert t.limit() is None

    def test_zero_capacity_rejected(self):
        with pytest.raises(ValueError):
            TopBTracker(0)

    def test_capacity_one(self):
        t = TopBTracker(1)
        t.offer(3, 0.5)
        out, evicted = t.offer(4, 0.4)
        assert out is Outcome.ADMITTED_EVICTING
        assert evicted == 3
        assert t.indices() == [4]


class TestOffer:
    def test_admission_sequence(self):
        t = TopBTracker(2)
        assert t.offer(1, 0.9) == (Outcome.ADMITTED, None)
        assert t.offer(2, 0.8) == (Outcome.ADMITTED, None)
        out, evicted = t.offer(3, 0.85)
        assert out is Outcome.ADMITTED_EVICTING
        assert evicted == 1
        assert dict(t.items()) == {2: 0.8, 3: 0.85}

    def test_adjust_in_place(self):
        t = TopBTracker(2)
        t.offer(2, 0.8)
        out, evicted = t.offer(2, 0.7)
        assert out is Outcome.ADJUSTED_IN_PLACE
        assert evicted is None
        assert t.value_of(2) == 0.7

    def test_reject_at_or_above_root(self):
        t = TopBTracker(2)
        t.offer(1, 0.9)
        t.offer(2, 0.8)
        assert t.offer(4, 0.95) == (Outcome.REJECTED, None)
        assert t.offer(4, 0.9) == (Outcome.REJECTED, None)  # tie at 0.9: index 1 < 4 stays
        assert t.contains(1)

    def test_worse_kept_value_raises_bound(self):
        # scores of kept features may get worse (pet's -|w| does); the bound
        # follows, so a later offer still evicts the true worst
        t = TopBTracker(2)
        t.offer(1, 0.5)
        t.offer(2, 0.4)
        assert t.offer(2, 0.9) == (Outcome.ADJUSTED_IN_PLACE, None)
        assert t.limit() == 0.9
        check_state(t)
        assert t.offer(3, 0.7) == (Outcome.ADMITTED_EVICTING, 2)
        assert sorted(t.indices()) == [1, 3]

    def test_contains_lifecycle(self):
        t = TopBTracker(1)
        assert not t.contains(3)
        t.offer(3, 0.5)
        assert t.contains(3)
        assert 3 in t
        t.offer(9, 0.1)
        assert not t.contains(3)
        assert t.contains(9)


class TestLimit:
    def test_absent_until_full(self):
        t = TopBTracker(2)
        assert t.limit() is None
        t.offer(0, 0.8)
        assert t.limit() is None
        t.offer(1, 0.9)
        assert t.limit() == 0.9

    def test_tracks_root_after_churn(self):
        t = TopBTracker(2)
        t.offer(0, 0.8)
        t.offer(1, 0.9)
        t.offer(2, 0.85)
        assert t.limit() == 0.85
        t.offer(2, 0.1)
        assert t.limit() == 0.8


def check_state(t: TopBTracker):
    """The mask marks exactly the kept buffer, and the cached bound covers
    the worst kept score once the set is full."""
    kept = t._keys[: t._n]
    assert t._n == len(t) <= t.capacity
    assert len(set(kept.tolist())) == t._n
    assert np.array_equal(np.flatnonzero(t._mask), np.sort(kept))
    if t._n == t.capacity:
        assert t._bound is not None and t._bound >= t.limit()
    else:
        assert t._bound is None


def value_index_order(current):
    return sorted(current, key=lambda j: (current[j], j))


class TestAgainstSortOracle:
    """Random monotone offer sequences vs keeping the B smallest by sort."""

    @pytest.mark.parametrize("capacity", [1, 2, 5, 16])
    def test_contents_match_sorted_smallest(self, capacity):
        rng = np.random.default_rng(100 + capacity)
        for trial in range(250):  # 4 capacities x 250 = 1000 sequences
            t = TopBTracker(capacity)
            current = {}  # idx -> latest offered value
            n_offers = int(rng.integers(1, 201))
            universe = int(rng.integers(max(2, capacity), 40))
            for _ in range(n_offers):
                idx = int(rng.integers(0, universe))
                if idx in t:
                    value = t.value_of(idx) * float(rng.uniform(0.3, 1.0))
                else:
                    value = float(rng.uniform(0.01, 1.0))
                out, evicted = t.offer(idx, value)
                current[idx] = value
                check_state(t)
                if evicted is not None:
                    assert out is Outcome.ADMITTED_EVICTING
                # kept set == B smallest of the latest offered values; the
                # drawn values are continuous so ties never materialize
                order = sorted(current, key=current.get)
                assert set(t.indices()) == set(order[: capacity])

    def test_exact_smallest_when_offers_are_final(self):
        # one offer per index: the kept set must be exactly the B smallest
        rng = np.random.default_rng(7)
        for trial in range(200):
            capacity = int(rng.integers(1, 17))
            n = int(rng.integers(1, 60))
            vals = rng.uniform(0.0, 1.0, size=n)
            t = TopBTracker(capacity)
            for j in range(n):
                t.offer(j, float(vals[j]))
            order = np.argsort(vals, kind="stable")
            expect = set(order[:capacity].tolist())
            assert set(t.indices()) == expect

    @pytest.mark.parametrize("capacity", [1, 2, 5, 16])
    def test_tied_values_match_value_index_sort(self, capacity):
        # values from a four-element set tie all the time; the kept set must
        # be the first B by (value, index), whether offered one at a time or
        # as one sorted batch
        levels = [0.125, 0.25, 0.5, 1.0]
        rng = np.random.default_rng(200 + capacity)
        for trial in range(100):
            t = TopBTracker(capacity)
            current = {}
            universe = int(rng.integers(max(2, capacity), 40))
            for _ in range(int(rng.integers(1, 120))):
                k = int(rng.integers(1, 6))
                batch = np.sort(rng.choice(universe, size=min(k, universe), replace=False))
                vals = []
                for j in batch.tolist():
                    top = levels.index(current[j]) + 1 if j in t else len(levels)
                    vals.append(levels[int(rng.integers(0, top))])
                if len(batch) == 1:
                    t.offer(int(batch[0]), vals[0])
                else:
                    t.select(batch.astype(np.int64), np.array(vals))
                current.update(zip(batch.tolist(), vals))
                check_state(t)
                assert sorted(t.indices()) == sorted(value_index_order(current)[:capacity])


class TestState:
    def test_mask_buffer_and_bound_under_churn(self):
        # kept scores that improve (sofs) and that get worse (pet) alike
        for capacity in (1, 2, 5, 16, 64):
            rng = np.random.default_rng(capacity)
            t = TopBTracker(capacity)
            for _ in range(2000):
                idx = int(rng.integers(0, 200))
                if idx in t:
                    value = t.value_of(idx) * float(rng.uniform(0.5, 1.5))
                else:
                    value = float(rng.uniform(0.01, 1.0))
                t.offer(idx, value)
                check_state(t)

    def test_dropped_are_exactly_those_that_left(self):
        rng = np.random.default_rng(5)
        t = TopBTracker(8)
        for _ in range(500):
            before = set(t.indices())
            idx = np.sort(rng.choice(100, size=int(rng.integers(1, 12)), replace=False))
            dropped = t.select(idx.astype(np.int64), rng.uniform(0.0, 1.0, size=len(idx)))
            after = set(t.indices())
            assert sorted(dropped.tolist()) == sorted((before | set(idx.tolist())) - after)

    def test_mask_grows_to_a_power_of_two(self):
        t = TopBTracker(4)
        t.select(np.array([998_899], dtype=np.int64), np.array([0.5]))
        t.select(np.array([999_999], dtype=np.int64), np.array([0.5]))
        assert len(t._mask) == 2**20
