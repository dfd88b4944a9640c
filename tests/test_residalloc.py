import random

import pytest

from hummingbird import residalloc
from hummingbird.residalloc import AllocatorError, IdSpaceExhausted, ResIdAllocator

from alloc_oracle import active_intervals, optimal_coloring


class TestAssign:
    def test_smallest_free_id(self):
        alloc = ResIdAllocator()
        assert alloc.assign(1, 0, 10, "a") == 0
        assert alloc.assign(1, 5, 15, "b") == 1
        # Disjoint from both: first fit falls back to 0.
        assert alloc.assign(1, 20, 30, "c") == 0

    def test_adjacent_intervals_share_id(self):
        alloc = ResIdAllocator()
        assert alloc.assign(1, 0, 10, "a") == 0
        assert alloc.assign(1, 10, 20, "b") == 0

    def test_per_ingress_scoping(self):
        alloc = ResIdAllocator()
        assert alloc.assign(1, 0, 10, "a") == 0
        assert alloc.assign(2, 0, 10, "b") == 0

    def test_release_frees_id(self):
        alloc = ResIdAllocator()
        alloc.assign(1, 0, 10, "a")
        assert alloc.assign(1, 5, 15, "b") == 1
        alloc.release("a")
        assert alloc.assign(1, 7, 9, "c") == 0

    def test_release_unknown_handle(self):
        alloc = ResIdAllocator()
        with pytest.raises(AllocatorError, match="unknown"):
            alloc.release("nope")

    def test_duplicate_handle(self):
        alloc = ResIdAllocator()
        alloc.assign(1, 0, 10, "a")
        with pytest.raises(AllocatorError, match="already"):
            alloc.assign(1, 20, 30, "a")

    def test_empty_interval(self):
        alloc = ResIdAllocator()
        with pytest.raises(AllocatorError, match="empty"):
            alloc.assign(1, 10, 10, "a")

    def test_exhaustion(self, monkeypatch):
        monkeypatch.setattr(residalloc, "MAX_IDS", 4)
        alloc = ResIdAllocator()
        for i in range(4):
            alloc.assign(1, 0, 10, i)
        with pytest.raises(IdSpaceExhausted):
            alloc.assign(1, 0, 10, "overflow")


class TestOptimalColoring:
    def test_examples(self):
        assert optimal_coloring([]) == 0
        assert optimal_coloring([(0, 10), (5, 15), (20, 30)]) == 2
        assert optimal_coloring([(0, 30), (5, 25), (10, 20)]) == 3
        # Half-open: touching intervals do not overlap.
        assert optimal_coloring([(0, 10), (10, 20)]) == 1


def brute_force_clash(active: list[tuple[int, int, int]], res_id: int, start: int, end: int) -> bool:
    return any(
        rid == res_id and s < end and start < e for rid, s, e in active
    )


class TestProperties:
    def test_random_assign_release_invariant(self):
        rng = random.Random(42)
        for _ in range(40):
            alloc = ResIdAllocator()
            active: list[tuple[int, int, int, object]] = []
            for op in range(150):
                if active and rng.random() < 0.35:
                    rid, s, e, handle = active.pop(rng.randrange(len(active)))
                    alloc.release(handle)
                else:
                    s = rng.randrange(1000)
                    e = s + rng.randrange(1, 120)
                    rid = alloc.assign(1, s, e, op)
                    oracle = [(r, a, b) for r, a, b, _ in active]
                    assert not brute_force_clash(oracle, rid, s, e)
                    active.append((rid, s, e, op))
                # Allocator bookkeeping matches the oracle's view.
                assert active_intervals(alloc, 1) == sorted(
                    (r, a, b) for r, a, b, _ in active
                )

    def test_first_fit_stays_within_bound(self):
        rng = random.Random(43)
        for _ in range(100):
            alloc = ResIdAllocator()
            intervals, res_ids = [], []
            for i in range(rng.randrange(1, 120)):
                s = rng.randrange(1000)
                length = rng.choice([rng.randrange(1, 10), rng.randrange(10, 300)])
                intervals.append((s, s + length))
                res_ids.append(alloc.assign(7, s, s + length, i))
            omega = optimal_coloring(intervals)
            assert max(res_ids) + 1 <= 8 * omega
