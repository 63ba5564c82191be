"""Hypothesis property tests on the cache simulators.

These properties are what make the I/O measurements of the experiments
trustworthy: LRU's inclusion ("stack") property -- a larger cache never
misses more -- plus exactness of sequential-scan accounting and agreement
between the multilevel replay and dedicated single-level simulations.
"""

from __future__ import annotations

import math

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.extmem.cache import LRUBlockCache
from repro.extmem.multilevel import CacheLevel, MultiLevelBlockCache
from repro.extmem.stats import IOStats

#: A random access trace: (storage id, block index, is_write) triples.
traces = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=40),
        st.booleans(),
    ),
    max_size=300,
)


def replay(trace, capacity_blocks: int) -> IOStats:
    """Replay a trace against a fresh single-level LRU cache and flush it."""
    stats = IOStats()
    cache = LRUBlockCache(capacity_blocks, stats)
    for storage, block, write in trace:
        cache.access(storage, block, write=write)
    cache.flush()
    return stats


class TestLRUInclusionProperty:
    @settings(max_examples=60, deadline=None)
    @given(trace=traces, small=st.integers(1, 8), extra=st.integers(1, 16))
    def test_property_larger_cache_never_reads_more(self, trace, small, extra):
        """The stack property of LRU: misses are monotone in the capacity."""
        small_stats = replay(trace, small)
        large_stats = replay(trace, small + extra)
        assert large_stats.reads <= small_stats.reads

    @settings(max_examples=60, deadline=None)
    @given(trace=traces, small=st.integers(1, 8), extra=st.integers(1, 16))
    def test_property_larger_cache_never_transfers_more(self, trace, small, extra):
        """Including dirty write-backs (after a final flush), bigger is never worse."""
        small_stats = replay(trace, small)
        large_stats = replay(trace, small + extra)
        assert large_stats.total <= small_stats.total

    @settings(max_examples=60, deadline=None)
    @given(trace=traces, capacity=st.integers(1, 16))
    def test_property_reads_bounded_by_accesses_and_distinct_blocks(self, trace, capacity):
        stats = replay(trace, capacity)
        distinct = len({(s, b) for s, b, _ in trace})
        assert stats.reads >= distinct if capacity >= distinct and trace else True
        assert stats.reads <= len(trace)
        # Write-backs can never exceed the number of write accesses.
        assert stats.writes <= sum(1 for _, _, w in trace if w)

    @settings(max_examples=60, deadline=None)
    @given(trace=traces, capacity=st.integers(1, 12))
    def test_property_infinite_cache_reads_equal_distinct_blocks(self, trace, capacity):
        """With a cache larger than the footprint, only compulsory misses remain."""
        distinct = len({(s, b) for s, b, _ in trace})
        stats = replay(trace, max(1, distinct + capacity))
        assert stats.reads == distinct

    @settings(max_examples=40, deadline=None)
    @given(
        trace=traces,
        capacities=st.lists(st.integers(1, 20), min_size=2, max_size=4, unique=True),
    )
    def test_property_multilevel_replay_matches_single_level_runs(self, trace, capacities):
        """The multilevel simulator is exactly 'several single-level LRUs in parallel'."""
        stats = IOStats()
        levels = [CacheLevel(f"l{c}", c) for c in capacities]
        multi = MultiLevelBlockCache(levels, stats)
        for storage, block, write in trace:
            multi.access(storage, block, write=write)
        multi.flush()
        totals = multi.total_by_level()
        for capacity in capacities:
            assert totals[f"l{capacity}"] == replay(trace, capacity).total


class TestScanExactness:
    @settings(max_examples=40, deadline=None)
    @given(n=st.integers(0, 500), block=st.sampled_from([1, 2, 4, 8, 16]), capacity=st.integers(1, 8))
    def test_property_sequential_scan_costs_exactly_ceil_n_over_b(self, n, block, capacity):
        """A single sequential pass misses exactly once per block, regardless of
        the cache size -- the invariant behind every scan bound in the paper."""
        stats = IOStats()
        cache = LRUBlockCache(capacity, stats)
        for index in range(n):
            cache.access(0, index // block)
        assert stats.reads == math.ceil(n / block) if n else stats.reads == 0


class ReferenceLRU:
    """A naive list-based LRU with the same accounting as ``LRUBlockCache``.

    Every access searches the whole list and moves the entry to the end, so
    it has no shortcut for the most recently used block to get wrong.
    """

    def __init__(self, capacity_blocks: int) -> None:
        self.capacity_blocks = capacity_blocks
        self.entries: list[list] = []  # [key, dirty], least recently used first
        self.hits = self.misses = self.reads = self.writes = 0

    def _touch(self, key, dirty: bool, read_on_miss: bool) -> None:
        for position, (cached, was_dirty) in enumerate(self.entries):
            if cached == key:
                self.hits += 1
                del self.entries[position]
                self.entries.append([key, was_dirty or dirty])
                return
        self.misses += 1
        self.reads += read_on_miss
        if len(self.entries) >= self.capacity_blocks:
            _evicted, evicted_dirty = self.entries.pop(0)
            self.writes += evicted_dirty
        self.entries.append([key, dirty])

    def access(self, storage_id: int, block_index: int, write: bool = False) -> None:
        self._touch((storage_id, block_index), write, read_on_miss=True)

    def write_new(self, storage_id: int, block_index: int) -> None:
        self._touch((storage_id, block_index), True, read_on_miss=False)

    def discard_storage(self, storage_id: int) -> None:
        self.entries = [entry for entry in self.entries if entry[0][0] != storage_id]

    def flush(self) -> None:
        self.writes += sum(dirty for _key, dirty in self.entries)
        self.entries = []


#: Interleavings of the four cache operations.  ``again`` re-touches the
#: previously touched block, so accesses to the most recently used block --
#: including right after a discard or flush -- are common.
cache_operations = st.lists(
    st.one_of(
        st.tuples(
            st.just("access"), st.integers(0, 3), st.integers(0, 12), st.booleans()
        ),
        st.tuples(st.just("again"), st.booleans()),
        st.tuples(st.just("write_new"), st.integers(0, 3), st.integers(0, 12)),
        st.tuples(st.just("discard_storage"), st.integers(0, 3)),
        st.tuples(st.just("flush"),),
    ),
    max_size=250,
)


def apply_operations(cache, operations) -> None:
    """Replay ``operations`` on anything with the ``LRUBlockCache`` interface."""
    last = (0, 0)
    for operation in operations:
        kind = operation[0]
        if kind == "access":
            last = operation[1:3]
            cache.access(*last, write=operation[3])
        elif kind == "again":
            cache.access(*last, write=operation[1])
        elif kind == "write_new":
            last = operation[1:3]
            cache.write_new(*last)
        elif kind == "discard_storage":
            cache.discard_storage(operation[1])
        else:
            cache.flush()
    cache.flush()


class TestLRUMatchesReferenceModel:
    @settings(max_examples=150, deadline=None)
    @given(operations=cache_operations, capacity=st.integers(1, 10))
    def test_property_single_level_matches_reference(self, operations, capacity):
        stats = IOStats()
        cache = LRUBlockCache(capacity, stats)
        reference = ReferenceLRU(capacity)
        apply_operations(cache, operations)
        apply_operations(reference, operations)
        assert (cache.hits, cache.misses) == (reference.hits, reference.misses)
        assert (stats.reads, stats.writes) == (reference.reads, reference.writes)

    @settings(max_examples=60, deadline=None)
    @given(
        operations=cache_operations,
        capacities=st.lists(st.integers(1, 12), min_size=1, max_size=3, unique=True),
    )
    def test_property_multilevel_matches_reference_per_level(self, operations, capacities):
        stats = IOStats()
        multi = MultiLevelBlockCache([CacheLevel(f"l{c}", c) for c in capacities], stats)
        apply_operations(multi, operations)
        references = {capacity: ReferenceLRU(capacity) for capacity in capacities}
        for reference in references.values():
            apply_operations(reference, operations)
        for capacity, reference in references.items():
            level = multi.level_stats[f"l{capacity}"]
            assert (level.reads, level.writes) == (reference.reads, reference.writes)
        largest = references[max(capacities)]
        assert (stats.reads, stats.writes) == (largest.reads, largest.writes)
        accesses = largest.hits + largest.misses
        assert multi.hit_rate == (largest.hits / accesses if accesses else 0.0)
