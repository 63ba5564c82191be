"""Block-granular LRU cache simulator.

Cache-oblivious algorithms are analysed assuming an ideal cache; by the
classic result of Frigo et al. an LRU cache with twice the capacity is
2-competitive, so simulating LRU gives I/O counts within a constant factor of
the ideal-cache analysis.  This module implements that simulation: every
element access issued by an :class:`repro.extmem.oblivious.ExtVector` is
translated to a ``(storage id, block index)`` pair and looked up here; misses
and dirty write-backs are charged to an :class:`repro.extmem.stats.IOStats`.
"""

from __future__ import annotations

from collections import OrderedDict

from repro.exceptions import InvalidConfigurationError
from repro.extmem.stats import IOStats

BlockKey = tuple[int, int]


class LRUBlockCache:
    """An LRU cache of ``capacity_blocks`` blocks with write-back accounting.

    Parameters
    ----------
    capacity_blocks:
        Number of blocks that fit in internal memory (``M / B``).
    stats:
        Counter charged for misses (reads) and dirty evictions (writes).
    """

    def __init__(self, capacity_blocks: int, stats: IOStats) -> None:
        if capacity_blocks < 1:
            raise InvalidConfigurationError(
                f"cache capacity must be at least one block, got {capacity_blocks}"
            )
        self.capacity_blocks = capacity_blocks
        self.stats = stats
        # key -> dirty flag; ordered from least to most recently used.
        self._blocks: OrderedDict[BlockKey, bool] = OrderedDict()
        # The most recently used key (the last one in ``_blocks``), or None.
        # Touching it again changes no LRU order, so ``access`` counts the
        # hit and returns without reordering.
        self._last: BlockKey | None = None
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        return len(self._blocks)

    def access(self, storage_id: int, block_index: int, write: bool = False) -> None:
        """Touch one block; charge a read on miss and a write on dirty eviction."""
        key = (storage_id, block_index)
        blocks = self._blocks
        if key == self._last:
            self.hits += 1
            if write:
                blocks[key] = True
            return
        self._last = key
        if key in blocks:
            self.hits += 1
            blocks.move_to_end(key)
            if write:
                blocks[key] = True
            return
        self.misses += 1
        self.stats.charge_read(1)
        if len(blocks) >= self.capacity_blocks:
            _evicted_key, evicted_dirty = blocks.popitem(last=False)
            if evicted_dirty:
                self.stats.charge_write(1)
        blocks[key] = write

    def write_new(self, storage_id: int, block_index: int) -> None:
        """Touch a block that is being created from scratch (append path).

        A freshly appended block has no prior contents on disk, so bringing
        it into the cache costs no read; it is simply installed dirty and its
        write is charged when it is evicted or flushed.
        """
        key = (storage_id, block_index)
        blocks = self._blocks
        self._last = key
        if key in blocks:
            self.hits += 1
            blocks.move_to_end(key)
            blocks[key] = True
            return
        self.misses += 1
        if len(blocks) >= self.capacity_blocks:
            _evicted_key, evicted_dirty = blocks.popitem(last=False)
            if evicted_dirty:
                self.stats.charge_write(1)
        blocks[key] = True

    def discard_storage(self, storage_id: int) -> None:
        """Drop every cached block of ``storage_id`` without write-back.

        Used when a vector is freed: data that will never be read again does
        not need to reach disk.
        """
        if self._last is not None and self._last[0] == storage_id:
            self._last = None
        stale = [key for key in self._blocks if key[0] == storage_id]
        for key in stale:
            del self._blocks[key]

    def flush(self) -> None:
        """Write back every dirty block and empty the cache."""
        for dirty in self._blocks.values():
            if dirty:
                self.stats.charge_write(1)
        self._blocks.clear()
        self._last = None

    @property
    def hit_rate(self) -> float:
        """Fraction of accesses served from the cache."""
        total = self.hits + self.misses
        return self.hits / total if total else 0.0

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"LRUBlockCache(capacity={self.capacity_blocks}, resident={len(self._blocks)}, "
            f"hits={self.hits}, misses={self.misses})"
        )
