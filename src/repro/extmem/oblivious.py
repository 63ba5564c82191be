"""The cache-oblivious virtual machine.

Cache-oblivious algorithms may not mention ``M`` or ``B``.  They therefore do
not use the explicit :class:`repro.extmem.machine.Machine`; instead they
operate on :class:`ExtVector` objects obtained from an :class:`ObliviousVM`.
Every element read or write on a vector is routed through the VM's
:class:`repro.extmem.cache.LRUBlockCache`, which charges block reads on
misses and block writes on dirty evictions.  The algorithm code itself only
ever holds ``O(1)`` records in Python locals, mirroring the register file of
the model.

The VM also tracks the number of words allocated on (simulated) disk so that
the paper's ``O(E)`` space claims can be checked.
"""

from __future__ import annotations

import itertools
from typing import Any, Callable, Iterable, Iterator

from repro.analysis.model import MachineParams
from repro.exceptions import FileClosedError
from repro.extmem.cache import LRUBlockCache
from repro.extmem.stats import IOStats

Record = Any


class ObliviousVM:
    """Owner of disk-resident vectors and the LRU cache that fronts them."""

    def __init__(self, params: MachineParams, stats: IOStats | None = None) -> None:
        self.params = params
        self.stats = stats if stats is not None else IOStats()
        capacity_blocks = max(1, params.memory_words // params.block_words)
        self.cache = LRUBlockCache(capacity_blocks, self.stats)
        self._storage_ids = itertools.count()
        self.current_words = 0
        self.peak_words = 0

    # ------------------------------------------------------------------
    # vector creation
    # ------------------------------------------------------------------
    def input_vector(self, records: Iterable[Record], name: str = "input") -> "ExtVector":
        """Create a vector whose contents already reside on disk (no I/O)."""
        vector = ExtVector(self, name)
        vector._data = list(records)
        self._grow(len(vector._data))
        return vector

    def vector(self, name: str = "tmp") -> "ExtVector":
        """Create an empty vector; appends to it are charged through the cache."""
        return ExtVector(self, name)

    def flush(self) -> None:
        """Write back all dirty cached blocks (end-of-run accounting)."""
        self.cache.flush()

    # ------------------------------------------------------------------
    # space accounting
    # ------------------------------------------------------------------
    def _grow(self, words: int) -> None:
        self.current_words += words
        if self.current_words > self.peak_words:
            self.peak_words = self.current_words

    def _shrink(self, words: int) -> None:
        self.current_words = max(0, self.current_words - words)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ObliviousVM(M={self.params.memory_words}, B={self.params.block_words}, "
            f"{self.stats})"
        )


class ExtVector:
    """A disk-resident array accessed element-wise through the LRU cache.

    Supports random reads (:meth:`get`), random writes (:meth:`set`),
    appends, sequential iteration and zero-copy slicing.  All of these charge
    I/Os through the owning VM's cache; none of them expose ``M`` or ``B`` to
    the caller.
    """

    def __init__(self, vm: ObliviousVM, name: str = "tmp") -> None:
        self.vm = vm
        self.name = name
        self.storage_id = next(vm._storage_ids)
        self._data: list[Record] = []
        self._freed = False

    # -- bookkeeping ----------------------------------------------------
    def _check_open(self) -> None:
        if self._freed:
            raise FileClosedError(f"vector {self.name!r} has been freed")

    def __len__(self) -> int:
        self._check_open()
        return len(self._data)

    def free(self) -> None:
        """Release the vector: drop its cached blocks and its disk space."""
        if self._freed:
            return
        self.vm.cache.discard_storage(self.storage_id)
        self.vm._shrink(len(self._data))
        self._data = []
        self._freed = True

    # -- element access through the cache --------------------------------
    # ``get``/``set``/``append`` are the simulator's innermost loop, so each
    # charges its cache access and its operation inline.
    def get(self, index: int) -> Record:
        """Read one record."""
        if self._freed:
            raise FileClosedError(f"vector {self.name!r} has been freed")
        data = self._data
        if index < 0 or index >= len(data):
            raise IndexError(f"index {index} out of range for vector of length {len(data)}")
        vm = self.vm
        vm.cache.access(self.storage_id, index // vm.params.block_words, False)
        vm.stats.operations += 1
        return data[index]

    def set(self, index: int, record: Record) -> None:
        """Overwrite one record."""
        if self._freed:
            raise FileClosedError(f"vector {self.name!r} has been freed")
        data = self._data
        if index < 0 or index >= len(data):
            raise IndexError(f"index {index} out of range for vector of length {len(data)}")
        vm = self.vm
        vm.cache.access(self.storage_id, index // vm.params.block_words, True)
        vm.stats.operations += 1
        data[index] = record

    def append(self, record: Record) -> None:
        """Append one record to the end of the vector."""
        if self._freed:
            raise FileClosedError(f"vector {self.name!r} has been freed")
        vm = self.vm
        index = len(self._data)
        block, offset = divmod(index, vm.params.block_words)
        if offset == 0:
            # First record of a fresh block: no read needed to install it.
            vm.cache.write_new(self.storage_id, block)
        else:
            vm.cache.access(self.storage_id, block, True)
        vm.stats.operations += 1
        self._data.append(record)
        vm._grow(1)

    def extend(self, records: Iterable[Record]) -> None:
        """Append many records."""
        for record in records:
            self.append(record)

    def __getitem__(self, index: int) -> Record:
        return self.get(index)

    def __setitem__(self, index: int, record: Record) -> None:
        self.set(index, record)

    def iterate(self) -> Iterator[Record]:
        """Sequentially read all records (charged through the cache)."""
        for index in range(len(self._data)):
            yield self.get(index)

    def slice(self, start: int, stop: int) -> "VectorSlice":
        """Return a zero-copy read/write view of ``self[start:stop]``."""
        self._check_open()
        return VectorSlice(self, start, stop)

    def as_slice(self) -> "VectorSlice":
        """Return a view of the whole vector."""
        return self.slice(0, len(self))

    def to_list(self) -> list[Record]:
        """Copy the contents into a Python list *without* charging I/Os.

        Reserved for tests and oracles; algorithm code must not call it.
        """
        self._check_open()
        return list(self._data)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        state = "freed" if self._freed else f"{len(self._data)} records"
        return f"ExtVector({self.name!r}, {state})"


class VectorSlice:
    """A contiguous read/write view over part of an :class:`ExtVector`."""

    def __init__(self, vector: ExtVector, start: int, stop: int) -> None:
        if start < 0 or stop < start:
            raise ValueError(f"invalid slice bounds [{start}, {stop})")
        stop = min(stop, len(vector))
        start = min(start, stop)
        self.vector = vector
        self.start = start
        self.stop = stop

    def __len__(self) -> int:
        return self.stop - self.start

    def get(self, index: int) -> Record:
        """Read the ``index``-th record of the view."""
        if index < 0 or index >= self.stop - self.start:
            raise IndexError(f"index {index} out of range for slice of length {len(self)}")
        return self.vector.get(self.start + index)

    def set(self, index: int, record: Record) -> None:
        """Overwrite the ``index``-th record of the view."""
        if index < 0 or index >= self.stop - self.start:
            raise IndexError(f"index {index} out of range for slice of length {len(self)}")
        self.vector.set(self.start + index, record)

    def __getitem__(self, index: int) -> Record:
        return self.get(index)

    def __setitem__(self, index: int, record: Record) -> None:
        self.set(index, record)

    def iterate(self) -> Iterator[Record]:
        """Sequentially read the records of the view."""
        for index in range(len(self)):
            yield self.get(index)

    def slice(self, start: int, stop: int) -> "VectorSlice":
        """Return a sub-view with bounds relative to this view."""
        return VectorSlice(self.vector, self.start + start, min(self.start + stop, self.stop))


def vector_from_iterable(
    vm: ObliviousVM, records: Iterable[Record], name: str = "tmp"
) -> ExtVector:
    """Materialise ``records`` into a new charged vector (a sequential write)."""
    out = vm.vector(name)
    out.extend(records)
    return out


def map_vector(
    vm: ObliviousVM,
    source: ExtVector | VectorSlice,
    transform: Callable[[Record], Record],
    name: str = "mapped",
) -> ExtVector:
    """Apply ``transform`` to every record, producing a new vector (one scan + one write)."""
    out = vm.vector(name)
    for record in source.iterate():
        out.append(transform(record))
    return out


def filter_vector(
    vm: ObliviousVM,
    source: ExtVector | VectorSlice,
    predicate: Callable[[Record], bool],
    name: str = "filtered",
) -> ExtVector:
    """Keep only records satisfying ``predicate`` (one scan + one write)."""
    out = vm.vector(name)
    for record in source.iterate():
        if predicate(record):
            out.append(record)
    return out
