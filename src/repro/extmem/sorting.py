"""External multiway merge sort for the cache-aware machine.

The implementation follows the textbook external merge sort the paper's
``sort(n)`` primitive refers to (Aggarwal & Vitter):

1. *Run formation*: read the input in chunks of ``M`` records, sort each
   chunk in internal memory and write it back as a sorted run --
   ``2 * ceil(n/B)`` I/Os.
2. *Merging*: repeatedly merge up to ``max(2, M/B - 1)`` runs at a time until
   a single run remains -- ``2 * ceil(n/B)`` I/Os per pass and
   ``ceil(log_{M/B}(n/M))`` passes.

The resulting I/O count matches ``sort(n) = O((n/B) log_{M/B}(n/B))`` up to
constants, and the merge is performed for real (the output is actually
sorted), so correctness of algorithms built on top of it is meaningful.

Data path (see DESIGN.md, "Block-granular data path"): when a ``key`` is
given, run formation *decorates* each record as ``(key(record), input
position, record)`` so the key is computed exactly once per record for the
whole sort; the merge passes then compare plain tuples in C instead of
calling the key per comparison, and the final pass strips the decoration.
The input-position component makes ties resolve to the original input
order, which is exactly the stable order the undecorated sort produced.
Decorated records are a simulation artifact: each still occupies one word
of simulated disk, and all I/O and operation charges are identical to the
record-at-a-time implementation.
"""

from __future__ import annotations

import heapq
from bisect import bisect_right
from typing import Any, Callable, Sequence

from repro.extmem.disk import ExtFile, Readable, Record

#: Records accumulated in Python before a bulk append/charge during a merge.
#: Purely a constant-factor knob of the simulator; charges are identical for
#: any value (the writer still charges one block write per ``B`` records).
_MERGE_BATCH = 4096


def merge_fan_in(memory_words: int, block_words: int) -> int:
    """Maximum number of runs merged per pass: one input block per run.

    One block of internal memory is reserved for the output buffer, hence
    ``M/B - 1``; the fan-in is never smaller than 2 so the sort always makes
    progress.
    """
    return max(2, memory_words // block_words - 1)


def external_merge_sort(
    machine: "Machine",
    readable: Readable,
    key: Callable[[Record], Any] | None = None,
    name: str | None = None,
    key_many: Callable[[Sequence[Record]], list[Any]] | None = None,
) -> ExtFile:
    """Sort ``readable`` into a new file using external multiway merge sort.

    ``key_many``, when given, computes the keys of a whole memory-resident
    chunk at once (e.g. one bulk colouring lookup per chunk) and takes
    precedence over ``key`` for key computation; the sorted order is the
    same as sorting with ``key`` record-by-record.
    """
    from repro.extmem.machine import Machine  # local import to avoid a cycle

    assert isinstance(machine, Machine)
    total = len(readable)

    # Small inputs: a single in-memory sort (still charged as one read pass
    # and one write pass, as the model prescribes).
    if total <= machine.memory_size:
        with machine.lease(total, "in-memory sort"):
            records = machine.load(readable, 0, total)
            machine.stats.charge_operations(max(1, total))
            records = _sort_chunk(records, key, key_many, base_position=0)
            if key is not None or key_many is not None:
                records = [item[2] for item in records]
            return machine.write_file(records, name=name)

    runs = _form_runs(machine, readable, key, key_many)
    decorated = key is not None or key_many is not None
    fan_in = merge_fan_in(machine.memory_size, machine.block_size)
    while len(runs) > 1:
        # The last pass merges everything that is left; it is the one that
        # strips the decoration so the output file holds plain records.
        undecorate = decorated and len(runs) <= fan_in
        runs = _merge_pass(machine, runs, fan_in, undecorate=undecorate)
    result = runs[0]
    if name is not None:
        machine.disk.rename(result, name)
    return result


def _sort_chunk(
    records: list[Record],
    key: Callable[[Record], Any] | None,
    key_many: Callable[[Sequence[Record]], list[Any]] | None,
    base_position: int,
) -> list[Record]:
    """Sort one memory-resident chunk, decorating it when a key is in play.

    Decorated entries are ``(key, base_position + index, record)``; the
    position component preserves the stability of the old ``sort(key=...)``
    path and guarantees ties never fall back to comparing raw records.
    """
    if key_many is not None:
        keys = key_many(records)
        records = [
            (keys[index], base_position + index, record)
            for index, record in enumerate(records)
        ]
        records.sort()
    elif key is not None:
        records = [
            (key(record), base_position + index, record)
            for index, record in enumerate(records)
        ]
        records.sort()
    else:
        records.sort()
    return records


def _form_runs(
    machine: "Machine",
    readable: Readable,
    key: Callable[[Record], Any] | None,
    key_many: Callable[[Sequence[Record]], list[Any]] | None,
) -> list[ExtFile]:
    """Split the input into sorted runs of at most ``M`` records each."""
    runs: list[ExtFile] = []
    total = len(readable)
    chunk = machine.memory_size
    position = 0
    while position < total:
        count = min(chunk, total - position)
        with machine.lease(count, "run formation"):
            records = machine.load(readable, position, count)
            machine.stats.charge_operations(max(1, count))
            records = _sort_chunk(records, key, key_many, base_position=position)
            runs.append(machine.write_file(records))
        position += count
    return runs


def _merge_pass(
    machine: "Machine",
    runs: list[ExtFile],
    fan_in: int,
    undecorate: bool,
) -> list[ExtFile]:
    """Merge groups of at most ``fan_in`` runs, deleting the inputs.

    Runs hold either plain records or decorated ``(key, position, record)``
    tuples; either way the merge compares them natively (no Python key
    function in the loop), and output records are appended and charged in
    batches rather than one at a time.
    """
    merged: list[ExtFile] = []
    for group_start in range(0, len(runs), fan_in):
        group = runs[group_start : group_start + fan_in]
        if len(group) == 1:
            merged.append(group[0])
            continue
        with machine.writer() as out:
            _merge_group(machine, group, out, undecorate)
        for run in group:
            run.delete()
        merged.append(out.file)
    return merged


def _merge_group(
    machine: "Machine",
    group: Sequence[ExtFile],
    out: "BufferedWriter",
    undecorate: bool,
) -> None:
    """Block-granular k-way merge of sorted runs into ``out``.

    The heap holds one entry per live run: ``(head record, run index,
    position, block)``, so advancing within a block costs one
    ``heapreplace`` and crossing a block boundary pulls the next block from
    :meth:`Machine.scan_blocks` (which is what charges the read).  Two fast
    paths keep the per-record work low: a run that is locally ahead of all
    others has its block prefix copied in one ``bisect`` + slice, and the
    last surviving run is drained block-at-a-time with no comparisons.
    Heap ties between runs resolve by run index like ``heapq.merge``; the
    gallop may emit equal records from the current run before an equal head
    of a lower-index run, so the output is *value*-identical to the
    record-at-a-time merge (equal records are interchangeable here: plain
    ints/tuples, and decorated records carry a unique position).
    """
    charge_operations = machine.stats.charge_operations
    block_streams = [machine.scan_blocks(run) for run in group]
    heap: list[tuple[Record, int, int, list[Record]]] = []
    for index, stream in enumerate(block_streams):
        block = next(stream, None)
        if block:
            heap.append((block[0], index, 0, block))
    heapq.heapify(heap)

    batch: list[Record] = []

    def flush_batch() -> None:
        charge_operations(len(batch))
        out.extend([entry[2] for entry in batch] if undecorate else batch)
        batch.clear()

    while len(heap) > 1:
        record, index, position, block = heap[0]
        # Gallop: everything in this block up to the runner-up's head can be
        # emitted without touching the heap again.
        limit = heap[1][0] if len(heap) == 2 else min(heap[1][0], heap[2][0])
        stop = bisect_right(block, limit, position + 1)
        batch.extend(block[position:stop])
        if stop < len(block):
            heapq.heapreplace(heap, (block[stop], index, stop, block))
        else:
            block = next(block_streams[index], None)
            if block:
                heapq.heapreplace(heap, (block[0], index, 0, block))
            else:
                heapq.heappop(heap)
        if len(batch) >= _MERGE_BATCH:
            flush_batch()

    if heap:  # drain the last run block-at-a-time, no comparisons needed
        record, index, position, block = heap[0]
        batch.extend(block[position:])
        if len(batch) >= _MERGE_BATCH:
            flush_batch()
        for block in block_streams[index]:
            batch.extend(block)
            if len(batch) >= _MERGE_BATCH:
                flush_batch()
    if batch:
        flush_batch()
