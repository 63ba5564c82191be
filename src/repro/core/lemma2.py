"""Paper Lemma 2 (Hu, Tao and Chung): triangles with a pivot edge in ``E'``.

    "The set of triangles in an edge set E with a pivot edge in E' ⊆ E can
    be enumerated in O(E/B + E'E/(MB)) I/Os."

The algorithm loads ``alpha * M`` pivot edges at a time into internal memory
and, for each memory-resident batch, streams the (lexicographically sorted)
edge set grouped by smaller endpoint: for a group of edges ``(v, u)`` it
collects ``Gamma_v``, the forward neighbours of ``v`` that touch the batch,
and reports every batch edge ``{u, w}`` with both endpoints in ``Gamma_v`` as
the triangle ``{v, u, w}``.

This subroutine is both:

* the inner loop of the cache-aware algorithms (Section 2 step 3 /
  Section 4), where ``E'`` is one colour-class partition and the edge set is
  the union of three partitions, and
* the whole of the Hu-Tao-Chung baseline (``E' = E``), see
  :mod:`repro.core.baselines.hu_tao_chung`.

Each batch filters the adjacency records with C-level builtins, and only the
records that can close a triangle reach a Python loop.  The counters and the
emitted triangle sequence are those of the group-at-a-time loop (DESIGN.md,
"Lemma 2 inner loop").
"""

from __future__ import annotations

from itertools import compress
from operator import itemgetter
from typing import Sequence

from repro.core.emit import Triangle, TriangleSink, emit_all, sorted_triangle
from repro.extmem.disk import Readable
from repro.extmem.machine import Machine

RankedEdge = tuple[int, int]

#: Fraction of internal memory used for the pivot-edge batch.  The batch,
#: its endpoint set and its adjacency index together are leased as
#: ``_MEMORY_MULTIPLIER`` times the batch size, so the default keeps the
#: total comfortably under ``M``.
DEFAULT_MEMORY_FRACTION = 1.0 / 4.0
_MEMORY_MULTIPLIER = 3
#: Triangles accumulated before a bulk ``emit_all`` delivery; purely a
#: constant-factor knob (the enumeration still never writes triangles to
#: external memory).
_EMIT_BATCH = 4096

_cone = itemgetter(0)
_forward = itemgetter(1)


def triangles_with_pivot_in(
    machine: Machine,
    pivot_source: Readable,
    adjacency_sources: Sequence[Readable],
    sink: TriangleSink,
    *,
    memory_fraction: float = DEFAULT_MEMORY_FRACTION,
    spectator_sources: Sequence[Readable] = (),
) -> int:
    """Emit every triangle whose pivot edge lies in ``pivot_source``.

    Parameters
    ----------
    pivot_source:
        The pivot-edge set ``E'`` (any order).
    adjacency_sources:
        Files/slices that together form the edge set ``E``; **each must be
        sorted lexicographically** so that their merge is grouped by smaller
        endpoint.  Pass each distinct source once.
    spectator_sources:
        Parts of the edge set whose cone vertices are known *a priori* not
        to contribute (e.g. a colour class whose first colour is not
        ``tau_1``).  Every batch charges them exactly like a scan of the
        other adjacency sources -- the I/O model sees the same stream --
        without reading their records.

    Returns the number of triangles emitted.
    """
    if not 0 < memory_fraction <= 1.0 / float(_MEMORY_MULTIPLIER):
        raise ValueError(
            f"memory fraction must lie in (0, {1.0 / _MEMORY_MULTIPLIER:.3f}], got {memory_fraction}"
        )
    total_pivots = len(pivot_source)
    if total_pivots == 0:
        return 0
    spectator_records = [len(spectator) for spectator in spectator_sources]
    spectator_reads = sum(map(machine.blocks, spectator_records))
    spectator_operations = sum(spectator_records)
    batch_size = max(1, int(memory_fraction * machine.memory_size))
    emitted = 0
    position = 0
    while position < total_pivots:
        count = min(batch_size, total_pivots - position)
        with machine.lease(_MEMORY_MULTIPLIER * count, "lemma2 pivot batch"):
            batch = machine.load(pivot_source, position, count)
            machine.stats.charge_read(spectator_reads)
            machine.stats.charge_operations(spectator_operations)
            emitted += _process_batch(machine, batch, adjacency_sources, sink)
        position += count
    return emitted


def _process_batch(
    machine: Machine,
    batch: list[RankedEdge],
    adjacency_sources: Sequence[Readable],
    sink: TriangleSink,
) -> int:
    """Stream the edge set once against one memory-resident pivot batch.

    Each chunk of an adjacency source is narrowed twice with C-level
    filters: *probes* are the records ``(v, u)`` whose forward endpoint
    ``u`` starts a batch edge, *targets* those whose forward endpoint ends
    one.  A probe reads the closing list of ``u`` (its batch edges
    ``(u, w)``), charged as ``len`` operations; every other record touching
    the batch has an empty closing list and costs nothing more.  A batch
    edge ``(u, w)`` closes the triangle ``{v, u, w}`` exactly when ``(v, w)``
    is a target, so ``v`` has at least two batch-touching neighbours, as
    the group-at-a-time loop required.
    """
    closing: dict[int, list[int]] = {}
    for u, w in batch:
        closing.setdefault(u, []).append(w)
    starts_batch_edge = closing.__contains__
    ends_batch_edge = frozenset(map(_forward, batch)).__contains__

    operations = len(batch)
    probes: list[RankedEdge] = []
    targets: list[RankedEdge] = []
    for source in adjacency_sources:
        for chunk in machine.scan_chunks(source):
            operations += len(chunk)
            forward = list(map(_forward, chunk))
            probes += compress(chunk, map(starts_batch_edge, forward))
            targets += compress(chunk, map(ends_batch_edge, forward))
    operations += sum(map(len, map(closing.__getitem__, map(_forward, probes))))
    machine.stats.charge_operations(operations)
    if len(adjacency_sources) > 1:
        # Stable: a cone vertex's probes keep source order, then ``u`` order.
        probes.sort(key=_cone)
    return _close_triangles(probes, set(targets), closing, sink)


def _close_triangles(
    probes: list[RankedEdge],
    targets: set[RankedEdge],
    closing: dict[int, list[int]],
    sink: TriangleSink,
) -> int:
    """Emit ``{v, u, w}`` for each probe ``(v, u)`` (in order) and each batch
    edge ``(u, w)`` (in batch order) whose ``(v, w)`` is a target.

    Triangles are delivered in bulk at the first cone vertex after
    ``_EMIT_BATCH`` of them have been buffered, and once at the end.
    """
    emitted = 0
    triangles: list[Triangle] = []
    previous = None
    for v, u in probes:
        for w in closing[u]:
            if (v, w) in targets:
                if v != previous:
                    if len(triangles) >= _EMIT_BATCH:
                        emit_all(sink, triangles)
                        emitted += len(triangles)
                        triangles = []
                    previous = v
                triangles.append(sorted_triangle(v, u, w))
    emit_all(sink, triangles)
    return emitted + len(triangles)
