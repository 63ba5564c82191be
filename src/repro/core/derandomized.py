"""Section 4: the deterministic cache-aware algorithm.

The randomized algorithm of Section 2 only uses randomness to pick the
colouring ``xi``; all that is needed of ``xi`` is that its collision
statistic ``X_xi`` (pairs of edges landing in the same colour class) is
``O(E * M)``.  Section 4 derandomizes the choice greedily: the colouring is
built one bit at a time, and at every level the refinement bit function
``b_{i-1} : V -> {0, 1}`` is chosen from a small-bias (almost 4-wise
independent) family so that the potential

    ``Phi_i = 4^i * X^nonadj_{xi_i} / c^2  +  2^i * X^adj_{xi_i} / c``

satisfies ``Phi_i <= (1 + alpha)^i * E * M`` with ``alpha = 1 / log2(c)``
(inequality (4) of the paper).  After ``log2(c)`` levels this certifies
``X_xi <= e * E * M``, and the rest of the algorithm is identical to the
randomized one.

Faithfulness notes
------------------
* The candidate family is the AGHP construction of
  :mod:`repro.hashing.small_bias`.  Its full size for Lemma 6 can be large;
  the ``max_family_size`` parameter caps it for practicality.  When the cap
  is active the existence guarantee of the paper no longer applies a priori,
  so the implementation *verifies* inequality (4) at every level and reports
  whether the run was fully certified (empirically it always is, see
  EXPERIMENTS.md, experiment EXP5).
* The paper evaluates all candidates in a single scan keeping ``O(1)``
  counters per candidate.  We also use a single charged scan of the edge
  list per level, but keep the scanned endpoints and, per candidate,
  ``collections.Counter`` objects over integer class-pair and vertex keys
  in simulator RAM (they are not charged as I/O).  The measured I/O
  complexity -- the quantity the theorems are about -- is unaffected; only
  the internal bookkeeping is simpler than the paper's.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, field
from operator import add, itemgetter, mul
from typing import Callable, Sequence

from repro.analysis.bounds import colour_count, high_degree_threshold
from repro.core.cache_aware import (
    CacheAwareReport,
    TriplesExecutor,
    VertexExecutor,
    enumerate_colored_triples,
    high_degree_phase,
    partition_by_coloring,
)
from repro.core.emit import TriangleSink
from repro.extmem.disk import ExtFile
from repro.extmem.machine import Machine
from repro.hashing.coloring import Coloring, ConstantColoring, TableColoring
from repro.hashing.small_bias import SmallBiasFamily


@dataclass
class GreedyLevel:
    """Diagnostics for one level of the greedy bit-fixing."""

    level: int
    chosen_candidate: int
    potential: float
    budget: float
    certified: bool


@dataclass
class DerandomizedReport(CacheAwareReport):
    """Report of the deterministic algorithm: cache-aware report plus greedy info."""

    levels: list[GreedyLevel] = field(default_factory=list)
    family_size: int = 0

    @property
    def certified(self) -> bool:
        """Whether inequality (4) held at every level of the greedy construction."""
        return all(level.certified for level in self.levels)


def _round_up_to_power_of_two(value: int) -> int:
    if value <= 1:
        return 1
    return 1 << (value - 1).bit_length()


def _candidate_bit_tables(family: SmallBiasFamily, num_vertices: int) -> list[bytes]:
    """Precompute, for every family member, its bit for every vertex id.

    The AGHP bit for vertex ``v`` is ``<x^{v+1}, y>``; iterating ``v`` in
    order lets us maintain ``x^{v+1}`` with one field multiplication per
    step instead of a fresh exponentiation.  The tables are built
    bit-sliced: for each ``x``, slice ``j`` holds bit ``j`` of every power
    as one byte per vertex (packed into an integer), and the table of
    ``(x, y)`` is the XOR of the slices of the bits set in ``y`` -- a
    bytewise XOR, so byte ``v`` ends up as the parity of ``x^{v+1} & y``.
    Table ``i`` is the ``i``-th function of the family (row-major over
    ``(x, y)``), one byte (0 or 1) per vertex.
    """
    gf = family.field
    tables: list[bytes] = []
    for x in gf.elements():
        powers: list[int] = []
        power = x
        for _ in range(num_vertices):
            powers.append(power)
            power = gf.multiply(power, x)
        slices = [
            int.from_bytes(bytes([(p >> bit) & 1 for p in powers]), "little")
            for bit in range(gf.degree)
        ]
        for y in gf.elements():
            combined = 0
            for bit, bit_slice in enumerate(slices):
                if (y >> bit) & 1:
                    combined ^= bit_slice
            tables.append(combined.to_bytes(num_vertices, "little"))
    return tables


#: Maps the bytes of a bit table to twice their value (0 -> 0, 1 -> 2).
_DOUBLE_BITS = bytes.maketrans(b"\x01", b"\x02")


def _gatherer(indices: list[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """``table -> [table[i] for i in indices]`` as one C-level call."""
    if len(indices) == 1:
        only = indices[0]
        return lambda table: (table[only],)
    return itemgetter(*indices)


def _colliding_pairs(counts: Counter[int], total: int) -> int:
    """``sum(n * (n - 1) // 2)`` over the counts, which add up to ``total``."""
    sizes = counts.values()
    return (sum(map(mul, sizes, sizes)) - total) // 2


def greedy_coloring(
    machine: Machine,
    low_degree_edges: ExtFile,
    num_colors: int,
    total_edges: int,
    max_family_size: int = 256,
) -> tuple[TableColoring, list[GreedyLevel], int]:
    """Build the deterministic colouring by greedy bit fixing.

    Returns the colouring, the per-level diagnostics and the size of the
    candidate family used.
    """
    levels_needed = int(math.log2(num_colors)) if num_colors > 1 else 0
    if levels_needed == 0:
        return TableColoring({}, 1), [], 0

    # Discover the vertex universe of E_l (one charged block-granular scan).
    max_vertex = -1
    for block in machine.scan_blocks(low_degree_edges):
        machine.stats.charge_operations(len(block))
        block_max = max(max(u, v) for u, v in block)
        if block_max > max_vertex:
            max_vertex = block_max
    num_vertices = max_vertex + 1
    if num_vertices <= 0:
        return TableColoring({}, num_colors), [], 0

    family = SmallBiasFamily.with_size_at_most(max(16, max_family_size))
    bit_tables = _candidate_bit_tables(family, num_vertices)
    doubled_tables = [table.translate(_DOUBLE_BITS) for table in bit_tables]

    alpha = 1.0 / levels_needed
    budget_base = float(total_edges) * float(machine.memory_size)
    colors = [0] * num_vertices
    diagnostics: list[GreedyLevel] = []

    for level in range(1, levels_needed + 1):
        best_index = -1
        best_potential = math.inf
        scale_nonadj = (4.0**level) / float(num_colors) ** 2
        scale_adj = (2.0**level) / float(num_colors)

        # One charged scan of E_l evaluates every candidate: the scan
        # gathers the endpoints, then every candidate is scored from them.
        us: list[int] = []
        vs: list[int] = []
        for block in machine.scan_blocks(low_degree_edges):
            machine.stats.charge_operations(len(block) * len(bit_tables))
            for u, v in block:
                us.append(u)
                vs.append(v)
        num_edges = len(us)
        # Class pairs are integer keys: the refined pair (2cu + bit(u),
        # 2cv + bit(v)) gets ``4 * (cu * 2^(level-1) + cv) + 2 * bit(u) +
        # bit(v)``, which is below 4^level and one-to-one.  Two edges are
        # "adjacent" when they share a vertex and land in the same class, so
        # the vertex counter key is ``vertex * 4^level + pair key``.
        gather_u = _gatherer(us)
        gather_v = _gatherer(vs)
        shift = level + 1
        base = list(
            map(
                add,
                gather_u([color << shift for color in colors]),
                gather_v([color << 2 for color in colors]),
            )
        )
        vertex_scale = 4**level
        u_base = [u * vertex_scale for u in us]
        v_base = [v * vertex_scale for v in vs]

        for index, (table, doubled) in enumerate(zip(bit_tables, doubled_tables)):
            pairs = list(map(add, map(add, base, gather_u(doubled)), gather_v(table)))
            x_total = _colliding_pairs(Counter(pairs), num_edges)
            vertex_counts = Counter(map(add, u_base, pairs))
            vertex_counts.update(map(add, v_base, pairs))
            x_adj = _colliding_pairs(vertex_counts, 2 * num_edges)
            x_nonadj = x_total - x_adj
            potential = scale_nonadj * x_nonadj + scale_adj * x_adj
            if potential < best_potential:
                best_potential = potential
                best_index = index

        budget = ((1.0 + alpha) ** level) * budget_base
        certified = best_potential <= budget
        diagnostics.append(
            GreedyLevel(
                level=level,
                chosen_candidate=best_index,
                potential=best_potential,
                budget=budget,
                certified=certified,
            )
        )

        colors = list(map(add, map(add, colors, colors), bit_tables[best_index]))

    return TableColoring(dict(enumerate(colors)), num_colors), diagnostics, family.size


def deterministic_cache_aware(
    machine: Machine,
    edge_file: ExtFile,
    sink: TriangleSink,
    num_colors: int | None = None,
    max_family_size: int = 256,
    triples_executor: "TriplesExecutor | None" = None,
    high_degree_executor: "VertexExecutor | None" = None,
) -> DerandomizedReport:
    """Run the deterministic cache-aware algorithm of Section 4 (Theorem 2).

    ``triples_executor`` and ``high_degree_executor`` are the sharded
    engine's hooks into the colour-triple and high-degree phases, with the
    same bit-identical contract as on
    :func:`repro.core.cache_aware.cache_aware_randomized`; the greedy
    colouring itself always runs in the coordinating process (it is one
    inherently sequential scan per level, not a parallel phase).
    """
    num_edges = len(edge_file)
    report = DerandomizedReport(num_edges=num_edges, num_colors=1)
    if num_edges == 0:
        return report

    threshold = high_degree_threshold(num_edges, machine.memory_size)
    with machine.phase("high-degree"):
        high_vertices, low_edges, high_triangles = high_degree_phase(
            machine, edge_file, sink, threshold, vertex_executor=high_degree_executor
        )
    report.high_degree_vertices = high_vertices
    report.high_degree_triangles = high_triangles

    base_colors = num_colors if num_colors is not None else colour_count(
        num_edges, machine.memory_size
    )
    c = _round_up_to_power_of_two(max(1, base_colors))
    report.num_colors = c

    coloring: Coloring
    if c == 1:
        coloring = ConstantColoring()
    else:
        with machine.phase("greedy-coloring"):
            coloring, levels, family_size = greedy_coloring(
                machine,
                low_edges,
                c,
                total_edges=num_edges,
                max_family_size=max_family_size,
            )
        report.levels = levels
        report.family_size = family_size

    with machine.phase("partition"):
        partitioned, slices, sizes = partition_by_coloring(machine, low_edges, coloring)
    report.partition_sizes = sizes
    low_edges.delete()

    run_triples = triples_executor if triples_executor is not None else enumerate_colored_triples
    with machine.phase("triples"):
        report.low_degree_triangles = run_triples(machine, slices, coloring, sink)
    partitioned.delete()
    return report
