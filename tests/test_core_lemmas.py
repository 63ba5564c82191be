"""Tests for the paper's subroutines: Lemma 1 and Lemma 2."""

from itertools import groupby
from operator import itemgetter

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.analysis.bounds import sort_io
from repro.analysis.model import MachineParams
from repro.core.baselines.in_memory import triangles_in_memory
from repro.core.emit import DedupCheckingSink, emit_all, sorted_triangle
from repro.core.lemma1 import triangles_through_vertex
from repro.core.lemma2 import (
    _EMIT_BATCH,
    _MEMORY_MULTIPLIER,
    DEFAULT_MEMORY_FRACTION,
    triangles_with_pivot_in,
)
from repro.extmem.machine import Machine
from repro.extmem.stats import IOStats
from repro.graph.generators import clique, erdos_renyi_gnm


def make_machine(memory=64, block=8):
    return Machine(MachineParams(memory, block), IOStats())


def oracle_through_vertex(edges, vertex):
    return {t for t in triangles_in_memory(edges) if vertex in t}


def oracle_with_pivot_in(edges, pivot_edges):
    pivots = set(pivot_edges)
    return {t for t in triangles_in_memory(edges) if (t[1], t[2]) in pivots}


class TestLemma1:
    def test_enumerates_triangles_through_vertex(self):
        graph = erdos_renyi_gnm(40, 150, seed=2)
        edges = graph.degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        for vertex in (0, 10, 25, 39):
            sink = DedupCheckingSink()
            triangles_through_vertex(machine, [edge_file], vertex, sink)
            assert sink.as_set() == oracle_through_vertex(edges, vertex)

    def test_vertex_with_no_triangles(self):
        edges = [(0, 1), (1, 2), (2, 3)]  # a path
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        count = triangles_through_vertex(machine, [edge_file], 1, sink)
        assert count == 0
        assert sink.count == 0

    def test_excluded_vertices_suppress_their_triangles(self):
        # two triangles sharing the edge (3, 4): {2,3,4} and {1,3,4}
        edges = [(1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        triangles_through_vertex(machine, [edge_file], 3, sink, excluded=frozenset({2}))
        assert sink.as_set() == {(1, 3, 4)}

    def test_excluded_target_vertex_returns_nothing(self):
        edges = [(0, 1), (0, 2), (1, 2)]
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        assert triangles_through_vertex(machine, [edge_file], 0, sink, excluded={0}) == 0

    def test_triangle_filter_applied(self):
        edges = clique(6).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        triangles_through_vertex(
            machine, [edge_file], 0, sink, triangle_filter=lambda t: t[2] == 5
        )
        assert all(t[2] == 5 and t[0] == 0 for t in sink.as_set())

    def test_multiple_sources_equivalent_to_union(self):
        edges = clique(8).degree_order().edges
        machine = make_machine()
        first = machine.file_from_records(edges[: len(edges) // 2])
        second = machine.file_from_records(edges[len(edges) // 2 :])
        sink = DedupCheckingSink()
        triangles_through_vertex(machine, [first, second], 2, sink)
        assert sink.as_set() == oracle_through_vertex(edges, 2)

    def test_io_cost_within_constant_of_sort(self):
        """Lemma 1 promises O(sort(E)) I/Os."""
        graph = erdos_renyi_gnm(120, 2000, seed=5)
        edges = graph.degree_order().edges
        params = MachineParams(128, 16)
        machine = Machine(params, IOStats())
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        triangles_through_vertex(machine, [edge_file], 60, sink)
        assert machine.stats.total <= 20 * sort_io(len(edges), params)

    def test_temporary_files_cleaned_up(self):
        edges = clique(10).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        live_before = set(machine.disk.files)
        triangles_through_vertex(machine, [edge_file], 3, DedupCheckingSink())
        assert set(machine.disk.files) == live_before


class TestLemma2:
    def test_pivot_set_equal_to_edges_enumerates_everything(self):
        graph = erdos_renyi_gnm(50, 220, seed=9)
        edges = graph.degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        sink = DedupCheckingSink()
        count = triangles_with_pivot_in(machine, edge_file, [edge_file], sink)
        assert sink.as_set() == set(triangles_in_memory(edges))
        assert count == len(sink.as_set())

    def test_restricted_pivot_set(self):
        edges = clique(9).degree_order().edges
        pivot_edges = edges[::3]
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        pivot_file = machine.file_from_records(pivot_edges)
        sink = DedupCheckingSink()
        triangles_with_pivot_in(machine, pivot_file, [edge_file], sink)
        assert sink.as_set() == oracle_with_pivot_in(edges, pivot_edges)

    def test_empty_pivot_set(self):
        edges = clique(5).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        empty = machine.empty_file()
        assert triangles_with_pivot_in(machine, empty, [edge_file], DedupCheckingSink()) == 0

    def test_multiple_adjacency_sources(self):
        """Splitting the (sorted) edge set into consecutive sorted slices must not
        change the outcome -- this is how the colour-class iteration uses it."""
        edges = clique(10).degree_order().edges
        machine = make_machine()
        edge_file = machine.file_from_records(edges)
        third = len(edges) // 3
        sources = [
            edge_file.slice(0, third),
            edge_file.slice(third, 2 * third),
            edge_file.slice(2 * third, len(edges)),
        ]
        # NOTE: slices of a lexicographically sorted file are themselves sorted.
        sink = DedupCheckingSink()
        triangles_with_pivot_in(machine, edge_file, sources, sink)
        assert sink.as_set() == set(triangles_in_memory(edges))

    def test_invalid_memory_fraction_rejected(self):
        machine = make_machine()
        edge_file = machine.file_from_records([(0, 1)])
        with pytest.raises(ValueError):
            triangles_with_pivot_in(
                machine, edge_file, [edge_file], DedupCheckingSink(), memory_fraction=0.9
            )

    def test_io_scales_with_pivot_batches(self):
        """Halving memory should roughly double the I/Os (the E'E/(MB) term)."""
        graph = erdos_renyi_gnm(150, 3000, seed=3)
        edges = graph.degree_order().edges
        totals = {}
        for memory in (512, 256, 128):
            machine = Machine(MachineParams(memory, 16), IOStats())
            edge_file = machine.file_from_records(edges)
            triangles_with_pivot_in(machine, edge_file, [edge_file], DedupCheckingSink())
            totals[memory] = machine.stats.total
        assert totals[256] >= 1.5 * totals[512]
        assert totals[128] >= 1.5 * totals[256]


# ----------------------------------------------------------------------
# differential test: the kernel against the group-at-a-time loop
# ----------------------------------------------------------------------
def reference_triangles_with_pivot_in(
    machine, pivot_source, adjacency_sources, sink, spectator_sources=()
):
    """Lemma 2 one cone-vertex group at a time: the kernel's specification.

    Each pivot batch charges a block-by-block scan of every spectator and
    adjacency source (one operation per record), merges the sources'
    batch-touching records into ``(v, Gamma_v)`` groups in ascending ``v``
    (a vertex's neighbours concatenated in source order), and closes each
    group with two or more neighbours: for ``u`` in ``Gamma_v``, every batch
    edge ``(u, w)`` with ``w`` in ``Gamma_v`` is a triangle.  Probing ``u``'s
    batch edges costs one operation per edge.  Triangles are delivered after
    the first group that brings the buffer to ``_EMIT_BATCH``, and at the end.
    """
    batch_size = max(1, int(DEFAULT_MEMORY_FRACTION * machine.memory_size))
    emitted = 0
    for position in range(0, len(pivot_source), batch_size):
        count = min(batch_size, len(pivot_source) - position)
        with machine.lease(_MEMORY_MULTIPLIER * count, "reference pivot batch"):
            batch = machine.load(pivot_source, position, count)
            for spectator in spectator_sources:
                for block in machine.scan_blocks(spectator):
                    machine.stats.charge_operations(len(block))
            emitted += _reference_batch(machine, batch, adjacency_sources, sink)
    return emitted


def _reference_groups(machine, source, batch_endpoints):
    for block in machine.scan_blocks(source):
        machine.stats.charge_operations(len(block))
        candidates = [edge for edge in block if edge[1] in batch_endpoints]
        for v, group in groupby(candidates, key=itemgetter(0)):
            yield v, [u for _, u in group]


def _reference_merged_groups(machine, sources, batch_endpoints):
    streams = [_reference_groups(machine, source, batch_endpoints) for source in sources]
    heads = [next(stream, None) for stream in streams]
    while True:
        live = [head[0] for head in heads if head is not None]
        if not live:
            return
        vertex = min(live)
        gamma = []
        for index, stream in enumerate(streams):
            # A group split across a block boundary arrives as several heads.
            while heads[index] is not None and heads[index][0] == vertex:
                gamma.extend(heads[index][1])
                heads[index] = next(stream, None)
        yield vertex, gamma


def _reference_batch(machine, batch, adjacency_sources, sink):
    batch_endpoints = set()
    batch_adjacency = {}
    for u, w in batch:
        batch_endpoints.update((u, w))
        batch_adjacency.setdefault(u, []).append(w)
    machine.stats.charge_operations(len(batch))
    emitted = 0
    operations = 0
    triangles = []
    for v, gamma in _reference_merged_groups(machine, adjacency_sources, batch_endpoints):
        gamma_set = set(gamma)
        for u in gamma:
            closing = batch_adjacency.get(u, [])
            operations += len(closing)
            if len(gamma) > 1:
                triangles.extend(sorted_triangle(v, u, w) for w in closing if w in gamma_set)
        if len(triangles) >= _EMIT_BATCH:
            emit_all(sink, triangles)
            emitted += len(triangles)
            triangles = []
    machine.stats.charge_operations(operations)
    emit_all(sink, triangles)
    return emitted + len(triangles)


class DeliverySink:
    """Records every ``emit_many`` delivery, so order and batching are visible."""

    def __init__(self):
        self.deliveries = []

    def emit(self, a, b, c):
        self.deliveries.append([(a, b, c)])

    def emit_many(self, triangles):
        self.deliveries.append(list(triangles))

    @property
    def sequence(self):
        return [triangle for delivery in self.deliveries for triangle in delivery]


def run_both(memory, block, edges, pivots, classes, spectators):
    """Run the kernel and the reference on fresh machines; return both outcomes."""
    outcomes = []
    for kernel in (triangles_with_pivot_in, reference_triangles_with_pivot_in):
        machine = Machine(MachineParams(memory, block), IOStats())
        pivot = machine.file_from_records(pivots)
        adjacency = [machine.file_from_records(sorted(part)) for part in classes]
        extra = [machine.file_from_records(sorted(part)) for part in spectators]
        sink = DeliverySink()
        returned = kernel(machine, pivot, adjacency, sink, spectator_sources=extra)
        assert machine.memory_in_use == 0
        outcomes.append((returned, sink, machine.stats.snapshot()))
    return outcomes


def assert_same_outcome(outcomes):
    (returned, sink, stats), (expected_returned, expected_sink, expected_stats) = outcomes
    assert returned == expected_returned == len(expected_sink.sequence)
    assert sink.sequence == expected_sink.sequence
    assert stats == expected_stats  # reads, writes and operations
    # Same non-empty deliveries: buffering is bounded exactly as before.
    assert [d for d in sink.deliveries if d] == [d for d in expected_sink.deliveries if d]


@st.composite
def lemma2_instances(draw):
    vertices = draw(st.integers(min_value=3, max_value=16))
    pairs = [(u, w) for u in range(vertices) for w in range(u + 1, vertices)]
    edge_mask = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    edges = [edge for edge, keep in zip(pairs, edge_mask) if keep] or pairs[:1]
    pivot_mask = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    pivots = draw(st.permutations([e for e, keep in zip(edges, pivot_mask) if keep]))
    num_classes = draw(st.integers(min_value=1, max_value=3))
    labels = draw(
        st.lists(st.integers(0, num_classes - 1), min_size=len(edges), max_size=len(edges))
    )
    classes = [[e for e, label in zip(edges, labels) if label == c] for c in range(num_classes)]
    spectators = draw(st.lists(st.lists(st.sampled_from(pairs), max_size=40), max_size=2))
    memory, block = draw(st.sampled_from([(8, 4), (16, 4), (32, 8), (64, 8), (64, 16), (256, 32)]))
    return memory, block, edges, pivots, classes, spectators


class TestLemma2MatchesGroupLoop:
    """The kernel reproduces the group-at-a-time loop exactly: the emitted
    sequence and its deliveries, the return value, and every counter."""

    @settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(instance=lemma2_instances())
    def test_random_instances(self, instance):
        memory, block, edges, pivots, classes, spectators = instance
        assert_same_outcome(run_both(memory, block, edges, pivots, classes, spectators))

    @pytest.mark.parametrize("num_classes", [1, 2, 3])
    def test_clique_crosses_the_emit_batch(self, num_classes):
        edges = clique(32).degree_order().edges  # 4960 triangles, one batch
        classes = [edges[c::num_classes] for c in range(num_classes)]
        outcomes = run_both(2048, 32, edges, edges, classes, [edges[:100]])
        assert_same_outcome(outcomes)
        returned, sink, _ = outcomes[0]
        assert returned == len(triangles_in_memory(edges)) > _EMIT_BATCH
        assert len([d for d in sink.deliveries if d]) > 1
