"""Tests for the graph representation and degree ordering (repro.graph.graph)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import GraphFormatError
from repro.graph.graph import DegreeOrder, Graph
from repro.graph.validation import check_canonical_edges


class TestConstruction:
    def test_empty_graph(self):
        graph = Graph()
        assert graph.num_vertices == 0
        assert graph.num_edges == 0

    def test_add_edges_and_vertices(self):
        graph = Graph(edges=[(1, 2), (2, 3)], vertices=[7])
        assert graph.num_vertices == 4
        assert graph.num_edges == 2
        assert graph.has_edge(2, 1)
        assert graph.degree(2) == 2
        assert graph.degree(7) == 0

    def test_self_loops_rejected(self):
        with pytest.raises(GraphFormatError):
            Graph(edges=[(1, 1)])

    def test_parallel_edges_merge(self):
        graph = Graph(edges=[(1, 2), (2, 1), (1, 2)])
        assert graph.num_edges == 1

    def test_edges_reported_once(self):
        graph = Graph(edges=[(1, 2), (2, 3), (1, 3)])
        edge_set = {frozenset(edge) for edge in graph.edges()}
        assert edge_set == {frozenset({1, 2}), frozenset({2, 3}), frozenset({1, 3})}

    def test_neighbors_is_a_copy(self):
        graph = Graph(edges=[(1, 2)])
        neighbours = graph.neighbors(1)
        neighbours.add(99)
        assert graph.neighbors(1) == {2}

    def test_copy_is_independent(self):
        graph = Graph(edges=[(1, 2)])
        clone = graph.copy()
        clone.add_edge(2, 3)
        assert graph.num_edges == 1
        assert clone.num_edges == 2

    def test_string_labels_supported(self):
        graph = Graph(edges=[("a", "b"), ("b", "c")])
        assert graph.degree("b") == 2


class TestDegreeOrder:
    def test_ranks_sorted_by_degree(self):
        # star: centre has degree 3, leaves degree 1
        graph = Graph(edges=[("hub", "a"), ("hub", "b"), ("hub", "c")])
        order = graph.degree_order()
        assert order.vertex_of[-1] == "hub"
        assert order.rank_of["hub"] == 3

    def test_canonical_edges_are_valid(self):
        graph = Graph(edges=[(10, 20), (20, 30), (10, 30), (30, 40)])
        order = graph.degree_order()
        check_canonical_edges(order.edges)
        assert order.num_edges == 4

    def test_rank_mapping_is_a_bijection(self):
        graph = Graph(edges=[(i, i + 1) for i in range(10)])
        order = graph.degree_order()
        assert sorted(order.rank_of.values()) == list(range(order.num_vertices))
        for vertex, rank in order.rank_of.items():
            assert order.vertex_of[rank] == vertex

    def test_isolated_vertices_get_lowest_ranks(self):
        graph = Graph(edges=[(1, 2)], vertices=[99])
        order = graph.degree_order()
        assert order.rank_of[99] == 0

    def test_ordering_is_consistent_across_calls(self):
        graph = Graph(edges=[(1, 2), (3, 4), (1, 3)])
        first = graph.degree_order()
        second = graph.degree_order()
        assert first.vertex_of == second.vertex_of
        assert first.edges == second.edges

    def test_degree_helper_matches_graph(self):
        graph = Graph(edges=[(1, 2), (1, 3), (1, 4), (2, 3)])
        order = graph.degree_order()
        for vertex in graph.vertices():
            assert order.degree(order.rank_of[vertex]) == graph.degree(vertex)

    def test_to_labels_round_trip(self):
        graph = Graph(edges=[("x", "y"), ("y", "z"), ("x", "z")])
        order = graph.degree_order()
        ranked = tuple(sorted(order.rank_of[v] for v in ("x", "y", "z")))
        assert set(order.to_labels(ranked)) == {"x", "y", "z"}

    def test_triangle_count_preserved_by_ranking(self):
        from repro.core.baselines.in_memory import count_triangles_in_memory

        graph = Graph(edges=[(1, 2), (2, 3), (1, 3), (3, 4), (4, 5), (3, 5)])
        order = graph.degree_order()
        assert count_triangles_in_memory(order.edges) == 2


# ----------------------------------------------------------------------
# equivalence with the original per-edge implementations
# ----------------------------------------------------------------------
def reference_edges(graph: Graph):
    """The original ``Graph.edges``: dedup through one frozenset per edge."""
    seen = set()
    for u, neighbours in graph._adjacency.items():
        for v in neighbours:
            key = frozenset((u, v))
            if key in seen:
                continue
            seen.add(key)
            yield (u, v)


def reference_degree_order(graph: Graph) -> DegreeOrder:
    """The original ``Graph.degree_order``: orient every edge, then one global sort."""
    adjacency = graph._adjacency
    ranked = sorted(adjacency, key=lambda v: (len(adjacency[v]), repr(v), str(v)))
    rank_of = {vertex: rank for rank, vertex in enumerate(ranked)}
    edges = []
    for u, v in reference_edges(graph):
        ru, rv = rank_of[u], rank_of[v]
        if ru > rv:
            ru, rv = rv, ru
        edges.append((ru, rv))
    edges.sort()
    return DegreeOrder(vertex_of=tuple(ranked), rank_of=rank_of, edges=edges)


LABELS = st.one_of(
    st.integers(-3, 12),
    st.text(alphabet="ab01", min_size=1, max_size=2),
    st.tuples(st.integers(0, 2), st.sampled_from(["x", "y"])),
)
# Interleaved vertex and edge insertions: isolated vertices land anywhere in
# the adjacency's insertion order, and edges repeat in both orientations.
OPERATIONS = st.lists(
    st.one_of(
        st.tuples(st.just("vertex"), LABELS),
        st.tuples(st.just("edge"), st.tuples(LABELS, LABELS)),
        st.tuples(st.just("both"), st.tuples(LABELS, LABELS)),
    ),
    max_size=60,
)


def build(operations) -> Graph:
    graph = Graph()
    for kind, payload in operations:
        if kind == "vertex":
            graph.add_vertex(payload)
            continue
        u, v = payload
        if u == v:
            continue
        graph.add_edge(u, v)
        if kind == "both":
            graph.add_edge(v, u)
    return graph


class TestPerEdgeEquivalence:
    @settings(max_examples=300, deadline=None)
    @given(OPERATIONS)
    def test_edges_yield_the_reference_sequence(self, operations):
        graph = build(operations)
        assert list(graph.edges()) == list(reference_edges(graph))

    @settings(max_examples=300, deadline=None)
    @given(OPERATIONS)
    def test_degree_order_equals_the_reference(self, operations):
        graph = build(operations)
        order = graph.degree_order()
        assert order == reference_degree_order(graph)
        check_canonical_edges(order.edges)

    def test_repr_str_tie_break_is_kept(self):
        # Equal degrees rank by repr: "'9'" < "10" < "9".
        graph = Graph(vertices=[9, 10, "9"], edges=[("a", "b")])
        assert graph.degree_order().vertex_of == ("9", 10, 9, "a", "b")

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(0, 40), st.integers(0, 40)), max_size=120))
    def test_canonical_arrays_edge_list_matches_row_tuples(self, pairs):
        np = pytest.importorskip("numpy")
        from repro.fastpath.arrays import canonicalize_edge_array

        pairs = [(u, v) for u, v in pairs if u != v]
        canonical = canonicalize_edge_array(np.array(pairs, dtype=np.int64).reshape(-1, 2))
        edge_list = canonical.edge_list()
        assert edge_list == [tuple(row) for row in canonical.edges.tolist()]
        assert all(type(label) is int for edge in edge_list for label in edge)
