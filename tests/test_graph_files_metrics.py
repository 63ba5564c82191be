"""Tests for edge-list files (repro.graph.files) and triangle metrics (repro.graph.metrics)."""

import math

import pytest

from repro.analysis.model import MachineParams
from repro.exceptions import GraphFormatError
from repro.graph.files import read_edge_list, write_edge_list
from repro.graph.generators import clique, complete_bipartite, erdos_renyi_gnm, path_graph
from repro.graph.graph import Graph
from repro.graph.metrics import (
    average_clustering,
    clustering_coefficients,
    local_clustering_coefficient,
    transitivity,
    triangle_statistics,
)

PARAMS = MachineParams(memory_words=64, block_words=8)


class TestEdgeListFiles:
    def test_round_trip(self, tmp_path):
        graph = erdos_renyi_gnm(40, 120, seed=3)
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path, header=["a test graph"])
        loaded = read_edge_list(path)
        assert loaded.num_vertices == graph.num_vertices
        assert loaded.num_edges == graph.num_edges
        assert {frozenset(e) for e in loaded.edges()} == {frozenset(e) for e in graph.edges()}

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("# comment\n\n1 2\n2 3\n# another\n1 3\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 3

    def test_integer_labels_parsed_as_ints(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n")
        graph = read_edge_list(path)
        assert graph.has_edge(1, 2)
        assert not graph.has_edge("1", "2")

    def test_string_labels_preserved(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("alice bob\nbob carol\n")
        graph = read_edge_list(path)
        assert graph.has_edge("alice", "bob")

    def test_malformed_line_rejected(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("1\n")
        with pytest.raises(GraphFormatError):
            read_edge_list(path)

    def test_self_loop_rejected_with_line_number(self, tmp_path):
        path = tmp_path / "loop.txt"
        path.write_text("1 2\n3 3\n")
        with pytest.raises(GraphFormatError) as caught:
            read_edge_list(path)
        assert str(caught.value) == f"{path}:2: self-loop on 3"

    def test_extra_columns_ignored(self, tmp_path):
        # SNAP exports append weights/timestamps; the default keeps just the
        # two endpoint labels instead of silently failing.
        path = tmp_path / "weighted.txt"
        path.write_text("1 2 0.5\n2 3 0.7\n")
        graph = read_edge_list(path)
        assert graph.num_edges == 2
        assert graph.has_edge(1, 2) and graph.has_edge(2, 3)

    def test_extra_columns_error_mode_rejects_with_line_number(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("1 2\n2 3 1393621093\n")
        with pytest.raises(GraphFormatError, match="weighted.txt:2"):
            read_edge_list(path, extra_columns="error")
        # ...and the clean part of the file still loads in error mode.
        path.write_text("1 2\n2 3\n")
        assert read_edge_list(path, extra_columns="error").num_edges == 2

    def test_extra_columns_knob_validated(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n")
        with pytest.raises(ValueError, match="extra_columns"):
            read_edge_list(path, extra_columns="truncate")

    def test_empty_comment_prefix_rejected(self, tmp_path):
        # ``line.startswith("")`` is always true: before the fix this
        # silently skipped every line and returned an empty graph.
        path = tmp_path / "graph.txt"
        path.write_text("1 2\n2 3\n")
        with pytest.raises(GraphFormatError, match="comment_prefix"):
            read_edge_list(path, comment_prefix="")

    def test_alternative_comment_prefix_still_works(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("% comment\n1 2\n")
        assert read_edge_list(path, comment_prefix="%").num_edges == 1

    def test_written_file_is_sorted_and_commented(self, tmp_path):
        graph = Graph(edges=[(3, 1), (2, 1)])
        path = tmp_path / "out.txt"
        write_edge_list(graph, path, header=["hello"])
        lines = path.read_text().splitlines()
        assert lines[0] == "# hello"
        assert lines[1:] == sorted(lines[1:])


class TestEdgeListSemantics:
    def test_indented_comments_are_skipped(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("   # indented comment\n\t# tabbed\n1 2\n  2 3  \n")
        graph = read_edge_list(path)
        assert list(graph.edges()) == [(1, 2), (2, 3)]

    def test_blank_and_crlf_lines(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_bytes(b"1 2\r\n\r\n   \r\na b\r\n")
        graph = read_edge_list(path)
        assert graph.has_edge(1, 2) and graph.has_edge("a", "b")
        assert graph.num_edges == 2

    def test_extra_columns_error_counts_skipped_lines(self, tmp_path):
        path = tmp_path / "weighted.txt"
        path.write_text("# header\n\n1 2\n2 3 0.5\n")
        assert read_edge_list(path).num_edges == 2
        with pytest.raises(GraphFormatError, match=r"weighted\.txt:4: expected exactly two"):
            read_edge_list(path, extra_columns="error")

    def test_int_looking_and_string_labels(self, tmp_path):
        path = tmp_path / "graph.txt"
        path.write_text("007 a1\n-3 +4\n")
        graph = read_edge_list(path)
        assert list(graph.vertices()) == [7, "a1", -3, 4]
        assert [type(label) for label in graph.vertices()] == [int, str, int, int]

    @pytest.mark.parametrize("labels", ["ints", "strings", "mixed"])
    def test_file_and_pair_ingest_agree(self, tmp_path, labels):
        base = erdos_renyi_gnm(30, 90, seed=7)
        names = {
            "ints": lambda x: x,
            "strings": lambda x: f"v{x}",
            "mixed": lambda x: x if x % 2 else f"v{x}",
        }[labels]
        pairs = [(names(u), names(v)) for u, v in base.edges()]
        # Duplicates in both orientations must merge the same way too.
        pairs += [(v, u) for u, v in pairs[::3]]
        path = tmp_path / "graph.txt"
        path.write_text("".join(f"{u} {v}\n" for u, v in pairs))
        loaded = read_edge_list(path)
        built = Graph(edges=pairs)
        assert list(loaded.vertices()) == list(built.vertices())
        assert list(loaded.edges()) == list(built.edges())
        assert loaded.degree_order() == built.degree_order()

    def test_write_then_read_round_trip(self, tmp_path):
        graph = Graph(edges=[(1, "a"), ("a", "b"), (2, 1), ("b", 2), (3, "c")])
        path = tmp_path / "graph.txt"
        write_edge_list(graph, path, header=["round trip"])
        loaded = read_edge_list(path)
        assert {frozenset(e) for e in loaded.edges()} == {frozenset(e) for e in graph.edges()}
        assert loaded.degree_order() == graph.degree_order()


class TestMetrics:
    def test_clique_statistics(self):
        graph = clique(8)
        stats = triangle_statistics(graph, params=PARAMS)
        assert stats.triangle_count == math.comb(8, 3)
        # every vertex of K8 is in C(7,2) triangles, every edge in 6
        assert all(count == math.comb(7, 2) for count in stats.per_vertex.values())
        assert all(count == 6 for count in stats.per_edge.values())
        assert stats.simulated_ios > 0

    def test_triangle_free_graph(self):
        graph = complete_bipartite(5, 5)
        stats = triangle_statistics(graph, params=PARAMS)
        assert stats.triangle_count == 0
        assert stats.triangles_of(0) == 0
        assert transitivity(graph, stats) == 0.0

    def test_clustering_coefficients_on_clique(self):
        graph = clique(6)
        coefficients = clustering_coefficients(graph, params=PARAMS)
        assert all(value == pytest.approx(1.0) for value in coefficients.values())
        assert average_clustering(graph, params=PARAMS) == pytest.approx(1.0)

    def test_transitivity_of_clique_is_one(self):
        graph = clique(7)
        assert transitivity(graph, params=PARAMS) == pytest.approx(1.0)

    def test_path_graph_has_zero_clustering(self):
        graph = path_graph(10)
        assert average_clustering(graph, params=PARAMS) == 0.0

    def test_local_coefficient_matches_definition(self):
        # vertex "a" has neighbours b, c, d; only edge (b, c) exists among them.
        graph = Graph(edges=[("a", "b"), ("a", "c"), ("a", "d"), ("b", "c")])
        stats = triangle_statistics(graph, params=PARAMS)
        assert stats.triangles_of("a") == 1
        assert local_clustering_coefficient(graph, "a", stats) == pytest.approx(1 / 3)
        assert local_clustering_coefficient(graph, "d", stats) == 0.0

    def test_edge_support(self):
        graph = Graph(edges=[(0, 1), (1, 2), (0, 2), (2, 3), (3, 4), (2, 4)])
        stats = triangle_statistics(graph, params=PARAMS)
        assert stats.support_of(0, 1) == 1
        assert stats.support_of(2, 3) == 1
        assert stats.support_of(1, 2) == 1
        assert stats.support_of(0, 3) == 0

    def test_statistics_independent_of_algorithm(self):
        graph = erdos_renyi_gnm(30, 90, seed=5)
        reference = triangle_statistics(graph, algorithm="in_memory")
        for algorithm in ("cache_aware", "hu_tao_chung", "dementiev"):
            stats = triangle_statistics(graph, algorithm=algorithm, params=PARAMS)
            assert stats.triangle_count == reference.triangle_count
            assert stats.per_vertex == reference.per_vertex
            assert stats.per_edge == reference.per_edge

    def test_matches_networkx_if_available(self):
        networkx = pytest.importorskip("networkx")
        graph = erdos_renyi_gnm(40, 140, seed=8)
        nx_graph = networkx.Graph(list(graph.edges()))
        ours = clustering_coefficients(graph, params=PARAMS)
        theirs = networkx.clustering(nx_graph)
        for vertex, value in theirs.items():
            assert ours[vertex] == pytest.approx(value)
        assert transitivity(graph, params=PARAMS) == pytest.approx(
            networkx.transitivity(nx_graph)
        )
