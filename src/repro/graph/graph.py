"""Simple undirected graphs and the paper's canonical degree ordering.

The paper assumes the input graph is simple (no self-loops, no parallel
edges) and that vertices are totally ordered by degree, with ties broken in
an arbitrary but consistent way.  Each edge ``{v1, v2}`` is represented as
the tuple ``(v1, v2)`` with ``v1 < v2`` in that order, and the edge list is
sorted lexicographically -- so for each vertex the neighbours that follow it
in the ordering are stored consecutively.  :class:`DegreeOrder` realises this
representation by relabelling vertices with their *rank* in the degree order,
which turns the ordering into plain integer comparison.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat
from typing import Hashable, Iterable, Iterator

from repro.exceptions import GraphFormatError

Vertex = Hashable
Edge = tuple[Vertex, Vertex]


class Graph:
    """A simple undirected graph over hashable vertex labels."""

    def __init__(
        self,
        edges: Iterable[Edge] = (),
        vertices: Iterable[Vertex] = (),
    ) -> None:
        self._adjacency: dict[Vertex, set[Vertex]] = {}
        for vertex in vertices:
            self.add_vertex(vertex)
        for u, v in edges:
            self.add_edge(u, v)

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    def add_vertex(self, vertex: Vertex) -> None:
        """Add an isolated vertex (a no-op if it already exists)."""
        self._adjacency.setdefault(vertex, set())

    def add_edge(self, u: Vertex, v: Vertex) -> None:
        """Add the undirected edge ``{u, v}``.

        Self-loops are rejected (the paper assumes a simple graph); adding an
        existing edge is a no-op, so edge lists with duplicates are merged
        silently.
        """
        if u == v:
            raise GraphFormatError(f"self-loop on vertex {u!r} is not allowed in a simple graph")
        self._adjacency.setdefault(u, set()).add(v)
        self._adjacency.setdefault(v, set()).add(u)

    def add_edges(self, edges: Iterable[Edge]) -> None:
        """Add many undirected edges (bulk construction path).

        Same semantics as calling :meth:`add_edge` per pair; the adjacency
        dictionary is looked up once per endpoint with ``setdefault`` inside
        a single loop, which is what the join layer uses to build its union
        graphs from whole relations at a time.
        """
        adjacency = self._adjacency
        for u, v in edges:
            if u == v:
                raise GraphFormatError(
                    f"self-loop on vertex {u!r} is not allowed in a simple graph"
                )
            adjacency.setdefault(u, set()).add(v)
            adjacency.setdefault(v, set()).add(u)

    # ------------------------------------------------------------------
    # basic queries
    # ------------------------------------------------------------------
    @property
    def num_vertices(self) -> int:
        """Number of vertices (including isolated ones)."""
        return len(self._adjacency)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return sum(len(neighbours) for neighbours in self._adjacency.values()) // 2

    def vertices(self) -> Iterator[Vertex]:
        """Iterate over all vertices."""
        return iter(self._adjacency)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        """Whether the edge ``{u, v}`` is present."""
        return v in self._adjacency.get(u, ())

    def degree(self, vertex: Vertex) -> int:
        """Degree of ``vertex`` (0 for unknown vertices)."""
        return len(self._adjacency.get(vertex, ()))

    def neighbors(self, vertex: Vertex) -> set[Vertex]:
        """The neighbour set of ``vertex`` (a copy)."""
        return set(self._adjacency.get(vertex, ()))

    def edges(self) -> Iterator[Edge]:
        """Iterate over edges, each reported once, at its first-visited endpoint.

        Vertices are visited in insertion order; ``(u, v)`` is yielded unless
        ``v`` was visited before ``u`` (which already reported the edge).
        The canonical order used by the algorithms is the *degree* order
        provided by :meth:`degree_order`.
        """
        finished: set[Vertex] = set()
        for u, neighbours in self._adjacency.items():
            for v in neighbours:
                if v not in finished:
                    yield (u, v)
            finished.add(u)

    # ------------------------------------------------------------------
    # canonical representation
    # ------------------------------------------------------------------
    def degree_order(self) -> "DegreeOrder":
        """Compute the canonical degree ordering of this graph.

        Vertices are ranked by ``(degree, repr, str)``.  Each vertex, in rank
        order, then contributes its higher-ranked neighbours sorted by rank,
        so the concatenation is already the lexicographically sorted list
        of ``(u, v)`` with ``u < v``.
        """
        adjacency = self._adjacency
        ranked = sorted(adjacency, key=lambda v: (len(adjacency[v]), repr(v), str(v)))
        rank_of = {vertex: rank for rank, vertex in enumerate(ranked)}
        edges: list[tuple[int, int]] = []
        for ru, u in enumerate(ranked):
            higher = [rv for rv in map(rank_of.__getitem__, adjacency[u]) if rv > ru]
            higher.sort()
            edges.extend(zip(repeat(ru), higher))
        return DegreeOrder(vertex_of=tuple(ranked), rank_of=rank_of, edges=edges)

    # ------------------------------------------------------------------
    # conveniences
    # ------------------------------------------------------------------
    @classmethod
    def from_edge_list(cls, edges: Iterable[Edge]) -> "Graph":
        """Build a graph from an edge list, merging duplicates."""
        return cls(edges=edges)

    def copy(self) -> "Graph":
        """Return an independent copy of the graph."""
        clone = Graph()
        clone._adjacency = {v: set(ns) for v, ns in self._adjacency.items()}
        return clone

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"Graph(V={self.num_vertices}, E={self.num_edges})"


@dataclass(frozen=True)
class DegreeOrder:
    """The canonical ranked representation of a graph.

    Attributes
    ----------
    vertex_of:
        ``vertex_of[rank]`` is the original vertex label of the given rank.
    rank_of:
        Inverse mapping from label to rank.
    edges:
        Canonical edge list: tuples ``(u, v)`` of ranks with ``u < v``,
        sorted lexicographically.
    """

    vertex_of: tuple[Vertex, ...]
    rank_of: dict[Vertex, int]
    edges: list[tuple[int, int]]

    @property
    def num_vertices(self) -> int:
        """Number of vertices."""
        return len(self.vertex_of)

    @property
    def num_edges(self) -> int:
        """Number of edges."""
        return len(self.edges)

    def degree(self, rank: int) -> int:
        """Degree of the vertex with the given rank (linear scan; for tests)."""
        return sum(1 for u, v in self.edges if u == rank or v == rank)

    def to_labels(self, triangle: tuple[int, int, int]) -> tuple[Vertex, Vertex, Vertex]:
        """Translate a ranked triangle back to original vertex labels."""
        a, b, c = triangle
        return (self.vertex_of[a], self.vertex_of[b], self.vertex_of[c])
