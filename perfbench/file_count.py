"""Workload ``file_count``: an edge-list file (or array) to a triangle count.

Three ingest paths run on the same Chung-Lu power-law graph each iteration:

* ``file_to_count``: ``read_edge_list`` -> ``TriangleEngine`` -> ``vector_count``;
* ``array_to_count``: ``TriangleEngine.from_edge_array`` -> ``vector_count``;
* ``oocore_to_count``: ``oocore.build_store`` (``chunk_rows`` small enough for
  several sorted runs) -> ``count_triangles_store``.

Parsing and canonicalisation dominate; the simulated machine is bypassed.
Every count is checked against the other paths and against an oracle count
made at set-up by an independent sparse-matrix computation.
"""

from __future__ import annotations

import os
from collections import defaultdict
from typing import Any

import numpy as np
from scipy import sparse

from common import Recorder, io_chars, scratch_dir, timed_loop, timed_op
from tracing import Tracer

import repro.core.engine as engine_module
import repro.fastpath.algorithms as fastpath_algorithms
import repro.fastpath.arrays as fastpath_arrays
import repro.fastpath.csr as fastpath_csr
import repro.fastpath.oocore as oocore
import repro.graph.files as graph_files
import repro.graph.graph as graph_module
from repro.graph.generators import chung_lu_power_law

SIZES = {
    "full": {"vertices": 50_000, "edges": 200_000, "exponent": 2.5, "chunk_rows": 1 << 15},
    "tiny": {"vertices": 1_000, "edges": 4_000, "exponent": 2.5, "chunk_rows": 512},
}

def oracle_count(edges: Any) -> int:
    """Triangles of a simple graph, computed without the package under test.

    Orients every edge from the lower to the higher ``(degree, id)`` end;
    each triangle is then exactly one directed path ``a -> b -> c`` closed
    by ``a -> c``, counted by the masked sparse product ``(A @ A) .* A``.
    """
    num_vertices = int(edges.max()) + 1
    degree = np.bincount(edges.ravel(), minlength=num_vertices)
    key = degree.astype(np.int64) * num_vertices + np.arange(num_vertices)
    forward = key[edges[:, 0]] < key[edges[:, 1]]
    source = np.where(forward, edges[:, 0], edges[:, 1])
    target = np.where(forward, edges[:, 1], edges[:, 0])
    ones = np.ones(len(source), dtype=np.int64)
    adjacency = sparse.csr_matrix((ones, (source, target)), shape=(num_vertices, num_vertices))
    return int((adjacency @ adjacency).multiply(adjacency).sum())


class State:
    def __init__(self, seed: int, size: dict[str, Any]) -> None:
        graph = chung_lu_power_law(size["vertices"], size["edges"], size["exponent"], seed=seed)
        rng = np.random.default_rng(seed)
        edges = np.array(list(graph.edges()), dtype=np.int64)
        edges = edges[rng.permutation(len(edges))]
        flip = rng.random(len(edges)) < 0.5
        edges[flip] = edges[flip][:, ::-1]
        self.edges = edges
        self.chunk_rows = size["chunk_rows"]
        root = scratch_dir()
        self.path = os.path.join(root, "file_count.edges")
        with open(self.path, "w", encoding="utf-8") as handle:
            handle.write("# file_count workload\n")
            handle.write("\n".join(f"{u} {v}" for u, v in edges.tolist()))
            handle.write("\n")
        self.spill = os.path.join(root, "spill")
        self.oracle = oracle_count(edges)
        self.layers: dict[str, float] = defaultdict(float)

    def close(self) -> None:
        os.remove(self.path)


def setup(seed: int, size_name: str) -> State:
    return State(seed, SIZES[size_name])


def teardown(state: State) -> None:
    state.close()


def instrument(tracer: Tracer, state: State) -> None:
    tracer.wrap(graph_files, "read_edge_list", "graph.read_edge_list")
    tracer.wrap(graph_module.Graph, "degree_order", "graph.degree_order")
    tracer.wrap(graph_module.Graph, "from_edge_list", "graph.from_edge_list")
    tracer.wrap(engine_module.TriangleEngine, "__init__", "engine.init")
    tracer.wrap(fastpath_arrays, "canonicalize_edge_array", "fastpath.canonicalize_edge_array")
    tracer.wrap(fastpath_csr.CSRAdjacency, "from_canonical_edges", "fastpath.csr_pack")
    tracer.wrap(fastpath_algorithms, "count_triangles_csr", "fastpath.count_triangles_csr")
    tracer.wrap(oocore, "build_store", "oocore.build_store")
    tracer.wrap(oocore, "count_triangles_store", "oocore.count_store")


def _file_to_count(state: State) -> int:
    engine = engine_module.TriangleEngine(graph_files.read_edge_list(state.path))
    with engine:
        return engine.count("vector_count")


def _array_to_count(state: State) -> int:
    engine = engine_module.TriangleEngine.from_edge_array(state.edges)
    with engine:
        return engine.count("vector_count")


def _oocore_to_count(state: State) -> int:
    before = io_chars()
    store = oocore.build_store(state.edges, spill_dir=state.spill, chunk_rows=state.chunk_rows)
    with store:
        count = oocore.count_triangles_store(store)
    state.layers["oocore.io_bytes"] += io_chars() - before
    return count


PATHS = {
    "file_to_count": _file_to_count,
    "array_to_count": _array_to_count,
    "oocore_to_count": _oocore_to_count,
}


def measure(state: State, recorder: Recorder, seconds: float, tracer: Tracer) -> None:
    def iterate() -> None:
        number = len(recorder.iterations)
        for kind, path in PATHS.items():
            timed_op(
                recorder, tracer, kind, number, lambda: path(state),
                lambda count: recorder.expect(f"{kind} count", count, state.oracle),
            )

    timed_loop(seconds, iterate, recorder)


def report(recorder: Recorder, state: State) -> dict[str, tuple[float, str]]:
    return {f"{kind}_s": (recorder.median_ms(kind) / 1000.0, "s") for kind in PATHS}
