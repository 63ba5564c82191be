"""Workload ``service_mix``: registrations and reads against the HTTP service.

An in-process ``TriangleService(port=0, max_workers=2)`` is driven over
loopback by two closed-loop client threads.  Each client runs sessions:

1. register a fresh Chung-Lu graph (JSON edges), then register the identical
   body again (must answer ``created: false``);
2. cold ``vector_count`` and ``cache_aware`` count jobs, awaited over SSE;
3. one ``vector_enum`` job and a walk of its triangle pages;
4. repeat count submissions (memo hits) and job reads;
5. register the same graph with its edges reversed, shuffled and ~5%
   duplicated, and cold-count it;
6. drop the session's graphs.

"Fresh" means never registered before: each session relabels a graph from
the seed's pool by a per-session vertex offset, which keeps the structure
(and so the work and the expected count) while giving new content.  Every
count is checked against a direct engine run made at set-up.
"""

from __future__ import annotations

import random
import threading
import time
import urllib.parse
from collections import defaultdict
from typing import Any

from common import Recorder, percentile
from tracing import Tracer

import repro.core.engine as engine_module
import repro.fastpath.algorithms as fastpath_algorithms
import repro.fastpath.csr as fastpath_csr
import repro.graph.graph as graph_module
import repro.service.jobs as service_jobs
from repro.core.engine import TriangleEngine
from repro.graph.generators import chung_lu_power_law
from repro.poolexec.pool import shared_pool
from repro.service.client import ServiceClient
from repro.service.server import TriangleService

SIZES = {
    "full": {"vertices": 5_000, "edges": 20_000, "pool": 4, "repeats": 40, "clients": 2},
    "tiny": {"vertices": 300, "edges": 1_000, "pool": 2, "repeats": 3, "clients": 2},
}

CACHE_AWARE_QUERY = {"algorithm": "cache_aware", "memory": 2048, "block": 32}


class PoolGraph:
    """One graph of the seed's pool: edges, its variant and its true count."""

    def __init__(self, seed: int, size: dict[str, Any]) -> None:
        graph = chung_lu_power_law(size["vertices"], size["edges"], 2.5, seed=seed)
        self.edges = [list(edge) for edge in graph.edges()]
        rng = random.Random(seed)
        variant = [[v, u] for u, v in self.edges]
        variant += rng.sample(variant, len(variant) // 20)
        rng.shuffle(variant)
        self.variant = variant
        with TriangleEngine.from_edge_array(self.edges) as engine:
            self.triangles = engine.count("vector_count")
        self.span = size["vertices"]


class State:
    def __init__(self, seed: int, size: dict[str, Any]) -> None:
        self.size = size
        self.graphs = [PoolGraph(seed * 1000 + index, size) for index in range(size["pool"])]
        self.service = TriangleService(port=0, max_workers=2)
        self.service.start()
        self.client = ServiceClient(self.service.url)
        self.sessions = 0
        self.lock = threading.Lock()
        self.layers: dict[str, float] = defaultdict(float)
        self.endpoint: dict[str, list[float]] = defaultdict(list)
        self.requests = 0

    def next_session(self) -> int:
        with self.lock:
            self.sessions += 1
            return self.sessions

    def close(self) -> None:
        self.service.close()
        shared_pool().shutdown()


def setup(seed: int, size_name: str) -> State:
    return State(seed, SIZES[size_name])


def teardown(state: State) -> None:
    state.close()


def instrument(tracer: Tracer, state: State) -> None:
    tracer.wrap(service_jobs, "normalize_graph_payload", "service.normalize_graph")
    tracer.wrap(graph_module.Graph, "from_edge_list", "graph.from_edge_list")
    tracer.wrap(graph_module.Graph, "degree_order", "graph.degree_order")
    tracer.wrap(engine_module.TriangleEngine, "__init__", "engine.init")
    tracer.wrap(fastpath_csr.CSRAdjacency, "from_canonical_edges", "fastpath.csr_pack")
    tracer.wrap(fastpath_algorithms, "count_triangles_csr", "fastpath.count_triangles_csr")


class Session:
    """One client's session; every request is timed and checked."""

    def __init__(self, state: State, recorder: Recorder) -> None:
        self.state = state
        self.recorder = recorder
        self.client = state.client
        self.number = state.next_session()
        self.graph = state.graphs[self.number % len(state.graphs)]
        self.offset = self.number * self.graph.span
        self.timings: dict[str, list[float]] = defaultdict(list)
        self.layers: dict[str, float] = defaultdict(float)
        self.requests = 0

    def _call(self, endpoint: str, call: Any, *args: Any, **kwargs: Any) -> Any:
        begin = time.perf_counter()
        response = call(*args, **kwargs)
        self.timings[endpoint].append(time.perf_counter() - begin)
        self.requests += 1
        return response

    def _labels(self, edges: list[list[int]]) -> list[list[int]]:
        offset = self.offset
        return [[u + offset, v + offset] for u, v in edges]

    def _register(self, kind: str, edges: list[list[int]], created: bool | None) -> dict[str, Any]:
        begin = time.perf_counter()
        response = self._call("register", self.client.register_graph, edges=edges)
        ok = created is None or self.recorder.expect(
            f"{kind} created", response["created"], created
        )
        self.recorder.op(kind, time.perf_counter() - begin, ok)
        return response

    def _await(self, kind: str, graph_id: str, query: dict[str, Any]) -> dict[str, Any]:
        """Submit a cold job and follow its SSE stream to the terminal event."""
        begin = time.perf_counter()
        job = self._call("submit", self.client.submit, graph_id, **query)["job"]
        summary = job
        if job["state"] != "done":
            for event, data in self._call("events", lambda: list(self.client.events(job["id"]))):
                if event in ("done", "error"):
                    summary = data
        elapsed = time.perf_counter() - begin
        result = summary.get("result") or {}
        expected = self.graph.triangles
        ok = self.recorder.expect(f"{kind} triangles", result.get("triangles"), expected)
        self.recorder.op(kind, elapsed, ok)
        if summary.get("started_at") is not None:
            wait = summary["started_at"] - summary["created_at"]
            self.layers["service.job_queue_wait_ms"] += wait * 1000.0
            self.layers["service.job_exec_ms"] += result["execution_seconds"] * 1000.0
            self.layers["service.executed_jobs"] += 1
        return summary

    def run(self, repeats: int) -> None:
        graph_id = self._register("register", self._labels(self.graph.edges), True)["graph"]["id"]
        self._register("register_repeat", self._labels(self.graph.edges), False)
        self._await("cold_count", graph_id, {"algorithm": "vector_count"})
        self._await("cold_cache_aware", graph_id, CACHE_AWARE_QUERY)
        enum = self._await("enum", graph_id, {"algorithm": "vector_enum", "mode": "enum"})
        self._walk_pages(enum["id"])
        for _ in range(repeats):
            self._read_count(graph_id)
        variant = self._register("register", self._labels(self.graph.variant), None)
        self.layers["service.graphs_created"] += 1 + int(variant["created"])
        self.layers["service.graphs_distinct"] += 1
        variant_id = variant["graph"]["id"]
        if variant["created"]:
            self._await("cold_count", variant_id, {"algorithm": "vector_count"})
        for gid in {graph_id, variant_id}:
            begin = time.perf_counter()
            self._call("drop", self.client.drop_graph, gid)
            self.recorder.op("drop", time.perf_counter() - begin, True)

    def _walk_pages(self, job_id: str) -> None:
        cursor: str | None = None
        seen = 0
        while True:
            begin = time.perf_counter()
            query = "?" + urllib.parse.urlencode({"cursor": cursor}) if cursor else ""
            path = f"/v1/jobs/{job_id}/triangles{query}"
            page = self._call("page", self.client._request, "GET", path)
            seen += len(page["triangles"])
            cursor = page["next_cursor"]
            last = cursor is None
            ok = not last or self.recorder.expect("paged triangles", seen, self.graph.triangles)
            self.recorder.op("read", time.perf_counter() - begin, ok)
            if last:
                return

    def _read_count(self, graph_id: str) -> None:
        begin = time.perf_counter()
        response = self._call("submit", self.client.submit, graph_id, algorithm="vector_count")
        job = response["job"]
        ok = self.recorder.expect("memo hit", (response["created"], job["state"]), (False, "done"))
        expected = self.graph.triangles
        ok = self.recorder.expect("memo count", job["result"]["triangles"], expected) and ok
        self.recorder.op("read", time.perf_counter() - begin, ok)
        begin = time.perf_counter()
        job = self._call("job_get", self.client.job, job["id"])
        ok = self.recorder.expect("job read", job["result"]["triangles"], self.graph.triangles)
        self.recorder.op("read", time.perf_counter() - begin, ok)


def measure(state: State, recorder: Recorder, seconds: float, tracer: Tracer) -> None:
    state.requests = 0
    state.endpoint.clear()
    stats_before = state.client.stats()["manager"]
    started = time.perf_counter()
    deadline = started + seconds
    recorders = [recorder.split() for _ in range(state.size["clients"])]

    def client_loop(index: int) -> None:
        local = recorders[index]
        while True:
            session = Session(state, local)
            begin = time.perf_counter()
            try:
                with tracer.span("op.session", trace_id=f"session-{session.number}"):
                    session.run(state.size["repeats"])
            except Exception as error:  # a failed request fails the session's operation
                local.error("session", error)
            now = time.perf_counter()
            local.iterations.append(now - begin)
            with state.lock:
                state.requests += session.requests
                for endpoint, values in session.timings.items():
                    state.endpoint[endpoint].extend(values)
                for name, value in session.layers.items():
                    state.layers[name] += value
            if now >= deadline:
                return

    threads = [
        threading.Thread(target=client_loop, args=(index,)) for index in range(len(recorders))
    ]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    recorder.measured_seconds = time.perf_counter() - started
    for local in recorders:
        recorder.merge(local)
    stats_after = state.client.stats()["manager"]
    hits = stats_after["cache_hits_memo"] - stats_before["cache_hits_memo"]
    submitted = stats_after["jobs_submitted"] - stats_before["jobs_submitted"]
    state.layers["service.memo_hits"] += hits
    state.layers["service.memo_lookups"] += hits + submitted


def report(recorder: Recorder, state: State) -> dict[str, tuple[float, str]]:
    reads = recorder.samples["read"]
    return {
        "register_p50_ms": (recorder.median_ms("register"), "ms"),
        "cold_count_p50_ms": (recorder.median_ms("cold_count"), "ms"),
        "cold_cache_aware_p50_ms": (recorder.median_ms("cold_cache_aware"), "ms"),
        "read_p50_ms": (recorder.median_ms("read"), "ms"),
        "read_p99_ms": (percentile(reads, 0.99) * 1000.0, "ms"),
        "reads": (float(len(reads)), "count"),
        "requests_per_s": (state.requests / recorder.measured_seconds, "1/s"),
    }
