"""The per-layer metrics of a traced run: catalogue and computation.

Every workload reports every metric below; a layer a workload does not
exercise reads 0 there, which is the "no change" side of each prediction.
Times are self times (span duration minus child spans) per iteration --
per client session on ``service_mix`` -- and counts are per iteration too.
``interactions.json`` records which end-to-end figure each metric should
move, on which workload.
"""

from __future__ import annotations

import statistics
from common import Recorder
from tracing import Tracer

#: metric -> (span name, trace kind the span must belong to, or None for any)
SPAN_METRICS = {
    "graph.read_edge_list_s": ("graph.read_edge_list", None),
    "graph.degree_order_s": ("graph.degree_order", None),
    "graph.from_edge_list_s": ("graph.from_edge_list", None),
    "engine.init_s": ("engine.init", None),
    "fastpath.canonicalize_edge_array_s": ("fastpath.canonicalize_edge_array", None),
    "fastpath.csr_pack_s": ("fastpath.csr_pack", None),
    "fastpath.count_triangles_csr_s": ("fastpath.count_triangles_csr", None),
    "oocore.build_store_s": ("oocore.build_store", None),
    "oocore.count_store_s": ("oocore.count_store", None),
    "cache_aware.high_degree_s": ("cache_aware.high_degree", "cache_aware"),
    "cache_aware.partition_s": ("cache_aware.partition", "cache_aware"),
    "cache_aware.triples_s": ("cache_aware.triples", "cache_aware"),
    "lemma1.s": ("lemma1", "cache_aware_hub"),
    "lemma2.s": ("lemma2", "cache_aware"),
    "hashing.colors_s": ("hashing.colors", "cache_aware"),
    "derandomized.greedy_coloring_s": ("derandomized.greedy_coloring", None),
    "extmem.external_merge_sort_s": ("extmem.external_merge_sort", None),
    "service.normalize_graph_s": ("service.normalize_graph", None),
}

PHASES = {
    "cache_aware": ("high-degree", "partition", "triples"),
    "deterministic": ("high-degree", "greedy-coloring", "partition", "triples"),
    "cache_oblivious": (),
    "cache_aware_sharded": ("high-degree", "partition", "triples"),
    "cache_aware_hub": ("high-degree", "partition", "triples"),
}

#: metric -> (unit, better); the order is the order of BENCHMARK.json.
CATALOGUE: dict[str, tuple[str, str]] = {name: ("s", "lower") for name in SPAN_METRICS}
CATALOGUE.update(
    {
        "oocore.io_bytes": ("B", "lower"),
        "extmem.lru_accesses": ("count", "lower"),
        "extmem.lru_misses": ("count", "lower"),
        "extmem.lru_hit_rate": ("ratio", "higher"),
        "sharding.shard_s_sum": ("s", "lower"),
        "sharding.shard_s_max": ("s", "lower"),
        "sharding.coordinator_self_s": ("s", "lower"),
        "poolexec.published_bytes": ("B", "lower"),
        "poolexec.dedup_publishes": ("count", "higher"),
        "service.register_ms": ("ms", "lower"),
        "service.submit_ms": ("ms", "lower"),
        "service.events_ms": ("ms", "lower"),
        "service.job_get_ms": ("ms", "lower"),
        "service.page_ms": ("ms", "lower"),
        "service.drop_ms": ("ms", "lower"),
        "service.job_queue_wait_ms": ("ms", "lower"),
        "service.job_exec_ms": ("ms", "lower"),
        "service.memo_hit_ratio": ("ratio", "higher"),
        "service.graph_dedup_ratio": ("ratio", "higher"),
        "trace.overhead_ratio": ("ratio", "lower"),
    }
)
for _kind, _phases in PHASES.items():
    for _field in ("reads", "writes", "operations"):
        CATALOGUE[f"{_kind}.{_field}"] = ("count", "lower")
    for _phase in _phases:
        CATALOGUE[f"{_kind}.phase_io.{_phase}"] = ("count", "lower")

#: Simulated I/O counters: the value of one run (they repeat exactly).
PER_RUN = tuple(
    f"{kind}.{field}" for kind in PHASES for field in ("reads", "writes", "operations")
) + tuple(f"{kind}.phase_io.{phase}" for kind, phases in PHASES.items() for phase in phases)


def _trace_kind(trace: str | None) -> str | None:
    return trace.rsplit("-", 1)[0] if trace else None


def _span_self_times(tracer: Tracer) -> dict[str, float]:
    """Self time per metric of :data:`SPAN_METRICS`, summed over the trace."""
    totals: dict[str, float] = {}
    for metric, (span, kind) in SPAN_METRICS.items():
        spans = [
            record for record in tracer.spans
            if kind is None or _trace_kind(record["trace"]) == kind
        ]
        totals[metric] = tracer.self_times(spans).get(span, 0.0)
    return totals


def _coordinator_self(tracer: Tracer) -> float:
    """Sharded run wall time minus the time the coordinator waited on shards."""
    total = 0.0
    for record in tracer.spans:
        if _trace_kind(record["trace"]) != "cache_aware_sharded":
            continue
        duration = record["end"] - record["start"]
        if record["name"] == "op.cache_aware_sharded":
            total += duration
        elif record["name"] == "sharding.wait_for_shards":
            total -= duration
    return total


def compute(
    tracer: Tracer, layers: dict[str, float], untraced: Recorder, traced: Recorder,
    endpoints: dict[str, list[float]] | None = None,
) -> dict[str, float]:
    """Every catalogue metric of one traced phase; 0 for unexercised layers."""
    iterations = len(traced.iterations)
    values = {name: 0.0 for name in CATALOGUE}
    for metric, total in _span_self_times(tracer).items():
        values[metric] = total / iterations
    values["sharding.coordinator_self_s"] = _coordinator_self(tracer) / iterations
    for name, total in layers.items():
        if name in PER_RUN:
            values[name] = total
        elif name in values:
            values[name] = total / iterations
    accesses = layers.get("extmem.lru_accesses", 0.0)
    if accesses:
        values["extmem.lru_hit_rate"] = 1.0 - layers["extmem.lru_misses"] / accesses
    for endpoint, samples in (endpoints or {}).items():
        if samples:
            values[f"service.{endpoint}_ms"] = statistics.median(samples) * 1000.0
    executed = layers.get("service.executed_jobs", 0.0)
    if executed:
        values["service.job_queue_wait_ms"] = layers["service.job_queue_wait_ms"] / executed
        values["service.job_exec_ms"] = layers["service.job_exec_ms"] / executed
    if layers.get("service.memo_lookups"):
        hits, lookups = layers["service.memo_hits"], layers["service.memo_lookups"]
        values["service.memo_hit_ratio"] = hits / lookups
    if layers.get("service.graphs_created"):
        values["service.graph_dedup_ratio"] = (
            layers["service.graphs_distinct"] / layers["service.graphs_created"]
        )
    values["trace.overhead_ratio"] = traced.iteration_s() / untraced.iteration_s() - 1.0
    return values


def blocking_steps(tracer: Tracer, iterations: int) -> dict[str, float]:
    """Self time per span name per iteration, largest first (the report table)."""
    totals = tracer.self_times()
    ordered = sorted(totals.items(), key=lambda item: -item[1])
    return {name: total / iterations for name, total in ordered}
