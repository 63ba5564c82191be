"""Workload ``paper_sim``: the paper's algorithms on the simulated machine.

Engines are prepared at set-up (canonicalisation is not measured); each
iteration runs five configurations:

* ``cache_aware`` on a Chung-Lu graph with E=50k, M=2048, B=32;
* ``deterministic`` with E=2.5k, M=256, B=32 (the E/M ratio, so the colour
  count, of the E=5k, M=512 configuration);
* ``cache_oblivious`` with E=500, M=256, B=32;
* ``cache_aware`` with ``shards=4, jobs=2, pool="persistent"`` on the E=50k
  engine, the pool warmed at set-up;
* ``cache_aware_hub``: ``cache_aware`` with M=256, B=32 on an E=12k Chung-Lu
  graph plus a hub adjacent to 2.5k of its vertices.  No vertex of the other
  graphs exceeds the ``sqrt(E*M)`` high-degree threshold, so this is the run
  where Lemma 1 does work.

The graphs come from ``--seed`` modulo :data:`PINNED_SEEDS`.  A run's
triangle count must equal ``vector_count`` on the same engine, and its
simulated reads, writes and operations must equal the values pinned in
``pins.json`` (made by ``make_pins.py`` at the commit that introduced this
benchmark); set-up fails if the pins are missing.
"""

from __future__ import annotations

import json
import os
import random
from collections import defaultdict
from typing import Any

from common import Recorder, timed_loop, timed_op
from tracing import Tracer

import repro.core.cache_aware as cache_aware
import repro.core.derandomized as derandomized
import repro.core.sharding as sharding
import repro.extmem.cache as extmem_cache
import repro.extmem.sorting as extmem_sorting
from repro.analysis.model import MachineParams
from repro.core.engine import TriangleEngine
from repro.graph.generators import chung_lu_power_law
from repro.poolexec import segment_stats
from repro.poolexec.pool import shared_pool

SHARDED = {"shards": 4, "jobs": 2, "pool": "persistent"}

#: name -> (algorithm, (Chung-Lu edges, hub degree), memory words, block words,
#: run keyword arguments).  A hub must stay above its run's sqrt(E*M) threshold
#: for Lemma 1 to run: 2500 > sqrt(14500*256) ~ 1927 and 190 > sqrt(990*16) ~ 126.
CONFIGS = {
    "full": {
        "cache_aware": ("cache_aware", (50_000, 0), 2048, 32, {}),
        "deterministic": ("deterministic", (2_500, 0), 256, 32, {}),
        "cache_oblivious": ("cache_oblivious", (500, 0), 256, 32, {}),
        "cache_aware_sharded": ("cache_aware", (50_000, 0), 2048, 32, SHARDED),
        "cache_aware_hub": ("cache_aware", (12_000, 2_500), 256, 32, {}),
    },
    "tiny": {
        "cache_aware": ("cache_aware", (2_000, 0), 256, 16, {}),
        "deterministic": ("deterministic", (400, 0), 64, 16, {}),
        "cache_oblivious": ("cache_oblivious", (120, 0), 64, 16, {}),
        "cache_aware_sharded": ("cache_aware", (2_000, 0), 256, 16, SHARDED),
        "cache_aware_hub": ("cache_aware", (800, 190), 16, 8, {}),
    },
}
PINS_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pins.json")

#: ``pins.json`` holds the counts of graph seeds ``0 .. PINNED_SEEDS - 1``.
PINNED_SEEDS = 100


def make_graph(seed: int, edges: int, hub: int) -> Any:
    """A Chung-Lu graph with V=E/4, plus a vertex adjacent to ``hub`` of them."""
    vertices = edges // 4
    graph = chung_lu_power_law(vertices, edges, 2.5, seed=seed)
    for neighbour in random.Random(seed).sample(range(vertices), hub):
        graph.add_edge(vertices, neighbour)
    return graph


def build_engines(seed: int, configs: dict[str, Any]) -> dict[tuple[int, int], TriangleEngine]:
    """One engine per distinct graph of the configurations."""
    graphs = sorted({config[1] for config in configs.values()})
    return {graph: TriangleEngine(make_graph(seed, *graph)) for graph in graphs}


def run_config(engines: dict[tuple[int, int], TriangleEngine], config: tuple) -> Any:
    algorithm, graph, memory, block, kwargs = config
    params = MachineParams(memory_words=memory, block_words=block)
    return engines[graph].run(algorithm, params=params, **kwargs)


def io_counts(result: Any) -> list[int]:
    return [result.reads, result.writes, result.operations]


def load_pins(size_name: str, seed: int) -> dict[str, list[int]]:
    """The pinned counts of one graph seed; a missing entry is an error."""
    with open(PINS_PATH, encoding="utf-8") as handle:
        pins = json.load(handle).get(size_name, {}).get(str(seed))
    if pins is None or sorted(pins) != sorted(CONFIGS[size_name]):
        raise SystemExit(f"pins.json has no counts of every {size_name} configuration "
                         f"for seed {seed}; regenerate it with make_pins.py")
    return pins


class State:
    def __init__(self, seed: int, size: dict[str, Any], size_name: str) -> None:
        graph_seed = seed % PINNED_SEEDS
        self.pins = load_pins(size_name, graph_seed)
        self.configs = size
        self.engines = build_engines(graph_seed, size)
        self.reference = {
            graph: engine.count("vector_count") for graph, engine in self.engines.items()
        }
        # Warm the persistent pool and publish the sharded run's segments.
        run_config(self.engines, size["cache_aware_sharded"])
        self.layers: dict[str, float] = defaultdict(float)
        self.caches: list[Any] = []

    def close(self) -> None:
        for engine in self.engines.values():
            engine.close()
        shared_pool().shutdown()


def setup(seed: int, size_name: str) -> State:
    return State(seed, CONFIGS[size_name], size_name)


def teardown(state: State) -> None:
    state.close()


def instrument(tracer: Tracer, state: State) -> None:
    tracer.wrap(cache_aware, "high_degree_phase", "cache_aware.high_degree")
    tracer.wrap(cache_aware, "partition_by_coloring", "cache_aware.partition")
    tracer.wrap(cache_aware, "enumerate_colored_triples", "cache_aware.triples")
    tracer.wrap(cache_aware, "triangles_through_vertex", "lemma1")
    tracer.wrap(cache_aware, "triangles_with_pivot_in", "lemma2")
    tracer.wrap(cache_aware, "bulk_colors", "hashing.colors")
    tracer.wrap(derandomized, "greedy_coloring", "derandomized.greedy_coloring")
    tracer.wrap(extmem_sorting, "external_merge_sort", "extmem.external_merge_sort")
    tracer.wrap(sharding, "_collect_outcomes", "sharding.wait_for_shards")

    def remember_caches(init: Any) -> Any:
        def recording_init(cache: Any, *args: Any, **kwargs: Any) -> None:
            init(cache, *args, **kwargs)
            state.caches.append(cache)

        return recording_init

    tracer.patch(extmem_cache.LRUBlockCache, "__init__", remember_caches)


def _check(state: State, recorder: Recorder, kind: str, result: Any) -> bool:
    graph = state.configs[kind][1]
    ok = recorder.expect(f"{kind} triangles", result.triangle_count, state.reference[graph])
    counts = io_counts(result)
    return recorder.expect(f"{kind} reads/writes/operations", counts, state.pins[kind]) and ok


def _record_layers(state: State, kind: str, result: Any, published: dict[str, int]) -> None:
    layers = state.layers
    for field, value in zip(("reads", "writes", "operations"), io_counts(result)):
        layers[f"{kind}.{field}"] = value
    for phase, total in (result.phases or {}).items():
        layers[f"{kind}.phase_io.{phase}"] = total
    if result.sharding is not None:
        layers["sharding.shard_s_sum"] += sum(result.sharding.shard_seconds)
        layers["sharding.shard_s_max"] += max(result.sharding.shard_seconds, default=0.0)
        after = segment_stats()
        for metric, counter in (
            ("poolexec.published_bytes", "published_bytes"),
            ("poolexec.dedup_publishes", "deduplicated_publishes"),
        ):
            layers[metric] += after[counter] - published[counter]
    for cache in state.caches:
        layers["extmem.lru_accesses"] += cache.hits + cache.misses
        layers["extmem.lru_misses"] += cache.misses
    state.caches.clear()


def measure(state: State, recorder: Recorder, seconds: float, tracer: Tracer) -> None:
    def iterate() -> None:
        number = len(recorder.iterations)
        for kind, config in state.configs.items():
            published = segment_stats()
            result = timed_op(
                recorder, tracer, kind, number, lambda: run_config(state.engines, config),
                lambda result: _check(state, recorder, kind, result),
            )
            if result is not None and tracer.enabled:
                _record_layers(state, kind, result, published)

    timed_loop(seconds, iterate, recorder)


def report(recorder: Recorder, state: State) -> dict[str, tuple[float, str]]:
    return {f"{kind}_s": (recorder.median_ms(kind) / 1000.0, "s") for kind in state.configs}
