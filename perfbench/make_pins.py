"""Regenerate ``pins.json``: the simulated I/O counts ``paper_sim`` checks.

For every graph seed below ``paper_sim.PINNED_SEEDS`` and every size, runs
each ``paper_sim`` configuration once and records ``[reads, writes,
operations]``.  The counts are the paper's cost measure, so a data-path
change must leave them unmoved; regenerate them only in a change that means
to alter the algorithms' I/O behaviour, and say so.

    PYTHONPATH=src:perfbench python3 perfbench/make_pins.py
"""

from __future__ import annotations

import json

import paper_sim
from repro.poolexec.pool import shared_pool


def main() -> None:
    pins: dict[str, dict[str, dict[str, list[int]]]] = {}
    try:
        for size, configs in paper_sim.CONFIGS.items():
            for seed in range(paper_sim.PINNED_SEEDS):
                engines = paper_sim.build_engines(seed, configs)
                pins.setdefault(size, {})[str(seed)] = {
                    kind: paper_sim.io_counts(paper_sim.run_config(engines, config))
                    for kind, config in configs.items()
                }
                for engine in engines.values():
                    engine.close()
                print(size, seed, pins[size][str(seed)], flush=True)
    finally:
        shared_pool().shutdown()
    with open(paper_sim.PINS_PATH, "w", encoding="utf-8") as handle:
        handle.write(dumps(pins))


def dumps(pins: dict) -> str:
    """JSON with one line per seed, seeds in numeric order."""
    sizes = []
    for size in sorted(pins):
        seeds = sorted(pins[size], key=int)
        rows = [f'    "{seed}": {json.dumps(pins[size][seed], sort_keys=True)}' for seed in seeds]
        sizes.append(f'  "{size}": {{\n' + ",\n".join(rows) + "\n  }")
    return "{\n" + ",\n".join(sizes) + "\n}\n"


if __name__ == "__main__":
    main()
