"""One workload in its own process; ``run.py`` starts it and reads its result.

Sets the workload up :data:`SETUP_REPS` times (tearing down all but the last
set-up, so each repetition does the same work; ``setup_s`` is their median),
then measures.  Untraced
runs measure for ``--seconds``.  Traced runs measure half the time untraced
and half traced, so the tracing overhead is the gap between the halves.
After the teardown it checks that no shared-memory segment, semaphore or
spill directory the process created is left, then prints one JSON document
on its last stdout line.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import multiprocessing
import os
import platform
import statistics
import sys
import time
from multiprocessing import resource_tracker

import layers
from common import Recorder, scratch_dir, vm_hwm_mb
from tracing import Tracer

#: Imported on demand: the process pool's workers import this module too.
WORKLOADS = ("file_count", "paper_sim", "service_mix")

SOURCES = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")

SETUP_REPS = 3

#: ``/dev/shm`` names of resources the program's process tier creates.
SHM_PREFIXES = ("repro-seg", "sem.mp-")


def shm_entries() -> set[str]:
    return {name for name in os.listdir("/dev/shm") if name.startswith(SHM_PREFIXES)}


def leftovers(shm_before: set[str]) -> list[str]:
    """Segments, semaphores and spill directories still present after teardown."""
    gc.collect()
    found = sorted(shm_entries() - shm_before)
    spill = os.path.join(scratch_dir(), "spill")
    if os.path.isdir(spill):
        found += [os.path.join("spill", name) for name in sorted(os.listdir(spill))]
    return found


def build_parser(description: str | None) -> argparse.ArgumentParser:
    """The command line ``run.py`` accepts and hands on to this module."""
    parser = argparse.ArgumentParser(
        description=description, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "tiny"), default="full",
                        help="tiny: the self-test's sizes")
    parser.add_argument("--inject-mismatch", action="store_true",
                        help="make the first output check fail (self-test of the failure path)")
    return parser


def main() -> int:
    parser = build_parser(__doc__)
    parser.add_argument("--spans", help="traced runs: write every span here (JSON lines)")
    args = parser.parse_args()

    import numpy
    import repro

    if not os.path.abspath(repro.__file__).startswith(SOURCES + os.sep):
        raise SystemExit(f"repro was imported from {repro.__file__}, not from {SOURCES}")
    module = importlib.import_module(args.workload)
    shm_before = shm_entries()
    setup_times = []
    for rep in range(SETUP_REPS):
        begin = time.perf_counter()
        state = module.setup(args.seed, args.size)
        setup_times.append(time.perf_counter() - begin)
        if rep < SETUP_REPS - 1:
            module.teardown(state)

    tracer = Tracer()
    document: dict = {
        "setup_s": statistics.median(setup_times),
        "host": f"nproc={os.cpu_count()} python={platform.python_version()} "
        f"numpy={numpy.__version__}",
    }
    try:
        untraced = Recorder(inject_mismatch=args.inject_mismatch)
        seconds = args.seconds / 2 if args.trace else args.seconds
        module.measure(state, untraced, seconds, tracer)
        recorders = [untraced]
        if args.trace:
            state.layers.clear()
            module.instrument(tracer, state)
            tracer.enabled = True
            traced = Recorder()
            try:
                module.measure(state, traced, seconds, tracer)
            finally:
                tracer.enabled = False
                tracer.restore()
            recorders.append(traced)
            endpoints = getattr(state, "endpoint", None)
            document["layers"] = layers.compute(tracer, state.layers, untraced, traced, endpoints)
            document["blocking_steps"] = layers.blocking_steps(tracer, len(traced.iterations))
            document["traced_iteration_s"] = traced.iteration_s()
            document["untraced_iteration_s"] = untraced.iteration_s()
            if args.spans:
                tracer.dump(args.spans)
        else:
            document["iteration_s"] = untraced.iteration_s()
            document["iterations"] = untraced.iterations
            document["samples"] = {kind: len(values) for kind, values in untraced.samples.items()}
            document["report"] = module.report(untraced, state)
    finally:
        module.teardown(state)
    children = multiprocessing.active_children()
    document["leftovers"] = leftovers(shm_before) + [f"process {c.pid}" for c in children]
    # Stop and reap the resource-tracker process multiprocessing started, so
    # every process of this run has ended when it exits.  It ends only once no
    # child holds its pipe, so with live children it is left to exit with us.
    stop_tracker = getattr(resource_tracker._resource_tracker, "_stop", None)
    if stop_tracker is not None and not children:
        stop_tracker()
    document["peak_rss_mb"] = vm_hwm_mb()
    document["attempted"] = sum(recorder.attempted for recorder in recorders)
    document["failed"] = sum(recorder.failed for recorder in recorders)
    document["failures"] = [failure for recorder in recorders for failure in recorder.failures][:20]
    print(json.dumps(document))
    return 0


if __name__ == "__main__":
    sys.exit(main())
