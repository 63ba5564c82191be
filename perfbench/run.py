"""Run one benchmark workload and print its metrics.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload file_count --seed 1 --seconds 25 --trace 0

The workload runs in its own process (``workload.py``) against the sources
under ``src/``, so peak memory is per workload.  This process prints a
human-readable report, then, as its last line, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics of ``BENCHMARK.json`` with ``--trace 0``, its per-layer metrics with
``--trace 1`` (which also writes every span to
``.perfbench/spans-<workload>.jsonl``).  Leftover shared-memory segments,
semaphores, spill files or child processes count as failed operations.  A
workload that cannot run (no sources, a crash, a timeout) exits non-zero
without printing a result.

Self-test at tiny sizes: ``python3 perfbench/selftest.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import subprocess
import sys

from workload import build_parser

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TIMEOUT_S = 170


def benchmark_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        return json.load(handle)


def run_workload(args: argparse.Namespace, argv: list[str], scratch: str) -> dict:
    """Start the workload process, wait for it, and parse its last line."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([os.path.join(ROOT, "src"), HERE])
    env["PERFBENCH_SCRATCH"] = scratch
    env["TMPDIR"] = scratch
    command = [sys.executable, os.path.join(HERE, "workload.py"), *argv]
    if args.trace:
        command += ["--spans", os.path.join(ROOT, ".perfbench", f"spans-{args.workload}.jsonl")]
    completed = subprocess.run(
        command, cwd=ROOT, env=env, stdout=subprocess.PIPE, timeout=TIMEOUT_S, check=False
    )
    if completed.returncode != 0:
        raise SystemExit(f"workload {args.workload} exited with code {completed.returncode}")
    lines = completed.stdout.decode().strip().splitlines()
    if not lines:
        raise SystemExit(f"workload {args.workload} printed no result")
    return json.loads(lines[-1])


def print_report(args: argparse.Namespace, document: dict, metrics: dict) -> None:
    print(f"# perfbench {args.workload} seed={args.seed} seconds={args.seconds} trace={args.trace}")
    print(f"# host {document['host']}")
    for name, (value, unit) in document.get("report", {}).items():
        print(f"  {args.workload}.{name} = {value:.6g} {unit}")
    for name, entry in metrics.items():
        print(f"  {name} = {entry['value']:.6g} {entry['unit']}")
    if "samples" in document:
        counts = ", ".join(f"{kind}={count}" for kind, count in document["samples"].items())
        print(f"  samples: {counts}")
        print("  iterations_s: " + " ".join(f"{value:.3f}" for value in document["iterations"]))
    if "blocking_steps" in document:
        print(
            f"  iteration_s untraced={document['untraced_iteration_s']:.4f} "
            f"traced={document['traced_iteration_s']:.4f}; self time per iteration:"
        )
        for name, seconds in document["blocking_steps"].items():
            print(f"    {name:<40} {seconds:.4f} s")
    attempted, failed = document["attempted"], document["failed"]
    print(f"  failed_ratio = {failed / max(attempted, 1):.6g} ({failed} of {attempted})")
    for line in document["failures"] + [f"leftover: {name}" for name in document["leftovers"]]:
        print(f"  FAILED {line}")


def main() -> int:
    argv = sys.argv[1:]
    args = build_parser(__doc__).parse_args(argv)

    spec = benchmark_spec()
    scratch = os.path.join(ROOT, ".perfbench", f"run-{os.getpid()}")
    os.makedirs(scratch)
    try:
        document = run_workload(args, argv, scratch)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)

    if args.trace:
        section, values = spec["per_layer"], document["layers"]
    else:
        section, values = spec["end_to_end"], document
    metrics = {
        entry["name"]: {"value": values[entry["name"]], "unit": entry["unit"]} for entry in section
    }
    failed = document["failed"] + len(document["leftovers"])
    attempted = document["attempted"] + len(document["leftovers"])
    print_report(args, document, metrics)
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
