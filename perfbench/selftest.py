"""Self-test of the benchmark: every workload at tiny sizes, in about a minute.

    python3 perfbench/selftest.py

Checks that

* ``BENCHMARK.json``'s per-layer list is the catalogue in ``layers.py``;
* untraced and traced runs of every workload print every named metric with
  its unit, report no failed operation and leave no shared-memory segment,
  semaphore, spill file or scratch directory behind;
* Lemma 1 does work on ``paper_sim`` (``lemma1.s`` above 0);
* a count mismatch injected into the benchmark's own check is reported as a
  failed operation (``correct`` false);
* in a directory holding only ``BENCHMARK.json`` and the benchmark, the
  benchmark exits non-zero without printing a result.
"""

from __future__ import annotations

import json
import math
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import layers  # noqa: E402
from workload import WORKLOADS, shm_entries  # noqa: E402

PROBLEMS: list[str] = []


def check(condition: bool, message: str) -> None:
    print(("ok   " if condition else "FAIL ") + message, flush=True)
    if not condition:
        PROBLEMS.append(message)


def run(root: str, workload: str, *extra: str) -> tuple[int, list[str]]:
    command = [
        sys.executable, os.path.join(root, "perfbench", "run.py"), "--workload", workload,
        "--seed", "3", "--seconds", "2", "--size", "tiny", *extra,
    ]
    completed = subprocess.run(
        command, cwd=root, capture_output=True, text=True, timeout=300, check=False
    )
    return completed.returncode, completed.stdout.strip().splitlines()


def result_of(lines: list[str]) -> dict | None:
    try:
        document = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        return None
    return document if isinstance(document, dict) else None


def check_result(label: str, document: dict, expected: list[dict], positive: bool) -> None:
    keys = ["attempted", "correct", "failed", "metrics"]
    check(sorted(document) == keys, f"{label}: result keys")
    attempted, failed = document["attempted"], document["failed"]
    check(
        document["correct"] and failed == 0 and attempted > 0,
        f"{label}: correct, {attempted} attempted, {failed} failed",
    )
    metrics = document["metrics"]
    names = [entry["name"] for entry in expected]
    check(list(metrics) == names, f"{label}: every named metric, in order")
    for entry in expected:
        name, unit = entry["name"], entry["unit"]
        value = metrics.get(name, {})
        check(value.get("unit") == unit, f"{label}: {name} has unit {unit}")
        number = value.get("value")
        valid = isinstance(number, (int, float)) and math.isfinite(number)
        check(valid and (number > 0 or not positive), f"{label}: {name} is a valid value")


def check_bare_directory(scratch: str) -> None:
    """Only BENCHMARK.json and the benchmark: must fail without a result."""
    bare = os.path.join(scratch, "bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    try:
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        ignore = shutil.ignore_patterns("__pycache__")
        shutil.copytree(HERE, os.path.join(bare, "perfbench"), ignore=ignore)
        code, lines = run(bare, "file_count")
        check(code != 0 and result_of(lines) is None, "without the sources: fails, no result")
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as handle:
        spec = json.load(handle)
    catalogue = [
        {"name": name, "unit": unit, "better": better}
        for name, (unit, better) in layers.CATALOGUE.items()
    ]
    check(spec["per_layer"] == catalogue, "BENCHMARK.json per_layer is layers.CATALOGUE")
    workloads = [entry["name"] for entry in spec["workloads"]]
    check(workloads == list(WORKLOADS), "BENCHMARK.json names every workload")

    before = shm_entries()
    phases = (("0", spec["end_to_end"], True), ("1", spec["per_layer"], False))
    for workload in WORKLOADS:
        for trace, expected, positive in phases:
            label = f"{workload} trace={trace}"
            code, lines = run(ROOT, workload, "--trace", trace)
            document = result_of(lines)
            check(code == 0 and document is not None, f"{label}: exits 0 with a JSON result")
            if document is not None:
                check_result(label, document, expected, positive)
                if workload == "paper_sim" and trace == "1":
                    lemma1 = document["metrics"]["lemma1.s"]["value"]
                    check(lemma1 > 0, f"{label}: Lemma 1 runs (lemma1.s = {lemma1:.3g})")
        code, lines = run(ROOT, workload, "--inject-mismatch")
        document = result_of(lines)
        check(
            code == 0 and document is not None
            and not document["correct"] and document["failed"] >= 1,
            f"{workload}: an injected count mismatch is a failed operation",
        )
    check(shm_entries() <= before, "no shared-memory segment or semaphore left behind")
    scratch = os.path.join(ROOT, ".perfbench")
    os.makedirs(scratch, exist_ok=True)
    runs = [name for name in os.listdir(scratch) if name.startswith("run-")]
    check(not runs, "no scratch or spill directory left behind")
    check_bare_directory(scratch)

    print(f"{len(PROBLEMS)} problem(s)")
    return 1 if PROBLEMS else 0


if __name__ == "__main__":
    sys.exit(main())
