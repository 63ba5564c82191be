"""Shared pieces of the workload processes: operation records and host probes."""

from __future__ import annotations

import math
import os
import statistics
import time
from collections import defaultdict
from typing import Any, Callable


def percentile(values: list[float], share: float) -> float:
    """Nearest-rank percentile (``share`` in [0, 1]); NaN for no values."""
    if not values:
        return math.nan
    ordered = sorted(values)
    index = max(0, math.ceil(share * len(ordered)) - 1)
    return ordered[index]


def vm_hwm_mb() -> float:
    """Peak resident set size of this process (``VmHWM``), in MiB."""
    with open("/proc/self/status", encoding="ascii") as handle:
        for line in handle:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise RuntimeError("VmHWM missing from /proc/self/status")


def io_chars() -> int:
    """Bytes this process has read plus written through syscalls (rchar+wchar)."""
    totals = 0
    with open("/proc/self/io", encoding="ascii") as handle:
        for line in handle:
            key, _, value = line.partition(":")
            if key in ("rchar", "wchar"):
                totals += int(value)
    return totals


class Recorder:
    """Operations of one measured phase: latencies per kind, failures, iterations.

    ``expect`` is the one place an output is compared with its expected
    value; ``inject_mismatch`` makes its first comparison fail on purpose,
    which is how the self-test proves a wrong output is counted as a failed
    operation.
    """

    def __init__(self, inject_mismatch: bool = False) -> None:
        self.samples: dict[str, list[float]] = defaultdict(list)
        self.iterations: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []
        self.measured_seconds = 0.0
        self._inject = inject_mismatch

    def expect(self, what: str, actual: Any, expected: Any) -> bool:
        """True when ``actual == expected``; a mismatch is remembered."""
        if self._inject:
            self._inject = False
            expected = ("injected mismatch", expected)
        if actual == expected:
            return True
        self.failures.append(f"{what}: got {actual!r}, expected {expected!r}")
        return False

    def op(self, kind: str, seconds: float, ok: bool) -> None:
        """Record one completed operation."""
        self.attempted += 1
        self.samples[kind].append(seconds)
        if not ok:
            self.failed += 1

    def error(self, kind: str, error: BaseException) -> None:
        """Record an operation that raised."""
        self.attempted += 1
        self.failed += 1
        self.failures.append(f"{kind}: {type(error).__name__}: {error}")

    def split(self) -> "Recorder":
        """A recorder for one client thread; it takes over a pending injection."""
        inject, self._inject = self._inject, False
        return Recorder(inject_mismatch=inject)

    def merge(self, other: "Recorder") -> None:
        """Fold another recorder's operations into this one."""
        for kind, values in other.samples.items():
            self.samples[kind].extend(values)
        self.iterations.extend(other.iterations)
        self.attempted += other.attempted
        self.failed += other.failed
        self.failures.extend(other.failures)

    def median_ms(self, kind: str) -> float:
        """Median latency of one kind in ms; NaN when every operation failed."""
        values = self.samples[kind]
        return statistics.median(values) * 1000.0 if values else math.nan

    def iteration_s(self) -> float:
        """Median wall time of one iteration (one client session on a service)."""
        return statistics.median(self.iterations)


def timed_op(
    recorder: Recorder, tracer: Any, kind: str, number: int,
    call: Callable[[], Any], check: Callable[[Any], bool],
) -> Any:
    """Run one operation under its root span; record its latency and check.

    Returns the operation's result, or ``None`` when it raised (recorded as
    a failed operation).
    """
    begin = time.perf_counter()
    try:
        with tracer.span(f"op.{kind}", trace_id=f"{kind}-{number}"):
            result = call()
    except Exception as error:  # a crashed operation is a failed operation
        recorder.error(kind, error)
        return None
    recorder.op(kind, time.perf_counter() - begin, check(result))
    return result


def timed_loop(seconds: float, iterate: Callable[[], None], recorder: Recorder) -> None:
    """Run ``iterate`` until ``seconds`` have passed (at least once)."""
    started = time.perf_counter()
    while True:
        begin = time.perf_counter()
        iterate()
        now = time.perf_counter()
        recorder.iterations.append(now - begin)
        if now - started >= seconds:
            break
    recorder.measured_seconds = time.perf_counter() - started


def scratch_dir() -> str:
    """The per-run scratch directory the parent process created for us."""
    path = os.environ["PERFBENCH_SCRATCH"]
    os.makedirs(path, exist_ok=True)
    return path
