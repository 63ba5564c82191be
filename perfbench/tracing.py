"""In-memory spans recorded around calls into the program's layers.

A :class:`Tracer` wraps functions at the attribute their callers look up
(``module.function``, ``Class.method``, classmethods too) so that every call
records a span: name, start, end, parent span and the trace id of the
benchmark operation that caused it.  Nothing under ``src/`` changes; the
wrappers are installed only for a traced run and removed afterwards.

Spans are kept in memory and written out once, at the end of the run.  The
parent of a span is the innermost open span on the same thread; a span
opened on a thread with no open operation (a service request thread) gets
trace id ``None``.  A span's self time is its duration minus the time its
direct children cover -- children on one thread never overlap, so that is
the sum of their durations.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Iterator


class Tracer:
    """Span recorder plus the attribute patches that feed it."""

    def __init__(self) -> None:
        self.enabled = False
        self.spans: list[dict[str, Any]] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ------------------------------------------------------------
    def _stack(self) -> list[dict[str, Any]]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name: str, trace_id: str | None = None) -> Iterator[None]:
        """Record one span; a no-op while tracing is off.

        ``trace_id`` starts a new operation; nested spans inherit the id of
        the innermost open span on their thread.
        """
        if not self.enabled:
            yield
            return
        stack = self._stack()
        parent = stack[-1] if stack else None
        record = {
            "id": next(self._ids),
            "name": name,
            "parent": parent["id"] if parent else None,
            "trace": trace_id if trace_id is not None else (parent["trace"] if parent else None),
            "thread": threading.get_ident(),
            "start": time.perf_counter(),
            "end": None,
        }
        stack.append(record)
        try:
            yield
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(record)

    def _wrapper(self, name: str, function: Callable[..., Any]) -> Callable[..., Any]:
        @functools.wraps(function)
        def traced(*args: Any, **kwargs: Any) -> Any:
            with self.span(name):
                return function(*args, **kwargs)

        return traced

    # -- patches ----------------------------------------------------------
    def patch(self, owner: Any, attribute: str, make: Callable[[Callable[..., Any]], Any]) -> None:
        """Replace ``owner.attribute`` with ``make(original_function)``.

        Class attributes are read from the class ``__dict__`` so that
        classmethods and staticmethods are re-wrapped as such.
        """
        if isinstance(owner, type):
            original = owner.__dict__[attribute]
        else:
            original = getattr(owner, attribute)
        if isinstance(original, (classmethod, staticmethod)):
            replacement: Any = type(original)(make(original.__func__))
        else:
            replacement = make(original)
        self._patches.append((owner, attribute, original))
        setattr(owner, attribute, replacement)

    def wrap(self, owner: Any, attribute: str, name: str) -> None:
        """Replace ``owner.attribute`` with a span-recording wrapper."""
        self.patch(owner, attribute, lambda function: self._wrapper(name, function))

    def restore(self) -> None:
        """Undo every patch, newest first."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # -- analysis ---------------------------------------------------------
    def self_times(self, spans: list[dict[str, Any]] | None = None) -> dict[str, float]:
        """Total self time per span name."""
        spans = self.spans if spans is None else spans
        child_time: dict[int, float] = defaultdict(float)
        for record in spans:
            if record["parent"] is not None:
                child_time[record["parent"]] += record["end"] - record["start"]
        totals: dict[str, float] = defaultdict(float)
        for record in spans:
            totals[record["name"]] += record["end"] - record["start"] - child_time[record["id"]]
        return dict(totals)

    def dump(self, path: str) -> None:
        """Write every recorded span as JSON lines."""
        with open(path, "w", encoding="utf-8") as handle:
            for record in self.spans:
                handle.write(json.dumps(record) + "\n")
