"""Reading and writing edge lists as plain text files.

The format is the de-facto standard used by SNAP / DIMACS-style edge lists:
one edge per line, two whitespace-separated vertex labels, ``#`` starting a
comment line.  Labels that look like integers are converted to ``int`` so
that synthetic graphs round-trip exactly; everything else stays a string.

These helpers exist for the command-line interface (:mod:`repro.cli`) and
for users who want to run the algorithms on their own graph files.
"""

from __future__ import annotations

from pathlib import Path
from typing import Iterable

from repro.exceptions import GraphFormatError
from repro.graph.graph import Graph, Vertex


def read_edge_list(
    path: str | Path,
    comment_prefix: str = "#",
    extra_columns: str = "ignore",
) -> Graph:
    """Read a whitespace-separated edge-list file into a :class:`Graph`.

    Lines starting with ``comment_prefix`` (after stripping) and blank lines
    are ignored.  Duplicate edges are merged; self-loops raise
    :class:`repro.exceptions.GraphFormatError` with the offending line number.

    ``extra_columns`` says what to do with lines carrying more than two
    tokens (SNAP exports often append weights or timestamps): ``"ignore"``
    (the default) keeps only the two endpoint labels, ``"error"`` raises
    :class:`~repro.exceptions.GraphFormatError` with the line number.

    An empty ``comment_prefix`` is rejected: ``line.startswith("")`` is true
    for *every* line, so it would silently skip the whole file and return an
    empty graph.
    """
    if not comment_prefix:
        raise GraphFormatError(
            "comment_prefix must be a non-empty string (an empty prefix matches "
            "every line and would silently produce an empty graph)"
        )
    if extra_columns not in ("ignore", "error"):
        raise ValueError(f"extra_columns must be 'ignore' or 'error', got {extra_columns!r}")
    graph = Graph()
    # Fill the adjacency directly: same insertion order as ``add_edge(u, v)``.
    setdefault = graph._adjacency.setdefault
    path = Path(path)
    with path.open("r", encoding="utf-8") as handle:
        for line_number, raw_line in enumerate(handle, start=1):
            line = raw_line.strip()
            if not line or line.startswith(comment_prefix):
                continue
            tokens = line.split()
            if len(tokens) < 2:
                raise GraphFormatError(
                    f"{path}:{line_number}: expected two vertex labels, got {line!r}"
                )
            if len(tokens) > 2 and extra_columns == "error":
                raise GraphFormatError(
                    f"{path}:{line_number}: expected exactly two vertex labels, got "
                    f"{line!r} (pass extra_columns='ignore' to drop trailing columns)"
                )
            u: Vertex = tokens[0]
            v: Vertex = tokens[1]
            try:
                u = int(u)
            except ValueError:
                pass
            try:
                v = int(v)
            except ValueError:
                pass
            if u == v:
                raise GraphFormatError(f"{path}:{line_number}: self-loop on {u!r}")
            setdefault(u, set()).add(v)
            setdefault(v, set()).add(u)
    return graph


def write_edge_list(
    graph: Graph, path: str | Path, header: Iterable[str] = ()
) -> None:
    """Write ``graph`` as a whitespace-separated edge-list file.

    ``header`` lines are written first as ``#`` comments.  Edges are written
    once each, sorted by their string representation so output is stable.
    """
    path = Path(path)
    lines: list[str] = [f"# {entry}" for entry in header]
    edges = sorted((str(u), str(v)) if str(u) <= str(v) else (str(v), str(u)) for u, v in graph.edges())
    lines.extend(f"{u}\t{v}" for u, v in edges)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
