"""Packed edge arrays and vectorized canonicalisation.

The canonical representation used across the package is a list of integer
pairs ``(u, v)`` with ``u < v``, deduplicated and sorted lexicographically
(:meth:`repro.graph.graph.Graph.degree_order`).  This module produces the
same *shape* of representation with array operations: orientation is a
``minimum``/``maximum``, deduplication is one :func:`numpy.unique` over
packed 64-bit edge keys, and the degree ranking is a ``bincount`` plus one
``lexsort``.

Tie-breaking differs deliberately from :class:`~repro.graph.graph.Graph`:
equal-degree vertices are ranked by *label* here (``repr``-string order
there, a historical artefact).  Rank-space output may therefore differ
between the two canonicalisers, but the triangle sets they induce are
identical in label space -- which is what the differential test suite pins.

Everything is gated on :data:`HAVE_NUMPY`; callers that need a guaranteed
array backend call :func:`require_numpy` and get a clear
:class:`~repro.exceptions.FastPathUnavailableError` instead of an
``ImportError`` from deep inside a kernel.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import TYPE_CHECKING, Any, Iterable, Sequence

from repro.exceptions import FastPathUnavailableError, GraphFormatError

if TYPE_CHECKING:  # pragma: no cover - typing only
    import numpy

try:  # NumPy is optional: the container may be a bare interpreter.
    import numpy as np

    HAVE_NUMPY = True
except ImportError:  # pragma: no cover - exercised via force_python tests
    np = None  # type: ignore[assignment]
    HAVE_NUMPY = False

#: Accepted ``dtype`` option values of the vectorized algorithms.
DTYPES = ("auto", "int32", "int64")

#: Vertex-id ceiling of the packed edge keys: keys are ``u * n + v`` in
#: int64, so ``n`` must stay below ``2**31`` for the product to fit.
MAX_PACKED_VERTICES = 2**31


def require_numpy(feature: str = "the vectorized fast path") -> "numpy":
    """Return the ``numpy`` module or raise a descriptive error."""
    if not HAVE_NUMPY:
        raise FastPathUnavailableError(
            f"{feature} requires NumPy, which is not installed; "
            "use force_python=True (or the pure-Python algorithms) instead"
        )
    return np


def resolve_dtype(dtype: str, num_vertices: int) -> Any:
    """Map a ``dtype`` option value to a concrete NumPy integer dtype.

    ``auto`` picks ``int32`` while vertex ids fit (half the memory traffic
    of the kernels) and ``int64`` beyond; an explicit ``int32`` is rejected
    when the graph does not fit rather than silently overflowing.
    """
    module = require_numpy("dtype resolution")
    if dtype not in DTYPES:
        raise ValueError(f"dtype must be one of {', '.join(DTYPES)}, got {dtype!r}")
    fits32 = num_vertices < 2**31
    if dtype == "int32" and not fits32:
        raise ValueError(
            f"dtype='int32' cannot index {num_vertices} vertices; use 'auto' or 'int64'"
        )
    if dtype == "int64" or not fits32:
        return module.int64
    return module.int32


def pack_edges(edges: "Sequence[tuple[int, int]] | numpy.ndarray", dtype: str = "auto") -> Any:
    """Pack an edge sequence into a contiguous ``(E, 2)`` integer array.

    Already-array inputs are passed through (re-typed only if needed), so
    kernels can be fed either the engine's canonical tuple list or a
    previously packed array without copying twice.
    """
    module = require_numpy("edge packing")
    if isinstance(edges, module.ndarray):
        array = edges
        if array.ndim != 2 or (array.size and array.shape[1] != 2):
            raise GraphFormatError(f"edge array must have shape (E, 2), got {array.shape}")
    else:
        # ``fromiter`` over the flattened pairs is ~3x faster than
        # ``np.array`` on a list of tuples (no per-tuple sequence protocol).
        flat = module.fromiter(
            itertools.chain.from_iterable(edges), dtype=module.int64, count=2 * len(edges)
        )
        array = flat.reshape(-1, 2)
    if array.size == 0:
        # Route the empty shape through resolve_dtype too: an invalid
        # ``dtype`` option must raise here exactly as it would on a
        # non-empty input (and ``auto`` stays int32 -- zero vertices fit).
        return array.reshape(0, 2).astype(resolve_dtype(dtype, 0))
    if int(array.min()) < 0:
        # Negative ids would otherwise flow silently into ``num_vertices``
        # (via ``max() + 1``) and corrupt CSR indexing downstream.
        raise GraphFormatError("vertex ids must be non-negative")
    num_vertices = int(array.max()) + 1
    return module.ascontiguousarray(array, dtype=resolve_dtype(dtype, num_vertices))


@dataclass(frozen=True)
class CanonicalArrays:
    """The array-native canonical form of a raw edge list.

    ``edges`` is the ``(E, 2)`` ranked edge array (``u < v`` per row, rows
    sorted lexicographically, no duplicates); ``vertex_of[rank]`` maps a
    rank back to the original integer vertex label.
    """

    edges: Any
    vertex_of: Any

    @property
    def num_edges(self) -> int:
        return int(self.edges.shape[0])

    @property
    def num_vertices(self) -> int:
        return int(self.vertex_of.shape[0])

    def edge_list(self) -> list[tuple[int, int]]:
        """The canonical edges as the package-wide list-of-tuples form."""
        return list(zip(self.edges[:, 0].tolist(), self.edges[:, 1].tolist()))


def canonicalize_edge_array(
    edges: "Iterable[tuple[int, int]] | numpy.ndarray", dtype: str = "auto"
) -> CanonicalArrays:
    """Vectorized dedup / orient / degree-rank of a raw integer edge list.

    Mirrors the semantics of building a :class:`~repro.graph.graph.Graph`
    and taking its degree order: self-loops raise
    :class:`~repro.exceptions.GraphFormatError`, duplicate edges (in either
    orientation) are merged, and vertices are ranked by ascending degree
    (ties broken by label; see the module docstring).  Isolated vertices
    cannot occur in an edge list, so ``vertex_of`` covers exactly the
    vertices with at least one edge.
    """
    module = require_numpy("vectorized canonicalisation")
    raw = edges if isinstance(edges, module.ndarray) else module.array(list(edges))
    if raw.size == 0:
        empty = module.empty((0, 2), dtype=module.int64)
        return CanonicalArrays(edges=empty, vertex_of=module.empty(0, dtype=module.int64))
    if raw.ndim != 2 or raw.shape[1] != 2:
        raise GraphFormatError(f"edge array must have shape (E, 2), got {raw.shape}")
    if not module.issubdtype(raw.dtype, module.integer):
        raise GraphFormatError(f"edge array must hold integers, got dtype {raw.dtype}")
    raw = raw.astype(module.int64, copy=False)
    if bool((raw < 0).any()):
        raise GraphFormatError("vertex ids must be non-negative")
    loops = raw[:, 0] == raw[:, 1]
    if bool(loops.any()):
        vertex = int(raw[loops][0, 0])
        raise GraphFormatError(f"self-loop on vertex {vertex} is not allowed in a simple graph")

    low = module.minimum(raw[:, 0], raw[:, 1])
    high = module.maximum(raw[:, 0], raw[:, 1])
    if int(high.max()) + 1 > MAX_PACKED_VERTICES:
        raise GraphFormatError(
            f"vertex ids beyond {MAX_PACKED_VERTICES} overflow the packed 64-bit edge keys"
        )
    span = int(high.max()) + 1
    unique_keys = module.unique(low * span + high)
    low, high = unique_keys // span, unique_keys % span

    labels, inverse = module.unique(module.concatenate([low, high]), return_inverse=True)
    degrees = module.bincount(inverse, minlength=labels.shape[0])
    # Ascending (degree, label); lexsort keys are least-significant first.
    order = module.lexsort((labels, degrees))
    rank_of = module.empty(labels.shape[0], dtype=module.int64)
    rank_of[order] = module.arange(labels.shape[0], dtype=module.int64)

    ranked = rank_of[inverse].reshape(2, -1)
    u = module.minimum(ranked[0], ranked[1])
    v = module.maximum(ranked[0], ranked[1])
    edge_order = module.lexsort((v, u))
    packed = module.stack([u[edge_order], v[edge_order]], axis=1)
    target = resolve_dtype(dtype, labels.shape[0])
    return CanonicalArrays(
        edges=module.ascontiguousarray(packed, dtype=target), vertex_of=labels[order]
    )


def canonicalize_edges_python(
    edges: Iterable[tuple[int, int]],
) -> tuple[list[tuple[int, int]], list[int]]:
    """Pure-Python mirror of :func:`canonicalize_edge_array`.

    The NumPy-absent fallback: returns ``(ranked_edges, vertex_of)`` with
    the same semantics -- and the same (degree, label) tie-breaking -- as
    the array version, so the two backends produce identical canonical
    forms.
    """
    unique: set[tuple[int, int]] = set()
    for u, v in edges:
        if u == v:
            raise GraphFormatError(f"self-loop on vertex {u} is not allowed in a simple graph")
        if u < 0 or v < 0:
            raise GraphFormatError("vertex ids must be non-negative")
        unique.add((u, v) if u < v else (v, u))
    degrees: dict[int, int] = {}
    # repro-lint: ignore[RPR102] -- integer increments commute; `degrees` is only read via sorted()
    for u, v in unique:
        degrees[u] = degrees.get(u, 0) + 1
        degrees[v] = degrees.get(v, 0) + 1
    ranked = sorted(degrees, key=lambda vertex: (degrees[vertex], vertex))
    rank_of = {vertex: rank for rank, vertex in enumerate(ranked)}
    out = []
    # repro-lint: ignore[RPR102] -- visit order cannot leak: `out` is sorted before returning
    for u, v in unique:
        ru, rv = rank_of[u], rank_of[v]
        out.append((ru, rv) if ru < rv else (rv, ru))
    out.sort()
    return out, ranked
