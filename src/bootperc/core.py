"""Vertices, canonical edges, and uniform hypergraphs.

Vertices are dense integer ids.  Construction vertices carry a two-part
label (layer, index) mapped to ids layer-major so that growing the top
layer never re-indexes existing vertices.  An edge is a strictly
increasing tuple of ids; a hypergraph is an immutable set of such edges
plus the ambient vertex count, iterated in lexicographic order so every
downstream artifact is reproducible byte for byte.  This module is the
data model only: the update rule, down to the tuples it enumerates, is
in ``engine``.
"""

from __future__ import annotations

import itertools
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from functools import cached_property
from operator import itemgetter, lt

Edge = tuple[int, ...]

__all__ = [
    "Edge",
    "VertexLabel",
    "Hypergraph",
    "EdgeError",
    "DuplicateVertexError",
    "ArityError",
    "VertexRangeError",
    "VertexTypeError",
    "LabelRangeError",
    "make_edge",
    "label_to_id",
    "id_to_label",
    "layer_width",
]


class EdgeError(ValueError):
    """Base class for edge validation failures."""


class DuplicateVertexError(EdgeError):
    """An edge listed the same vertex twice."""


class ArityError(EdgeError):
    """An edge has the wrong number of vertices."""


class VertexRangeError(EdgeError):
    """A vertex id falls outside [0, n)."""


class VertexTypeError(EdgeError):
    """A vertex id is not a plain int: a bool or a float, say."""


class LabelRangeError(ValueError):
    """A (layer, index) label falls outside the valid grid."""


@dataclass(frozen=True)
class VertexLabel:
    """Doubly-indexed construction vertex: layer (1-based) and index (1-based)."""

    layer: int
    index: int


def layer_width(k: int) -> int:
    """Number of vertices per layer for construction parameter k."""
    return 4 * k - 3


def label_to_id(label: VertexLabel, k: int) -> int:
    """Map a (layer, index) label to its dense id, layer-major.

    id = (layer - 1) * (4k - 3) + (index - 1).  Total on every
    construction vertex set and inverted exactly by :func:`id_to_label`.
    """
    w = layer_width(k)
    if label.layer < 1:
        raise LabelRangeError(f"layer must be >= 1, got {label.layer}")
    if not 1 <= label.index <= w:
        raise LabelRangeError(
            f"index must be in [1, {w}] for k={k}, got {label.index}"
        )
    return (label.layer - 1) * w + (label.index - 1)


def id_to_label(vid: int, k: int) -> VertexLabel:
    """Inverse of :func:`label_to_id`."""
    if vid < 0:
        raise LabelRangeError(f"vertex id must be >= 0, got {vid}")
    w = layer_width(k)
    return VertexLabel(layer=vid // w + 1, index=vid % w + 1)


def _is_int(value: object) -> bool:
    """A plain int, the only number a document holds: not a bool, float or int subclass."""
    return type(value) is int


def make_edge(ids: Iterable[int], r: int | None = None, n: int | None = None) -> Edge:
    """Canonicalize a vertex id sequence into a sorted edge.

    Raises a distinct error for ids that are not ints, duplicate ids, wrong
    arity (when ``r`` is given), and out-of-range ids (when ``n`` is given).
    """
    try:
        t = tuple(sorted(ids))
    except TypeError:  # ids of mixed types, an int and a str say, do not compare
        raise VertexTypeError(f"vertex ids {ids!r} of an edge must be ints") from None
    if not set(map(type, t)) <= {int}:  # _is_int of every id, without a call per id
        raise VertexTypeError(f"vertex ids of edge {t} must be ints")
    if len(set(t)) != len(t):
        raise DuplicateVertexError(f"duplicate vertex in edge {t}")
    if r is not None and len(t) != r:
        raise ArityError(f"edge {t} has {len(t)} vertices, expected {r}")
    if t and t[0] < 0:
        raise VertexRangeError(f"negative vertex id in edge {t}")
    if n is not None and t and t[-1] >= n:
        raise VertexRangeError(f"vertex id {t[-1]} out of range for n={n}")
    return t


def _canonical(edges: Collection, r: int, n: int, kind: type = tuple) -> bool:
    """Whether ``edges`` is a non-empty collection of ``kind``s of r strictly increasing
    plain ints in [0, n), decided by C-level passes over it with no call per edge.  False
    sends a caller to its per-edge checks, which name the first bad edge (and cost nothing
    on an empty collection, whose r need not be small)."""
    if not (isinstance(edges, Collection) and _is_int(r) and _is_int(n) and r >= 1
            and set(map(type, edges)) <= {kind} and set(map(len, edges)) == {r}
            and set(map(type, itertools.chain.from_iterable(edges))) <= {int}):
        return False
    column = [itemgetter(i) for i in range(r)]
    pairs = (map(lt, map(a, edges), map(b, edges)) for a, b in zip(column, column[1:]))
    in_range = min(map(column[0], edges)) >= 0 and max(map(column[-1], edges)) < n
    return in_range and all(map(all, pairs))


@dataclass(frozen=True)
class Hypergraph:
    """An r-uniform hypergraph on vertex set [0, n), identified with its edge set.

    ``Hypergraph(n, r, edges)`` takes a frozenset of canonical (strictly
    increasing) tuples; :meth:`from_edges` takes any collection of edges.
    Immutable after construction.  Membership is O(1); iteration is in
    lexicographic edge order.
    """

    n: int
    r: int
    edges: frozenset[Edge]

    def __post_init__(self) -> None:
        self._check_sizes()
        if not isinstance(self.edges, frozenset):
            raise ValueError(f"edges must be a frozenset, got {type(self.edges).__name__}; "
                             "use Hypergraph.from_edges for any other collection")
        if not _canonical(self.edges, self.r, self.n):
            for e in self.edges:  # names the first bad edge
                if make_edge(e, r=self.r, n=self.n) != e:
                    raise DuplicateVertexError(f"edge {e} is not strictly increasing")

    def _check_sizes(self) -> None:
        if not (_is_int(self.n) and _is_int(self.r)):
            raise ValueError(f"n and r must be ints, got n={self.n!r}, r={self.r!r}")
        if self.n < 0:
            raise ValueError(f"vertex count must be >= 0, got {self.n}")
        if self.r < 1:
            raise ValueError(f"uniformity must be >= 1, got {self.r}")

    @classmethod
    def _trusted(cls, n: int, r: int, edges: frozenset[Edge]) -> Hypergraph:
        """Build from edges already known to be canonical, checking only n and r."""
        g = object.__new__(cls)
        object.__setattr__(g, "n", n)
        object.__setattr__(g, "r", r)
        object.__setattr__(g, "edges", edges)
        g._check_sizes()
        return g

    @classmethod
    def from_edges(cls, n: int, r: int, edges: Iterable[Iterable[int]]) -> Hypergraph:
        """Build a hypergraph from any collection or iterator of edges (a list, a set, a
        generator), canonicalizing and validating every edge once: a collection of sorted
        tuples is checked whole, anything else edge by edge as it is read."""
        if not _canonical(edges, r, n):
            edges = (make_edge(e, r=r, n=n) for e in edges)
        return cls._trusted(n, r, frozenset(edges))

    @classmethod
    def complete(cls, n: int, r: int) -> Hypergraph:
        """The complete r-graph on n vertices."""
        return cls._trusted(n, r, frozenset(itertools.combinations(range(n), r)))

    @cached_property
    def sorted_edges(self) -> tuple[Edge, ...]:
        return tuple(sorted(self.edges))

    def __contains__(self, e: object) -> bool:
        return e in self.edges

    def __iter__(self) -> Iterator[Edge]:
        return iter(self.sorted_edges)

    def __len__(self) -> int:
        return len(self.edges)

    def with_edges(self, extra: Iterable[Iterable[int]]) -> Hypergraph:
        """A new graph with the given edges added."""
        canon = {make_edge(e, r=self.r, n=self.n) for e in extra}
        return Hypergraph._trusted(self.n, self.r, self.edges | canon)

    def without(self, e: Iterable[int]) -> Hypergraph:
        """A new graph with one edge removed."""
        return Hypergraph._trusted(self.n, self.r, self.edges - {make_edge(e)})

    def padded(self, n: int) -> Hypergraph:
        """The same edge set viewed on a larger vertex set (isolated vertices)."""
        if n < self.n:
            raise ValueError(f"cannot shrink vertex set from {self.n} to {n}")
        return Hypergraph._trusted(n, self.r, self.edges)
