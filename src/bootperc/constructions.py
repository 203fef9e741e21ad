"""Extremal slow-percolation instances and their predicted infection sequences.

:func:`build_full` composes the paper's three steps into an initial graph
whose bootstrap process runs for Theta(n^r) steps: the 3-uniform seed
(:func:`build_base`), glued (:func:`_glue`), then lifted (:func:`_lift`)
and glued again r-3 times.  Sequences are written out from the layout,
never by running the engine, so an engine replay is an independent
check of both.

Vertex ids are layer-major (:func:`_vid`), so growing the top layer never
re-indexes a vertex, and each apex is its stage's largest vertex, so the
generators build sorted tuples in range and check none: the test suite
checks every stage's graph with the checking :class:`Hypergraph` constructor,
and :class:`SequentialCertificate` checks its own sequence whenever one is made.
"""

from __future__ import annotations

import itertools
import warnings
from collections.abc import Iterator
from dataclasses import dataclass
from fractions import Fraction
from math import comb, e as EULER_E

from .core import Edge, Hypergraph, _canonical, _check_int, make_edge

__all__ = [
    "VertexLabel",
    "layer_width",
    "id_to_label",
    "SequentialCertificate",
    "CertificateError",
    "Bounds",
    "base_running_time",
    "full_running_time",
    "build_base",
    "build_full",
    "theorem_bounds",
    "k_for_n",
]


class CertificateError(ValueError):
    """A certificate value that disagrees with its graph or sequence (not a replay failure)."""


@dataclass(frozen=True)
class SequentialCertificate:
    """A graph plus the exact edge-per-step infection sequence it should produce.

    ``sequence[0]`` is the ignition edge (the only sequence edge inside
    the graph); replaying the graph must infect exactly ``sequence[i]``
    at step i; each is a sorted tuple.  ``apex`` is the vertex shared by
    every sequence edge, or None for glued (terminal) certificates.
    """

    graph: Hypergraph
    ignition: Edge
    sequence: tuple[Edge, ...]
    r: int
    k: int
    predicted_t: int
    apex: int | None

    def __post_init__(self) -> None:
        g = self.graph
        _check_int("r", self.r)
        _check_int("k", self.k, 1)
        _check_int("predicted_t", self.predicted_t)
        if self.r != g.r:
            raise CertificateError(f"graph uniformity {g.r} != r = {self.r}")
        if not self.sequence:
            raise CertificateError("empty sequence")
        if self.sequence[0] != self.ignition:
            raise CertificateError("sequence[0] differs from the ignition edge")
        if self.ignition not in g:
            raise CertificateError("ignition edge missing from the graph")
        if len(set(self.sequence)) != len(self.sequence):
            raise CertificateError("sequence edges are not pairwise distinct")
        if not (_canonical(self.sequence, self.r, g.n) and g.edges.isdisjoint(self.sequence[1:])):
            for i, edge in enumerate(self.sequence):  # names the first bad edge
                if make_edge(edge, r=self.r, n=g.n) != edge:
                    raise CertificateError(f"sequence[{i}] = {edge} is not a sorted tuple")
                if i >= 1 and edge in g:
                    raise CertificateError(f"sequence[{i}] already lies in the graph")
        if self.predicted_t != len(self.sequence) - 1:
            raise CertificateError(
                f"predicted_t = {self.predicted_t} but the sequence has "
                f"{len(self.sequence) - 1} steps after the ignition"
            )
        if self.apex is not None:
            _check_int("apex", self.apex)
            if not 0 <= self.apex < g.n:
                raise CertificateError(f"apex {self.apex} out of range")
            for edge in self.sequence:
                if self.apex not in edge:
                    raise CertificateError(f"apex {self.apex} missing from {edge}")


def base_running_time(k: int) -> int:
    """Predicted steps of the 3-uniform seed: 8k^2 - 12k + 4."""
    return 8 * k * k - 12 * k + 4


def full_running_time(r: int, k: int) -> int:
    """Predicted steps of the full construction: (2k-1)^(r-2) (8k^2-12k+6) - 2."""
    return (2 * k - 1) ** (r - 2) * (8 * k * k - 12 * k + 6) - 2


@dataclass(frozen=True)
class VertexLabel:
    """Doubly-indexed construction vertex: layer (1-based) and index (1-based)."""

    layer: int
    index: int

    def __post_init__(self) -> None:
        _check_int("layer", self.layer, 1)
        _check_int("index", self.index, 1)


def layer_width(k: int) -> int:
    """Number of vertices per layer for construction parameter k."""
    return 4 * k - 3


def _vid(layer: int, index: int, k: int) -> int:
    """The id of a label, unchecked: the generators name only labels in the grid."""
    return (layer - 1) * (4 * k - 3) + index - 1


def id_to_label(vid: int, k: int) -> VertexLabel:
    """Inverse of :func:`_vid`: the label of vertex id ``vid`` for k >= 1."""
    _check_int("vertex id", vid, 0)
    _check_int("k", k, 1)
    w = layer_width(k)
    return VertexLabel(layer=vid // w + 1, index=vid % w + 1)


def _scaffold_edges(k: int) -> Iterator[Edge]:
    """Initially infected 3-edges inside the two paths (no apex).

    Four families per stage i: a left path vertex fanning over
    consecutive second-path pairs, consecutive first-path pairs meeting
    a fixed right vertex, and the mirrored pair of families two indices
    further in.  Families are pairwise disjoint by construction: anchors
    of stages i and i' could meet only if i + i' >= 2k - 1.
    """
    for i in range(1, k):
        lo, hi = 2 * i - 1, 4 * k - 2 - 2 * i
        for j in range(lo, hi + 1):
            yield (_vid(1, lo, k), _vid(2, j, k), _vid(2, j + 1, k))
            yield (_vid(1, j, k), _vid(1, j + 1, k), _vid(2, hi + 1, k))
        for j in range(lo + 2, hi + 1):
            yield (_vid(1, hi + 1, k), _vid(2, j, k), _vid(2, j + 1, k))
            yield (_vid(1, j, k), _vid(1, j + 1, k), _vid(2, lo + 2, k))


def _apex_strip_edges(k: int) -> Iterator[Edge]:
    """Apex plus each consecutive vertex pair along either path."""
    apex = _vid(3, 1, k)
    for layer in (1, 2):
        for j in range(1, layer_width(k)):
            yield (_vid(layer, j, k), _vid(layer, j + 1, k), apex)


def _base_sequence(k: int) -> Iterator[Edge]:
    """The seed's steps 1..8k^2-12k+4: four legs per stage, in :func:`_scaffold_edges`' frame."""
    apex = _vid(3, 1, k)
    for i in range(1, k):
        lo, hi = 2 * i - 1, 4 * k - 2 - 2 * i
        out, back = range(lo + 1, hi + 2), range(hi, lo + 1, -1)
        yield from ((_vid(1, lo, k), _vid(2, j, k), apex) for j in out)
        yield from ((_vid(1, j, k), _vid(2, hi + 1, k), apex) for j in out)
        yield from ((_vid(1, hi + 1, k), _vid(2, j, k), apex) for j in back)
        yield from ((_vid(1, j, k), _vid(2, lo + 2, k), apex) for j in back)


def build_base(k: int) -> SequentialCertificate:
    """The 3-uniform seed certificate on 2(4k-3)+1 vertices, k >= 2.

    Initial edges: the path scaffold, the apex strip, and the ignition
    edge joining the two path heads to the apex.  Predicted running
    time 8k^2 - 12k + 4, one edge per step, all infected edges
    containing the apex: k-1 stages of four legs, the fan out, the
    first path's advance, the fan back and the first path's retreat.
    """
    _check_int("k", k, 2)
    apex = _vid(3, 1, k)
    ignition = (_vid(1, 1, k), _vid(2, 1, k), apex)
    edges = frozenset(itertools.chain(_scaffold_edges(k), _apex_strip_edges(k), (ignition,)))
    return SequentialCertificate(
        graph=Hypergraph._trusted(apex + 1, 3, edges),
        ignition=ignition,
        sequence=(ignition,) + tuple(_base_sequence(k)),
        r=3,
        k=k,
        predicted_t=base_running_time(k),
        apex=apex,
    )


def _bridge_gadget(
    triple: tuple[int, int, int], tail: tuple[int, ...], r: int
) -> set[Edge]:
    """r-subsets of (three new-layer vertices + a sequence-edge stub),
    excluding those containing both outer new vertices and those
    containing the whole stub."""
    outer, stub = {triple[0], triple[2]}, set(tail)
    return {
        e for e in itertools.combinations(sorted(triple + tail), r)
        if not (outer <= set(e) or stub <= set(e))
    }


def _glue(cert: SequentialCertificate) -> SequentialCertificate:
    """Chain 2k-1 apex-renamed copies of ``cert`` through bridge gadgets, k = ``cert.k``.

    Copy j replaces the apex with the (2j-1)-th vertex of a fresh top
    layer; copies alternate forward/reverse traversal.  Each bridge
    continues from its copy's last sequenced edge: that edge's stub and
    the top-layer vertices 2j-1, 2j and 2j+1 span the bridge gadget, and
    the stub joined to the even vertex 2j is the one bridge step.  The
    result has no apex and runs for (2k-1) T + 4(k-1) steps.
    """
    r, k, apex = cert.r, cert.k, cert.apex
    # the apex is the largest vertex and a_j >= apex: stub + (a_j,) stays sorted
    stubs = [edge[:-1] for edge in cert.sequence]
    graph_stubs = [e[:-1] for e in cert.graph.edges if e[-1] == apex and e != cert.ignition]
    # the edges kept as they are, most of the glued graph, stream into it without a copy
    kept = (e for e in cert.graph.edges if e[-1] != apex or e == cert.ignition)
    edges: set[Edge] = set()  # the bridges and the copies
    sequence: list[Edge] = []
    copies = 2 * k - 1
    for j in range(1, copies + 1):
        a_j = _vid(r, 2 * j - 1, k)
        edges.update(stub + (a_j,) for stub in graph_stubs)
        leg = [stub + (a_j,) for stub in stubs]
        if j % 2 == 0:
            leg.reverse()
        sequence.extend(leg)
        if j < copies:
            stub = leg[-1][:-1]
            edges |= _bridge_gadget((a_j, _vid(r, 2 * j, k), _vid(r, 2 * j + 1, k)), stub, r)
            sequence.append(stub + (_vid(r, 2 * j, k),))

    predicted = copies * cert.predicted_t + 4 * (k - 1)
    return SequentialCertificate(
        graph=Hypergraph._trusted(_vid(r + 1, 1, k), r, frozenset(itertools.chain(kept, edges))),
        ignition=cert.ignition,
        sequence=tuple(sequence),
        r=r,
        k=k,
        predicted_t=predicted,
        apex=None,
    )


def _lift(cert: SequentialCertificate) -> SequentialCertificate:
    """Raise uniformity by one on a glued certificate.

    A fresh apex joins every existing edge (graph and sequence alike),
    and the complete (r+1)-graph on the old vertex set is added to the
    graph only.  Running time is unchanged.
    """
    r, k = cert.r, cert.k
    apex = _vid(r + 1, 1, k)  # one past the old vertex set
    edges = frozenset(itertools.chain(
        (e + (apex,) for e in cert.graph.edges), itertools.combinations(range(apex), r + 1)))
    sequence = tuple(e + (apex,) for e in cert.sequence)
    return SequentialCertificate(
        graph=Hypergraph._trusted(apex + 1, r + 1, edges),
        ignition=cert.ignition + (apex,),
        sequence=sequence,
        r=r + 1,
        k=k,
        predicted_t=cert.predicted_t,
        apex=apex,
    )


def build_full(r: int, k: int) -> SequentialCertificate:
    """The terminal r-uniform construction on r(4k-3) vertices.

    The 3-uniform seed glued, then lifted and glued again r-3 times;
    predicted running time (2k-1)^(r-2) (8k^2-12k+6) - 2.
    """
    _check_int("r", r, 3)
    cert = _glue(build_base(k))
    for _ in range(r - 3):
        cert = _glue(_lift(cert))
    return cert


@dataclass(frozen=True)
class Bounds:
    """Running-time bounds for the maximal process on n vertices.

    ``lower`` is exact (n^r / (2^(r+3) r^r)); ``upper_exact`` is the
    trivial step cap C(n, r); ``upper_analytic`` is the display-only
    float (n e / r)^r; ``k_of_n`` is the construction parameter the
    lower-bound witness uses.
    """

    lower: Fraction
    upper_exact: int
    upper_analytic: float
    k_of_n: int


def k_for_n(r: int, n: int) -> int:
    """Largest k with r(4k-3) <= n of the form floor((n/r + 3)/4), exactly."""
    _check_int("r", r, 1)
    _check_int("n", n, 0)
    return (n + 3 * r) // (4 * r)


_MAX_POWER_BITS = 1 << 16  # n**r, r**r and comb(n, r) this large take about 20 ms


def theorem_bounds(r: int, n: int) -> Bounds:
    """Exact lower and upper running-time bounds for uniformity r on n vertices.

    Emits a warning (not an error) when n < 2r^2, below which the lower
    bound is not guaranteed.  ValueError when n**r or r**r could pass
    2^16 bits, OverflowError when the analytic cap overflows a float.
    """
    _check_int("r", r, 3)
    k = k_for_n(r, n)
    bits = r * max(n, r).bit_length()  # bounds the bits of n**r and r**r
    if bits > _MAX_POWER_BITS:
        raise ValueError(f"n**r or r**r would have up to {bits} bits, above {_MAX_POWER_BITS}")
    if n < 2 * r * r:
        warnings.warn(
            f"n = {n} is below 2r^2 = {2 * r * r}; the lower bound is not guaranteed",
            stacklevel=2,
        )
    lower = Fraction(n**r, 2 ** (r + 3) * r**r)
    return Bounds(
        lower=lower,
        upper_exact=comb(n, r),
        upper_analytic=(n * EULER_E / r) ** r,
        k_of_n=k,
    )
