"""Shared test helpers: dumb reference replays and checks, and instance generators."""

from __future__ import annotations

import itertools
import random
import signal
import tracemalloc
from contextlib import contextmanager
from math import comb
from typing import Any

import pytest

from bootperc import (
    CertificateError,
    DuplicateVertexError,
    Edge,
    Hypergraph,
    SequentialCertificate,
    VertexLabel,
    build_base,
    engine,
    layer_width,
    make_edge,
    run_fast,
    run_naive,
    step,
)
import bootperc.io as bootperc_io
from bootperc.core import _check_sizes, _is_int
from bootperc.engine import _supersets
from bootperc.io import DocumentError
from bootperc.verify import (
    NAIVE_CROSS_CHECK_LIMIT,
    EngineDisagreement,
    VerificationReport,
    _compare_to_sequence,
)


def sorting_supersets(e, n: int, m: int) -> list[tuple[int, ...]]:
    """The definition: sort e plus each added set, the added sets in lex order."""
    others = [v for v in range(n) if v not in e]
    return [tuple(sorted(tuple(e) + x)) for x in itertools.combinations(others, m - len(e))]


def iterate_step(g: Hypergraph, m: int | None = None) -> list[frozenset[Edge]]:
    """Reference trace: repeat the full-sweep single generation until stationary."""
    current = g
    out: list[frozenset[Edge]] = []
    while True:
        new = step(current, m)
        if not new:
            return out
        out.append(new)
        current = Hypergraph(n=current.n, r=current.r, edges=current.edges | new)


def unique_missing(t: tuple[int, ...], r: int, present) -> Edge | None:
    """The single r-subset of t absent from ``present``, or None (one tuple at a time)."""
    missing: Edge | None = None
    for f in itertools.combinations(t, r):
        if f not in present:
            if missing is not None:
                return None
            missing = f
    return missing


def reference_step(g: Hypergraph, m: int) -> frozenset[Edge]:
    """Reference generation: ``unique_missing`` on each of the C(n, m) tuples."""
    found = (unique_missing(t, g.r, g.edges) for t in itertools.combinations(range(g.n), m))
    return frozenset(e for e in found if e is not None)


def reference_naive_generations(
    n: int, r: int, m: int, infected: set[Edge], frontier
) -> list[frozenset[Edge]]:
    """Reference recount: each generation's candidate tuples gathered in a set first.

    They are the tuples through the frontier or, when fewer, through the
    uninfected edges, listed afresh each generation, or all C(n, m)
    tuples when those are no more than the tuples through that side.
    """
    out: list[frozenset[Edge]] = []
    while frontier:
        uninfected = [e for e in itertools.combinations(range(n), r) if e not in infected]
        side = uninfected if len(uninfected) < len(frontier) else frontier
        if comb(n, m) <= len(side) * comb(n - r, m - r):
            candidates = set(itertools.combinations(range(n), m))
        else:
            candidates = {t for e in side for t in sorting_supersets(e, n, m)}
        new = {e for e in (unique_missing(t, r, infected) for t in candidates) if e is not None}
        if not new:
            return out
        infected |= new
        out.append(frozenset(new))
        frontier = new
    return out


def count_supersets(monkeypatch) -> dict[str, int]:
    """Count the engine's ``_supersets`` calls and the tuples they yield."""
    counts = {"calls": 0, "tuples": 0}

    def counting(e, n, m):
        out = list(_supersets(e, n, m))
        counts["calls"] += 1
        counts["tuples"] += len(out)
        return out

    monkeypatch.setattr(engine, "_supersets", counting)
    return counts


def complete(n: int, r: int) -> Hypergraph:
    """The complete r-graph on n vertices, built unchecked as a derived graph is."""
    return Hypergraph._trusted(n, r, frozenset(itertools.combinations(range(n), r)))


def label_to_id(label: VertexLabel, k: int) -> int:
    """Reference for ``constructions._vid``: the layer-major id of a label, refusing
    a label off the grid (layer >= 1, index in [1, 4k - 3])."""
    w = layer_width(k)
    if label.layer < 1:
        raise ValueError(f"layer must be >= 1, got {label.layer}")
    if not 1 <= label.index <= w:
        raise ValueError(f"index must be in [1, {w}] for k={k}, got {label.index}")
    return (label.layer - 1) * w + (label.index - 1)


def random_hypergraph(rng: random.Random, n: int, r: int, p: float) -> Hypergraph:
    """Each edge of the complete r-graph kept independently with probability p."""
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
    return Hypergraph.from_edges(n, r, edges)


def forbid_revalidation(monkeypatch) -> None:
    """Make ``Hypergraph.__post_init__``, the public constructor's edge check, raise."""

    def refuse(self):
        raise AssertionError("Hypergraph.__post_init__ re-validated a graph")

    monkeypatch.setattr(Hypergraph, "__post_init__", refuse)


def reference_verify_sequential(
    cert: SequentialCertificate, max_tuples: int | None = None
) -> VerificationReport:
    """Reference replay check: three independent replays from scratch.

    The forward and reverse starts each run through ``run_fast``, the
    forward one through ``run_naive`` as well while C(n, r+1) stays
    under NAIVE_CROSS_CHECK_LIMIT, and ``step`` sweeps every tuple of
    the headless graph.
    """
    g = cert.graph
    forward = run_fast(g, max_tuples=max_tuples)
    if comb(g.n, g.r + 1) <= NAIVE_CROSS_CHECK_LIMIT and run_naive(g).trace != forward.trace:
        raise EngineDisagreement("fast and naive engines diverge on the forward replay")
    divergence = _compare_to_sequence(list(forward.trace.steps), list(cert.sequence[1:]))
    property_ii = not step(g.without(cert.ignition))
    reverse = run_fast(g.without(cert.ignition).with_edges([cert.sequence[-1]]), max_tuples=max_tuples)
    expected_reverse = [cert.sequence[cert.predicted_t - i] for i in range(1, cert.predicted_t + 1)]
    reverse_divergence = _compare_to_sequence(list(reverse.trace.steps), expected_reverse)
    return VerificationReport(
        property_i=divergence is None and forward.running_time == cert.predicted_t,
        property_ii=property_ii,
        property_iii=reverse_divergence is None,
        first_divergence=divergence if divergence is not None else reverse_divergence,
        measured_t_forward=forward.running_time,
        measured_t_reverse=reverse.running_time,
    )


def refuse_sweep(monkeypatch, limit: int) -> None:
    """Make the engine's ``_recount`` raise once one call is handed more than ``limit`` tuples.

    It reads at most ``limit + 1`` of them, so a sweep over all C(n, m)
    tuples fails at once instead of running to the end.
    """
    true_recount = engine._recount

    def bounded(tuples, r, present):
        tuples = list(itertools.islice(tuples, limit + 1))
        if len(tuples) > limit:
            raise AssertionError(f"a recount was handed more than {limit} tuples")
        return true_recount(tuples, r, present)

    monkeypatch.setattr(engine, "_recount", bounded)


def padded_base(n: int) -> SequentialCertificate:
    """The k = 2 seed certificate with isolated vertices up to n."""
    cert = build_base(2)
    return SequentialCertificate(
        graph=cert.graph.padded(n), ignition=cert.ignition, sequence=cert.sequence,
        r=3, k=2, predicted_t=cert.predicted_t, apex=cert.apex,
    )


def inject_headless_fire(monkeypatch, edge) -> None:
    """Make the link state's first ``fire`` (over the headless graph) also return ``edge``."""
    true_fire = engine._LinkState.fire
    calls = []

    def faulty(self, level):
        calls.append(None)
        fired = true_fire(self, level)
        return fired | {edge} if len(calls) == 1 else fired

    monkeypatch.setattr(engine._LinkState, "fire", faulty)



def _tuples_meeting(g: Hypergraph) -> list[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for e in g.sorted_edges:
        out.update(sorting_supersets(e, g.n, g.r + 1))
    return sorted(out)


def reference_check_density(g: Hypergraph) -> tuple[int, tuple[int, ...] | None]:
    """Reference density: count each meeting tuple's facets in lexicographic order."""
    best = 0
    witness: tuple[int, ...] | None = None
    for t in _tuples_meeting(g):
        count = sum(1 for f in itertools.combinations(t, g.r) if f in g)
        if count > best:
            best, witness = count, t
    return best, witness


def reference_clique_census(g: Hypergraph) -> frozenset[tuple[int, ...]]:
    """Reference census: the meeting tuples whose facets all lie in the graph."""
    return frozenset(
        t for t in _tuples_meeting(g) if all(f in g for f in itertools.combinations(t, g.r))
    )


def peak_traced_bytes(fn):
    """Call ``fn`` under tracemalloc; return its result and the peak of traced bytes."""
    tracemalloc.start()
    try:
        return fn(), tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class Overran(BaseException):
    """A call ran past its deadline (a BaseException, so ``cli.main`` cannot turn it into an exit code)."""


@contextmanager
def deadline(seconds: float):
    """Fail the calling test once ``seconds`` of wall time have passed.

    The alarm raises Overran wherever the main thread is, and that frame may have no
    line number, which pytest cannot render: a traceback through it ends the whole run
    in INTERNALERROR.  So the overrun fails the test with its message and no traceback.
    """

    def expire(signum, frame):
        raise Overran(f"still running after {seconds} s")

    previous = signal.signal(signal.SIGALRM, expire)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    overran = None
    try:
        yield
    except Overran as exc:
        overran = str(exc)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)
    if overran is not None:
        pytest.fail(overran, pytrace=False)


# ---------------------------------------------------------------------------
# per-edge reference checks: the boundaries check whole edge lists and fall
# back to per-edge checks only to name a bad edge; these are the per-edge
# checks they replaced, kept as the reference they must agree with


def reference_parse_edge(raw: Any, r: int, n: int) -> Edge:
    if not isinstance(raw, list) or not all(map(_is_int, raw)):
        raise DocumentError("schema", f"edge {raw!r} must be a list of integers")
    if len(raw) != r:
        raise DocumentError("arity", f"edge {raw} has {len(raw)} vertices, expected {r}")
    if len(set(raw)) != len(raw):
        raise DocumentError("duplicate-vertex", f"duplicate vertex in edge {raw}")
    if sorted(raw) != raw:
        raise DocumentError("not-canonical", f"edge {raw} is not sorted")
    if raw and (raw[0] < 0 or raw[-1] >= n):
        raise DocumentError("id-range", f"edge {raw} out of range for n={n}")
    return tuple(raw)


def reference_parse_edges(raw: Any, r: int, n: int, field: str) -> tuple[Edge, ...]:
    if not isinstance(raw, list):
        raise DocumentError("schema", f"field {field!r} must be a list")
    return tuple(reference_parse_edge(item, r, n) for item in raw)


def reference_parse_edge_list(raw: Any, r: int, n: int) -> tuple[Edge, ...]:
    if not isinstance(raw, list):
        raise DocumentError("schema", "field 'edges' must be a list")
    edges = [reference_parse_edge(item, r, n) for item in raw]
    for a, b in zip(edges, edges[1:]):
        if a == b:
            raise DocumentError("duplicate-edge", f"edge {list(a)} appears twice")
        if a > b:
            raise DocumentError("not-canonical", "edge list is not lexicographically sorted")
    return tuple(edges)


def reference_from_edges(cls, n: int, r: int, edges) -> Hypergraph:
    _check_sizes(n, r)
    return cls._trusted(n, r, frozenset(make_edge(e, r=r, n=n) for e in edges))


def reference_graph_check(g: Hypergraph) -> None:
    _check_sizes(g.n, g.r)
    for e in g.edges:
        if make_edge(e, r=g.r, n=g.n) != e:
            raise DuplicateVertexError(f"edge {e} is not strictly increasing")


def reference_certificate_check(c: SequentialCertificate) -> None:
    g = c.graph
    if not (_is_int(c.r) and c.r == g.r):
        raise CertificateError(f"graph uniformity {g.r} != r = {c.r}")
    if not c.sequence:
        raise CertificateError("empty sequence")
    if c.sequence[0] != c.ignition:
        raise CertificateError("sequence[0] differs from the ignition edge")
    if c.ignition not in g:
        raise CertificateError("ignition edge missing from the graph")
    if len(set(c.sequence)) != len(c.sequence):
        raise CertificateError("sequence edges are not pairwise distinct")
    for i, edge in enumerate(c.sequence):
        if make_edge(edge, r=c.r, n=g.n) != edge:
            raise CertificateError(f"sequence[{i}] = {edge} is not a sorted tuple")
        if i >= 1 and edge in g:
            raise CertificateError(f"sequence[{i}] already lies in the graph")
    if not _is_int(c.predicted_t):
        raise CertificateError(f"predicted_t must be an int, got {c.predicted_t!r}")
    if c.predicted_t != len(c.sequence) - 1:
        raise CertificateError(
            f"predicted_t = {c.predicted_t} but the sequence has "
            f"{len(c.sequence) - 1} steps after the ignition"
        )
    if c.apex is not None:
        if not _is_int(c.apex):
            raise CertificateError(f"apex must be an int, got {c.apex!r}")
        if not 0 <= c.apex < g.n:
            raise CertificateError(f"apex {c.apex} out of range")
        for edge in c.sequence:
            if c.apex not in edge:
                raise CertificateError(f"apex {c.apex} missing from {edge}")


@contextmanager
def per_edge_checks():
    """Run the parser, ``Hypergraph`` and ``SequentialCertificate`` on the reference checks."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(bootperc_io, "_parse_edge_list", reference_parse_edge_list)
        mp.setattr(bootperc_io, "_parse_edges", reference_parse_edges)
        mp.setattr(Hypergraph, "from_edges", classmethod(reference_from_edges))
        mp.setattr(Hypergraph, "__post_init__", reference_graph_check)
        mp.setattr(SequentialCertificate, "__post_init__", reference_certificate_check)
        yield
