"""Certificate replay checks, local density, clique census, and the exhaustive oracle.

The oracle evaluates its masks bit-sliced, 2^16 at a time: each edge is
one big int holding that edge's bit for every mask of the chunk, so one
integer operation advances all of them.
"""

from __future__ import annotations

import functools
import itertools
import os
from collections.abc import Iterator, Sequence
from dataclasses import dataclass
from math import comb, inf

from .constructions import SequentialCertificate
from .core import Edge, Hypergraph, _check_int
from .engine import _bits, _budget, _comb_over, _LinkState, _naive_generations, _vertices

__all__ = [
    "VerificationReport",
    "BruteForceResult",
    "EngineDisagreement",
    "SearchCapExceeded",
    "NAIVE_CROSS_CHECK_LIMIT",
    "DEFAULT_EDGE_CAP",
    "verify_sequential",
    "check_density",
    "clique_census",
    "brute_force_max_time",
]

# cross-check the fast engine with the naive one while C(n, r+1) stays this small
NAIVE_CROSS_CHECK_LIMIT = 10**6

DEFAULT_EDGE_CAP = 24


class EngineDisagreement(RuntimeError):
    """Two engines, or the oracle's two update rules, disagreed on the same input."""


class SearchCapExceeded(ValueError):
    """The requested exhaustive search exceeds the configured edge cap."""


Divergence = tuple[int, frozenset[Edge], frozenset[Edge]]


@dataclass(frozen=True)
class VerificationReport:
    """Outcome of the three replay checks for one certificate."""

    property_i: bool
    property_ii: bool
    property_iii: bool
    first_divergence: Divergence | None
    measured_t_forward: int
    measured_t_reverse: int

    @property
    def all_passed(self) -> bool:
        return self.property_i and self.property_ii and self.property_iii


def _compare_to_sequence(
    trace_steps: list[frozenset[Edge]], expected: Sequence[Edge]
) -> Divergence | None:
    """First step where the trace differs from one-edge-per-step expectations."""
    wanted = (frozenset({e}) for e in expected)
    pairs = enumerate(itertools.zip_longest(trace_steps, wanted, fillvalue=frozenset()), 1)
    return next(((s, want, actual) for s, (actual, want) in pairs if actual != want), None)


def verify_sequential(
    cert: SequentialCertificate, max_tuples: int | None = None
) -> VerificationReport:
    """Replay a certificate and check its three defining properties.

    (i) the graph infects exactly ``sequence[i]`` at step i and then
    halts; (ii) the headless graph H, the graph minus the ignition edge,
    is stationary; (iii) swapping the ignition edge for the last sequence
    edge infects the sequence in exact reverse order.

    One link state seeded with H serves every replay: (ii) holds when it
    fires nothing over H, which one naive generation from H, on the
    naive engine's cheapest side, must confirm.  The forward replay
    adds the ignition to a copy, the reverse one the last sequence edge
    to the seed; each fires only that edge first if (ii) holds, else all
    of H with it.  ``max_tuples`` bounds each replay as in
    :func:`run_fast`.  While C(n, r+1) <= NAIVE_CROSS_CHECK_LIMIT the
    naive engine replays the forward run too.  Any disagreement raises
    :class:`EngineDisagreement`; structural faults raise
    :class:`CertificateError` when the certificate is built.
    """
    g = cert.graph
    n, r = g.n, g.r
    h = g.without(cert.ignition)
    seed = _LinkState(n, r, r + 1, _budget(g, r + 1, max_tuples))
    seed.add(h.edges)
    fired = seed.fire(h.edges)
    # the recount changes ``infected`` only after a generation, so H's own set serves
    recount = next(_naive_generations(n, r, r + 1, h.edges, h.edges), frozenset())
    if fired != recount:
        raise EngineDisagreement("link state and recount disagree on the headless graph")
    first = h.edges if fired else ()  # if H fires, tuples avoiding the added edge fire too
    del h  # a copy of the graph; the replays need it only as ``first``

    forward = seed.copy().run([cert.ignition], first)
    if not _comb_over(n, r + 1, NAIVE_CROSS_CHECK_LIMIT):
        start = g.edges if fired else [cert.ignition]
        if list(_naive_generations(n, r, r + 1, set(g.edges), start)) != forward:
            raise EngineDisagreement("fast and naive engines diverge on the forward replay")
    divergence = _compare_to_sequence(forward, cert.sequence[1:])

    reverse = seed.run([cert.sequence[-1]], first)
    reverse_divergence = _compare_to_sequence(reverse, cert.sequence[:-1][::-1])
    return VerificationReport(
        property_i=divergence is None and len(forward) == cert.predicted_t,
        property_ii=not fired,
        property_iii=reverse_divergence is None,
        first_divergence=divergence if divergence is not None else reverse_divergence,
        measured_t_forward=len(forward),
        measured_t_reverse=len(reverse),
    )


def _edge_planes(g: Hypergraph) -> Iterator[tuple[int, list[int]]]:
    """Each edge's vertex mask f with the link planes of its (r-1)-subsets.

    The plane of an (r-1)-set S has bit v set when S | {v} is an edge; the
    graph's planes are entered once in a link state, and a tuple f | {v}
    with v outside f spans one facet for f and one for each plane of f
    that holds v.
    """
    state = _LinkState(g.n, g.r, g.r + 1, inf)  # no cap binds, so no tuple is counted
    state.add(g.edges)
    for e in g.edges:
        f = sum(1 << v for v in e)
        yield f, [state.link[f ^ (1 << v)] for v in e]


def check_density(g: Hypergraph) -> tuple[int, tuple[int, ...] | None]:
    """Maximum spanned-facet count over (r+1)-tuples meeting the graph.

    Returns the maximum together with the lexicographically smallest
    witness tuple attaining it (None when no tuple meets the graph).  Per
    edge f, ``levels[j]`` holds the vertices outside f in at least j of
    its planes, so the top non-empty level gives f's largest count and its
    lowest vertex the smallest tuple through f that attains it.  Level 0
    is ``~f``, read alone only for its lowest vertex, below n when n > r.
    """
    best = (0, None)
    for f, planes in _edge_planes(g) if g.n > g.r else ():  # else no vertex lies outside f
        levels = [~f] + [0] * len(planes)
        for p in planes:
            for j in range(len(planes), 0, -1):
                levels[j] |= levels[j - 1] & p
        top = sum(map(bool, levels))  # the levels nest, so the non-empty ones come first
        best = min(best, (-top, _vertices(f | levels[top - 1] & -levels[top - 1])))
    return -best[0], best[1]


def clique_census(g: Hypergraph) -> frozenset[tuple[int, ...]]:
    """All (r+1)-tuples whose r+1 facets all lie in the graph.

    Each is found once, from its facet f without its largest vertex v:
    v lies above f and in every plane of f.
    """
    cliques = set()
    for f, planes in _edge_planes(g):
        above = -(1 << f.bit_length())
        for p in planes:
            above &= p
        cliques.update(_vertices(f | b) for b in _bits(above))
    return frozenset(cliques)


@dataclass(frozen=True)
class BruteForceResult:
    """Exact maximum over the exhaustive initial-graph search."""

    max_t: int
    witness: Hypergraph
    searched: int


# ---------------------------------------------------------------------------
# bit-sliced kernel for the exhaustive scan
#
# Masks are taken in aligned chunks of 2^c.  Plane i of a chunk is an int
# whose bit j is bit i of mask ``base + j``, so one big-int operation
# applies an update to every mask of the chunk at once.

_CHUNK_BITS = 16


def _tuple_facets(r: int, n: int) -> list[tuple[int, ...]]:
    """Edge indices (into the lexicographic edge list) of each (r+1)-tuple's facets."""
    index = {e: i for i, e in enumerate(itertools.combinations(range(n), r))}
    return [
        tuple(index[f] for f in itertools.combinations(t, r))
        for t in itertools.combinations(range(n), r + 1)
    ]


def _chunk_planes(base: int, c: int, num_edges: int) -> list[int]:
    """Initial planes of the chunk of 2^c masks starting at ``base``.

    Plane i below c repeats 2^i zeros then 2^i ones across the chunk,
    and is plane i+1 XOR itself shifted down by 2^i (all ones standing
    for plane c), as 0xF0 -> 0xCC -> 0xAA on 8 bits.  Planes at c and
    above are constant in the chunk.
    """
    full = (1 << (1 << c)) - 1
    planes, plane = [], full
    for i in reversed(range(c)):
        plane ^= plane >> (1 << i)
        planes.append(plane)
    planes.reverse()
    planes.extend(full if base >> i & 1 else 0 for i in range(c, num_edges))
    return planes


def _recount_rule(x: list[int], tuples: list[tuple[int, ...]]) -> list[int]:
    """Rule A: new_f = not x_f and, for some tuple t containing f, x_g for all g in t - f."""
    new = [0] * len(x)
    for t in tuples:
        prefix = [-1]  # prefix[i]: AND of the first i facets' planes
        for f in t:
            prefix.append(prefix[-1] & x[f])
        suffix = -1
        for i in reversed(range(len(t))):
            new[t[i]] |= prefix[i] & suffix
            suffix &= x[t[i]]
    for f, p in enumerate(x):
        new[f] &= ~p
    return new


def _counter_rule(
    x: list[int],
    fresh: list[int],
    counters: list[list[int]],
    tuples: list[tuple[int, ...]],
    full: int,
) -> list[int]:
    """Rule B: a bit-sliced count of infected facets per tuple.

    Each counter is incremented by the previous generation's new planes;
    a counter one short of its tuple's facet count fires the tuple's one
    uninfected facet.
    """
    new = [0] * len(x)
    for t, counter in zip(tuples, counters):
        for f in t:
            carry = fresh[f]
            b = 0
            while carry:
                counter[b], carry = counter[b] ^ carry, counter[b] & carry
                b += 1
        fire, short = full, len(t) - 1
        for b, plane in enumerate(counter):
            fire &= plane if short >> b & 1 else full ^ plane
        if fire:
            for f in t:
                new[f] |= fire
    for f, p in enumerate(x):
        new[f] &= ~p
    return new


def _generations(
    x: list[int], tuples: list[tuple[int, ...]], full: int, base: int
):
    """Yield (activity, new planes) for each generation with any new edge.

    ``x`` holds the initial planes of the chunk starting at mask ``base``
    and is advanced in place.  Every generation runs both update rules;
    if any plane differs, EngineDisagreement names the smallest mask
    on which they diverge.  Each tuple's counter is wide enough to count
    all of its facets.
    """
    counters = [[0] * len(t).bit_length() for t in tuples]
    fresh = list(x)
    while True:
        new = _recount_rule(x, tuples)
        diff = activity = 0
        for a, b in zip(new, _counter_rule(x, fresh, counters, tuples, full)):
            diff |= a ^ b
            activity |= a
        if diff:
            low = (diff & -diff).bit_length() - 1
            raise EngineDisagreement(f"the two update rules diverge on mask {base + low}")
        if not activity:
            return
        yield activity, new
        for f, p in enumerate(new):
            x[f] |= p
        fresh = new


def _scan_chunk(tuples: list[tuple[int, ...]], c: int, num_edges: int,
                chunk: int) -> tuple[int, int]:
    """Evaluate one chunk of 2^c masks; return (its max T, smallest mask attaining it)."""
    base, full = chunk << c, (1 << (1 << c)) - 1
    x = _chunk_planes(base, c, num_edges)
    t, last = 0, full  # with no generation, every mask of the chunk has T = 0
    for t, (activity, _) in enumerate(_generations(x, tuples, full, base), 1):
        last = activity
    return t, base + (last & -last).bit_length() - 1


def brute_force_max_time(
    r: int, n: int, jobs: int = 1, cap: int = DEFAULT_EDGE_CAP
) -> BruteForceResult:
    """Exact maximum running time over all 2^C(n,r) initial graphs.

    Masks are enumerated in ascending numeric order over the canonical
    (lexicographic) edge list; ties resolve to the smallest mask.  The
    mask space is cut into aligned chunks of 2^min(16, C(n,r)) masks,
    each evaluated bit-sliced to its (max T, smallest mask).  Those
    results merge by (max T, then smallest mask) as they arrive, so the
    outcome is independent of the worker count.  With jobs > 1 the
    chunks go out as at most ``jobs`` contiguous runs of ceil(chunks /
    jobs) chunks to at most min(jobs, chunks, CPUs) worker processes;
    none is started when that bound is 1.  :class:`SearchCapExceeded`
    when C(n, r) > ``cap``, decided by the engines' ``_comb_over``
    before C(n, r) is computed.
    """
    _check_int("r", r, 2)
    _check_int("n", n, r)
    _check_int("jobs", jobs, 1)
    _check_int("cap", cap, 0)
    if _comb_over(n, r, cap):
        raise SearchCapExceeded(f"C({n},{r}) exceeds the cap of {cap} edges")
    num_edges = comb(n, r)
    if r == n:  # one edge and no (r+1)-tuple: nothing fires, so build neither
        return BruteForceResult(max_t=0, witness=Hypergraph._trusted(n, r, frozenset()), searched=2)
    c = min(_CHUNK_BITS, num_edges)
    chunks = 1 << (num_edges - c)
    scan = functools.partial(_scan_chunk, _tuple_facets(r, n), c, num_edges)
    workers = min(jobs, chunks, os.cpu_count() or 1)
    rank = lambda result: (result[0], -result[1])  # max T, then smallest mask
    if workers == 1:
        best_t, best_mask = max(map(scan, range(chunks)), key=rank)
    else:
        from concurrent.futures import ProcessPoolExecutor  # one worker needs no pool

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = pool.map(scan, range(chunks), chunksize=-(-chunks // jobs))
            best_t, best_mask = max(results, key=rank)
    edges = enumerate(itertools.combinations(range(n), r))
    return BruteForceResult(
        max_t=best_t,
        witness=Hypergraph._trusted(n, r, frozenset(e for i, e in edges if best_mask >> i & 1)),
        searched=1 << num_edges,
    )
