"""Certificate replay checks, local density, clique census, and the exhaustive oracle.

``verify_sequential`` replays a certificate three ways (forward,
ignition removed, last edge swapped in for the ignition) and reports
whether each replay matches the predicted sequence exactly.

``brute_force_max_time`` exhausts every initial graph on a tiny vertex
set, encoded as bitmasks over the canonical edge list.  Each instance
is evaluated by two independent mask-level engines (a synchronous
sweep over the tuple masks and a counter engine that advances frontier
levels) which must agree edge-for-edge and step-for-step; the scan is
deterministic regardless of the number of worker processes.
"""

from __future__ import annotations

import itertools
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from math import comb

from .constructions import SequentialCertificate
from .core import Edge, Hypergraph, facets, supersets
from .engine import run_fast, run_naive, step

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
    """The two engines produced different traces for the same input."""


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
    trace_steps: tuple[frozenset[Edge], ...],
    expected: list[Edge],
) -> Divergence | None:
    """First step where the trace differs from one-edge-per-step expectations."""
    for s in range(1, max(len(trace_steps), len(expected)) + 1):
        actual = trace_steps[s - 1] if s <= len(trace_steps) else frozenset()
        want = frozenset({expected[s - 1]}) if s <= len(expected) else frozenset()
        if actual != want:
            return (s, want, actual)
    return None


def verify_sequential(
    cert: SequentialCertificate, max_tuples: int | None = None
) -> VerificationReport:
    """Replay a certificate and check its three defining properties.

    (i) the graph infects exactly ``sequence[i]`` at step i and then
    halts; (ii) the graph minus the ignition edge is stationary;
    (iii) swapping the ignition edge for the last sequence edge infects
    the sequence in exact reverse order.

    Structural inconsistencies raise :class:`CertificateError` at
    certificate construction time and are therefore never reported
    here; the fast engine is cross-checked against the naive one on
    small inputs and any mismatch raises :class:`EngineDisagreement`.
    """
    g = cert.graph
    small = comb(g.n, g.r + 1) <= NAIVE_CROSS_CHECK_LIMIT

    forward = run_fast(g, max_tuples=max_tuples)
    if small and run_naive(g).trace != forward.trace:
        raise EngineDisagreement("fast and naive engines diverge on the forward replay")
    divergence = _compare_to_sequence(forward.trace.steps, list(cert.sequence[1:]))
    property_i = divergence is None and forward.running_time == cert.predicted_t

    property_ii = not step(g.without(cert.ignition))

    reverse_start = g.without(cert.ignition).with_edges([cert.sequence[-1]])
    reverse = run_fast(reverse_start, max_tuples=max_tuples)
    expected_reverse = [cert.sequence[cert.predicted_t - i] for i in range(1, cert.predicted_t + 1)]
    reverse_divergence = _compare_to_sequence(reverse.trace.steps, expected_reverse)
    property_iii = reverse_divergence is None

    return VerificationReport(
        property_i=property_i,
        property_ii=property_ii,
        property_iii=property_iii,
        first_divergence=divergence if divergence is not None else reverse_divergence,
        measured_t_forward=forward.running_time,
        measured_t_reverse=reverse.running_time,
    )


def _tuples_meeting(g: Hypergraph) -> list[tuple[int, ...]]:
    out: set[tuple[int, ...]] = set()
    for e in g.sorted_edges:
        out.update(supersets(e, g.n, g.r + 1))
    return sorted(out)


def check_density(g: Hypergraph) -> tuple[int, tuple[int, ...] | None]:
    """Maximum spanned-facet count over (r+1)-tuples meeting the graph.

    Returns the maximum together with the lexicographically smallest
    witness tuple attaining it (None on an empty graph).
    """
    best = 0
    witness: tuple[int, ...] | None = None
    for t in _tuples_meeting(g):
        count = sum(1 for f in facets(t) if f in g)
        if count > best:
            best, witness = count, t
    return best, witness


def clique_census(g: Hypergraph) -> frozenset[tuple[int, ...]]:
    """All (r+1)-tuples whose r+1 facets all lie in the graph."""
    return frozenset(
        t for t in _tuples_meeting(g) if all(f in g for f in facets(t))
    )


@dataclass(frozen=True)
class BruteForceResult:
    """Exact maximum over the exhaustive initial-graph search."""

    max_t: int
    witness: Hypergraph
    searched: int


# ---------------------------------------------------------------------------
# mask-level engines for the exhaustive scan


def _mask_tables(r: int, n: int):
    """Canonical edge list, per-tuple facet masks and per-edge tuple indices."""
    edges = list(itertools.combinations(range(n), r))
    index = {e: i for i, e in enumerate(edges)}
    tuple_masks: list[int] = []
    edge_tuples: list[list[int]] = [[] for _ in edges]
    for ti, t in enumerate(itertools.combinations(range(n), r + 1)):
        fac = [index[f] for f in itertools.combinations(t, r)]
        tuple_masks.append(sum(1 << i for i in fac))
        for fi in fac:
            edge_tuples[fi].append(ti)
    return edges, tuple_masks, edge_tuples


def _mask_naive_steps(mask: int, tuple_masks: list[int], r: int) -> list[int]:
    """Synchronous replay on bitmasks: newly infected mask per step.

    Each generation sweeps every tuple mask and recounts its present
    facets; nothing is kept between generations or instances.
    """
    out: list[int] = []
    m = mask
    while True:
        new = 0
        for fm in tuple_masks:
            if (fm & m).bit_count() == r:
                new |= fm & ~m
        if not new:
            return out
        out.append(new)
        m |= new


def _mask_fast_steps(
    mask: int, tuple_masks: list[int], edge_tuples: list[list[int]], r: int
) -> list[int]:
    """Counter replay on bitmasks by frontier levels: newly infected mask per step.

    Each edge of a level increments its tuples' counters; a tuple whose
    counter reaches r (all but one of its r+1 facets infected) adds its
    uninfected facet to the next level.
    """
    out: list[int] = []
    counts = [0] * len(tuple_masks)
    infected = frontier = mask
    while frontier:
        new = 0
        while frontier:
            low = frontier & -frontier
            frontier ^= low
            for ti in edge_tuples[low.bit_length() - 1]:
                counts[ti] += 1
                if counts[ti] == r:
                    new |= tuple_masks[ti] & ~infected
        if new:
            out.append(new)
        infected |= new
        frontier = new
    return out


def _scan_masks(args: tuple[int, int, int, int]) -> tuple[int, int]:
    """Evaluate masks in [lo, hi); return (local max T, smallest mask attaining it).

    Every instance runs through both mask engines; a mismatch raises.
    """
    r, n, lo, hi = args
    _, tuple_masks, edge_tuples = _mask_tables(r, n)
    best_t, best_mask = -1, -1
    for mask in range(lo, hi):
        chain = _mask_naive_steps(mask, tuple_masks, r)
        fast = _mask_fast_steps(mask, tuple_masks, edge_tuples, r)
        if chain != fast:
            raise EngineDisagreement(f"mask engines diverge on mask {mask}")
        if len(chain) > best_t:
            best_t, best_mask = len(chain), mask
    return best_t, best_mask


def brute_force_max_time(
    r: int, n: int, jobs: int = 1, cap: int = DEFAULT_EDGE_CAP
) -> BruteForceResult:
    """Exact maximum running time over all 2^C(n,r) initial graphs.

    Masks are enumerated in ascending numeric order over the canonical
    (lexicographic) edge list; ties resolve to the smallest mask.  With
    jobs > 1 the mask space is split into contiguous ranges whose local
    results merge by (max T, then smallest mask), so the outcome is
    independent of the worker count.
    """
    if r < 2:
        raise ValueError(f"r must be >= 2, got {r}")
    if n < r:
        raise ValueError(f"n must be >= r, got n={n}, r={r}")
    if jobs < 1:
        raise ValueError(f"jobs must be >= 1, got {jobs}")
    num_edges = comb(n, r)
    if num_edges > cap:
        raise SearchCapExceeded(
            f"C({n},{r}) = {num_edges} exceeds the cap of {cap} edges "
            f"(2^{num_edges} initial graphs)"
        )
    total = 1 << num_edges
    bounds = [total * i // jobs for i in range(jobs + 1)]
    ranges = [
        (r, n, bounds[i], bounds[i + 1])
        for i in range(jobs)
        if bounds[i] < bounds[i + 1]
    ]
    if jobs == 1:
        results = [_scan_masks(ranges[0])]
    else:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            results = list(pool.map(_scan_masks, ranges))
    best_t, best_mask = -1, -1
    for t, mask in results:
        if t > best_t or (t == best_t and mask < best_mask):
            best_t, best_mask = t, mask
    edges = list(itertools.combinations(range(n), r))
    witness_edges = [edges[i] for i in range(num_edges) if best_mask >> i & 1]
    return BruteForceResult(
        max_t=best_t,
        witness=Hypergraph.from_edges(n, r, witness_edges),
        searched=total,
    )
