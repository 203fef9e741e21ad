"""Exact simulation of clique-completion bootstrap percolation.

An uninfected r-edge becomes infected when it is the unique missing
r-subset of some m-vertex tuple (m = r+1 by default: the missing facet
of an (r+1)-clique).  Steps are synchronous: all edges infectable from
the current graph appear in the same generation.

Two engines produce identical per-step traces:

* :func:`run_naive` re-checks the infection condition from scratch each
  generation, restricting candidate tuples to supersets of the previous
  generation's new edges (sound because an edge infectable at step i+1
  but not at step i must share a tuple with a step-i edge).
* :func:`run_fast` advances frontier levels on link masks: one int per
  (r-1)-set S, with bit v set when S | {v} is infected, so a few
  big-int ANDs decide every tuple through a frontier edge at once.

The two share no update code: :func:`run_naive` recounts the tuples
that :func:`core.supersets` enumerates, :func:`run_fast` reads link
masks.

:func:`step` is the definitional single-generation sweep over all
C(n, m) tuples; it is the slow reference the other two are tested
against.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb

from .core import Edge, Hypergraph, supersets

__all__ = [
    "InfectionTrace",
    "RunResult",
    "TupleBudgetExceeded",
    "DEFAULT_MAX_TUPLES",
    "step",
    "run_naive",
    "run_fast",
    "is_stationary",
]

DEFAULT_MAX_TUPLES = 10**8


class TupleBudgetExceeded(RuntimeError):
    """More distinct m-tuples meet the fast engine's infected graph than the cap allows."""


@dataclass(frozen=True)
class InfectionTrace:
    """Newly infected edge sets per step; ``steps[i]`` is generation i+1."""

    steps: tuple[frozenset[Edge], ...]

    def __post_init__(self) -> None:
        for i, s in enumerate(self.steps):
            if not s:
                raise ValueError(f"empty infection set at step {i + 1}")

    def __len__(self) -> int:
        return len(self.steps)

    def at(self, step: int) -> frozenset[Edge]:
        """Edges infected at the given 1-based step."""
        if not 1 <= step <= len(self.steps):
            raise IndexError(f"step must be in [1, {len(self.steps)}], got {step}")
        return self.steps[step - 1]

    def step_map(self) -> dict[Edge, int]:
        """Map each traced edge to its 1-based infection step."""
        out: dict[Edge, int] = {}
        for i, s in enumerate(self.steps):
            for e in s:
                out[e] = i + 1
        return out

    def all_edges(self) -> frozenset[Edge]:
        out: set[Edge] = set()
        for s in self.steps:
            out |= s
        return frozenset(out)


@dataclass(frozen=True)
class RunResult:
    """Outcome of one bootstrap run: final graph, trace, and time to stationarity."""

    final_graph: Hypergraph
    trace: InfectionTrace
    running_time: int

    def step_map(self) -> dict[Edge, int]:
        return self.trace.step_map()


def _check_m(g: Hypergraph, m: int | None) -> int:
    if m is None:
        return g.r + 1
    if m < g.r + 1:
        raise ValueError(f"clique size m must be >= r+1 = {g.r + 1}, got {m}")
    return m


def _unique_missing(t: tuple[int, ...], r: int, present: frozenset[Edge] | set[Edge]) -> Edge | None:
    """The single r-subset of t absent from ``present``, or None."""
    missing: Edge | None = None
    for f in itertools.combinations(t, r):
        if f not in present:
            if missing is not None:
                return None
            missing = f
    return missing


def step(g: Hypergraph, m: int | None = None) -> frozenset[Edge]:
    """One synchronous generation: every edge infectable from ``g``.

    Full sweep over all C(n, m) vertex tuples; definitional but slow.
    """
    m = _check_m(g, m)
    new: set[Edge] = set()
    for t in itertools.combinations(range(g.n), m):
        e = _unique_missing(t, g.r, g.edges)
        if e is not None:
            new.add(e)
    return frozenset(new)


def is_stationary(g: Hypergraph, m: int | None = None) -> bool:
    """True iff no edge is infectable from ``g``."""
    return not step(g, m)


def _result(g0: Hypergraph, steps: list[frozenset[Edge]]) -> RunResult:
    trace = InfectionTrace(steps=tuple(steps))
    # the engines add only canonical tuples of g0's vertices to g0's edges
    final = Hypergraph._trusted(g0.n, g0.r, g0.edges | trace.all_edges())
    return RunResult(final_graph=final, trace=trace, running_time=len(steps))


def run_naive(g0: Hypergraph, m: int | None = None) -> RunResult:
    """Iterate synchronous generations until stationary.

    Candidate tuples per generation are the supersets of the previous
    generation's newly infected edges (all of g0 for the first), each
    re-checked against the current edge set; no cross-step bookkeeping.
    """
    m = _check_m(g0, m)
    r = g0.r
    infected = set(g0.edges)
    steps: list[frozenset[Edge]] = []
    frontier: set[Edge] | frozenset[Edge] = g0.edges
    while frontier:
        candidates: set[tuple[int, ...]] = set()
        for e in frontier:
            candidates.update(supersets(e, g0.n, m))
        new: set[Edge] = set()
        for t in candidates:
            e = _unique_missing(t, r, infected)
            if e is not None:
                new.add(e)
        if not new:
            break
        infected |= new
        steps.append(frozenset(new))
        frontier = new
    return _result(g0, steps)


def _bits(x: int) -> list[int]:
    """The set bits of ``x`` as single-bit ints, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low)
        x ^= low
    return out


def _vertices(x: int) -> Edge:
    """The sorted vertex ids of a vertex bitmask."""
    return tuple(b.bit_length() - 1 for b in _bits(x))


def _over_budget(budget: int) -> TupleBudgetExceeded:
    return TupleBudgetExceeded(
        f"more than {budget} distinct m-tuples meet the infected graph; raise --max-tuples"
    )


def run_fast(
    g0: Hypergraph,
    m: int | None = None,
    max_tuples: int | None = None,
) -> RunResult:
    """Link-mask engine; identical RunResult to :func:`run_naive` on every input.

    Edges are vertex bitmasks, and ``link[S]``, for an (r-1)-set S, has
    bit v set when S | {v} is infected.  The m-tuples through an edge e
    are e plus m - r added vertices, taken in ascending order.  With U
    the edge and the vertices added so far, the facets a next vertex v
    brings are S | {v} for the (r-1)-subsets S of U, so the planes
    ``link[S]`` decide them for every v at once: v is kept while at most
    one facet of the tuple is missing, and the last vertex fires that
    one facet.  Level 0 is the initial edge set and level i the edges
    infected at step i; the facets fired through the edges of a level
    form the next level, and enter ``link`` only after it, so steps stay
    synchronous.  The run ends at the first empty level.

    ``max_tuples`` caps the number of distinct m-tuples meeting the
    infected graph, counted as each edge enters ``link``; a negative cap
    raises ValueError.
    """
    m = _check_m(g0, m)
    budget = DEFAULT_MAX_TUPLES if max_tuples is None else max_tuples
    if budget < 0:
        raise ValueError(f"max_tuples must be >= 0, got {budget}")
    n, r = g0.n, g0.r
    if not g0.edges:
        return _result(g0, [])
    if comb(n - r, m - r) > budget:
        # the first edge alone meets that many tuples; no n-bit mask is built
        raise _over_budget(budget)
    full = (1 << n) - 1
    link: dict[int, int] = {}

    def subsets(e: int) -> list[list[int]]:
        """subs[j]: the j-subsets of e, for every j >= r - (m - r)."""
        ebits = _bits(e)
        lo = max(2 * r - m, 0)  # levels below lo are never read
        return (
            [[]] * lo
            + [[sum(c) for c in itertools.combinations(ebits, j)] for j in range(lo, r - 1)]
            + [[e ^ b for b in ebits]]
        )

    def grow(
        subs: list[list[int]], vals: list[int], b: int, k: int
    ) -> tuple[list[list[int]], list[int]]:
        """subs and planes of U | {b} from those of U, with k - 1 vertices left to add."""
        out = [
            (subs[j] + [x | b for x in subs[j - 1]] if j else subs[0]) if j > r - k else []
            for j in range(r)
        ]
        return out, vals + [link.get(x, 0) for x in out[r - 1][len(vals):]]

    def count(subs: list[list[int]], vals: list[int], cand: int, k: int) -> int:
        """Tuples U | A, A k vertices from ``cand``, with no infected facet meeting A."""
        for v in vals:
            cand &= ~v
        if k == 1:
            return cand.bit_count()
        return sum(
            count(*grow(subs, vals, b, k), cand & -(b << 1), k - 1) for b in _bits(cand)
        )

    def fire(
        subs: list[list[int]],
        vals: list[int],
        cand: int,
        k: int,
        missing: int | None,
        new: set[int],
    ) -> None:
        """Add to ``new`` the facets fired by tuples U | A, A k vertices from ``cand``.

        ``missing`` is the one uninfected facet inside U, if any.
        """
        keys = subs[r - 1]
        prefix = [cand]  # prefix[i]: cand and the first i planes
        for v in vals:
            prefix.append(prefix[-1] & v)
        all_in = prefix[-1]
        if missing is not None:
            if k == 1:
                if all_in:
                    new.add(missing)
                return
            for b in _bits(all_in):
                fire(*grow(subs, vals, b, k), all_in & -(b << 1), k - 1, missing, new)
            return
        one = []  # (i, the vertices of cand in every plane but plane i and not in it)
        suffix = -1
        for i in reversed(range(len(vals))):
            plane = prefix[i] & suffix & ~vals[i]
            if plane:
                one.append((i, plane))
            suffix &= vals[i]
        if k == 1:
            for i, plane in one:
                new.update(keys[i] | b for b in _bits(plane))
            return
        at_most_one = all_in
        for _, plane in one:
            at_most_one |= plane
        for b in _bits(all_in):
            fire(*grow(subs, vals, b, k), at_most_one & -(b << 1), k - 1, None, new)
        for i, plane in one:
            for b in _bits(plane):
                fire(*grow(subs, vals, b, k), all_in & -(b << 1), k - 1, keys[i] | b, new)

    touched = 0

    def add(edges) -> list[tuple[int, list[list[int]]]]:
        """Count the tuples each edge newly meets, then enter it in ``link``."""
        nonlocal touched
        level = []
        for f in edges:
            subs = subsets(f)
            vals = [link.get(x, 0) for x in subs[r - 1]]
            touched += count(subs, vals, full & ~f, m - r)
            if touched > budget:
                raise _over_budget(budget)
            for x, v in zip(subs[r - 1], vals):
                link[x] = v | (f ^ x)
            level.append((f, subs))
        return level

    level = add(sum(1 << v for v in e) for e in g0.edges)
    steps: list[set[int]] = []
    while True:
        new: set[int] = set()
        for e, subs in level:
            fire(subs, [link.get(x, 0) for x in subs[r - 1]], full & ~e, m - r, None, new)
        if not new:
            break
        steps.append(new)
        level = add(new)
    return _result(g0, [frozenset(map(_vertices, s)) for s in steps])
