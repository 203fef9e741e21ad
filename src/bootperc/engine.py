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
* :func:`run_fast` advances frontier levels: a lazily allocated
  counter per tuple counts its infected facets, and the edges of one
  level raise the counters that yield the next level.

Both enumerate candidate tuples with :func:`core.supersets`; they
differ only in the update rule (recount vs. counters).

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
    """The fast engine's lazy tuple-counter map outgrew the configured cap."""


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
    final = Hypergraph(n=g0.n, r=g0.r, edges=g0.edges | trace.all_edges())
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


def run_fast(
    g0: Hypergraph,
    m: int | None = None,
    max_tuples: int | None = None,
) -> RunResult:
    """Counter engine; identical RunResult to :func:`run_naive` on every input.

    Level 0 is the initial edge set and level i the edges infected at
    step i.  Each edge of a level increments a counter on every tuple
    containing it; a tuple whose counter reaches C(m, r) - 1 puts its
    one facet not yet infected into the next level.  The run ends at the
    first empty level.  ``max_tuples`` caps the number of distinct
    tuple counters; a negative cap raises ValueError.
    """
    m = _check_m(g0, m)
    budget = DEFAULT_MAX_TUPLES if max_tuples is None else max_tuples
    if budget < 0:
        raise ValueError(f"max_tuples must be >= 0, got {budget}")
    n, r = g0.n, g0.r
    threshold = comb(m, r) - 1
    infected = set(g0.edges)
    counters: dict[tuple[int, ...], int] = {}
    steps: list[frozenset[Edge]] = []
    frontier: set[Edge] | frozenset[Edge] = g0.edges
    while frontier:
        new: set[Edge] = set()
        for e in frontier:
            for t in supersets(e, n, m):
                c = counters.get(t, 0) + 1
                counters[t] = c
                if len(counters) > budget:
                    raise TupleBudgetExceeded(
                        f"more than {budget} active tuple counters; raise --max-tuples"
                    )
                if c == threshold:
                    for f in itertools.combinations(t, r):
                        if f not in infected:
                            new.add(f)
                            break
        if not new:
            break
        infected |= new
        steps.append(frozenset(new))
        frontier = new
    return _result(g0, steps)
