"""Exact simulation of clique-completion bootstrap percolation.

An uninfected r-edge becomes infected when it is the unique missing
r-subset of some m-vertex tuple (m = r+1 by default: the missing facet
of an (r+1)-clique).  Steps are synchronous: all edges infectable from
the current graph appear in the same generation.

Two engines produce identical per-step traces, each returned in a
:class:`RunResult` with the graph it started from; the final graph and
the running time T are read off the two:

* :func:`run_naive` recounts, each generation, whichever of three sides
  has the fewest tuples: the m-tuples through the previous generation's
  new edges (sound because an edge infectable at step i+1 but not at
  step i must share a tuple with a step-i edge), those through the
  uninfected edges (sound because a new edge is uninfected and lies in
  the tuple that fires it), listed afresh when taken, or all C(n, m)
  tuples.  It keeps only the infected set and the frontier, and streams
  the tuples: ``_supersets`` builds each one sorted and ``_recount``
  scans its facets at once, so no candidate set is kept; a tuple
  reached from two edges of a side is recounted twice, to the same
  result.
* :func:`run_fast` advances frontier levels on link masks: one int per
  (r-1)-set S, with bit v set when S | {v} is infected, so a few
  big-int ANDs decide every tuple through a frontier edge at once.  A
  level is a collection of plain edge tuples: each edge's bits and
  (r-1)-set masks are derived where they are used and dropped with it.
  The seed graph is streamed twice, into the masks and as the first
  level; only a generation's new edges, the step itself, are kept.

The two share no update code.  :func:`step`, the definitional sweep of
``_recount`` over all C(n, m) tuples, is the slow reference both are
tested against.  ``verify`` recounts with ``_naive_generations``,
replays several starts from one seeded ``_LinkState`` and reads the
planes of another for density and census.  ``_budget``
refuses, for both engines, a graph one of whose edges alone meets more
m-tuples than the cap, and ``_idle`` answers at once an empty graph or
one too sparse to fire the one m-tuple of m >= n vertices.  The link
masks count the tuples meeting the graph only when C(n, m) exceeds the
cap: no graph meets more, so a larger cap cannot bind.  Past a cap
both raise TupleBudgetExceeded("more than N distinct m-tuples meet the
infected graph"), naming no option: the CLI adds which one to change.
:func:`run_naive` also stops before a generation whose recount would
take the tuples it has recounted in all past DEFAULT_MAX_TUPLES ("the
naive engine's recounts would pass N m-tuples"); verify's recounts
carry no such bound, since no option could raise it.
"""

from __future__ import annotations

import copy
import itertools
from collections.abc import Collection, Iterable, Iterator
from dataclasses import dataclass
from math import comb

from .core import Edge, Hypergraph, _is_int

__all__ = [
    "InfectionTrace",
    "RunResult",
    "TupleBudgetExceeded",
    "DEFAULT_MAX_TUPLES",
    "step",
    "run_naive",
    "run_fast",
]

DEFAULT_MAX_TUPLES = 10**8


class TupleBudgetExceeded(RuntimeError):
    """More m-tuples than a cap allows meet the infected graph, or the naive engine recounts."""


@dataclass(frozen=True)
class InfectionTrace:
    """Newly infected edges per step, a tuple of non-empty frozensets; ``steps[i]`` is step i+1."""

    steps: tuple[frozenset[Edge], ...]

    def __post_init__(self) -> None:
        if not isinstance(self.steps, tuple):
            raise ValueError(f"steps must be a tuple, got {type(self.steps).__name__}")
        for i, s in enumerate(self.steps, 1):
            if not (isinstance(s, frozenset) and s):
                raise ValueError(f"step {i} must be a non-empty frozenset, got {s!r:.60}")

    def __len__(self) -> int:
        return len(self.steps)


@dataclass(frozen=True)
class RunResult:
    """One bootstrap run: the graph the engine was given and its trace, from which the
    final graph (rebuilt on each read: bind it once) and the running time T are read.
    The trace is trusted to hold canonical edges on the graph's vertices, as an engine's does."""

    initial_graph: Hypergraph
    trace: InfectionTrace

    @property
    def final_graph(self) -> Hypergraph:
        g, steps = self.initial_graph, self.trace.steps
        return Hypergraph._trusted(g.n, g.r, g.edges.union(*steps) if steps else g.edges)

    @property
    def running_time(self) -> int:
        return len(self.trace)


def _check_m(g: Hypergraph, m: int | None) -> int:
    m = g.r + 1 if m is None else m
    if not _is_int(m):
        raise ValueError(f"clique size m must be an int, got {m!r}")
    if m < g.r + 1:
        raise ValueError(f"clique size m must be >= r+1 = {g.r + 1}, got {m}")
    return m


def _recount(tuples: Iterable[tuple[int, ...]], r: int, present: Collection[Edge]) -> set[Edge]:
    """Every r-set that is the only r-subset of some tuple missing from ``present``."""
    new: set[Edge] = set()
    for t in tuples:
        missing: Edge | None = None
        for f in itertools.combinations(t, r):
            if f not in present:
                if missing is not None:
                    break
                missing = f
        else:
            if missing is not None:
                new.add(missing)
    return new


def _supersets(e: Edge, n: int, m: int) -> Iterator[tuple[int, ...]]:
    """All sorted m-vertex tuples over [0, n) containing the canonical edge ``e``, with
    m > len(e), unchecked: in lex order of the added vertex set (for m = len(e) + 1, the
    n - r single-vertex extensions, each yielded as it is built).  No tuple is sorted."""
    return _one_more(e, 0, n) if m == len(e) + 1 else iter(_inserted(e, 0, n, m - len(e)))


def _one_more(tail: Edge, lo: int, n: int) -> Iterator[tuple[int, ...]]:
    """``tail`` with one vertex of [lo, n) outside it inserted at its gap, in vertex order."""
    for p, hi in enumerate(tail + (n,)):
        pre, suf = tail[:p], tail[p:]
        for v in range(lo, hi):
            yield pre + (v,) + suf
        lo = hi + 1


def _inserted(tail: Edge, lo: int, n: int, k: int) -> list[tuple[int, ...]]:
    """``tail`` with k vertices of [lo, n) outside it inserted at their gaps, in lex order
    of the k; every vertex of ``tail`` is at least ``lo``.  For k > 1 and a first added v
    before tail[p], the rest are the last C(|(v, n) - tail[p:]|, k - 1) tuples of
    ``_inserted(tail[p:], lo + 1, n, k - 1)``: those adding vertices above v only."""
    if k == 1:
        return list(_one_more(tail, lo, n))
    out: list[tuple[int, ...]] = []
    for p, hi in enumerate(tail + (n,)):
        if lo < hi:
            pre, suf = tail[:p], tail[p:]
            rest = _inserted(suf, lo + 1, n, k - 1)
            for v in range(lo, hi):
                head = pre + (v,)
                out += [head + q for q in rest[len(rest) - comb(n - v - 1 - len(suf), k - 1):]]
        lo = hi + 1
    return out


def step(g: Hypergraph, m: int | None = None) -> frozenset[Edge]:
    """One synchronous generation: every edge infectable from ``g``.

    Full sweep over all C(n, m) vertex tuples; definitional but slow.
    """
    m = _check_m(g, m)
    return frozenset(_recount(itertools.combinations(range(g.n), m), g.r, g.edges))


def _naive_generations(
    n: int, r: int, m: int, infected: set[Edge] | frozenset[Edge], frontier: Collection[Edge],
    budget: int | None = None,
) -> Iterator[frozenset[Edge]]:
    """Yield each generation's new edges, added to ``infected`` (after the generation, so
    a frozenset, untouched, serves a caller that reads only the first), recounting the
    side with the fewest tuples: the m-tuples through the previous generation's
    edges (first ``frontier``), those through the uninfected edges (listed afresh
    when taken), or all C(n, m) tuples.  A first ``frontier``
    smaller than ``infected`` is exact when every m-tuple that fires first
    contains one of its edges.  Given a ``budget``, a generation whose recount
    would take the tuples recounted so far past it raises TupleBudgetExceeded."""
    if not frontier or m > n:  # nothing fires; C(n, r) alone takes seconds at huge n and r
        return
    total, sweep, per_edge = comb(n, r), comb(n, m), comb(n - r, m - r)
    recounted = 0
    while frontier:
        fewer = min(len(frontier), total - len(infected))
        recounted += min(sweep, fewer * per_edge)  # the side chosen below has that many
        if budget is not None and recounted > budget:
            raise TupleBudgetExceeded(f"the naive engine's recounts would pass {budget} m-tuples")
        if sweep <= fewer * per_edge:
            tuples = itertools.combinations(range(n), m)
        else:
            side = frontier
            if fewer < len(frontier):  # used up by _recount before infected changes
                side = (e for e in itertools.combinations(range(n), r) if e not in infected)
            tuples = itertools.chain.from_iterable(_supersets(e, n, m) for e in side)
        new = _recount(tuples, r, infected)
        if not new:
            return
        infected |= new
        yield frozenset(new)
        frontier = new


def run_naive(g0: Hypergraph, m: int | None = None) -> RunResult:
    """Iterate synchronous generations until stationary, recounting the cheapest side each time.

    The first side is all of g0.  A graph is refused as :func:`run_fast` refuses it under the
    default cap: when one edge alone meets more than DEFAULT_MAX_TUPLES m-tuples.  The run
    stops with TupleBudgetExceeded before a generation that would take the tuples it has
    recounted in all past DEFAULT_MAX_TUPLES.
    """
    m = _check_m(g0, m)
    steps = _naive_generations(g0.n, g0.r, m, set(g0.edges), g0.edges, _budget(g0, m, None))
    return RunResult(g0, InfectionTrace(() if _idle(g0, m) else tuple(steps)))


def _bits(x: int) -> list[int]:
    """The set bits of ``x`` as single-bit ints, lowest first."""
    out = []
    while x:
        low = x & -x
        out.append(low)
        x ^= low
    return out


def _vertices(x: int) -> Edge:
    """The sorted vertex ids of a vertex bitmask, in one loop: :meth:`_LinkState.fire`
    converts every fired edge with it, and a generator over ``_bits`` costs more."""
    out = []
    while x:
        low = x & -x
        out.append(low.bit_length() - 1)
        x ^= low
    return tuple(out)


def _over_budget(budget: int) -> TupleBudgetExceeded:
    return TupleBudgetExceeded(f"more than {budget} distinct m-tuples meet the infected graph")


def _comb_over(n: int, k: int, cap: int) -> bool:
    """Whether C(n, k) > cap, from C(n, 0), C(n, 1), ... up to C(n, min(k, n - k)), which
    never decrease, stopping at the first term past ``cap``: as C(n, i) >= 2^i there, that
    takes about log2(cap) terms at most, however large n and k are."""
    c = 1 if 0 <= k <= n else 0
    for i in range(min(k, n - k)):
        c = c * (n - i) // (i + 1)
        if c > cap:
            break
    return c > cap


def _idle(g: Hypergraph, m: int) -> bool:
    """Whether nothing can fire, seen without a search: ``g`` is empty, or m >= n, so there
    is one m-tuple at most (on a vertex set that may be too large to list), and firing it
    needs C(m, r) - 1 infected facets, more than ``g`` has edges."""
    return not g.edges or m >= g.n and _comb_over(m, g.r, len(g.edges) + 1)


def _budget(g: Hypergraph, m: int, max_tuples: int | None) -> int:
    """The tuple cap, DEFAULT_MAX_TUPLES unless given, checked against ``g`` up front."""
    budget = DEFAULT_MAX_TUPLES if max_tuples is None else max_tuples
    if not _is_int(budget):
        raise ValueError(f"max_tuples must be an int, got {budget!r}")
    if budget < 0:
        raise ValueError(f"max_tuples must be >= 0, got {budget}")
    if g.edges and _comb_over(g.n - g.r, m - g.r, budget):
        # any one edge meets C(n - r, m - r) tuples; nothing of size n is built
        raise _over_budget(budget)
    return budget


class _LinkState:
    """Link masks of an infected graph that grows one level at a time.

    ``link[S]``, for an (r-1)-set S, has bit v set when S | {v} is
    infected.  A level is an iterable of edge tuples; :meth:`add` and
    :meth:`fire` derive each edge's bits and masks as they reach it, so
    a seed graph is streamed to both.  The m-tuples through an edge
    e are e plus m - r added vertices, taken in ascending order.  With U
    the edge and the vertices added so far, the facets a next vertex v
    brings are S | {v} for the (r-1)-subsets S of U, so the planes
    ``link[S]`` decide them for every v at once: v is kept while at most
    one facet of the tuple is missing, and the last vertex fires that
    one facet; a search ends once fewer vertices are left than it needs.
    One body runs both states of a search, no facet missing yet or one
    known missing facet, so every clique size m >= r+1 takes one path.
    A search carries U as ``bits``, its vertices as single-bit ints, and
    ``keys``, the flat list of U's (r-1)-subsets, with their planes
    ``vals``.  For r >= 2 a vertex firing with e lies in e's first or last
    plane, as it misses one at most, so no mask is wider than the edges'
    vertices; only r = 1, whose one plane is the infected set, takes every
    vertex, and only in :meth:`fire`.  At most C(n, m) tuples meet any
    graph, so only when that exceeds ``budget`` does :meth:`add` count
    them: ``touched``, the distinct m-tuples meeting the graph, and
    ``covered`` stay 0 otherwise, and past ``budget`` :meth:`add` raises
    TupleBudgetExceeded.
    """

    def __init__(self, n: int, r: int, m: int, budget: int) -> None:
        self.n, self.r, self.m, self.budget = n, r, m, budget
        self.link: dict[int, int] = {}
        self.counting = _comb_over(n, m, budget)  # whether the cap can bind
        self.touched = 0
        self.covered = 0  # the vertices of the infected edges, while counting

    def copy(self) -> _LinkState:
        other = copy.copy(self)
        other.link = dict(self.link)
        return other

    def add(self, edges: Iterable[Edge]) -> None:
        """Enter each edge in ``link``; if the cap can bind, count first the tuples it
        newly meets."""
        link, counting = self.link, self.counting
        n, k, count = self.n, self.m - self.r, self._count
        for e in edges:
            bits = [1 << v for v in e]
            f = sum(bits)
            if counting:
                covered = self.covered = self.covered | f
                keys = [f ^ b for b in bits]
                vals = [link.get(x, 0) for x in keys]
                self.touched += count(bits, keys, vals, covered & ~f, n - covered.bit_count(), k)
                if self.touched > self.budget:
                    raise _over_budget(self.budget)
            for b in bits:
                x = f ^ b
                link[x] = link.get(x, 0) | b

    def fire(self, level: Iterable[Edge]) -> frozenset[Edge]:
        """The next level: the uninfected facets that m-tuples through ``level`` fire.

        ``level`` is in ``link``.  ``new[S]`` gathers each v with S | {v} fired; one facet
        can be gathered under several S, so its mask is kept once before it is converted."""
        link, k, fire = self.link, self.m - self.r, self._fire
        every = (1 << self.n) - 1 if self.r == 1 else 0  # r = 1: the one plane is the infected set
        new: dict[int, int] = {}
        for e in level:
            bits = [1 << v for v in e]
            f = sum(bits)
            keys = [f ^ b for b in bits]
            vals = [link[x] for x in keys]
            fire(bits, keys, vals, (every | vals[0] | vals[-1]) & ~f, k, None, new)
        fired = {key | b for key, plane in new.items() for b in _bits(plane)}
        return frozenset(map(_vertices, fired))

    def run(self, edges: Collection[Edge], first: Iterable[Edge] = ()) -> list[frozenset[Edge]]:
        """Add ``edges``; fire levels from them and ``first`` (in ``link``) until one is empty."""
        self.add(edges)
        steps, level = [], itertools.chain(first, edges)
        while level := self.fire(level):
            steps.append(level)
            self.add(level)
        return steps

    def _grow(self, bits: list[int], keys: list[int], vals: list[int], b: int) -> tuple:
        """bits, keys and planes of U | {b}: b joins each (r-2)-subset of U (none when r = 1)."""
        new = [b + sum(c) for c in itertools.combinations(bits, self.r - 2)] if self.r > 1 else []
        return bits + [b], keys + new, vals + [self.link.get(x, 0) for x in new]

    def _count(self, bits: list[int], keys: list[int], vals: list[int], cand: int, free: int,
               k: int) -> int:
        """Tuples U | A, A k of ``cand`` and ``free`` others, with no infected facet meeting A.

        ``cand`` lies in ``covered``, as every plane does; the ``free`` candidates lie in no
        infected facet, so only ``cand`` is branched on, least first: A avoids it in
        comb(free, k) ways, or its least vertex b joins U, with the other k - 1 above b or free.
        """
        for v in vals:
            cand &= ~v
        if k == 1:
            return cand.bit_count() + free
        later = _bits(cand)
        return comb(free, k) + sum(  # b needs k - 1 others above it or free
            self._count(*self._grow(bits, keys, vals, b), cand & -(b << 1), free, k - 1)
            for b in later[: max(len(later) + free - k + 1, 0)]
        )

    def _fire(
        self, bits: list[int], keys: list[int], vals: list[int], cand: int, k: int,
        missing: int | None, new: dict[int, int],
    ) -> None:
        """Add to ``new`` the facets fired by tuples U | A, A k vertices from ``cand``.

        ``missing`` is the one uninfected facet inside U, if any.  Until there is one, a
        vertex b may miss one plane of U, and then ``key | b``, with ``key`` that plane's
        (r-1)-set, is missing from here on; after that every vertex lies in every plane.
        """
        if cand.bit_count() < k:
            return
        prefix = [cand]  # prefix[i]: cand and the first i planes
        for v in vals:
            prefix.append(prefix[-1] & v)
        all_in = at_most_one = prefix[-1]
        one = []  # (key, the vertices of cand in every plane but key's and not in it)
        if missing is None:
            suffix = -1
            for i in reversed(range(len(vals))):
                plane = prefix[i] & suffix & ~vals[i]
                if plane:
                    one.append((keys[i], plane))
                    at_most_one |= plane
                suffix &= vals[i]
        elif k == 1 and all_in:  # U's missing facet fires, keyed by all but its lowest vertex
            one.append((missing & (missing - 1), missing & -missing))
        if k == 1:
            for key, plane in one:
                new[key] = new.get(key, 0) | plane
            return
        fire, grow = self._fire, self._grow
        for b in _bits(all_in):
            fire(*grow(bits, keys, vals, b), at_most_one & -(b << 1), k - 1, missing, new)
        for key, plane in one:
            for b in _bits(plane):
                fire(*grow(bits, keys, vals, b), all_in & -(b << 1), k - 1, key | b, new)


def run_fast(g0: Hypergraph, m: int | None = None, max_tuples: int | None = None) -> RunResult:
    """Link-mask engine; identical RunResult to :func:`run_naive` on every input.

    Seeds a ``_LinkState`` with g0, then fires levels until one is empty.
    ``max_tuples`` caps the distinct m-tuples meeting the infected graph;
    a negative cap raises ValueError.
    """
    m = _check_m(g0, m)
    budget = _budget(g0, m, max_tuples)
    steps = () if _idle(g0, m) else _LinkState(g0.n, g0.r, m, budget).run(g0.edges)
    return RunResult(g0, InfectionTrace(tuple(steps)))
