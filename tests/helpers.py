"""Shared test helpers: a dumb reference replay and random instance generators."""

from __future__ import annotations

import itertools
import random

from bootperc import Edge, Hypergraph, step


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


def random_hypergraph(rng: random.Random, n: int, r: int, p: float) -> Hypergraph:
    """Each edge of the complete r-graph kept independently with probability p."""
    edges = [e for e in itertools.combinations(range(n), r) if rng.random() < p]
    return Hypergraph.from_edges(n, r, edges)


def forbid_revalidation(monkeypatch) -> None:
    """Make ``Hypergraph.__post_init__``, the public constructor's edge check, raise."""

    def refuse(self):
        raise AssertionError("Hypergraph.__post_init__ re-validated a graph")

    monkeypatch.setattr(Hypergraph, "__post_init__", refuse)
