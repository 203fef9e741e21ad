import itertools
import os
import random
import subprocess
import sys
import tracemalloc
from math import comb
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootperc import (
    Hypergraph,
    InfectionTrace,
    TupleBudgetExceeded,
    build_base,
    build_full,
    check_density,
    clique_census,
    engine,
    full_running_time,
    predicted_base_edge,
    run_fast,
    run_naive,
    step,
    verify_sequential,
)
from bootperc.core import _supersets
from bootperc.engine import DEFAULT_MAX_TUPLES, _comb_over, _LinkState, _naive_generations

from helpers import (
    count_supersets,
    deadline,
    forbid_revalidation,
    iterate_step,
    peak_traced_bytes,
    random_hypergraph,
    reference_naive_generations,
    reference_step,
)


def near_complete(n: int, r: int) -> tuple[Hypergraph, tuple[int, ...]]:
    full = Hypergraph.complete(n, r)
    missing = full.sorted_edges[0]
    return full.without(missing), missing


class TestStep:
    def test_missing_facet_completes(self):
        g, missing = near_complete(4, 3)
        assert step(g) == {missing}

    def test_two_missing_facets_do_nothing(self):
        g = Hypergraph.from_edges(4, 3, [(0, 1, 2), (0, 1, 3)])
        assert step(g) == frozenset()

    def test_base_graph_first_infection(self):
        cert = build_base(2)
        first = predicted_base_edge(2, 1)
        assert first == (0, 6, 10)
        assert step(cert.graph) == {first}

    def test_does_not_mutate(self):
        g, _ = near_complete(4, 3)
        before = g.edges
        step(g)
        assert g.edges == before

    def test_larger_clique_size(self):
        # with m = n = 5 the single 5-tuple has 9 of its 10 triples present
        full = Hypergraph.complete(5, 3)
        g = full.without(full.sorted_edges[0])
        assert step(g, m=5) == {full.sorted_edges[0]}
        assert step(g, m=4) != frozenset()

    def test_m_below_r_plus_one_rejected(self):
        g = Hypergraph.complete(4, 3)
        with pytest.raises(ValueError):
            step(g, m=3)


class TestIsStationary:
    def test_empty(self):
        assert not step(Hypergraph(n=5, r=3, edges=frozenset()))

    def test_near_complete(self):
        g, _ = near_complete(4, 3)
        assert step(g)

    def test_base_without_ignition(self):
        cert = build_base(3)
        assert not step(cert.graph.without(cert.ignition))


class TestRunNaive:
    def test_empty_graph(self):
        res = run_naive(Hypergraph(n=6, r=3, edges=frozenset()))
        assert res.running_time == 0 and len(res.trace) == 0

    def test_recount_checks_no_edge_it_already_owns(self, monkeypatch):
        # every edge the recount extends is canonical already, so core._supersets takes
        # it unchecked: no edge goes through make_edge again
        g = random_hypergraph(random.Random(1), 30, 2, 0.06)
        fast = run_fast(g)

        def refuse(*args, **kwargs):
            raise AssertionError("the naive engine checked an edge again")

        monkeypatch.setattr("bootperc.core.make_edge", refuse)
        assert run_naive(g) == fast and fast.running_time > 1

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_base_minus_ignition_stationary(self, k):
        cert = build_base(k)
        assert run_naive(cert.graph.without(cert.ignition)).running_time == 0

    @pytest.mark.parametrize("k", [2, 3])
    def test_frontier_of_the_ignition_is_exact(self, k):
        cert = build_base(k)
        g = cert.graph
        got = list(_naive_generations(g.n, g.r, g.r + 1, set(g.edges), [cert.ignition]))
        assert got == list(run_naive(g).trace.steps)

    def test_base_one_edge_per_step(self):
        cert = build_base(2)
        res = run_naive(cert.graph)
        assert res.running_time == 12
        for i in range(1, 13):
            assert res.trace.at(i) == {cert.sequence[i]}

    def test_final_graph_is_union(self):
        g, missing = near_complete(4, 3)
        res = run_naive(g)
        assert res.final_graph.edges == g.edges | {missing}
        assert res.running_time == 1

    def test_recount_streams_without_a_candidate_set(self):
        # one generation's candidate tuples kept in a set peak near 11.5 MiB; streamed, under 1 MB
        g = random_hypergraph(random.Random(5), 100, 2, 0.03)
        tracemalloc.start()
        try:
            res = run_naive(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res == run_fast(g)
        assert peak < 2 * 10**6

    def test_supersets_of_one_edge_are_never_listed(self):
        # the n - 2 triangles through the one edge, listed at once, peak near 21 MB
        g = Hypergraph.from_edges(2 * 10**5, 2, [(0, 1)])
        tracemalloc.start()
        try:
            res = run_naive(g)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert res.running_time == 0
        assert peak < 10**6

    def test_total_recount_is_bounded(self):
        # each edge meets C(304, 3) = 4,637,504 6-tuples, under the cap, but the first
        # generation would recount 25 times that: unbounded, the run took over a minute
        g = Hypergraph.from_edges(307, 3, list(itertools.combinations(range(7), 3))[:25])
        assert comb(304, 3) <= DEFAULT_MAX_TUPLES < 25 * comb(304, 3)
        with deadline(1), pytest.raises(TupleBudgetExceeded, match="naive engine's recounts"):
            run_naive(g, m=6)

    def test_an_overrun_fails_its_own_test(self, tmp_path):
        # with the total bound lifted, the probe above recounts for over a minute; the alarm
        # often lands in a frame with no line number, and rendering that traceback ended the
        # whole run in INTERNALERROR, so an overrun fails its test with its message alone
        probe = tmp_path / "test_overrun.py"
        probe.write_text(
            "import itertools\n"
            "from bootperc import Hypergraph, engine, run_naive\n"
            "from helpers import deadline\n\n"
            "def test_unbounded_recount(monkeypatch):\n"
            "    monkeypatch.setattr(engine, 'DEFAULT_MAX_TUPLES', 10**12)\n"
            "    edges = list(itertools.combinations(range(7), 3))[:25]\n"
            "    with deadline(2):\n"
            "        run_naive(Hypergraph.from_edges(307, 3, edges), m=6)\n"
        )
        here = Path(__file__).resolve().parent
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([str(here.parent / "src"), str(here)])}
        out = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-p", "no:cacheprovider", str(probe)],
            capture_output=True, text=True, timeout=60, env=env, cwd=tmp_path,
        )
        assert "INTERNALERROR" not in out.stdout + out.stderr
        assert out.returncode == 1 and "1 failed" in out.stdout
        assert "still running after 2 s" in out.stdout and "Overran" not in out.stdout

    def test_recount_budget_counts_the_tuples_recounted(self, monkeypatch):
        # a budget of exactly the tuples the whole run recounts, on each side it takes (one
        # generation sweeps all C(100, 3)), lets it end; one less stops it
        g = random_hypergraph(random.Random(5), 100, 2, 0.03)
        recounted, recount = [0], engine._recount

        def counting(tuples, r, present):
            tuples = list(tuples)
            recounted[0] += len(tuples)
            return recount(tuples, r, present)

        monkeypatch.setattr(engine, "_recount", counting)
        steps = list(_naive_generations(g.n, g.r, 3, set(g.edges), g.edges))
        spent = recounted[0]
        assert len(steps) > 1 and spent > comb(100, 3)
        assert list(_naive_generations(g.n, g.r, 3, set(g.edges), g.edges, spent)) == steps
        with pytest.raises(TupleBudgetExceeded):
            list(_naive_generations(g.n, g.r, 3, set(g.edges), g.edges, spent - 1))

    def test_dense_generations_recount_through_the_uninfected_edges(self, monkeypatch):
        # through each generation's frontier alone this run recounts 410,326 tuples
        g = random_hypergraph(random.Random(5), 100, 2, 0.03)
        counts = count_supersets(monkeypatch)
        assert run_naive(g) == run_fast(g)
        assert counts["tuples"] <= 295_568


class TestRunFast:
    def test_matches_naive_on_base(self):
        cert = build_base(2)
        assert run_fast(cert.graph).trace == run_naive(cert.graph).trace

    def test_budget_cap(self):
        g, _ = near_complete(5, 3)
        with pytest.raises(TupleBudgetExceeded):
            run_fast(g, max_tuples=2)

    @pytest.mark.parametrize("g, m", [
        (build_base(2).graph, None),
        (near_complete(5, 3)[0], None),
        (near_complete(6, 3)[0], 5),
        (random_hypergraph(random.Random(3), 9, 2, 0.3), 4),
    ], ids=["base-k2", "near-complete-n5", "near-complete-n6-m5", "random-r2-m4"])
    def test_budget_is_exactly_the_tuples_meeting_the_final_graph(self, g, m):
        m = g.r + 1 if m is None else m
        final = run_naive(g, m=m).final_graph
        touched = {t for e in final.edges for t in _supersets(e, g.n, m)}
        assert run_fast(g, m=m, max_tuples=len(touched)).final_graph == final
        with pytest.raises(TupleBudgetExceeded):
            run_fast(g, m=m, max_tuples=len(touched) - 1)

    def test_huge_vertex_count_is_refused_before_any_mask(self):
        # C(10^9 - 3, 1) tuples meet the one edge, refused before its link keys, 10^9 bits
        # (125 MB) wide each, are built
        g = Hypergraph.from_edges(10**9, 3, [(0, 5, 10**9 - 1)])
        tracemalloc.start()
        try:
            with pytest.raises(TupleBudgetExceeded):
                run_fast(g, max_tuples=10)
            assert run_fast(Hypergraph(n=10**9, r=3, edges=frozenset())).running_time == 0
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 10**6

    def test_huge_vertex_count_admitted_by_the_cap_builds_no_mask_of_n_bits(self):
        # masks are as wide as the edges' vertices: a mask of all 10^8 vertices takes 12.5 MB;
        # at r = 1 only a firing link state needs that mask, as its one plane is the infected set
        n, cap = 10**8, 10**30
        g = Hypergraph.from_edges(n, 3, [(0, 5, 9)])
        points = Hypergraph.from_edges(n, 1, [(0,), (5,)])

        def run_all():
            for m in (4, 5):
                assert run_fast(g, m=m, max_tuples=cap).running_time == 0
                state = _LinkState(n, 3, m, cap)
                state.add(g.edges)
                assert state.counting and state.touched == comb(n - 3, m - 3)
            return check_density(g), check_density(points), clique_census(points)

        found, peak = peak_traced_bytes(run_all)
        assert found == ((1, (0, 1, 5, 9)), (2, (0, 5)), {(0, 5)})
        assert peak < 10**6

    @pytest.mark.parametrize("r, m", [(1, 3), (2, 3), (2, 4), (2, 5), (3, 4), (3, 5), (3, 6)])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_drawn_budget_is_exactly_the_tuples_meeting_the_final_graph(self, r, m, data):
        g = data.draw(small_graphs(r, m, 7))
        final = run_naive(g, m=m).final_graph
        touched = {t for e in final.edges for t in _supersets(e, g.n, m)}
        assert run_fast(g, m=m, max_tuples=len(touched)).final_graph == final
        if touched:
            with pytest.raises(TupleBudgetExceeded):
                run_fast(g, m=m, max_tuples=len(touched) - 1)

    def test_seed_graph_is_streamed_not_kept_as_a_level(self):
        # a (bits, keys) level kept for every one of its 18,255 edges peaked at 8.5 MB
        g = build_full(4, 3).graph
        res, peak = peak_traced_bytes(lambda: run_fast(g))
        assert res.running_time == full_running_time(4, 3)
        assert peak < 4 * 10**6

    def test_wide_generation_is_kept_as_edge_tuples_only(self):
        # keeping two lists of single-bit ints and masks per fired edge, for two levels at
        # once, peaked at 9.3 MiB; the plain edge tuples of the levels peak at 3.3 MiB
        g = random_hypergraph(random.Random(3), 200, 2, 0.02)
        res, peak = peak_traced_bytes(lambda: run_fast(g))
        assert res.running_time == 3 and max(map(len, res.trace.steps)) > 10_000
        assert peak < 6 * 2**20

    def test_negative_budget_rejected(self):
        g, _ = near_complete(4, 3)
        with pytest.raises(ValueError):
            run_fast(g, max_tuples=-1)
        assert run_fast(Hypergraph(n=4, r=3, edges=frozenset()), max_tuples=0).running_time == 0

    def test_trace_steps_start_at_one(self):
        g, missing = near_complete(4, 3)
        res = run_fast(g)
        assert res.trace.step_map() == {missing: 1}

    @pytest.mark.parametrize("edges", [
        [(0, 39), (1, 38)],
        [(0, 1), (2, 3), (37, 38), (38, 39)],
    ], ids=["two-edges", "four-edges"])
    def test_free_candidates_are_counted_not_branched_on(self, edges):
        # branching on every candidate took 0.5-1 s on each of these graphs
        g = Hypergraph.from_edges(40, 2, edges)
        with deadline(0.5):
            assert run_fast(g, m=36).running_time == 0

    def test_budget_is_exact_with_free_candidates(self):
        # each edge meets C(38, 34) tuples, C(36, 32) of them both
        g = Hypergraph.from_edges(40, 2, [(0, 39), (1, 38)])
        touched = 2 * comb(38, 34) - comb(36, 32)
        assert touched == 88725
        with deadline(0.5):
            assert run_fast(g, m=36, max_tuples=touched).running_time == 0
            with pytest.raises(TupleBudgetExceeded):
                run_fast(g, m=36, max_tuples=touched - 1)


class TestCombOver:
    """The one test of C(n, k) against a cap, for the engines and the oracle alike."""

    @settings(derandomize=True, max_examples=200, deadline=None)
    @given(n=st.integers(0, 40), k=st.integers(0, 45), data=st.data())
    def test_agrees_with_comb(self, n, k, data):
        exact = comb(n, k)  # 0 when k > n
        near = st.sampled_from([0, max(exact - 1, 0), exact, exact + 1])
        cap = data.draw(st.one_of(near, st.integers(0, 2 * exact + 1)))
        assert _comb_over(n, k, cap) == (exact > cap)

    @pytest.mark.parametrize("n, k, cap, over", [
        (10**6, 5 * 10**5, 10**4299, True),  # a 4,300-digit cap
        (10**3000, 10**3000 - 5, 24, True),
        (10**3000, 10**3000, 0, True),  # C(n, n) = 1
        (10**3000, 10**3000 + 1, 0, False),  # C(n, k) = 0 for k > n
        (10**18, 2, 10**36, False),
    ], ids=["4300-digit-cap", "k-near-n", "k-is-n", "k-past-n", "admitted"])
    def test_hostile_sizes_end_at_once(self, n, k, cap, over):
        with deadline(2):
            assert _comb_over(n, k, cap) is over


class Counted(Exception):
    pass


class TestCountOnlyWhereTheCapCanBind:
    """No graph meets more than C(n, m) m-tuples, so a cap at or above that is never counted."""

    @pytest.fixture()
    def no_count(self, monkeypatch):
        def refuse(*args):
            raise Counted

        monkeypatch.setattr(_LinkState, "_count", refuse)

    def test_default_cap_on_a_construction(self, no_count):
        assert run_fast(build_full(4, 3).graph).running_time == full_running_time(4, 3)

    def test_default_cap_on_a_drawn_graph_with_a_larger_clique(self, no_count):
        g = random_hypergraph(random.Random(5), 16, 3, 0.4)
        assert run_fast(g, m=5) == run_naive(g, m=5)

    def test_default_cap_in_verify(self, no_count):
        assert verify_sequential(build_full(3, 5)).all_passed

    def test_cap_of_every_tuple(self, no_count):
        # the final graph is complete, so it meets all C(6, 5) tuples: a cap of one
        # fewer binds (TestRunFast checks it raises TupleBudgetExceeded), so it counts
        g, _ = near_complete(6, 3)
        assert run_fast(g, m=5, max_tuples=comb(6, 5)).running_time == 1
        with pytest.raises(Counted):
            run_fast(g, m=5, max_tuples=comb(6, 5) - 1)


@st.composite
def small_graphs(draw, r: int, n_min: int, n_max: int) -> Hypergraph:
    n = draw(st.integers(n_min, n_max))
    edges = list(itertools.combinations(range(n), r))
    keep = draw(st.lists(st.booleans(), min_size=len(edges), max_size=len(edges)))
    return Hypergraph.from_edges(n, r, [e for e, k in zip(edges, keep) if k])


@st.composite
def dense_graphs(draw, r: int, n_min: int, n_max: int) -> Hypergraph:
    """Each edge kept with a drawn probability of at least 0.6."""
    n = draw(st.integers(n_min, n_max))
    p = draw(st.floats(0.6, 1.0))
    return random_hypergraph(draw(st.randoms(use_true_random=False)), n, r, p)


class TestEngineEquivalence:
    @pytest.mark.parametrize(
        "r, m, n_max",
        [
            (1, 3, 8), (1, 4, 8), (2, 3, 8), (2, 4, 8), (2, 5, 8), (4, 6, 8), (3, 4, 7),
            (3, 5, 7), (3, 6, 8), (4, 5, 7),
        ],
    )
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(data=st.data())
    def test_drawn_instances_all_three_engines(self, r, m, n_max, data):
        g = data.draw(small_graphs(r, m, n_max))
        reference = iterate_step(g, m=m)
        assert tuple(reference) == run_naive(g, m=m).trace.steps == run_fast(g, m=m).trace.steps

    @pytest.mark.parametrize("n, r, m", [(30, 2, 3), (30, 2, 4), (30, 3, 4), (20, 3, 5)])
    def test_complete_graph_minus_a_sparse_subset(self, n, r, m):
        # dense levels: many frontier edges share each (r-1)-set
        rng = random.Random(n * r + m)
        edges = [e for e in itertools.combinations(range(n), r) if rng.random() >= 0.3]
        g = Hypergraph.from_edges(n, r, edges)
        fast = run_fast(g, m=m)
        assert fast == run_naive(g, m=m)
        assert fast.running_time >= 1

    @pytest.mark.parametrize("r", [2, 3, 4])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_clique_sizes_near_the_vertex_count(self, r, data):
        # m close to or above n: few or no tuples, deep or empty searches for m - r vertices
        g = data.draw(small_graphs(r, r, 9))
        for m in range(max(g.n - 2, r + 1), g.n + 3):
            fast = run_fast(g, m=m)
            assert tuple(iterate_step(g, m=m)) == fast.trace.steps
            assert fast == run_naive(g, m=m)
            touched = {t for e in fast.final_graph.edges for t in _supersets(e, g.n, m)}
            if touched:
                with pytest.raises(TupleBudgetExceeded):
                    run_fast(g, m=m, max_tuples=len(touched) - 1)

    def test_random_small_instances_all_three_engines(self):
        rng = random.Random(0x5EED)
        cases = 0
        while cases < 60:
            n = rng.randint(4, 7)
            g = random_hypergraph(rng, n, 3, rng.uniform(0.1, 0.8))
            reference = iterate_step(g)
            naive = run_naive(g)
            fast = run_fast(g)
            assert tuple(reference) == naive.trace.steps == fast.trace.steps
            cases += 1

    def test_random_instances_with_larger_clique(self):
        rng = random.Random(0xC11)
        for _ in range(30):
            n = rng.randint(5, 7)
            g = random_hypergraph(rng, n, 3, rng.uniform(0.3, 0.9))
            reference = iterate_step(g, m=5)
            naive = run_naive(g, m=5)
            fast = run_fast(g, m=5)
            assert tuple(reference) == naive.trace.steps == fast.trace.steps

    def test_random_four_uniform_instances(self):
        rng = random.Random(0x4A11)
        for _ in range(30):
            n = rng.randint(5, 8)
            g = random_hypergraph(rng, n, 4, rng.uniform(0.2, 0.8))
            reference = iterate_step(g)
            naive = run_naive(g)
            fast = run_fast(g)
            assert tuple(reference) == naive.trace.steps == fast.trace.steps

    @pytest.mark.parametrize("r, m", [(1, 3), (1, 4), (2, 5), (3, 5)])
    def test_every_graph_on_five_vertices_at_larger_cliques(self, r, m):
        # m = r+2 and r+3 search on past a known missing facet; (2, 4) is the K_4 test's.
        # At m = n = 5 only graphs with at least C(5, r) - 1 edges get past engine._idle
        edges = list(itertools.combinations(range(5), r))
        for mask in range(1 << len(edges)):
            g = Hypergraph.from_edges(5, r, [e for i, e in enumerate(edges) if mask >> i & 1])
            reference = tuple(iterate_step(g, m=m))
            assert run_naive(g, m=m).trace.steps == reference == run_fast(g, m=m).trace.steps, mask


class TestRecountAgainstPerTupleLoop:
    @pytest.mark.parametrize("r, m", [(2, 3), (2, 5), (3, 4), (3, 5), (4, 5), (4, 6)])
    @settings(derandomize=True, max_examples=30, deadline=None)
    @given(data=st.data())
    def test_step_and_naive_generations(self, r, m, data):
        g = data.draw(small_graphs(r, m, 8))
        keep = data.draw(st.lists(st.booleans(), min_size=len(g), max_size=len(g)))
        frontier = [e for e, k in zip(g, keep) if k]
        assert step(g, m) == reference_step(g, m)
        for start in (g.edges, frontier):
            got = list(_naive_generations(g.n, r, m, set(g.edges), start))
            assert got == reference_naive_generations(g.n, r, m, set(g.edges), start)

    @pytest.mark.parametrize("r, m", [(2, 3), (2, 4), (3, 4), (3, 5)])
    def test_dense_graphs_from_all_of_g0(self, r, m, monkeypatch):
        counts = count_supersets(monkeypatch)
        took_uninfected, took_sweep = [], []

        @settings(derandomize=True, max_examples=40, deadline=None)
        @given(g=dense_graphs(r, m, 9))
        def check(g):
            counts["calls"] = 0
            got = list(_naive_generations(g.n, r, m, set(g.edges), g.edges))
            assert got == iterate_step(g, m)
            # each generation sweeps all C(n, m) tuples when they are no more than the tuples
            # through the smaller of its frontier and the uninfected edges, else recounts that side
            calls, infected, frontier = 0, len(g), len(g)
            for new in [*map(len, got), 0]:
                if not frontier:
                    break
                uninfected = comb(g.n, r) - infected
                side = min(frontier, uninfected)
                if comb(g.n, m) <= side * comb(g.n - r, m - r):
                    took_sweep.append(g)
                else:
                    calls += side
                    if uninfected < frontier:
                        took_uninfected.append(g)
                infected, frontier = infected + new, new
            assert counts["calls"] == calls

        check()
        assert took_uninfected and took_sweep


class TestProcessProperties:
    def test_monotone_and_time_bound(self):
        rng = random.Random(7)
        for _ in range(40):
            n = rng.randint(4, 8)
            g = random_hypergraph(rng, n, 3, rng.uniform(0.2, 0.7))
            res = run_fast(g)
            assert g.edges <= res.final_graph.edges
            assert res.running_time <= comb(n, 3) - len(g)

    def test_trace_sets_disjoint_from_each_other_and_the_start(self):
        rng = random.Random(13)
        for _ in range(30):
            g = random_hypergraph(rng, rng.randint(4, 8), 3, rng.uniform(0.2, 0.8))
            res = run_naive(g)
            seen: set = set(g.edges)
            for stepset in res.trace.steps:
                assert not (stepset & seen)
                seen |= stepset

    def test_step_semantics(self):
        # every traced edge must first become completable exactly at its step
        rng = random.Random(99)
        for _ in range(25):
            n = rng.randint(4, 7)
            g = random_hypergraph(rng, n, 3, rng.uniform(0.3, 0.8))
            res = run_naive(g)
            steps = {e: 0 for e in g.edges}
            steps.update(res.trace.step_map())
            for e, s in res.trace.step_map().items():
                witnesses = []
                for t in _supersets(e, n, 4):
                    others = [f for f in
                              [t[:p] + t[p + 1:] for p in range(4)] if f != e]
                    if all(f in steps and steps[f] < s for f in others):
                        witnesses.append(t)
                assert witnesses, (e, s)
                assert not any(
                    all(f in steps and steps[f] < s - 1 for f in
                        [t[:p] + t[p + 1:] for p in range(4)] if f != e)
                    for t in _supersets(e, n, 4)
                )


class TestFinalGraph:
    def test_final_graph_is_not_validated_again(self, monkeypatch):
        g = build_base(2).graph
        forbid_revalidation(monkeypatch)
        fast, naive = run_fast(g), run_naive(g)
        assert fast.final_graph == naive.final_graph
        assert fast.final_graph.edges == g.edges | fast.trace.all_edges()

    @pytest.mark.parametrize("r, m", [(2, 3), (2, 4), (3, 4), (3, 5)])
    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(data=st.data())
    def test_closure_is_monotone_in_the_initial_graph(self, r, m, data):
        h = data.draw(small_graphs(r, m, 7))
        keep = data.draw(st.lists(st.booleans(), min_size=len(h), max_size=len(h)))
        g = Hypergraph.from_edges(h.n, r, [e for e, k in zip(h, keep) if k])
        for run in (run_fast, run_naive):
            assert run(g, m=m).final_graph.edges <= run(h, m=m).final_graph.edges


def relabeled(g: Hypergraph, ids: list[int], n: int) -> Hypergraph:
    return Hypergraph.from_edges(n, g.r, [[ids[v] for v in e] for e in g.edges])


class TestMetamorphic:
    @pytest.mark.parametrize("n", [31, 61, 100])
    @pytest.mark.parametrize("r", [2, 3, 4])
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_relabeling_across_int_digits_maps_the_trace(self, r, n, data):
        # Python ints hold 30 bits per digit: the pool straddles bits 30, 60 and 90
        g = data.draw(small_graphs(r, r + 1, 7))
        pool = (0, 1, 2, 3, 15, 28, 29, 30, 31, 58, 59, 60, 61, 89, 90, 91, 98, 99)
        ids = data.draw(st.permutations([v for v in pool if v < n]))[: g.n]
        big = relabeled(g, ids, n)
        fast, small = run_fast(big), run_fast(g)
        assert fast == run_naive(big)
        assert fast.running_time == small.running_time
        want = tuple(
            frozenset(tuple(sorted(ids[v] for v in e)) for e in s) for s in small.trace.steps
        )
        assert fast.trace.steps == want

    @pytest.mark.parametrize("r, m", [(2, 3), (2, 4), (3, 4), (3, 5), (4, 5)])
    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(data=st.data())
    def test_padding_with_isolated_vertices_keeps_the_trace(self, r, m, data):
        g = data.draw(small_graphs(r, m, 7))
        res = run_fast(g, m=m)
        for extra in (1, 31, 70):
            padded = run_fast(g.padded(g.n + extra), m=m)
            assert padded.running_time == res.running_time
            assert padded.trace == res.trace

    @pytest.mark.parametrize("r, m", [(1, 2), (1, 3), (2, 3), (2, 4), (3, 4), (3, 5), (4, 5), (4, 6)])
    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(data=st.data())
    def test_seeding_is_free_of_edge_order_and_batches(self, r, m, data):
        # a seed is streamed, so neither its edge order nor its split into add calls may matter
        g = data.draw(small_graphs(r, r, 12))
        edges = sorted(g.edges)
        shuffled = data.draw(st.permutations(edges))
        cuts = sorted(data.draw(st.lists(st.integers(0, len(edges)), max_size=3)))
        split = [shuffled[a:b] for a, b in zip([0, *cuts], [*cuts, len(edges)])]
        # the default cap cannot bind, so nothing is counted; one below C(n, m) counts the
        # seed's tuples, unless it meets all of them and so must raise
        met = len({t for e in edges for t in _supersets(e, g.n, m)})
        for cap in [DEFAULT_MAX_TUPLES] + [comb(g.n, m) - 1] * (met < comb(g.n, m)):
            seeded = []
            for batches in ([edges], [shuffled], split):
                state = _LinkState(g.n, r, m, cap)
                for batch in batches:
                    state.add(batch)
                first = state.fire(itertools.chain(*batches))
                seeded.append((state.link, state.touched, state.covered, first))
            assert seeded[0] == seeded[1] == seeded[2]
            assert seeded[0][1] == (0 if cap == DEFAULT_MAX_TUPLES else met)
            assert set(seeded[0][3]) == set(next(iter(run_naive(g, m=m).trace.steps), ()))


class TestTraceTypes:
    def test_rejects_empty_step(self):
        with pytest.raises(ValueError):
            InfectionTrace(steps=(frozenset(),))

    def test_step_map(self):
        tr = InfectionTrace(steps=(frozenset({(0, 1, 2)}), frozenset({(0, 1, 3)})))
        assert tr.step_map() == {(0, 1, 2): 1, (0, 1, 3): 2}
        assert tr.at(2) == {(0, 1, 3)}
        assert tr.all_edges() == {(0, 1, 2), (0, 1, 3)}

    def test_at_rejects_out_of_range_steps(self):
        tr = InfectionTrace(steps=(frozenset({(0, 1, 2)}),))
        with pytest.raises(IndexError):
            tr.at(0)
        with pytest.raises(IndexError):
            tr.at(2)


@pytest.mark.parametrize("n", [4, 5])
def test_k4_process_runs_at_most_n_minus_3_steps(n):
    # the K_4 graph process (r = 2, m = 4) has maximum running time n - 3: Bollobas,
    # Przykucki, Riordan and Sahasrabudhe, Electron. J. Combin. 2017
    edges = list(itertools.combinations(range(n), 2))
    longest = 0
    for mask in range(1 << len(edges)):
        g = Hypergraph.from_edges(n, 2, [e for i, e in enumerate(edges) if mask >> i & 1])
        fast = run_fast(g, m=4)
        assert run_naive(g, m=4) == fast
        longest = max(longest, fast.running_time)
    assert longest == n - 3
