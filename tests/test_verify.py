import concurrent.futures
import itertools
import math
import random
import tracemalloc

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bootperc import (
    Hypergraph,
    SearchCapExceeded,
    SequentialCertificate,
    TupleBudgetExceeded,
    brute_force_max_time,
    build_base,
    build_full,
    check_density,
    clique_census,
    k_for_n,
    run_fast,
    run_naive,
    theorem_bounds,
    verify,
    verify_sequential,
    witness_for_n,
)
from bootperc.engine import DEFAULT_MAX_TUPLES, _LinkState, _naive_generations, _supersets
from bootperc.verify import (
    NAIVE_CROSS_CHECK_LIMIT, EngineDisagreement, _chunk_planes, _generations, _tuple_facets,
)

from helpers import (
    inject_headless_fire,
    padded_base,
    peak_traced_bytes,
    random_hypergraph,
    reference_check_density,
    reference_clique_census,
    reference_verify_sequential,
    refuse_sweep,
)


class TestVerifySequential:
    def test_base_certificate_passes(self):
        report = verify_sequential(build_base(2))
        assert report.all_passed
        assert report.property_i and report.property_ii and report.property_iii
        assert report.measured_t_forward == 12
        assert report.measured_t_reverse == 12
        assert report.first_divergence is None

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_base_certificates_pass_for_all_k(self, k):
        report = verify_sequential(build_base(k))
        assert report.all_passed
        assert report.measured_t_forward == 8 * k * k - 12 * k + 4
        assert report.measured_t_reverse == report.measured_t_forward

    @pytest.mark.parametrize("r,k", [(3, 2), (3, 3), (4, 2), (5, 2)])
    def test_full_certificates_pass(self, r, k):
        report = verify_sequential(build_full(r, k))
        assert report.all_passed
        expected = (2 * k - 1) ** (r - 2) * (8 * k * k - 12 * k + 6) - 2
        assert report.measured_t_forward == expected
        assert report.measured_t_reverse == expected

    def test_corrupted_sequence_entry(self):
        cert = build_base(2)
        # structurally fine replacement that the replay cannot produce
        wrong = (0, 1, 5)
        assert wrong not in cert.graph
        corrupted = type(cert)(
            graph=cert.graph,
            ignition=cert.ignition,
            sequence=cert.sequence[:5] + (wrong,) + cert.sequence[6:],
            r=3,
            k=2,
            predicted_t=12,
            apex=None,  # corrupted entry no longer shares the apex
        )
        report = verify_sequential(corrupted)
        assert not report.property_i
        assert report.first_divergence is not None
        step, expected, actual = report.first_divergence
        assert step == 5
        assert expected == {wrong}
        assert actual == {cert.sequence[5]}
        assert report.measured_t_forward == 12

    def test_reverse_only_failure_reports_reverse_divergence(self):
        cert = build_base(2)
        # swapping two middle entries breaks both directions; forward reports first
        swapped = list(cert.sequence)
        swapped[3], swapped[4] = swapped[4], swapped[3]
        report = verify_sequential(
            type(cert)(
                graph=cert.graph,
                ignition=cert.ignition,
                sequence=tuple(swapped),
                r=3,
                k=2,
                predicted_t=12,
                apex=cert.apex,
            )
        )
        assert not report.property_i and not report.property_iii
        assert report.property_ii
        assert report.first_divergence[0] == 3


BASES = (build_base(2), build_base(3), build_full(3, 2))


def with_graph(cert: SequentialCertificate, edges) -> SequentialCertificate:
    """``cert`` with another graph that still holds the ignition and no later sequence edge."""
    graph = Hypergraph.from_edges(cert.graph.n, cert.r, edges)
    return SequentialCertificate(
        graph=graph, ignition=cert.ignition, sequence=cert.sequence, r=cert.r, k=cert.k,
        predicted_t=cert.predicted_t, apex=cert.apex,
    )


def completing_edges(cert: SequentialCertificate) -> list[tuple[int, ...]]:
    """Edges that, added to the headless graph, leave one (r+1)-tuple one facet short."""
    headless = cert.graph.without(cert.ignition)
    later = set(cert.sequence[1:])
    out = set()
    for t in itertools.combinations(range(cert.graph.n), cert.r + 1):
        missing = [f for f in itertools.combinations(t, cert.r) if f not in headless]
        if len(missing) == 2 and cert.ignition not in missing:
            out.update(f for f in missing if f not in later)
    return sorted(out)


COMPLETING = tuple(completing_edges(cert) for cert in BASES)


@st.composite
def mutated_certificates(draw) -> SequentialCertificate:
    """A base certificate with a few edges removed and added, invariants kept."""
    base = draw(st.sampled_from(range(len(BASES))))
    cert = BASES[base]
    n, r = cert.graph.n, cert.r
    later = set(cert.sequence[1:])
    removable = sorted(cert.graph.edges - {cert.ignition})
    removed = draw(st.sets(st.sampled_from(removable), max_size=3))
    edge = st.sets(st.integers(0, n - 1), min_size=r, max_size=r).map(lambda s: tuple(sorted(s)))
    pool = st.one_of(edge, st.sampled_from(COMPLETING[base]))
    added = draw(st.sets(pool.filter(lambda e: e not in later), max_size=3))
    return with_graph(cert, (cert.graph.edges - removed) | added)


def tuples_meeting(g: Hypergraph) -> int:
    return len({t for e in g.edges for t in _supersets(e, g.n, g.r + 1)})


class TestSeededReplay:
    @settings(derandomize=True, max_examples=60, deadline=None)
    @given(cert=mutated_certificates())
    def test_reports_and_budget_equal_the_reference(self, cert):
        report = verify_sequential(cert)
        assert report == reference_verify_sequential(cert)
        # the smallest budget under which the reference's two run_fast replays pass
        reverse_start = cert.graph.without(cert.ignition).with_edges([cert.sequence[-1]])
        budget = max(
            tuples_meeting(run_fast(start).final_graph) for start in (cert.graph, reverse_start)
        )
        for check in (reference_verify_sequential, verify_sequential):
            assert check(cert, max_tuples=budget) == report
            with pytest.raises(TupleBudgetExceeded):
                check(cert, max_tuples=budget - 1)

    @pytest.mark.parametrize("base", range(len(BASES)))
    def test_headless_graph_that_fires_is_replayed_exactly(self, base):
        cert = BASES[base]
        for e in COMPLETING[base][::7]:
            mutated = with_graph(cert, cert.graph.edges | {e})
            report = verify_sequential(mutated)
            assert not report.property_ii
            assert report == reference_verify_sequential(mutated)

    def test_injected_link_state_fault_is_an_engine_disagreement(self, monkeypatch):
        inject_headless_fire(monkeypatch, (0, 1, 2))
        with pytest.raises(EngineDisagreement, match="headless graph"):
            verify_sequential(build_base(2))

    def test_headless_seed_is_streamed_not_kept_as_a_level(self):
        # a (bits, keys) level kept for every edge of H peaked at 11.3 MB
        cert = build_full(4, 3)
        report, peak = peak_traced_bytes(lambda: verify_sequential(cert))
        assert report.all_passed
        assert peak < 6 * 10**6

    def test_recount_and_replays_hold_no_copy_of_h(self):
        # 3.02 MB while the recount took a set copy of H and the replays kept H's
        # frozenset: 1.0 MiB each at (5,2), 20,048 edges
        cert = build_full(5, 2)
        report, peak = peak_traced_bytes(lambda: verify_sequential(cert))
        assert report.all_passed
        assert peak < 3.02 * 10**6 - 0.8 * 2**20

    def test_padded_vertex_set_needs_no_sweep(self, monkeypatch):
        # C(800, 4) = 1.7e10 tuples; the naive recount visits 20 * 797 instead
        refuse_sweep(monkeypatch, 20 * 797)
        report = verify_sequential(padded_base(800))
        assert report.all_passed
        assert report.measured_t_forward == report.measured_t_reverse == 12


class TestNaiveReplaysAboveTheCrossCheckGate:
    # verify replays these certificates with the link state alone, as C(n, r+1) passes
    # NAIVE_CROSS_CHECK_LIMIT: the naive engine must still agree step for step
    @settings(derandomize=True, max_examples=15, deadline=None)
    @given(data=st.data())
    def test_naive_replays_equal_the_link_state_replays(self, data):
        cert = data.draw(st.sampled_from(BASES))
        r, m = cert.r, cert.r + 1
        gate = min(n for n in range(121) if math.comb(n, m) > NAIVE_CROSS_CHECK_LIMIT)
        n = data.draw(st.integers(gate, 120))
        ids = data.draw(st.permutations(range(n)))
        moved = [tuple(sorted(ids[v] for v in e)) for e in cert.sequence]
        ignition, last = moved[0], moved[-1]
        g = Hypergraph.from_edges(n, r, [[ids[v] for v in e] for e in cert.graph.edges])
        h = g.without(ignition)
        seed = _LinkState(n, r, m, DEFAULT_MAX_TUPLES)
        seed.add(h.edges)
        assert not seed.fire(h.edges)  # H is stationary, so each replay fires from one edge
        forward, reverse = seed.copy().run([ignition]), seed.run([last])
        assert forward == [frozenset({e}) for e in moved[1:]]
        assert list(_naive_generations(n, r, m, set(g.edges), [ignition])) == forward
        assert list(_naive_generations(n, r, m, set(h.edges) | {last}, [last])) == reverse


class TestCheckDensity:
    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_initial_base_graph_is_sparse(self, k):
        cert = build_base(k)
        density, witness = check_density(cert.graph.without(cert.ignition))
        assert density == 2
        assert witness is not None

    def test_complete_tuple(self):
        density, witness = check_density(Hypergraph.complete(4, 3))
        assert density == 4
        assert witness == (0, 1, 2, 3)

    def test_empty_graph(self):
        assert check_density(Hypergraph(n=5, r=3, edges=frozenset())) == (0, None)

    def test_witness_is_lexicographically_smallest(self):
        g = Hypergraph.from_edges(6, 3, [(0, 1, 2), (3, 4, 5)])
        density, witness = check_density(g)
        assert density == 1
        assert witness == (0, 1, 2, 3)

    def test_memory_stays_with_the_link_planes(self):
        # a Counter of every (r+1)-tuple meeting the graph peaked at 28.3 MB here
        cert = build_base(15)
        g = cert.graph.without(cert.ignition)
        tracemalloc.start()
        try:
            assert check_density(g)[0] == 2
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 5 * 10**6


class TestCliqueCensus:
    def test_complete_graph(self):
        assert clique_census(Hypergraph.complete(4, 3)) == {(0, 1, 2, 3)}

    def test_sparse_base_graph_has_none(self):
        cert = build_base(2)
        assert clique_census(cert.graph.without(cert.ignition)) == frozenset()

    @pytest.mark.parametrize("k", [2, 3])
    def test_final_base_graph_census_matches_consecutive_pairs(self, k):
        cert = build_base(k)
        final = run_fast(cert.graph).final_graph
        expected = frozenset(
            tuple(sorted(set(cert.sequence[i - 1]) | set(cert.sequence[i])))
            for i in range(1, cert.predicted_t + 1)
        )
        assert len(expected) == cert.predicted_t
        assert clique_census(final) == expected


@settings(derandomize=True, max_examples=150, deadline=None)
@given(
    r=st.integers(min_value=1, max_value=4),
    n=st.integers(min_value=0, max_value=9),
    p=st.sampled_from([0.05, 0.2, 0.5, 0.8, 1.0]),
    seed=st.integers(min_value=0, max_value=2**32 - 1),
)
def test_density_and_census_match_the_facet_by_facet_reference(r, n, p, seed):
    g = random_hypergraph(random.Random(seed), n, r, p)
    assert check_density(g) == reference_check_density(g)
    assert clique_census(g) == reference_clique_census(g)


class TestBruteForce:
    def test_three_four_is_forced(self):
        result = brute_force_max_time(3, 4)
        assert result.max_t == 1
        assert result.searched == 16
        assert result.witness.sorted_edges == ((0, 1, 2), (0, 1, 3), (0, 2, 3))

    def test_three_five_frozen_value(self):
        # value first computed by this oracle itself, then frozen
        result = brute_force_max_time(3, 5)
        assert result.max_t == 2
        assert result.searched == 1024
        # witness mask 94 over the lexicographic edge list
        assert result.witness.sorted_edges == (
            (0, 1, 3), (0, 1, 4), (0, 2, 3), (0, 2, 4), (1, 2, 3),
        )

    def test_jobs_do_not_change_the_answer(self):
        lone = brute_force_max_time(3, 5, jobs=1)
        four = brute_force_max_time(3, 5, jobs=4)
        assert (lone.max_t, lone.witness) == (four.max_t, four.witness)

    def test_more_jobs_than_masks(self):
        r = brute_force_max_time(3, 4, jobs=32)
        assert r.max_t == 1

    def test_cap(self):
        with pytest.raises(SearchCapExceeded):
            brute_force_max_time(3, 7)  # C(7,3) = 35 > 24

    def test_witness_achieves_max(self):
        result = brute_force_max_time(3, 5)
        assert run_fast(result.witness).running_time == result.max_t

    def test_lower_bound_consistency(self):
        # any specific initial graph on n vertices cannot beat the exhaustive max
        best = brute_force_max_time(3, 5).max_t
        rng = random.Random(3)
        for _ in range(20):
            g = random_hypergraph(rng, 5, 3, rng.uniform(0.2, 0.9))
            assert run_fast(g).running_time <= best
        near = Hypergraph.complete(4, 3).without((0, 1, 2)).padded(5)
        assert run_fast(near).running_time <= best

    def test_negative_cap_is_invalid(self):
        with pytest.raises(ValueError, match="cap must be >= 0") as info:
            brute_force_max_time(3, 5, cap=-1)
        assert not isinstance(info.value, SearchCapExceeded)
        with pytest.raises(SearchCapExceeded):
            brute_force_max_time(3, 5, cap=0)

    @pytest.mark.parametrize(
        "r, n, jobs, message",
        [(1, 5, 1, "r must be >= 2"), (3, 2, 1, "n must be >= r"), (3, 5, 0, "jobs must be >= 1")],
    )
    def test_invalid_arguments(self, r, n, jobs, message):
        with pytest.raises(ValueError, match=message) as info:
            brute_force_max_time(r, n, jobs=jobs)
        assert not isinstance(info.value, SearchCapExceeded)

    @pytest.mark.parametrize("value", [True, 2.5, "5", 5.0])
    @pytest.mark.parametrize("name", ["r", "n", "jobs", "cap"])
    def test_non_int_arguments_rejected(self, name, value):
        # refused before the range and cap checks, which compare a bool or float as a number
        # and raise TypeError on a str
        args = {"r": 3, "n": 5, "jobs": 1, "cap": 24, name: value}
        got = ", ".join(f"{k}={v!r}" for k, v in args.items())
        message = f"^r, n, jobs and cap must be ints, got {got}$"
        with pytest.raises(ValueError, match=message) as info:
            brute_force_max_time(**args)
        assert not isinstance(info.value, SearchCapExceeded)
        with pytest.raises(SearchCapExceeded, match=r"^C\(5,3\) exceeds the cap of 5 edges$"):
            brute_force_max_time(3, 5, cap=5)

    @pytest.mark.parametrize("value", [True, 2.0, "2"])
    @pytest.mark.parametrize(
        "make, args",
        [(build_base, {"k": 2}), (build_full, {"r": 3, "k": 2}), (k_for_n, {"r": 3, "n": 18}),
         (theorem_bounds, {"r": 3, "n": 18}), (witness_for_n, {"r": 3, "n": 18})],
        ids=["build_base", "build_full", "k_for_n", "theorem_bounds", "witness_for_n"],
    )
    def test_non_int_construction_sizes_rejected(self, make, args, value):
        # refused before any arithmetic, which compares a bool or float as a number
        for name in args:
            with pytest.raises(ValueError, match=f"^{name} must be an int, got {value!r}$"):
                make(**{**args, name: value})

    def test_k_for_n_needs_a_positive_r(self):
        with pytest.raises(ValueError, match="^r must be >= 1, got 0$"):
            k_for_n(0, 5)

    def test_one_edge_is_answered_without_a_scan(self, monkeypatch):
        # r = n: both masks of the one edge have T = 0, as a scan of them finds
        assert verify._scan_chunk(_tuple_facets(4, 4), 1, 1, 0) == (0, 0)
        monkeypatch.setattr(verify, "_scan_chunk", None)
        result = brute_force_max_time(4, 4, jobs=8)
        assert (result.max_t, len(result.witness), result.searched) == (0, 0, 2)

    @pytest.mark.parametrize("n", [3, 4, 5, 6, 7])
    def test_graph_process_squares(self, n):
        # r = 2: each step adds every pair at distance 2, so G_t = G^(2^t) and
        # the slowest graph on n vertices is a path, with T = ceil(log2(n - 1))
        result = brute_force_max_time(2, n)
        assert result.max_t == math.ceil(math.log2(n - 1))
        assert run_fast(result.witness).running_time == result.max_t

    def test_worker_count_is_bounded(self, monkeypatch):
        started = []

        class RecordingPool:
            def __init__(self, max_workers):
                started.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                return map(fn, items)

        expected = brute_force_max_time(3, 5)
        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
        monkeypatch.setattr(verify.os, "cpu_count", lambda: 3)
        assert brute_force_max_time(3, 4, jobs=32).max_t == 1  # one chunk
        assert started == []
        monkeypatch.setattr(verify, "_CHUNK_BITS", 3)  # (3,5) becomes 128 chunks
        for jobs, workers in ((2, 2), (8, 3), (200, 3)):
            result = brute_force_max_time(3, 5, jobs=jobs)
            assert (result.max_t, result.witness) == (expected.max_t, expected.witness)
            assert started.pop() == workers
        monkeypatch.setattr(verify.os, "cpu_count", lambda: None)
        assert brute_force_max_time(3, 5, jobs=8).witness == expected.witness
        assert started == []


class TestMaskEnginesMatchObjectEngines:
    @staticmethod
    def single_chunk(r, n):
        """Edge list, initial planes and tuples of the one chunk holding every mask."""
        edges = list(itertools.combinations(range(n), r))
        c = len(edges)
        return edges, _chunk_planes(0, c, c), _tuple_facets(r, n), (1 << (1 << c)) - 1

    def test_chunk_planes_hold_the_mask_bits(self):
        c, num_edges, base = 3, 6, 5 << 3
        planes = _chunk_planes(base, c, num_edges)
        for j in range(1 << c):
            assert [p >> j & 1 for p in planes] == [(base + j) >> i & 1 for i in range(num_edges)]
        assert all(p >> (1 << c) == 0 for p in planes)

    def check_every_mask(self, r, n):
        edges, x, tuples, full = self.single_chunk(r, n)
        masks = range(1 << len(edges))
        steps = {mask: [] for mask in masks}
        generations = 0
        for activity, new in _generations(x, tuples, full, 0):
            generations += 1
            assert activity == sum(1 << mask for mask in masks if any(p >> mask & 1 for p in new))
            for mask in masks:
                steps[mask].append(frozenset(e for e, p in zip(edges, new) if p >> mask & 1))
        longest = 0
        for mask in masks:
            g = Hypergraph.from_edges(n, r, [e for i, e in enumerate(edges) if mask >> i & 1])
            trace = run_naive(g).trace.steps
            assert run_fast(g).trace.steps == trace, mask
            assert tuple(steps[mask]) == trace + (frozenset(),) * (generations - len(trace)), mask
            longest = max(longest, len(trace))
        assert generations == longest

    def test_exhaustive_three_four(self):
        self.check_every_mask(3, 4)

    def test_exhaustive_two_five(self):
        self.check_every_mask(2, 5)

    def test_exhaustive_three_five(self):
        self.check_every_mask(3, 5)

    @pytest.mark.parametrize("r, n", [(2, 6), (3, 6)])
    def test_drawn_masks_of_the_largest_oracle_cells(self, r, n):
        # 3 drawn chunks of 2^12 masks, 64 masks read from each: a mask's T is the number of
        # generations whose activity holds its bit, and its steps are its bits of their planes
        edges, tuples, c = list(itertools.combinations(range(n), r)), _tuple_facets(r, n), 12
        rng = random.Random(r * n)
        for chunk in rng.sample(range(1 << (len(edges) - c)), 3):
            base = chunk << c
            x = _chunk_planes(base, c, len(edges))
            generations = list(_generations(x, tuples, (1 << (1 << c)) - 1, base))
            for j in rng.sample(range(1 << c), 64):
                t = sum(activity >> j & 1 for activity, _ in generations)
                steps = tuple(
                    frozenset(e for e, p in zip(edges, new) if p >> j & 1)
                    for _, new in generations[:t]
                )
                mask = base + j
                g = Hypergraph.from_edges(n, r, [e for i, e in enumerate(edges) if mask >> i & 1])
                assert run_fast(g).trace.steps == steps == run_naive(g).trace.steps, mask

    @staticmethod
    def flip_counter_bit(monkeypatch, edge, mask):
        true_rule = verify._counter_rule

        def faulty(*args):
            new = true_rule(*args)
            new[edge] ^= 1 << mask
            return new

        monkeypatch.setattr(verify, "_counter_rule", faulty)

    @pytest.mark.parametrize("edge,mask", [(0, 0), (3, 94), (9, 1023)])
    def test_flipped_counter_bit_names_its_mask(self, monkeypatch, edge, mask):
        _, x, tuples, full = self.single_chunk(3, 5)
        self.flip_counter_bit(monkeypatch, edge, mask)
        with pytest.raises(EngineDisagreement, match=f"on mask {5 * 1024 + mask}$"):
            list(_generations(x, tuples, full, 5 * 1024))
        with pytest.raises(EngineDisagreement, match=f"on mask {mask}$"):
            brute_force_max_time(3, 5)

    @pytest.mark.parametrize("r,n", [(2, 5), (3, 5)])
    def test_chunk_boundaries(self, monkeypatch, r, n):
        default = brute_force_max_time(r, n)
        monkeypatch.setattr(verify, "_CHUNK_BITS", 3)
        for jobs in (1, 2):
            small = brute_force_max_time(r, n, jobs=jobs)
            assert (small.max_t, small.witness) == (default.max_t, default.witness)
