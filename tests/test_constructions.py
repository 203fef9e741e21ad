import dataclasses
import hashlib
import warnings
from fractions import Fraction
from math import comb, floor

import pytest

import bootperc.constructions as constructions
import bootperc.core as core
from bootperc import (
    CertificateError,
    Hypergraph,
    SequentialCertificate,
    VertexLabel,
    base_running_time,
    build_base,
    build_full,
    full_running_time,
    id_to_label,
    k_for_n,
    layer_width,
    make_edge,
    run_fast,
    theorem_bounds,
)
from bootperc.constructions import _glue as glue
from bootperc.constructions import _lift as lift

from helpers import label_to_id


def vid(layer, index, k):
    return label_to_id(VertexLabel(layer, index), k)


class TestBuildBase:
    def test_k2_shape(self):
        cert = build_base(2)
        assert cert.graph.n == 11
        assert len(cert.graph) == 21  # 12 scaffold + 8 apex-strip + ignition
        assert cert.predicted_t == 12
        assert cert.ignition == (0, 5, 10)
        assert cert.apex == 10

    @pytest.mark.parametrize("k,t", [(2, 12), (3, 40), (4, 84), (5, 144)])
    def test_predicted_running_time(self, k, t):
        cert = build_base(k)
        assert cert.predicted_t == t == base_running_time(k)
        assert cert.graph.n == 2 * layer_width(k) + 1
        assert len(cert.sequence) == 8 * k * k - 12 * k + 5

    def test_edge_count_closed_form(self):
        # scaffold size equals the running time; strip contributes 2(4k-4)
        for k in range(2, 31):
            assert len(set(constructions._scaffold_edges(k))) == base_running_time(k)
        for k in range(2, 6):
            cert = build_base(k)
            assert len(cert.graph) == base_running_time(k) + (8 * k - 8) + 1

    def test_apex_in_every_sequence_edge(self):
        cert = build_base(3)
        assert all(cert.apex in e for e in cert.sequence)

    def test_sequence_edges_outside_graph(self):
        cert = build_base(3)
        assert all(e not in cert.graph for e in cert.sequence[1:])

    def test_rejects_small_k(self):
        with pytest.raises(ValueError):
            build_base(1)


class TestPredictedBaseEdge:
    def test_first_step(self):
        assert build_base(2).sequence[1] == (vid(1, 1, 2), vid(2, 2, 2), vid(3, 1, 2))

    def test_step_five(self):
        assert build_base(2).sequence[5] == (vid(1, 2, 2), vid(2, 5, 2), vid(3, 1, 2))

    def test_last_step(self):
        assert build_base(2).sequence[12] == (vid(1, 3, 2), vid(2, 3, 2), vid(3, 1, 2))

    @pytest.mark.parametrize("k", [2, 3, 4, 5])
    def test_final_edge_uses_middle_vertices(self, k):
        e = build_base(k).sequence[base_running_time(k)]
        assert e == tuple(sorted((vid(1, 2 * k - 1, k), vid(2, 2 * k - 1, k), vid(3, 1, k))))

    def test_sequences_are_pinned(self):
        # every edge for k = 2..40: a change to the legs shows here
        sequences = [build_base(k).sequence for k in range(2, 41)]
        assert hashlib.sha256(repr(sequences).encode()).hexdigest() == (
            "334dc111d9f0486c5fe01b9a93dc12f79cf9a26ec53282e474c113f2f455b886"
        )

    def test_ids_by_arithmetic_are_labels_in_the_grid(self, monkeypatch):
        # the generators name ids unchecked; the reference label_to_id refuses off-grid labels
        built = [build_base(k) for k in range(2, 7)] + [build_full(3, 3), build_full(4, 2)]
        monkeypatch.setattr(constructions, "_vid", vid)
        again = [build_base(k) for k in range(2, 7)] + [build_full(3, 3), build_full(4, 2)]
        assert again == built


class TestGlue:
    def test_shape_k2(self):
        glued = glue(build_base(2))
        assert glued.graph.n == 15
        assert glued.predicted_t == 3 * 12 + 4 == 40
        assert glued.apex is None
        assert glued.ignition == (0, 5, 10)
        assert len(glued.sequence) == glued.predicted_t + 1

    def test_sequence_length_identity(self):
        for k in (2, 3):
            glued = glue(build_base(k))
            t1 = base_running_time(k)
            assert len(glued.sequence) == (2 * k - 1) * (t1 + 1) + 2 * k - 2

    @pytest.mark.parametrize("k", [2, 3])
    def test_first_bridge_gadget_exact(self, k):
        # the edges within {v^1_{2k-1}, v^2_{2k-1}, v^3_1, v^3_2, v^3_3} are the
        # four bridge edges pairing each stub vertex with two consecutive new ones
        glued = glue(build_base(k))
        a, b = vid(1, 2 * k - 1, k), vid(2, 2 * k - 1, k)
        t1, t2, t3 = (vid(3, j, k) for j in (1, 2, 3))
        inside = {e for e in glued.graph if set(e) <= {a, b, t1, t2, t3}}
        assert inside == {(a, t1, t2), (b, t1, t2), (a, t2, t3), (b, t2, t3)}
        if k == 2:
            assert inside == {(2, 10, 11), (7, 10, 11), (2, 11, 12), (7, 11, 12)}

    def test_gadget_exclusions_hold(self):
        # no edge joins two top-layer vertices two apart, none swallows a whole stub
        for k in (2, 3):
            cert = build_base(k)
            glued = glue(cert)
            first_stub = set(cert.ignition) - {cert.apex}
            last_stub = set(cert.sequence[-1]) - {cert.apex}
            w = layer_width(k)
            top = [vid(3, j, k) for j in range(1, w + 1)]
            for e in glued.graph:
                es = set(e)
                for j in range(1, k):
                    assert not {top[4 * j - 4], top[4 * j - 2]} <= es or not (
                        es <= {top[4 * j - 4], top[4 * j - 3], top[4 * j - 2]} | last_stub
                    )
                    assert not {top[4 * j - 2], top[4 * j]} <= es or not (
                        es <= {top[4 * j - 2], top[4 * j - 1], top[4 * j]} | first_stub
                    )
                if es & last_stub == last_stub:
                    assert not any(t in es for t in top[1::2])
                if es & first_stub == first_stub:
                    assert e == cert.ignition or not any(t in es for t in top[1::2])


class TestLift:
    def test_shape(self):
        glued = glue(build_base(2))
        lifted = lift(glued)
        assert lifted.graph.n == 16
        assert lifted.r == 4
        assert len(lifted.graph) == len(glued.graph) + comb(15, 4)
        assert lifted.predicted_t == glued.predicted_t == 40
        assert lifted.apex == 15

    def test_sequence_gains_apex(self):
        glued = glue(build_base(2))
        lifted = lift(glued)
        assert lifted.sequence[0] == glued.ignition + (15,)
        assert all(15 in e for e in lifted.sequence)
        assert len(lifted.sequence) == len(glued.sequence)


class TestBuildFull:
    @pytest.mark.parametrize(
        "r,k,t", [(3, 2, 40), (4, 2, 124), (5, 2, 376), (3, 3, 208)]
    )
    def test_predicted_running_time(self, r, k, t):
        cert = build_full(r, k)
        assert cert.predicted_t == t == full_running_time(r, k)
        assert cert.graph.n == r * layer_width(k)
        assert cert.apex is None

    def test_rejects_bad_parameters(self):
        with pytest.raises(ValueError):
            build_full(2, 2)
        with pytest.raises(ValueError):
            build_full(3, 1)

    def test_three_uniform_full_is_glued_base(self):
        assert build_full(3, 2) == glue(build_base(2))


class TestTheoremBounds:
    def test_r3_n18(self):
        b = theorem_bounds(3, 18)
        assert b.lower == Fraction(5832, 1728) == Fraction(27, 8)
        assert b.upper_exact == 816
        assert b.k_of_n == 2

    def test_warns_below_threshold(self):
        with pytest.warns(UserWarning, match="2r\\^2"):
            theorem_bounds(3, 12)

    def test_no_warning_at_threshold(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            theorem_bounds(3, 18)

    def test_r4_n32(self):
        b = theorem_bounds(4, 32)
        assert b.k_of_n == 2
        assert b.lower == Fraction(32**4, 2**7 * 4**4) == 32

    def test_rejects_small_r(self):
        with pytest.raises(ValueError):
            theorem_bounds(2, 10)
        with warnings.catch_warnings():  # a negative n is refused before the 2r^2 warning
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match="^n must be >= 0, got -5$"):
                theorem_bounds(3, -5)

    def test_lower_below_trivial_cap(self):
        for r, n in [(3, 18), (3, 30), (4, 32), (5, 50)]:
            b = theorem_bounds(r, n)
            assert b.lower <= b.upper_exact
            assert float(b.lower) <= b.upper_analytic

    def test_lower_bound_below_trivial_cap_past_threshold(self):
        for r in range(3, 13):
            for n in range(2 * r * r, 2 * r * r + 101):
                assert theorem_bounds(r, n).lower <= comb(n, r)

    def test_full_construction_runs_theta_n_to_the_r(self):
        # the paper's claims: T = Theta(n^r) with prefactor r^(-r) e^(O(r)); T r^r / n^r
        # falls in k toward (2k)^(r-2) 8k^2 r^r / (4rk)^r = 2^(1-r)
        for r in range(3, 13):
            ratios = []
            for k in range(2, 51):
                n, t = r * (4 * k - 3), full_running_time(r, k)
                assert t <= comb(n, r)
                if n >= 2 * r * r:
                    with warnings.catch_warnings():
                        warnings.simplefilter("error")
                        assert theorem_bounds(r, n).lower <= t
                ratios.append(Fraction(t * r**r, n**r))
            assert all(a > b for a, b in zip(ratios, ratios[1:]))
            assert ratios[-1] > Fraction(2, 2**r)

    def test_k_for_n_matches_exact_rational_floor(self):
        for r in (3, 4, 5):
            for n in range(r, 80):
                assert k_for_n(r, n) == floor((Fraction(n, r) + 3) / 4)
                assert r * layer_width(k_for_n(r, n)) <= n  # the witness pads, never shrinks


class TestWitnessForN:
    """The lower-bound witness: the full construction for k_for_n(r, n), padded to n."""

    def test_pads_with_isolated_vertices(self):
        w = build_full(3, k_for_n(3, 18)).graph.padded(18)
        assert w.n == 18
        assert w.edges == build_full(3, 2).graph.edges

    def test_running_time_between_bounds(self):
        w = build_full(3, k_for_n(3, 18)).graph.padded(18)
        t = run_fast(w).running_time
        b = theorem_bounds(3, 18)
        assert t == 40
        assert b.lower <= t <= b.upper_exact

    def test_rejects_small_r(self):
        with pytest.raises(ValueError, match="r must be >= 3"):
            build_full(2, k_for_n(2, 50)).graph.padded(50)


class TestCertificateValidation:
    @pytest.mark.parametrize("field", ["predicted_t", "apex"])
    def test_predicted_t_and_apex_must_be_ints(self, field):
        cert = build_base(2)
        for value in (float(getattr(cert, field)), True):
            with pytest.raises(ValueError, match=f"^{field} must be an int, got {value!r}$") as exc:
                dataclasses.replace(cert, **{field: value})
            assert type(exc.value) is ValueError  # a value, not a disagreement with the graph

    def test_r_must_be_the_graphs_int(self):
        # 3 == 3.0 and 1 == True: equality alone would pass a float or bool r, which glue refuses
        cert = build_base(2)
        with pytest.raises(ValueError, match=r"^r must be an int, got 3\.0$") as exc:
            dataclasses.replace(cert, r=3.0)
        assert type(exc.value) is ValueError
        points = Hypergraph.from_edges(3, 1, [(0,)])
        one = SequentialCertificate(points, (0,), ((0,), (1,)), r=1, k=1, predicted_t=1, apex=None)
        with pytest.raises(ValueError, match=r"^r must be an int, got True$") as exc:
            dataclasses.replace(one, r=True)
        assert type(exc.value) is ValueError

    def test_sequence_head_must_be_ignition(self):
        cert = build_base(2)
        with pytest.raises(CertificateError):
            type(cert)(
                graph=cert.graph,
                ignition=cert.ignition,
                sequence=cert.sequence[1:],
                r=3,
                k=2,
                predicted_t=11,
                apex=cert.apex,
            )

    def test_ignition_must_be_in_graph(self):
        cert = build_base(2)
        with pytest.raises(CertificateError):
            type(cert)(
                graph=cert.graph.without(cert.ignition),
                ignition=cert.ignition,
                sequence=cert.sequence,
                r=3,
                k=2,
                predicted_t=12,
                apex=cert.apex,
            )

    def test_sequence_edges_must_be_fresh(self):
        cert = build_base(2)
        bad = cert.sequence[:5] + (cert.graph.sorted_edges[0],) + cert.sequence[6:]
        with pytest.raises(CertificateError):
            type(cert)(
                graph=cert.graph,
                ignition=cert.ignition,
                sequence=bad,
                r=3,
                k=2,
                predicted_t=12,
                apex=cert.apex,
            )

    def test_predicted_t_must_match_length(self):
        cert = build_base(2)
        with pytest.raises(CertificateError):
            type(cert)(
                graph=cert.graph,
                ignition=cert.ignition,
                sequence=cert.sequence,
                r=3,
                k=2,
                predicted_t=13,
                apex=cert.apex,
            )

    @pytest.mark.parametrize(
        "change, message",
        [
            (lambda c: {"r": 4}, "graph uniformity 3 != r = 4"),
            (lambda c: {"sequence": ()}, "empty sequence"),
            (lambda c: {"sequence": c.sequence + c.sequence[1:2], "predicted_t": 13},
             "not pairwise distinct"),
            (lambda c: {"apex": c.graph.n}, "apex 11 out of range"),
        ],
        ids=["uniformity", "empty", "repeated-edge", "apex-range"],
    )
    def test_structural_faults(self, change, message):
        cert = build_base(2)
        with pytest.raises(CertificateError, match=message):
            dataclasses.replace(cert, **change(cert))

    def test_apex_must_hit_every_sequence_edge(self):
        cert = build_base(2)
        with pytest.raises(CertificateError):
            type(cert)(
                graph=cert.graph,
                ignition=cert.ignition,
                sequence=cert.sequence,
                r=3,
                k=2,
                predicted_t=12,
                apex=0,
            )

    @pytest.mark.parametrize(
        "i, edge",
        [(5, (9, 1, 0)), (3, (10, 8, 0))],
        ids=["graph-edge-reversed", "own-edge-reversed"],
    )
    def test_sequence_edges_must_be_sorted(self, i, edge):
        # (9, 1, 0) is the graph edge (0, 1, 9); (10, 8, 0) is sequence[3] itself
        cert = build_base(2)
        assert (0, 1, 9) in cert.graph and cert.sequence[3] == (0, 8, 10)
        with pytest.raises(CertificateError, match="not a sorted tuple"):
            type(cert)(
                graph=cert.graph,
                ignition=cert.ignition,
                sequence=cert.sequence[:i] + (edge,) + cert.sequence[i + 1 :],
                r=3,
                k=2,
                predicted_t=12,
                apex=cert.apex,
            )


def stages(r, k):
    """Every certificate ``build_full(r, k)`` passes through, the seed first."""
    out = [build_base(k)]
    for rho in range(3, r + 1):
        out.append(glue(out[-1]))
        if rho < r:
            out.append(lift(out[-1]))
    return out


def count_edge_checks(monkeypatch) -> list[int]:
    """Count the edges the constructions check: one per ``make_edge`` call and each edge
    of a whole-list ``_canonical`` check."""
    checked, whole = [0], core._canonical

    def counting(*args, **kwargs):
        checked[0] += 1
        return make_edge(*args, **kwargs)

    def counting_whole(edges, *args):
        checked[0] += len(edges)
        return whole(edges, *args)

    for module in (core, constructions):
        monkeypatch.setattr(module, "make_edge", counting)
        monkeypatch.setattr(module, "_canonical", counting_whole)
    return checked


class TestCanonicalConstruction:
    @pytest.mark.parametrize("r,k", [(3, 2), (3, 3), (3, 4), (3, 5), (4, 2), (4, 3), (5, 2), (6, 2)])
    def test_every_stage_is_canonical(self, r, k):
        certs = stages(r, k)
        for cert in certs:
            g = cert.graph
            assert Hypergraph(n=g.n, r=g.r, edges=g.edges) == g
            assert all(
                len(e) == cert.r and list(e) == sorted(set(e)) for e in cert.sequence
            )
        assert certs[-1] == build_full(r, k)

    def test_build_full_checks_each_edge_once(self, monkeypatch):
        # only each stage's sequence, 1,508 edges; 20,052 while every stage checked its graph
        sequences = sum(len(c.sequence) for c in stages(4, 3))
        assert sequences == 1_508
        checked = count_edge_checks(monkeypatch)
        build_full(4, 3)
        assert checked[0] == sequences

    def test_glue_checks_only_the_edges_it_builds(self, monkeypatch):
        # only each stage's sequence, 722 edges; 23,886 while every stage checked its graph,
        # and 40,770 while glue re-checked the C(20, 5) = 15,504 tuples of the last lift
        sequences = sum(len(c.sequence) for c in stages(5, 2))
        assert sequences == 722
        checked = count_edge_checks(monkeypatch)
        build_full(5, 2)
        assert checked[0] == sequences


def test_scaffold_is_apex_free_and_strip_is_path_local():
    cert = build_base(3)
    apex = cert.apex
    strip = {e for e in cert.graph if apex in e and e != cert.ignition}
    scaffold = {e for e in cert.graph if apex not in e}
    assert len(strip) == 2 * (4 * 3 - 4)
    w = layer_width(3)
    for e in strip:
        rest = [v for v in e if v != apex]
        assert rest[0] // w == rest[1] // w  # same path
        assert rest[1] - rest[0] == 1  # consecutive
    for e in scaffold:
        layers = sorted(v // w for v in e)
        assert layers in ([0, 0, 1], [0, 1, 1])


def test_glued_certificate_replays_exactly():
    cert = build_full(3, 2)
    res = run_fast(cert.graph)
    assert res.running_time == 40
    for i in range(1, 41):
        assert res.trace.steps[i - 1] == {cert.sequence[i]}


@pytest.mark.parametrize("stage, r, k", [*(("base", 3, k) for k in range(2, 6)),
                                         ("full", 3, 3), ("full", 4, 2), ("full", 5, 2)])
def test_every_vertex_label_is_on_the_grid_and_maps_back(stage, r, k):
    # id_to_label and _vid are inverse on every construction vertex
    cert = build_base(k) if stage == "base" else build_full(r, k)
    for v in range(cert.graph.n):
        label = id_to_label(v, cert.k)
        assert 1 <= label.index <= layer_width(cert.k) and label.layer >= 1
        assert constructions._vid(*dataclasses.astuple(label), cert.k) == v
