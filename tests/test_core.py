import itertools

import pytest
from hypothesis import given
from hypothesis import strategies as st

from bootperc.core import (
    ArityError,
    DuplicateVertexError,
    Hypergraph,
    LabelRangeError,
    VertexLabel,
    VertexRangeError,
    VertexTypeError,
    id_to_label,
    label_to_id,
    layer_width,
    make_edge,
)
from bootperc.engine import _supersets

from helpers import forbid_revalidation, sorting_supersets


class TestMakeEdge:
    def test_sorts(self):
        assert make_edge((3, 1, 2), r=3) == (1, 2, 3)

    def test_duplicate_vertex(self):
        with pytest.raises(DuplicateVertexError):
            make_edge((1, 1, 2))

    def test_already_canonical(self):
        assert make_edge((0, 5, 9), n=11) == (0, 5, 9)

    def test_wrong_arity(self):
        with pytest.raises(ArityError):
            make_edge((0, 1), r=3)

    def test_out_of_range(self):
        with pytest.raises(VertexRangeError):
            make_edge((0, 5, 11), n=11)
        with pytest.raises(VertexRangeError):
            make_edge((-1, 2, 3))

    @pytest.mark.parametrize("ids", [(0, 1, 2.0), (0, True, 2), (0.0,), (0, 1, "2")])
    def test_vertex_ids_must_be_ints(self, ids):
        with pytest.raises(VertexTypeError):
            make_edge(ids)


class TestLabels:
    def test_first_vertex(self):
        assert label_to_id(VertexLabel(1, 1), k=2) == 0

    def test_layer_three_head(self):
        # (3-1)*5 + 0 with width 4k-3 = 5
        assert label_to_id(VertexLabel(3, 1), k=2) == 10

    def test_layer_two_tail(self):
        # (2-1)*5 + 4
        assert label_to_id(VertexLabel(2, 5), k=2) == 9

    def test_index_out_of_range(self):
        with pytest.raises(LabelRangeError):
            label_to_id(VertexLabel(1, 6), k=2)
        with pytest.raises(LabelRangeError):
            label_to_id(VertexLabel(1, 0), k=2)
        with pytest.raises(LabelRangeError):
            label_to_id(VertexLabel(0, 1), k=2)

    def test_negative_id(self):
        with pytest.raises(LabelRangeError, match="vertex id must be >= 0"):
            id_to_label(-1, k=2)

    @given(
        k=st.integers(min_value=2, max_value=7),
        layer=st.integers(min_value=1, max_value=8),
        data=st.data(),
    )
    def test_round_trip(self, k, layer, data):
        index = data.draw(st.integers(min_value=1, max_value=layer_width(k)))
        label = VertexLabel(layer, index)
        vid = label_to_id(label, k)
        assert id_to_label(vid, k) == label

    @given(k=st.integers(min_value=2, max_value=7), vid=st.integers(min_value=0, max_value=200))
    def test_round_trip_from_id(self, k, vid):
        assert label_to_id(id_to_label(vid, k), k) == vid


class TestSupersets:
    def test_single_completion(self):
        assert list(_supersets((0, 1, 2), n=4, m=4)) == [(0, 1, 2, 3)]

    def test_two_completions(self):
        assert list(_supersets((0, 1, 2), n=5, m=4)) == [(0, 1, 2, 3), (0, 1, 2, 4)]

    def test_no_spare_vertex(self):
        assert list(_supersets((0, 1, 2), n=3, m=4)) == []

    def test_interleaved_vertices_stay_sorted(self):
        assert list(_supersets((1, 3), n=5, m=3)) == [(0, 1, 3), (1, 2, 3), (1, 3, 4)]

    def test_matches_the_sorting_definition_exhaustively(self):
        for n in range(10):
            for r in range(n + 1):
                for m in range(r + 1, n + 2):
                    for e in itertools.combinations(range(n), r):
                        assert list(_supersets(e, n, m)) == sorting_supersets(e, n, m), (e, n, m)

    @given(
        n=st.integers(min_value=3, max_value=10),
        data=st.data(),
    )
    def test_count_matches_spare_vertices(self, n, data):
        r = data.draw(st.integers(min_value=2, max_value=n - 1))
        e = tuple(sorted(data.draw(
            st.sets(st.integers(min_value=0, max_value=n - 1), min_size=r, max_size=r)
        )))
        assert len(list(_supersets(e, n, r + 1))) == n - r


class TestHypergraph:
    def test_lexicographic_iteration(self):
        g = Hypergraph.from_edges(5, 3, [(2, 3, 4), (0, 1, 2), (0, 2, 4)])
        assert list(g) == [(0, 1, 2), (0, 2, 4), (2, 3, 4)]

    def test_membership_and_len(self):
        g = Hypergraph.from_edges(4, 2, [(1, 0), (2, 3)])
        assert (0, 1) in g and (2, 3) in g and (0, 2) not in g
        assert len(g) == 2

    def test_duplicate_edges_collapse(self):
        g = Hypergraph.from_edges(4, 2, [(0, 1), (1, 0)])
        assert len(g) == 1

    def test_complete_count(self):
        assert len(Hypergraph.complete(6, 3)) == 20

    def test_validation(self):
        with pytest.raises(ArityError):
            Hypergraph.from_edges(4, 3, [(0, 1)])
        with pytest.raises(VertexRangeError):
            Hypergraph.from_edges(3, 3, [(0, 1, 3)])
        with pytest.raises(DuplicateVertexError):
            Hypergraph(n=4, r=3, edges=frozenset({(0, 1, 1)}))
        with pytest.raises(DuplicateVertexError):
            Hypergraph(n=4, r=3, edges=frozenset({(2, 1, 0)}))

    @pytest.mark.parametrize("kind", ["list with a duplicate", "set", "tuple", "generator"])
    @given(data=st.data())
    def test_constructor_takes_only_a_frozenset(self, kind, data):
        # any other collection goes through from_edges, which dedupes, freezes and reads once
        n = data.draw(st.integers(min_value=1, max_value=8))
        r = data.draw(st.integers(min_value=1, max_value=n))
        edge = st.sets(st.integers(0, n - 1), min_size=r, max_size=r).map(lambda s: tuple(sorted(s)))
        edges = data.draw(st.lists(edge, min_size=1, max_size=12))
        make = {
            "list with a duplicate": lambda: edges + edges[:1],
            "set": lambda: set(edges),
            "tuple": lambda: tuple(edges),
            "generator": lambda: (e for e in edges),
        }[kind]
        with pytest.raises(ValueError, match="Hypergraph.from_edges"):
            Hypergraph(n, r, make())
        assert Hypergraph.from_edges(n, r, make()) == Hypergraph(n, r, frozenset(edges))

    @pytest.mark.parametrize("n, r", [(5.0, 3), (5, 3.0), (True, 1), (5, True)])
    def test_sizes_must_be_ints(self, n, r):
        # a float or bool would be emitted as text the parser refuses
        with pytest.raises(ValueError, match="must be ints"):
            Hypergraph(n=n, r=r, edges=frozenset())

    def test_constructor_refuses_a_float_vertex(self):
        with pytest.raises(VertexTypeError):
            Hypergraph(n=5, r=3, edges=frozenset({(0, 1, 2.0)}))

    def test_from_edges_refuses_a_float_vertex(self):
        with pytest.raises(VertexTypeError):
            Hypergraph.from_edges(5, 3, [(0, 1, 2), (0, 1, 2.0)])

    def test_with_and_without(self):
        g = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
        g2 = g.with_edges([(1, 2, 3)])
        assert len(g2) == 2 and len(g) == 1
        g3 = g2.without((0, 1, 2))
        assert list(g3) == [(1, 2, 3)]

    def test_with_edges_validates_the_added_edges(self):
        g = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
        with pytest.raises(ArityError):
            g.with_edges([(0, 1)])
        with pytest.raises(VertexRangeError):
            g.with_edges([(1, 2, 4)])
        with pytest.raises(VertexRangeError):
            g.with_edges([(-1, 2, 3)])
        with pytest.raises(DuplicateVertexError):
            g.with_edges([(1, 1, 3)])
        assert g.with_edges([(3, 2, 1)]).edges == {(0, 1, 2), (1, 2, 3)}

    def test_derived_graphs_are_not_validated_again(self, monkeypatch):
        forbid_revalidation(monkeypatch)
        g = Hypergraph.from_edges(5, 3, [(0, 1, 2), (0, 1, 3), (0, 2, 3)])
        assert len(Hypergraph.complete(5, 3)) == 10
        assert g.with_edges([(4, 2, 1)]).edges == g.edges | {(1, 2, 4)}
        assert g.without((2, 0, 1)).edges == g.edges - {(0, 1, 2)}
        assert g.padded(7) == Hypergraph.from_edges(7, 3, g.edges)
        with pytest.raises(AssertionError, match="re-validated"):
            Hypergraph(n=5, r=3, edges=g.edges)

    def test_derived_graphs_still_check_sizes(self):
        with pytest.raises(ValueError):
            Hypergraph.complete(-1, 2)
        with pytest.raises(ValueError):
            Hypergraph.complete(3, 0)

    def test_padded(self):
        g = Hypergraph.from_edges(4, 3, [(0, 1, 2)]).padded(10)
        assert g.n == 10 and len(g) == 1
        with pytest.raises(ValueError):
            g.padded(3)

    def test_equality_is_structural(self):
        a = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
        b = Hypergraph.from_edges(4, 3, [(2, 1, 0)])
        assert a == b

    def test_immutable(self):
        g = Hypergraph.from_edges(4, 3, [(0, 1, 2)])
        with pytest.raises(AttributeError):
            g.n = 5  # type: ignore[misc]


def test_facets_of_supersets_cover_edge():
    e = (1, 4, 6)
    for t in _supersets(e, n=8, m=4):
        assert e in itertools.combinations(t, len(e))
        assert set(e) < set(t)


def test_supersets_general_m():
    e = (0, 1)
    out = list(_supersets(e, n=5, m=4))
    assert out == [tuple(sorted((0, 1) + extra))
                   for extra in itertools.combinations([2, 3, 4], 2)]
