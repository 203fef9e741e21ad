import dataclasses
import gc
import hashlib
import io as stdio
import itertools
import json
import random
import re
import tracemalloc
from functools import cache
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import bootperc.core as core
import bootperc.io as bio
from bootperc import (
    Hypergraph,
    InfectionTrace,
    RunResult,
    SequentialCertificate,
    VertexLabel,
    build_base,
    build_full,
    id_to_label,
    run_fast,
    run_naive,
)
from bootperc.constructions import _glue as glue
from bootperc.constructions import _lift as lift
from bootperc.io import (
    CertificateDocument,
    DocumentError,
    GraphDocument,
    emit_certificate,
    emit_graph,
    emit_trace,
    parse_certificate,
    parse_graph,
    read_document,
)

from helpers import complete, forbid_revalidation, peak_traced_bytes, per_edge_checks, random_hypergraph


def k34_doc() -> str:
    return emit_graph(complete(4, 3))


class TestGraphRoundTrip:
    def test_complete_graph_document(self):
        text = k34_doc()
        doc = parse_graph(text)
        assert doc.graph.r == 3 and doc.graph.n == 4
        assert doc.graph.sorted_edges == ((0, 1, 2), (0, 1, 3), (0, 2, 3), (1, 2, 3))
        assert emit_graph(doc) == text

    def test_emit_is_deterministic(self):
        g = build_base(3).graph
        assert emit_graph(g) == emit_graph(g)

    def test_round_trip_with_optional_fields(self):
        g = build_base(2).graph
        labels = tuple(id_to_label(i, 2) for i in range(g.n))
        doc = GraphDocument(g, k=2, labels=labels)
        text = emit_graph(doc)
        again = parse_graph(text)
        assert again == doc
        assert emit_graph(again) == text
        assert again.to_hypergraph() == g

    def test_empty_graph(self):
        g = Hypergraph(n=3, r=3, edges=frozenset())
        text = emit_graph(g)
        assert parse_graph(text).to_hypergraph() == g
        assert emit_graph(parse_graph(text)) == text

    def test_ends_with_newline(self):
        assert k34_doc().endswith("}\n")


K34_DOCUMENT = """\
{
  "format_version": "1",
  "r": 3,
  "n": 4,
  "edges": [
    [0, 1, 2],
    [0, 1, 3],
    [0, 2, 3],
    [1, 2, 3]
  ]
}
"""


def labels_for(n: int, k: int):
    return tuple(id_to_label(i, k) for i in range(n))


def full_4_2_labelled() -> str:
    cert = build_full(4, 2)
    return emit_certificate(CertificateDocument(cert, labels=labels_for(cert.graph.n, cert.k)))


def base_3_graph_labelled() -> str:
    g = build_base(3).graph
    return emit_graph(GraphDocument(g, k=3, labels=labels_for(g.n, 3)))


GOLDEN_DIGESTS = [
    (full_4_2_labelled, "6eeffa7fb031ad6aa1e32b1c7e5046d3240d34ad5202e090afcbdd1f994bde22"),
    (lambda: emit_certificate(glue(build_base(3))),
     "187281ff510695a887b0dbbd266a946c344d0ddc3a194a0387fd5a791f0471e8"),
    (base_3_graph_labelled, "d6f0250d96be4bfb607cd01b9828b99796644dae9cbcdd2c95836cc3148fec5f"),
]



def fast_trace(seed: int, n: int, r: int, p: float, m: int) -> str:
    sink = stdio.StringIO()
    emit_trace(run_fast(random_hypergraph(random.Random(seed), n, r, p), m=m), sink)
    return sink.getvalue()


# (seed, n, r, p, m): random graphs near their thresholds, T = 18 and T = 4
GOLDEN_TRACES = [
    ((4, 16, 3, 0.4, 5), "c2bfb0952a372a677854014988627f25ab3279744b568ce433c84162f085f726"),
    ((1, 30, 2, 0.06, 3), "27fec07d7d09510c059b98885adfa74fccace40aa022bd20111888b3aeb75748"),
]


class TestGoldenBytes:
    """The exact emitted text, so a change of layout cannot pass as a round trip."""

    def test_readme_graph_document(self):
        assert emit_graph(complete(4, 3)) == K34_DOCUMENT
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        assert f"```json\n{K34_DOCUMENT}```" in readme

    @pytest.mark.parametrize("emit, digest", GOLDEN_DIGESTS)
    def test_document_digests(self, emit, digest):
        assert hashlib.sha256(emit().encode("utf-8")).hexdigest() == digest

    @pytest.mark.parametrize("graph, digest", GOLDEN_TRACES)
    def test_fast_trace_digests(self, graph, digest):
        assert hashlib.sha256(fast_trace(*graph).encode("utf-8")).hexdigest() == digest


class TestCertificateRoundTrip:
    @pytest.mark.parametrize("k", [2, 3])
    def test_base_certificate(self, k):
        cert = build_base(k)
        labels = tuple(id_to_label(i, k) for i in range(cert.graph.n))
        doc = CertificateDocument(cert, labels=labels)
        text = emit_certificate(doc)
        again = parse_certificate(text)
        assert again == doc
        assert emit_certificate(again) == text
        assert again.to_certificate() == cert

    def test_glued_certificate_omits_apex(self):
        cert = build_full(3, 2)
        text = emit_certificate(cert)
        assert '"apex"' not in text
        assert parse_certificate(text).to_certificate() == cert

    def test_certificate_is_built_once_per_document(self, monkeypatch):
        cert = build_base(2)
        text = emit_certificate(cert)
        forbid_revalidation(monkeypatch)
        doc = parse_certificate(text)
        assert doc.to_certificate() is doc.to_certificate()
        assert doc.to_certificate() == cert
        assert doc.to_hypergraph() is doc.to_certificate().graph
        built = CertificateDocument(cert)
        assert built.to_certificate() is built.to_certificate()

    def test_accepts_certificate_directly(self):
        cert = build_base(2)
        assert emit_certificate(cert) == emit_certificate(CertificateDocument(cert))


@cache
def full_4_2_stages():
    """Every certificate ``build_full(4, 2)`` passes through: base, glue, lift, glue."""
    base = build_base(2)
    glued = glue(base)
    lifted = lift(glued)
    return base, glued, lifted, glue(lifted)


def drawn_labels(n: int):
    construction = tuple(id_to_label(i, 2) for i in range(n))
    drawn = st.lists(
        st.builds(VertexLabel, st.integers(1, 9), st.integers(1, 9)), min_size=n, max_size=n
    )
    return st.sampled_from([None, construction]) | drawn.map(tuple)


@st.composite
def graph_documents(draw):
    r = draw(st.integers(1, 3))
    n = draw(st.integers(r, 7))
    edges = draw(st.lists(st.sampled_from(list(itertools.combinations(range(n), r))), unique=True))
    k = draw(st.none() | st.integers(1, 9))
    return GraphDocument(Hypergraph.from_edges(n, r, edges), k=k, labels=draw(drawn_labels(n)))


@st.composite
def certificate_documents(draw):
    cert = draw(st.sampled_from(full_4_2_stages()))
    return CertificateDocument(cert, labels=draw(drawn_labels(cert.graph.n)))


class TestEveryDocumentRoundTrips:
    @settings(derandomize=True, max_examples=100, deadline=None)
    @given(doc=graph_documents())
    def test_graph_documents(self, doc):
        text = emit_graph(doc)
        assert parse_graph(text) == doc and read_document(text) == doc
        assert emit_graph(parse_graph(text)) == text

    @settings(derandomize=True, max_examples=20, deadline=None)
    @given(doc=certificate_documents())
    def test_certificate_documents(self, doc):
        text = emit_certificate(doc)
        assert parse_certificate(text) == doc and read_document(text) == doc
        assert emit_certificate(parse_certificate(text)) == text

    @pytest.mark.parametrize("k", [0, -1, True, 1.0, "2"])
    def test_bad_k_is_refused(self, k):
        # the certificate holds its k, so no certificate document can hold a bad one
        message = f"k must be >= 1, got {k}" if type(k) is int else f"k must be an int, got {k!r}"
        for make in (lambda: GraphDocument(complete(4, 3), k=k),
                     lambda: dataclasses.replace(build_base(2), k=k)):
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as exc:
                make()
            assert type(exc.value) is ValueError

    @pytest.mark.parametrize(
        "fault",
        [
            lambda labels: (labels[:-1], None),
            lambda labels: (labels + labels[:1], None),
            *(
                lambda labels, last=last, message=message: (labels[:-1] + (last,), message)
                for last, message in [
                    ((0, 1), "layer must be >= 1, got 0"),
                    ((1, -1), "index must be >= 1, got -1"),
                    ((True, 1), "layer must be an int, got True"),
                    ((1, 1.0), "index must be an int, got 1.0"),
                    (("1", 1), "layer must be an int, got '1'"),
                ]
            ),
        ],
    )
    def test_bad_labels_are_refused(self, fault):
        cert = build_base(2)
        labels, message = fault(tuple(id_to_label(i, 2) for i in range(cert.graph.n)))
        if message is not None:  # a label off the grid is refused where it is built
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                VertexLabel(*labels[-1])
            return
        count = r"^labels list must have one entry per vertex \(11\)$"
        for make, held in ((GraphDocument, cert.graph), (CertificateDocument, cert)):
            with pytest.raises(ValueError, match=count):
                make(held, labels=labels)


def doc_dict(text: str) -> dict:
    return json.loads(text)


def rewrite(text: str, mutate) -> str:
    data = doc_dict(text)
    mutate(data)
    return json.dumps(data)


class TestParseErrors:
    def assert_code(self, text, code, parse=parse_graph):
        with pytest.raises(DocumentError) as exc_info:
            parse(text)
        assert exc_info.value.code == code

    def test_syntax_error_carries_line(self):
        with pytest.raises(DocumentError) as exc_info:
            parse_graph('{\n  "format_version": "1",\n  broken\n}')
        assert exc_info.value.code == "syntax"
        assert exc_info.value.line == 3

    def test_deep_nesting_is_a_syntax_error(self):
        for parse in (parse_graph, parse_certificate, read_document):
            self.assert_code("[" * 200_000, "syntax", parse=parse)

    def test_integer_past_the_digit_limit_is_a_syntax_error(self):
        # json.loads raises a plain ValueError past int()'s 4,300-digit limit
        self.assert_code('{"n": 1' + "0" * 5000, "syntax")

    def test_top_level_must_be_object(self):
        self.assert_code("[1, 2]", "schema")

    def test_version(self):
        self.assert_code(rewrite(k34_doc(), lambda d: d.update(format_version="2")), "version")

    def test_missing_field(self):
        self.assert_code(rewrite(k34_doc(), lambda d: d.pop("edges")), "schema")

    def test_unknown_field(self):
        self.assert_code(rewrite(k34_doc(), lambda d: d.update(extra=1)), "schema")

    def test_edges_must_be_a_list(self):
        text = rewrite(k34_doc(), lambda d: d.update(edges={"0": [0, 1, 2]}))
        with pytest.raises(DocumentError, match="field 'edges' must be a list"):
            parse_graph(text)
        self.assert_code(text, "schema")

    def test_arity_mismatch(self):
        self.assert_code(
            rewrite(k34_doc(), lambda d: d["edges"].append([0, 1])), "arity"
        )

    def test_duplicate_vertex_in_edge(self):
        text = rewrite(k34_doc(), lambda d: d["edges"].__setitem__(0, [0, 0, 1]))
        with pytest.raises(DocumentError, match="duplicate vertex in edge"):
            parse_graph(text)
        self.assert_code(text, "duplicate-vertex")

    def test_id_out_of_range(self):
        self.assert_code(
            rewrite(k34_doc(), lambda d: d["edges"].__setitem__(0, [0, 1, 9])), "id-range"
        )

    def test_unsorted_edge(self):
        self.assert_code(
            rewrite(k34_doc(), lambda d: d["edges"].__setitem__(0, [2, 1, 0])),
            "not-canonical",
        )

    def test_unsorted_edge_list(self):
        self.assert_code(
            rewrite(k34_doc(), lambda d: d["edges"].reverse()), "not-canonical"
        )

    def test_duplicate_edge(self):
        self.assert_code(
            rewrite(k34_doc(), lambda d: d["edges"].insert(0, [0, 1, 2])),
            "duplicate-edge",
        )

    def test_bad_labels(self):
        base = emit_graph(
            GraphDocument(
                complete(4, 3),
                k=2,
                labels=tuple(VertexLabel(1, i + 1) for i in range(4)),
            )
        )
        self.assert_code(rewrite(base, lambda d: d["labels"].pop()), "schema")

    def test_certificate_invariant_violation(self):
        cert = build_base(2)
        text = emit_certificate(cert)
        # point the ignition at an edge outside the graph
        mutated = rewrite(text, lambda d: d.update(ignition=[0, 1, 2]))
        self.assert_code(mutated, "certificate", parse=parse_certificate)

    def test_certificate_predicted_t_mismatch(self):
        text = emit_certificate(build_base(2))
        mutated = rewrite(text, lambda d: d.update(predicted_t=99))
        self.assert_code(mutated, "certificate", parse=parse_certificate)

    def test_certificate_requires_k(self):
        text = emit_certificate(build_base(2))
        self.assert_code(
            rewrite(text, lambda d: d.pop("k")), "schema", parse=parse_certificate
        )


def base2_doc() -> str:
    return emit_certificate(build_base(2))


READ_ERRORS = [
    (parse_graph, lambda: "\n{nope", "syntax"),
    (parse_graph, lambda: "[1, 2]", "schema"),
    (parse_graph, lambda: rewrite(k34_doc(), lambda d: d.update(format_version="2")), "version"),
    (parse_graph, lambda: rewrite(k34_doc(), lambda d: d["edges"].append([0, 1])), "arity"),
    (parse_graph, lambda: rewrite(k34_doc(), lambda d: d["edges"].append([1, 1, 2])),
     "duplicate-vertex"),
    (parse_graph, lambda: rewrite(k34_doc(), lambda d: d["edges"].append([1, 2, 4])), "id-range"),
    (parse_graph, lambda: rewrite(k34_doc(), lambda d: d["edges"].append([1, 2, 3])),
     "duplicate-edge"),
    (parse_graph, lambda: rewrite(k34_doc(), lambda d: d["edges"].insert(0, [1, 2, 3])),
     "not-canonical"),
    (parse_certificate, lambda: rewrite(base2_doc(), lambda d: d.pop("k")), "schema"),
    (parse_certificate, lambda: rewrite(base2_doc(), lambda d: d["sequence"].append([0, 1])),
     "arity"),
    (parse_certificate, lambda: rewrite(base2_doc(), lambda d: d.update(predicted_t=99)),
     "certificate"),
    # a field set to null, optional ones too: the objects read None as absent
    *(pytest.param(parse,
                   lambda make=make, field=field: rewrite(make(), lambda d: d.update({field: None})),
                   "version" if field == "format_version" else "schema", id=f"{kind}-{field}-null")
      for kind, parse, make, fields in [
          ("graph", parse_graph, k34_doc, ["format_version", "r", "n", "k", "labels", "edges"]),
          ("certificate", parse_certificate, base2_doc,
           ["format_version", "r", "n", "k", "labels", "edges", "ignition", "sequence",
            "predicted_t", "apex"])]
      for field in fields),
]


class TestReadDocument:
    def test_returns_the_document_type(self):
        graph = read_document(k34_doc())
        assert isinstance(graph, GraphDocument) and graph == parse_graph(k34_doc())
        assert graph.to_hypergraph() == complete(4, 3)
        cert = read_document(base2_doc())
        assert isinstance(cert, CertificateDocument) and cert == parse_certificate(base2_doc())
        assert cert.to_hypergraph() == build_base(2).graph

    @pytest.mark.parametrize("parse, make, code", READ_ERRORS)
    def test_raises_the_codes_of_the_typed_parsers(self, parse, make, code):
        text = make()
        for reader in (parse, read_document):
            with pytest.raises(DocumentError) as exc_info:
                reader(text)
            assert exc_info.value.code == code


INT_STANDINS = (True, "1", 1.0)


@cache
def fuzz_sources() -> tuple[list[str], list[str]]:
    """Canonical graph and certificate documents, with and without optional fields."""
    base = build_base(2)
    labels = tuple(id_to_label(i, 2) for i in range(base.graph.n))
    graphs = [
        k34_doc(),
        emit_graph(GraphDocument(base.graph, k=2, labels=labels)),
        emit_graph(Hypergraph.from_edges(6, 2, [(0, 1), (1, 2), (2, 5), (3, 4)])),
    ]
    certificates = [
        base2_doc(),
        emit_certificate(CertificateDocument(base, labels=labels)),
        emit_certificate(build_full(3, 2)),
    ]
    return graphs, certificates


def mutate(data: dict, draw) -> str:
    """Apply one drawn mutation to a decoded canonical document; return its error code."""
    kind = draw(st.sampled_from(["vertex", "edge list", "integer"]))
    if kind == "integer":
        fields = [key for key in ("r", "n", "k", "predicted_t", "apex", "labels") if key in data]
        field = draw(st.sampled_from(fields))
        standin = draw(st.sampled_from(INT_STANDINS))
        if field == "labels":
            draw(st.sampled_from(data["labels"]))[draw(st.sampled_from(["layer", "index"]))] = standin
        else:
            data[field] = standin
        return "schema"
    if kind == "edge list":
        edges = data["edges"]
        i = draw(st.integers(min_value=0, max_value=len(edges) - 2))
        if draw(st.booleans()):
            edges.insert(i, list(edges[i]))
            return "duplicate-edge"
        edges[i], edges[i + 1] = edges[i + 1], edges[i]
        return "not-canonical"
    edges = data["edges"] + data.get("sequence", [])
    if "ignition" in data:
        edges.append(data["ignition"])
    edge = draw(st.sampled_from(edges))
    p = draw(st.integers(min_value=0, max_value=len(edge) - 2))  # every source has r >= 2
    op = draw(st.sampled_from(["drop", "repeat", "swap", "below", "above", "standin"]))
    if op == "drop":
        del edge[p]
        return "arity"
    if op == "repeat":
        edge[p + 1] = edge[p]
        return "duplicate-vertex"
    if op == "swap":
        edge[p], edge[p + 1] = edge[p + 1], edge[p]
        return "not-canonical"
    if op == "below":
        edge[0] = -1
        return "id-range"
    if op == "above":
        edge[-1] = data["n"]
        return "id-range"
    edge[p] = draw(st.sampled_from(INT_STANDINS))
    return "schema"


class TestCollectorPause:
    PARSERS = [(parse_graph, k34_doc), (parse_certificate, base2_doc),
               (read_document, k34_doc), (read_document, base2_doc)]

    @pytest.fixture(autouse=True)
    def restore_collector(self):
        enabled = gc.isenabled()
        yield
        (gc.enable if enabled else gc.disable)()

    @pytest.mark.parametrize("enabled", [True, False])
    @pytest.mark.parametrize("parse, make", PARSERS)
    def test_caller_state_comes_back(self, parse, make, enabled):
        (gc.enable if enabled else gc.disable)()
        parse(make())
        assert gc.isenabled() is enabled
        for bad in ("{", "[]", make().replace('"r"', '"rr"')):
            with pytest.raises(DocumentError):
                parse(bad)
            assert gc.isenabled() is enabled

    @pytest.mark.parametrize("parse, make", PARSERS)
    def test_collector_is_off_while_decoding_and_converting(self, parse, make, monkeypatch):
        seen = []
        for name in ("_load_object", "_graph_fields"):
            step = getattr(bio, name)
            monkeypatch.setattr(bio, name, lambda x, step=step: seen.append(gc.isenabled()) or step(x))
        gc.enable()
        parse(make())
        assert seen == [False, False] and gc.isenabled()


class TestParseFuzz:
    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(certificate=st.booleans(), data=st.data())
    def test_one_mutation_raises_its_code(self, certificate, data):
        source = data.draw(st.sampled_from(fuzz_sources()[certificate]))
        decoded = json.loads(source)
        code = mutate(decoded, data.draw)
        text = json.dumps(decoded)
        for parse in (parse_certificate if certificate else parse_graph, read_document):
            with pytest.raises(DocumentError) as exc_info:
                parse(text)
            assert exc_info.value.code == code

    def test_parsing_checks_no_edge_twice(self, monkeypatch):
        graph_text = emit_graph(GraphDocument(build_base(3).graph, k=3))
        cert_text = emit_certificate(build_full(3, 2))

        def refuse(*args, **kwargs):
            raise AssertionError("a parsed edge was checked again")

        monkeypatch.setattr(core, "make_edge", refuse)
        docs = [parse_graph(graph_text), read_document(graph_text), parse_certificate(cert_text)]
        graphs = [doc.to_hypergraph() for doc in docs]
        cert = docs[-1].to_certificate()
        monkeypatch.undo()
        for g in graphs:
            assert g == Hypergraph.from_edges(g.n, g.r, g.edges)
        assert cert.graph is graphs[-1] and cert == build_full(3, 2)


BREAKS = (
    "bool", "float", "negative", "repeated vertex", "unsorted edge", "arity", "id >= n",
    "non-list item", "repeated edge", "out of order", "none",
)


def broken(edges: list[list[int]], n: int, draw) -> list:
    """A copy of a canonical edge list (r >= 2, at least two edges) with one drawn break."""
    edges = [list(e) for e in edges]
    kind = draw(st.sampled_from(BREAKS))
    i = draw(st.integers(min_value=0, max_value=len(edges) - 2))
    e = edges[i]
    p = draw(st.integers(min_value=0, max_value=len(e) - 1))
    if kind == "bool":
        e[p] = draw(st.booleans())
    elif kind == "float":
        e[p] = float(e[p])
    elif kind == "negative":
        e[p] = -1 - e[p]
    elif kind == "repeated vertex":
        e[p] = e[p - 1]
    elif kind == "unsorted edge":
        e.reverse()
    elif kind == "arity":
        e.pop(p) if draw(st.booleans()) else e.append(n + p)
    elif kind == "id >= n":
        e[-1] = n + p
    elif kind == "non-list item":
        edges[i] = draw(st.sampled_from([3, "ab", None, {"a": 1}, 2.5]))
    elif kind == "repeated edge":
        edges.insert(i, list(e))
    elif kind == "out of order":
        edges[i], edges[i + 1] = edges[i + 1], e
    return edges


def as_tuples(items: list) -> list:
    return [tuple(x) if isinstance(x, list) else x for x in items]


def outcome(call):
    """What a call returns, or the type, message and code of what it raises."""
    try:
        return call()
    except Exception as exc:  # compared whatever it is, never swallowed
        return type(exc), str(exc), getattr(exc, "code", None)


@cache
def differential_certificates() -> tuple[SequentialCertificate, ...]:
    return build_base(2), build_full(3, 2)


class TestWholeListChecks:
    """Whole-list checks accept exactly what the per-edge checks accept, and a broken
    list raises what they raise: the same type, code and message."""

    @settings(derandomize=True, max_examples=300, deadline=None)
    @given(data=st.data())
    def test_broken_edge_lists_fail_as_the_per_edge_checks_do(self, data):
        r = data.draw(st.integers(min_value=2, max_value=4))
        n = data.draw(st.integers(min_value=r + 1, max_value=8))
        valid = data.draw(st.lists(
            st.sampled_from(list(itertools.combinations(range(n), r))),
            min_size=2, max_size=12, unique=True,
        ).map(sorted))
        raw = broken(valid, n, data.draw)
        graph_text = json.dumps({"format_version": "1", "r": r, "n": n, "edges": raw})
        calls = [
            lambda: parse_graph(graph_text),
            lambda: Hypergraph.from_edges(n, r, as_tuples(raw)),
            lambda: Hypergraph(n=n, r=r, edges=frozenset(as_tuples(raw))),
        ]
        cert = data.draw(st.sampled_from(differential_certificates()))
        decoded = json.loads(emit_certificate(cert))
        key = data.draw(st.sampled_from(["edges", "sequence"]))
        decoded[key] = broken(decoded[key], cert.graph.n, data.draw)
        if key == "sequence" and data.draw(st.booleans()):  # a step that is already infected
            step = data.draw(st.integers(min_value=1, max_value=len(decoded[key]) - 1))
            decoded[key][step] = list(data.draw(st.sampled_from(cert.graph.sorted_edges)))
        cert_text = json.dumps(decoded)
        sequence = tuple(as_tuples(decoded["sequence"]))
        calls += [
            lambda: parse_certificate(cert_text),
            lambda: SequentialCertificate(
                graph=cert.graph, ignition=cert.ignition, sequence=sequence, r=cert.r,
                k=cert.k, predicted_t=cert.predicted_t, apex=cert.apex,
            ),
        ]
        for call in calls:
            with per_edge_checks():
                want = outcome(call)
            assert outcome(call) == want

    def test_peaks_stay_at_the_per_edge_checks(self):
        # the per-edge code peaked at 1.92 MB emitting, 3.83-3.98 MB parsing (with the
        # collector's timing) and 1.70 MB in from_edges, which copied every edge
        cert = build_full(4, 3)
        text, peak = peak_traced_bytes(lambda: emit_certificate(cert))
        assert peak < 2.1 * 10**6
        doc, peak = peak_traced_bytes(lambda: parse_certificate(text))
        assert doc.to_certificate() == cert and peak < 4.1 * 10**6
        edges = list(cert.graph.edges)
        g, peak = peak_traced_bytes(lambda: Hypergraph.from_edges(cert.graph.n, cert.r, edges))
        assert g == cert.graph and peak < 10**6

    def test_parse_frees_the_decoded_lists_once_converted(self):
        # on (5,2) the parse peaked at 1.88 times what it keeps while the decoded edge and
        # sequence lists lived until it returned, and at 1.19 times once they were freed
        text = emit_certificate(build_full(5, 2))
        tracemalloc.start()
        try:
            doc = parse_certificate(text)
            kept, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(doc.certificate.graph) == 20_048
        assert peak < 1.5 * kept


class TestEmitTrace:
    def read_lines(self, result):
        sink = stdio.StringIO()
        emit_trace(result, sink)
        return sink.getvalue().splitlines()

    def test_base_replay(self):
        cert = build_base(2)
        lines = self.read_lines(run_fast(cert.graph))
        header = json.loads(lines[0])
        assert header == {"format_version": "1", "r": 3, "n": 11, "t": 12}
        assert len(lines) == 13
        for i, line in enumerate(lines[1:], start=1):
            record = json.loads(line)
            assert record["step"] == i
            assert tuple(record["edge"]) == cert.sequence[i]

    def test_stationary_input(self):
        g = Hypergraph(n=5, r=3, edges=frozenset())
        lines = self.read_lines(run_naive(g))
        assert len(lines) == 1
        assert json.loads(lines[0])["t"] == 0

    def test_single_infection(self):
        g = complete(4, 3).without((0, 1, 2))
        lines = self.read_lines(run_fast(g))
        assert len(lines) == 2
        assert json.loads(lines[1]) == {"step": 1, "edge": [0, 1, 2]}

    @given(data=st.data())
    def test_each_record_is_what_json_dumps_writes(self, data):
        # no engine runs here: on ids at 2^64 and above its link masks would be that wide
        r = data.draw(st.integers(1, 4))
        low = data.draw(st.sampled_from([0, 2**64 - 2, 3**50]))
        n = low + data.draw(st.integers(r, r + 4))
        edge = st.sets(st.integers(low, n - 1), min_size=r, max_size=r).map(lambda s: tuple(sorted(s)))
        edges = data.draw(st.lists(edge, unique=True, max_size=12))
        at = data.draw(st.lists(st.integers(1, 3), min_size=len(edges), max_size=len(edges)))
        steps = [sorted(e for e, i in zip(edges, at) if i == s) for s in sorted(set(at))]
        g = Hypergraph.from_edges(n, r, edges)
        lines = self.read_lines(RunResult(g, InfectionTrace(tuple(map(frozenset, steps)))))
        records = [json.dumps({"step": i, "edge": list(e)}) for i, s in enumerate(steps, 1) for e in s]
        assert lines[1:] == records

    def test_hand_built_result_heads_its_own_length(self):
        # a stored T could disagree with the records, as "t": 5 above one record
        trace = InfectionTrace((frozenset({(0, 3)}),))
        lines = self.read_lines(RunResult(Hypergraph(n=5, r=2, edges=frozenset()), trace))
        assert json.loads(lines[0]) == {"format_version": "1", "r": 2, "n": 5, "t": 1}
        assert len(lines) == 1 + len(trace.steps)

    def test_lexicographic_within_step(self):
        # two independent near-complete 4-sets infect two edges at step 1
        g = complete(4, 3).without((0, 1, 2))
        extra = [tuple(sorted(v + 4 for v in e)) for e in complete(4, 3)]
        extra.remove((4, 5, 6))
        g = Hypergraph.from_edges(8, 3, list(g.edges) + extra)
        lines = self.read_lines(run_fast(g))
        records = [json.loads(line) for line in lines[1:]]
        assert [r["edge"] for r in records] == [[0, 1, 2], [4, 5, 6]]
