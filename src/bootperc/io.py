"""Deterministic text serialization for graphs, certificates, and traces.

Documents are JSON with a fixed key order, two-space indentation, one
edge per line, and a terminating newline; emitting is byte-identical
across platforms and re-emitting a parsed canonical document
reproduces it exactly.  Traces are line-delimited JSON records, one
infected edge per line after a header carrying r, n, and T.

Parsing is strict: any document violating a graph or certificate
invariant is rejected with a specific error code (``syntax``,
``schema``, ``version``, ``arity``, ``duplicate-vertex``,
``duplicate-edge``, ``id-range``, ``not-canonical``, ``certificate``).
:func:`read_document` reads either kind of document, telling a
certificate by its ``ignition`` key.

The parser checks every edge it reads, and a parsed document's graph
takes them unchecked; a hand-built document's graph checks its edges in
:meth:`Hypergraph.from_edges`, and :class:`SequentialCertificate` its sequence.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property
from typing import Any, TextIO

from .constructions import CertificateError, SequentialCertificate
from .core import Edge, Hypergraph, VertexLabel
from .engine import RunResult

__all__ = [
    "FORMAT_VERSION",
    "DocumentError",
    "GraphDocument",
    "CertificateDocument",
    "emit_graph",
    "parse_graph",
    "emit_certificate",
    "parse_certificate",
    "read_document",
    "emit_trace",
]

FORMAT_VERSION = "1"


class DocumentError(ValueError):
    """A malformed or non-canonical document.

    ``code`` identifies the failure class; ``line`` is set for syntax
    errors.
    """

    def __init__(self, code: str, message: str, line: int | None = None):
        self.code = code
        self.line = line
        where = f" (line {line})" if line is not None else ""
        super().__init__(f"{code}: {message}{where}")


class _DocumentGraph:
    """A document's graph, built on first use unless the parser has set it."""

    def to_hypergraph(self) -> Hypergraph:
        return self._graph

    @cached_property
    def _graph(self) -> Hypergraph:
        return Hypergraph.from_edges(self.n, self.r, self.edges)


@dataclass(frozen=True)
class GraphDocument(_DocumentGraph):
    """Serializable form of a hypergraph, optionally with construction labels."""

    format_version: str
    r: int
    n: int
    k: int | None
    labels: tuple[VertexLabel, ...] | None
    edges: tuple[Edge, ...]

    @classmethod
    def from_hypergraph(
        cls,
        g: Hypergraph,
        k: int | None = None,
        labels: tuple[VertexLabel, ...] | None = None,
    ) -> GraphDocument:
        return cls(
            format_version=FORMAT_VERSION,
            r=g.r,
            n=g.n,
            k=k,
            labels=labels,
            edges=g.sorted_edges,
        )


@dataclass(frozen=True)
class CertificateDocument(_DocumentGraph):
    """Serializable form of a sequential certificate."""

    format_version: str
    r: int
    n: int
    k: int
    labels: tuple[VertexLabel, ...] | None
    edges: tuple[Edge, ...]
    ignition: Edge
    sequence: tuple[Edge, ...]
    predicted_t: int
    apex: int | None

    @classmethod
    def from_certificate(
        cls,
        cert: SequentialCertificate,
        labels: tuple[VertexLabel, ...] | None = None,
    ) -> CertificateDocument:
        return cls(
            format_version=FORMAT_VERSION,
            r=cert.r,
            n=cert.graph.n,
            k=cert.k,
            labels=labels,
            edges=cert.graph.sorted_edges,
            ignition=cert.ignition,
            sequence=cert.sequence,
            predicted_t=cert.predicted_t,
            apex=cert.apex,
        )

    def to_certificate(self) -> SequentialCertificate:
        """The document's certificate, built on the first call and shared after."""
        return self._built_certificate

    @cached_property
    def _built_certificate(self) -> SequentialCertificate:
        return SequentialCertificate(
            graph=self._graph,
            ignition=self.ignition,
            sequence=self.sequence,
            r=self.r,
            k=self.k,
            predicted_t=self.predicted_t,
            apex=self.apex,
        )


# ---------------------------------------------------------------------------
# emission


def _render_list(items: list[str]) -> list[str]:
    """Lines of a top-level list value: one rendered item per line."""
    if not items:
        return ["[]"]
    return ["[", *(f"    {item}," for item in items[:-1]), f"    {items[-1]}", "  ]"]


def _render_edges(edges: tuple[Edge, ...]) -> list[str]:
    return _render_list([json.dumps(list(e)) for e in edges])


def _emit_document(bodies: dict[str, list[str]]) -> str:
    """Render each key with its already rendered value lines, in order."""
    out = ["{"]
    for i, (key, body) in enumerate(bodies.items()):
        out += [f'  "{key}": {body[0]}', *body[1:]]
        if i + 1 < len(bodies):
            out[-1] += ","
    out.append("}")
    return "\n".join(out) + "\n"


def _graph_bodies(doc: GraphDocument | CertificateDocument) -> dict[str, list[str]]:
    """The keys a graph and a certificate document share, ``format_version`` to ``edges``."""
    bodies = {
        "format_version": [json.dumps(doc.format_version)],
        "r": [json.dumps(doc.r)],
        "n": [json.dumps(doc.n)],
    }
    if doc.k is not None:
        bodies["k"] = [json.dumps(doc.k)]
    if doc.labels is not None:
        bodies["labels"] = _render_list(
            [f'{{"layer": {lab.layer}, "index": {lab.index}}}' for lab in doc.labels]
        )
    bodies["edges"] = _render_edges(doc.edges)
    return bodies


def emit_graph(doc: GraphDocument | Hypergraph) -> str:
    """Canonical text for a graph document (byte-deterministic)."""
    if isinstance(doc, Hypergraph):
        doc = GraphDocument.from_hypergraph(doc)
    return _emit_document(_graph_bodies(doc))


def emit_certificate(doc: CertificateDocument | SequentialCertificate) -> str:
    """Canonical text for a certificate document (byte-deterministic)."""
    if isinstance(doc, SequentialCertificate):
        doc = CertificateDocument.from_certificate(doc)
    bodies = _graph_bodies(doc)
    bodies["ignition"] = [json.dumps(list(doc.ignition))]
    bodies["sequence"] = _render_edges(doc.sequence)
    bodies["predicted_t"] = [json.dumps(doc.predicted_t)]
    if doc.apex is not None:
        bodies["apex"] = [json.dumps(doc.apex)]
    return _emit_document(bodies)


def emit_trace(result: RunResult, sink: TextIO) -> None:
    """Line-delimited trace: a header record, then one record per infected edge.

    Within a step, edges appear in lexicographic order.
    """
    g = result.final_graph
    header = {"format_version": FORMAT_VERSION, "r": g.r, "n": g.n, "t": result.running_time}
    sink.write(json.dumps(header) + "\n")
    for i, stepset in enumerate(result.trace.steps, start=1):
        for e in sorted(stepset):
            sink.write(json.dumps({"step": i, "edge": list(e)}) + "\n")


# ---------------------------------------------------------------------------
# parsing


def _load_object(text: str) -> dict[str, Any]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("syntax", exc.msg, line=exc.lineno) from exc
    except RecursionError as exc:
        raise DocumentError("syntax", "values nested too deeply") from exc
    if not isinstance(data, dict):
        raise DocumentError("schema", "top-level value must be an object")
    return data


def _require_int(data: dict[str, Any], key: str) -> int:
    value = data.get(key)
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError("schema", f"field {key!r} must be an integer")
    return value


def _check_keys(data: dict[str, Any], required: set[str], optional: set[str]) -> None:
    keys = set(data)
    missing = required - keys
    if missing:
        raise DocumentError("schema", f"missing field(s): {sorted(missing)}")
    unknown = keys - required - optional
    if unknown:
        raise DocumentError("schema", f"unknown field(s): {sorted(unknown)}")


def _parse_edge(raw: Any, r: int, n: int) -> Edge:
    if not isinstance(raw, list) or not all(
        isinstance(v, int) and not isinstance(v, bool) for v in raw
    ):
        raise DocumentError("schema", f"edge {raw!r} must be a list of integers")
    if len(raw) != r:
        raise DocumentError("arity", f"edge {raw} has {len(raw)} vertices, expected {r}")
    if len(set(raw)) != len(raw):
        raise DocumentError("duplicate-vertex", f"duplicate vertex in edge {raw}")
    if sorted(raw) != raw:
        raise DocumentError("not-canonical", f"edge {raw} is not sorted")
    if raw and (raw[0] < 0 or raw[-1] >= n):
        raise DocumentError("id-range", f"edge {raw} out of range for n={n}")
    return tuple(raw)


def _parse_edge_list(raw: Any, r: int, n: int) -> tuple[Edge, ...]:
    if not isinstance(raw, list):
        raise DocumentError("schema", "field 'edges' must be a list")
    edges = [_parse_edge(item, r, n) for item in raw]
    for a, b in zip(edges, edges[1:]):
        if a == b:
            raise DocumentError("duplicate-edge", f"edge {list(a)} appears twice")
        if a > b:
            raise DocumentError("not-canonical", "edge list is not lexicographically sorted")
    return tuple(edges)


def _parse_labels(raw: Any, n: int) -> tuple[VertexLabel, ...]:
    if not isinstance(raw, list):
        raise DocumentError("schema", "field 'labels' must be a list")
    if len(raw) != n:
        raise DocumentError("schema", f"labels list must have one entry per vertex ({n})")
    labels: list[VertexLabel] = []
    for item in raw:
        if (
            not isinstance(item, dict)
            or set(item) != {"layer", "index"}
            or not all(isinstance(v, int) and not isinstance(v, bool) for v in item.values())
            or item["layer"] < 1
            or item["index"] < 1
        ):
            raise DocumentError("schema", f"label {item!r} must be {{layer, index}} positive ints")
        labels.append(VertexLabel(layer=item["layer"], index=item["index"]))
    return tuple(labels)


def parse_graph(text: str) -> GraphDocument:
    """Parse and validate a canonical graph document."""
    return _graph_document(_load_object(text))


def _graph_document(data: dict[str, Any]) -> GraphDocument:
    """Validate an already decoded graph document."""
    _check_keys(data, required={"format_version", "r", "n", "edges"}, optional={"k", "labels"})
    return _graph_fields(data)


def _graph_fields(data: dict[str, Any]) -> GraphDocument:
    """Validate the fields every document has, ``format_version`` to ``edges``.

    Every edge is checked here, so the document's graph takes them unchecked.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError("version", f"unsupported format_version {version!r}")
    r = _require_int(data, "r")
    n = _require_int(data, "n")
    if r < 1 or n < 0:
        raise DocumentError("schema", f"invalid r={r} or n={n}")
    k: int | None = None
    if "k" in data:
        k = _require_int(data, "k")
        if k < 1:
            raise DocumentError("schema", f"invalid k={k}")
    labels = _parse_labels(data["labels"], n) if "labels" in data else None
    edges = _parse_edge_list(data["edges"], r, n)
    doc = GraphDocument(format_version=version, r=r, n=n, k=k, labels=labels, edges=edges)
    object.__setattr__(doc, "_graph", Hypergraph._trusted(n, r, frozenset(edges)))
    return doc


def parse_certificate(text: str) -> CertificateDocument:
    """Parse and validate a canonical certificate document."""
    return _certificate(_load_object(text))


def read_document(text: str) -> GraphDocument | CertificateDocument:
    """Parse a graph or a certificate document: a certificate has an ``ignition`` key."""
    data = _load_object(text)
    return _certificate(data) if "ignition" in data else _graph_document(data)


def _certificate(data: dict[str, Any]) -> CertificateDocument:
    """Validate an already decoded certificate document.

    Its certificate is built here to check the certificate invariants,
    and :meth:`CertificateDocument.to_certificate` hands out that one.
    """
    _check_keys(
        data,
        required={"format_version", "r", "n", "k", "edges", "ignition", "sequence", "predicted_t"},
        optional={"labels", "apex"},
    )
    graph = _graph_fields(data)
    r, n = graph.r, graph.n
    assert graph.k is not None
    ignition = _parse_edge(data["ignition"], r, n)
    raw_seq = data["sequence"]
    if not isinstance(raw_seq, list):
        raise DocumentError("schema", "field 'sequence' must be a list")
    sequence = tuple(_parse_edge(item, r, n) for item in raw_seq)
    predicted_t = _require_int(data, "predicted_t")
    apex = _require_int(data, "apex") if "apex" in data else None
    doc = CertificateDocument(
        format_version=graph.format_version,
        r=r,
        n=n,
        k=graph.k,
        labels=graph.labels,
        edges=graph.edges,
        ignition=ignition,
        sequence=sequence,
        predicted_t=predicted_t,
        apex=apex,
    )
    object.__setattr__(doc, "_graph", graph._graph)
    try:
        doc.to_certificate()
    except CertificateError as exc:
        raise DocumentError("certificate", str(exc)) from exc
    return doc
