"""Deterministic text serialization for graphs, certificates, and traces.

Each document is a dict of JSON values in a fixed key order, rendered
by one function with two-space indentation: a non-empty top-level list
one compact item per line, any other value (the ignition included) on
its key's line, a None value left out, and a final newline.  Emitting
is byte-identical across platforms and re-emitting a parsed canonical
document reproduces it exactly.  Traces are line-delimited JSON
records, one infected edge per line after a header carrying r, n, and T.

A :class:`GraphDocument` holds a :class:`Hypergraph`, with the optional
construction parameter k and vertex labels; a :class:`CertificateDocument`
holds a :class:`SequentialCertificate` and optional labels.  Those objects
check their own invariants and the document constructors check k and the
labels, so a document whose numbers are all ints emits text the parser
accepts.

Parsing is strict: any document violating a graph or certificate
invariant is rejected with a specific error code (``syntax``,
``schema``, ``version``, ``arity``, ``duplicate-vertex``,
``duplicate-edge``, ``id-range``, ``not-canonical``, ``certificate``).
:func:`read_document` reads either kind of document, telling a
certificate by its ``ignition`` key.  The parser checks each edge list
whole, in a few passes of built-in functions: every item a list of r
strictly increasing plain ints in [0, n), and the graph's list strictly
increasing.  Only a list that fails is checked edge by edge, which names
its first bad edge and its code.  The graph is built from the checked
edges unchecked; the certificate checks its sequence edges again, whole,
as it does for any caller.  The cyclic collector is paused while a
document is decoded and converted, and the caller's setting restored.
"""

from __future__ import annotations

import gc
import json
from collections.abc import Callable
from dataclasses import asdict, dataclass
from itertools import islice
from operator import lt
from typing import Any, TextIO

from .constructions import CertificateError, SequentialCertificate
from .core import Edge, Hypergraph, VertexLabel, _canonical, _is_int
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

Labels = tuple[VertexLabel, ...]


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


def _check_extras(n: int, k: Any, labels: Labels | None, optional_k: bool = False) -> None:
    """Refuse a k that is not an int of at least 1 (None where optional), or labels
    other than one positive (layer, index) per vertex."""
    if not ((k is None and optional_k) or (_is_int(k) and k >= 1)):
        raise ValueError(f"invalid k={k!r}")
    if labels is None:
        return
    if len(labels) != n:
        raise ValueError(f"labels list must have one entry per vertex ({n})")
    for lab in labels:
        if not (_is_int(lab.layer) and _is_int(lab.index) and lab.layer >= 1 and lab.index >= 1):
            raise ValueError(f"label {lab!r} must be {{layer, index}} positive ints")


@dataclass(frozen=True)
class GraphDocument:
    """Serializable form of a hypergraph, optionally with construction k and labels."""

    graph: Hypergraph
    k: int | None = None
    labels: Labels | None = None

    def __post_init__(self) -> None:
        _check_extras(self.graph.n, self.k, self.labels, optional_k=True)

    def to_hypergraph(self) -> Hypergraph:
        return self.graph


@dataclass(frozen=True)
class CertificateDocument:
    """Serializable form of a sequential certificate, optionally with labels."""

    certificate: SequentialCertificate
    labels: Labels | None = None

    def __post_init__(self) -> None:
        _check_extras(self.certificate.graph.n, self.certificate.k, self.labels)

    def to_hypergraph(self) -> Hypergraph:
        return self.certificate.graph

    def to_certificate(self) -> SequentialCertificate:
        return self.certificate


# ---------------------------------------------------------------------------
# emission


def _emit_document(doc: dict[str, Any]) -> str:
    """Render ``doc`` in key order, leaving out None: a non-empty list one compact item
    per line, any other value (a tuple such as the ignition included) on its key's line.
    Lists other than the labels hold edges, tuples of plain ints of one width, each
    rendered as its JSON list by one ``%d`` format sized from the first."""
    lines = []
    for key, value in doc.items():
        if isinstance(value, list) and value:
            edge_text = "[" + ", ".join(["%d"] * len(value[0])) + "]"
            items = map(json.dumps, value) if key == "labels" else map(edge_text.__mod__, value)
            lines.append(f'  "{key}": [\n    ' + ",\n    ".join(items) + "\n  ]")
        elif value is not None:
            lines.append(f'  "{key}": {json.dumps(value)}')
    return "{\n" + ",\n".join(lines) + "\n}\n"


def _graph_dict(graph: Hypergraph, k: int | None, labels: Labels | None) -> dict[str, Any]:
    """The keys a graph and a certificate document share, ``format_version`` to ``edges``."""
    return {
        "format_version": FORMAT_VERSION, "r": graph.r, "n": graph.n, "k": k,
        "labels": None if labels is None else [asdict(lab) for lab in labels],
        "edges": list(graph.sorted_edges),
    }


def emit_graph(doc: GraphDocument | Hypergraph) -> str:
    """Canonical text for a graph document (byte-deterministic)."""
    if isinstance(doc, Hypergraph):
        doc = GraphDocument(doc)
    return _emit_document(_graph_dict(doc.graph, doc.k, doc.labels))


def emit_certificate(doc: CertificateDocument | SequentialCertificate) -> str:
    """Canonical text for a certificate document (byte-deterministic)."""
    if isinstance(doc, SequentialCertificate):
        doc = CertificateDocument(doc)
    cert = doc.certificate
    return _emit_document(_graph_dict(cert.graph, cert.k, doc.labels) | {
        "ignition": cert.ignition, "sequence": list(cert.sequence),
        "predicted_t": cert.predicted_t, "apex": cert.apex,
    })


def emit_trace(result: RunResult, sink: TextIO) -> None:
    """Line-delimited trace: a header record, then one record per infected edge.

    Within a step, edges appear in lexicographic order.
    """
    g = result.final_graph
    header = {"format_version": FORMAT_VERSION, "r": g.r, "n": g.n, "t": result.running_time}
    sink.write(json.dumps(header) + "\n")
    edge = ", ".join(["%d"] * g.r) + "]}\n"  # one format per step, the text json.dumps writes
    for i, stepset in enumerate(result.trace.steps, start=1):
        sink.writelines(map(('{"step": %d, "edge": [' % i + edge).__mod__, sorted(stepset)))


# ---------------------------------------------------------------------------
# parsing


def _load_object(text: str) -> dict[str, Any]:
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentError("syntax", exc.msg, line=exc.lineno) from exc
    except RecursionError as exc:
        raise DocumentError("syntax", "values nested too deeply") from exc
    except ValueError as exc:  # an int of more digits than int() converts
        raise DocumentError("syntax", str(exc)) from exc
    if not isinstance(data, dict):
        raise DocumentError("schema", "top-level value must be an object")
    return data


def _require_int(data: dict[str, Any], key: str) -> int:
    value = data.get(key)
    if not _is_int(value):
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
    if not isinstance(raw, list) or not all(map(_is_int, raw)):
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


def _parse_edges(raw: Any, r: int, n: int, field: str) -> tuple[Edge, ...]:
    """The edges of a list field, checked whole; only a list that fails is checked edge
    by edge, which names its first bad edge."""
    if not isinstance(raw, list):
        raise DocumentError("schema", f"field {field!r} must be a list")
    if _canonical(raw, r, n, list):
        return tuple(map(tuple, raw))
    return tuple(_parse_edge(item, r, n) for item in raw)


def _parse_edge_list(raw: Any, r: int, n: int) -> tuple[Edge, ...]:
    edges = _parse_edges(raw, r, n, "edges")
    if not all(map(lt, edges, islice(edges, 1, None))):
        for a, b in zip(edges, edges[1:]):  # names the first pair out of order
            if a == b:
                raise DocumentError("duplicate-edge", f"edge {list(a)} appears twice")
            if a > b:
                raise DocumentError("not-canonical", "edge list is not lexicographically sorted")
    return edges


def _parse_labels(raw: Any) -> Labels:
    """The labels as given; the document checks their count and values."""
    if not isinstance(raw, list) or not all(
        isinstance(item, dict) and set(item) == {"layer", "index"} for item in raw
    ):
        raise DocumentError("schema", "field 'labels' must be a list of {layer, index} objects")
    return tuple(VertexLabel(layer=item["layer"], index=item["index"]) for item in raw)


def _parse(text: str, convert: Callable[[dict[str, Any]], Any]) -> Any:
    """``convert`` of the object ``text`` decodes to, with the cyclic collector off, then
    on again if it was on: a document decodes to many lists and tuples, none in a cycle,
    that live until they are converted, so a collection would traverse them and free none."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        return convert(_load_object(text))
    finally:
        if enabled:
            gc.enable()


def parse_graph(text: str) -> GraphDocument:
    """Parse and validate a canonical graph document."""
    return _parse(text, _graph_document)


def _graph_document(data: dict[str, Any]) -> GraphDocument:
    """Validate an already decoded graph document."""
    _check_keys(data, required={"format_version", "r", "n", "edges"}, optional={"k", "labels"})
    graph, k, labels = _graph_fields(data)
    try:
        return GraphDocument(graph, k, labels)
    except ValueError as exc:
        raise DocumentError("schema", str(exc)) from exc


def _graph_fields(data: dict[str, Any]) -> tuple[Hypergraph, int | None, Labels | None]:
    """The graph, k and labels every document has, ``format_version`` to ``edges``.

    Every edge is checked here, so the graph takes them unchecked.  The
    edge list is taken out of ``data``, so the decoded lists are freed
    once they are converted.
    """
    version = data.get("format_version")
    if version != FORMAT_VERSION:
        raise DocumentError("version", f"unsupported format_version {version!r}")
    r = _require_int(data, "r")
    n = _require_int(data, "n")
    if r < 1 or n < 0:
        raise DocumentError("schema", f"invalid r={r} or n={n}")
    k = _require_int(data, "k") if "k" in data else None
    labels = _parse_labels(data["labels"]) if "labels" in data else None
    edges = _parse_edge_list(data.pop("edges"), r, n)
    return Hypergraph._trusted(n, r, frozenset(edges)), k, labels


def parse_certificate(text: str) -> CertificateDocument:
    """Parse and validate a canonical certificate document."""
    return _parse(text, _certificate)


def read_document(text: str) -> GraphDocument | CertificateDocument:
    """Parse a graph or a certificate document: a certificate has an ``ignition`` key."""
    return _parse(
        text, lambda data: _certificate(data) if "ignition" in data else _graph_document(data))


def _certificate(data: dict[str, Any]) -> CertificateDocument:
    """Validate an already decoded certificate document, building its certificate once.

    The edge and sequence lists are taken out of ``data`` as they are converted."""
    _check_keys(
        data,
        required={"format_version", "r", "n", "k", "edges", "ignition", "sequence", "predicted_t"},
        optional={"labels", "apex"},
    )
    graph, k, labels = _graph_fields(data)
    r, n = graph.r, graph.n
    ignition = _parse_edge(data["ignition"], r, n)
    sequence = _parse_edges(data.pop("sequence"), r, n, "sequence")
    predicted_t = _require_int(data, "predicted_t")
    apex = _require_int(data, "apex") if "apex" in data else None
    try:
        cert = SequentialCertificate(
            graph=graph, ignition=ignition, sequence=sequence, r=r, k=k,
            predicted_t=predicted_t, apex=apex,
        )
        return CertificateDocument(cert, labels)
    except ValueError as exc:
        code = "certificate" if isinstance(exc, CertificateError) else "schema"
        raise DocumentError(code, str(exc)) from exc
