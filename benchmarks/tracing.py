"""Spans around the benchmark's calls into bootperc, and the per-layer metrics
derived from them.

A span records one public call: its name (``<layer>.<function>``), an
optional case label, the job it belongs to, its parent span, its start
and end on the ``perf_counter`` clock, and the exact work counts the
harness computed from the call's inputs and outputs.  Spans are kept in
memory and written out when the run ends.

The untraced runner (:class:`Calls`) makes the same calls and only
remembers which call raised, so a failure can still be charged to a
layer.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Iterator

LAYERS = ("core", "constructions", "engine", "verify", "io", "cli")

_LIBRARY = ("r3k5", "r4k2", "r4k3", "w3n80")
_REPLAYED = _LIBRARY + ("r5k2",)
_GRID = ("r2n100", "r3n20", "r3n30", "r4n16", "r3n16m5")
_ORACLE = ("o2n5", "o3n5", "o2n6", "o3n6")

# Every per-layer metric the traced run reports, in BENCHMARK.json order.
PER_LAYER_METRICS = [
    "core.from_edges_s", "core.edges_validated",
    "constructions.build_s", *(f"constructions.build.{c}_s" for c in _LIBRARY),
    "constructions.edges_built",
    "engine.run_fast_s", "engine.run_naive_s", "engine.step_s",
    *(f"engine.run_fast.{c}_s" for c in _REPLAYED + ("b5",) + _GRID),
    "engine.run_naive.r5k2_s",
    "engine.edges_infected", "engine.steps", "engine.counter_updates", "engine.updates_per_s",
    "verify.verify_sequential_s", *(f"verify.verify_sequential.{c}_s" for c in _LIBRARY),
    "verify.sweep_tuples", "verify.replay_ratio",
    "verify.forward_s", "verify.cross_check_s", "verify.stationarity_s", "verify.reverse_s",
    "verify.check_density_s", "verify.clique_census_s",
    "verify.oracle_s", *(f"verify.oracle.{c}_s" for c in _ORACLE),
    "verify.oracle.masks", "verify.oracle.masks_per_s",
    "io.emit_certificate_s", "io.parse_certificate_s", "io.parse_graph_s", "io.emit_trace_s",
    "io.emit_certificate.r5k2_s", "io.parse_certificate.r5k2_s",
    "io.bytes", "io.bytes_per_s",
    "cli.startup_s", "cli.build_s", "cli.run_s", "cli.verify_s",
    *(f"{layer}.self_s" for layer in LAYERS),
    *(f"{layer}.errors" for layer in LAYERS),
    "trace.overhead_s", "trace.spans",
]


def unit_of(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    return "ratio" if name.endswith("_ratio") else "count"


def layer_of(name: str) -> str:
    return name.split(".", 1)[0]


class Calls:
    """Untraced call runner."""

    def __init__(self) -> None:
        self.job: int | None = None
        self.failed_in: str | None = None

    def call(
        self,
        name: str,
        fn: Callable[..., Any],
        *args: Any,
        case: str | None = None,
        work: Callable[[Any], dict[str, int]] | None = None,
        **kwargs: Any,
    ) -> Any:
        """``fn(*args, **kwargs)`` in a span; ``work`` maps the result to span counts."""
        with self.group(name, case):
            return fn(*args, **kwargs)

    @contextmanager
    def group(self, name: str, case: str | None = None) -> Iterator[None]:
        """A span around the ``with`` block; an exception is charged to the innermost."""
        self._open(name, case)
        try:
            yield
        except Exception:
            self.failed_in = self.failed_in or name
            raise
        finally:
            self._close()

    def _open(self, name: str, case: str | None) -> None:
        pass

    def _close(self) -> None:
        pass


@dataclass
class Span:
    name: str
    case: str | None
    job: int | None
    parent: int | None
    start: float
    end: float = 0.0
    work: dict[str, int] = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


class Tracer(Calls):
    """Call runner that records a span per call."""

    def __init__(self) -> None:
        super().__init__()
        self.spans: list[Span] = []
        self._stack: list[int] = []

    def _open(self, name: str, case: str | None) -> None:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        self.spans.append(Span(name, case, self.job, parent, time.perf_counter()))

    def _close(self) -> None:
        self.spans[self._stack.pop()].end = time.perf_counter()

    def call(self, name, fn, *args, case=None, work=None, **kwargs):
        index = len(self.spans)
        result = super().call(name, fn, *args, case=case, **kwargs)
        if work is not None:
            self.spans[index].work = work(result)
        return result


def self_seconds(durations: list[float], spans: list[Span]) -> list[float]:
    """Each span's duration minus the time its (sequential) children cover."""
    out = list(durations)
    for s, d in zip(spans, durations):
        if s.parent is not None:
            out[s.parent] -= d
    return out


def layer_metrics(spans: list[Span], seconds: Callable[[Span], float] = lambda s: s.seconds
                  ) -> dict[str, float]:
    """The per-layer metrics of one traced pass, from its spans.

    ``seconds`` gives a span's duration: raw by default, reference
    seconds when the worker passes its probe's normalization.

    ``<span>_s`` sums the durations of spans with that name and
    ``<span>.<case>_s`` those with that case; work counts sum by key;
    ``<layer>.self_s`` sums self time.  Rates divide a count by the time
    of the calls that did that work.  A name no span matches reads 0:
    the workload bypasses that call.
    """
    out = dict.fromkeys(PER_LAYER_METRICS, 0.0)

    def add(key: str, value: float) -> None:
        if key in out:
            out[key] += value

    durations = [seconds(s) for s in spans]
    for span, took, own in zip(spans, durations, self_seconds(durations, spans)):
        add(f"{span.name}_s", took)
        if span.case is not None:
            add(f"{span.name}.{span.case}_s", took)
        add(f"{layer_of(span.name)}.self_s", own)
        for key, value in span.work.items():
            add(key, value)

    def rate(key: str, num: float, den: float) -> None:
        out[key] = num / den if den > 0 else 0.0

    rate("engine.updates_per_s", out["engine.counter_updates"], out["engine.run_fast_s"])
    io_seconds = sum(d for s, d in zip(spans, durations) if layer_of(s.name) == "io")
    rate("io.bytes_per_s", out["io.bytes"], io_seconds)
    rate("verify.oracle.masks_per_s", out["verify.oracle.masks"], out["verify.oracle_s"])
    # verify time over one forward run_fast, on the cases that have both
    per_case: dict[str, dict[str, float]] = {}
    for span, took in zip(spans, durations):
        if span.name in ("verify.verify_sequential", "verify.forward") and span.case:
            times = per_case.setdefault(span.case, {})
            times[span.name] = times.get(span.name, 0.0) + took
    both = [t for t in per_case.values() if len(t) == 2]
    rate("verify.replay_ratio", sum(t["verify.verify_sequential"] for t in both),
         sum(t["verify.forward"] for t in both))
    add("trace.spans", len(spans))
    return out
