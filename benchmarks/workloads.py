"""The benchmark's three workloads: job lists made from a seed, and the
reference checks and exact work counts for each job.

A job is a closed sequence of public bootperc calls (``run``) followed
by an untimed ``check`` that compares the outputs with a reference that
does not come from the engine being timed: closed-form running times,
the certificate's own sequence, the other engine, or values frozen at
the commit that introduced the benchmark.  ``check`` also returns the
job's exact work counts, computed from inputs and outputs.
"""

from __future__ import annotations

import io as textio
import itertools
import json
import random
import subprocess
import sys
from dataclasses import dataclass
from math import comb
from pathlib import Path
from typing import Any, Callable

from bootperc import (
    Hypergraph,
    SequentialCertificate,
    brute_force_max_time,
    build_base,
    build_full,
    check_density,
    clique_census,
    run_fast,
    run_naive,
    step,
    verify_sequential,
)
from bootperc.io import emit_certificate, emit_trace, parse_certificate, parse_graph
from bootperc.verify import NAIVE_CROSS_CHECK_LIMIT

from speed import paused
from tracing import Calls

WORKLOADS = ("certify", "random-threshold", "oracle")
DEFAULT_SEED = 0
CLI_TIMEOUT_S = 150
PROBED_CLI = Path(__file__).resolve().parent / "probed_cli.py"

# Library path: full constructions, relabeled by the seed, through
# build -> emit -> parse -> verify.  (6,2) is left out: run_fast alone
# takes 19-25 s there.
LIBRARY_CASES = ((3, 5), (4, 2), (4, 3))
CLI_CASE = (5, 2)
WITNESS_CASE = (3, 7, 80)  # build_full(3, 7) padded to n = 80
BASE_KS = (2, 3, 4, 5)  # criterion 5

# (r, n, m, p, graphs per pass).  The r = 2 cell sits between the giant
# component (p ~ 1/n) and full percolation (p ~ log n / n); lower p made
# the job cost swing too much from seed to seed.  The other cells sit near
# their percolation thresholds, so T and the final size vary widely.
RANDOM_GRID = (
    (2, 100, 3, 0.03, 4),
    (3, 20, 4, 0.15, 30),
    (3, 30, 4, 0.08, 30),
    (4, 16, 5, 0.2, 25),
    (3, 16, 5, 0.4, 15),
)

# (r, n) -> (max T, witness).  Witnesses are edge lists for r = 2 and
# masks over the lexicographic edge list for r = 3, as first computed
# by the exhaustive oracle.  The r = 3, n = 7 scan (about 1.2 h) is left out.
ORACLE_EXPECTED: dict[tuple[int, int], tuple[int, Any]] = {
    (2, 5): (2, [(0, 1), (0, 3), (1, 2)]),
    (3, 5): (2, 94),
    (2, 6): (3, [(0, 3), (0, 5), (1, 2), (1, 4), (2, 3)]),
    (3, 6): (4, 14036),
}

# sha256 over one pass at DEFAULT_SEED of every job's outputs (documents,
# traces, replay verdicts, oracle results) and of every job's work counts,
# frozen when the benchmark was introduced.
FROZEN_DIGESTS: dict[str, dict[str, str]] = {
    "certify": {
        "output_digest": "d6462133b61a382f96de5c232e79bc2bbf5f6b9df528a0092ff321bdcdc2bb31",
        "work_digest": "d6787bc68c90610e21966f0464bd7c0ddd3f3efe144ce922d5a1f657e05f99a2",
    },
    "random-threshold": {
        "output_digest": "d235cd72076985a51caf2b074b67a0edf6bf451f6fda232d2a6dcd3c4421f13d",
        "work_digest": "dbb4b356d01025be824f47cddc0ff1c827be2bed206d35d42e6756cd29e56651",
    },
    "oracle": {
        "output_digest": "00e6d8b82ccbc4a4d25eb4a4e2294c601eb092193d14be2448cb1eb0d73c172a",
        "work_digest": "bbf7e7fdcb2aaa9d9b401b694a399d270a16a2e2490eecb9537e96e7acd1f781",
    },
}

Problem = tuple[str, str]  # (layer, message)


@dataclass
class Job:
    name: str
    run: Callable[[Calls], Any]
    check: Callable[[Any], tuple[list[Problem], dict[str, int], str]]


def full_running_time(r: int, k: int) -> int:
    """(2k-1)^(r-2) (8k^2 - 12k + 6) - 2, restated here as the reference."""
    return (2 * k - 1) ** (r - 2) * (8 * k * k - 12 * k + 6) - 2


def base_running_time(k: int) -> int:
    return 8 * k * k - 12 * k + 4


def counter_updates(final_edges: int, n: int, r: int, m: int) -> int:
    """run_fast's tuple-counter increments: C(n-r, m-r) per finalized edge."""
    return final_edges * comb(n - r, m - r)


def mask_edges(r: int, n: int, mask: int) -> list[tuple[int, ...]]:
    edges = itertools.combinations(range(n), r)
    return [e for i, e in enumerate(edges) if mask >> i & 1]


def _engine_work(n: int, r: int, m: int, initial: int):
    def work(result) -> dict[str, int]:
        final = len(result.final_graph)
        return {
            "engine.edges_infected": final - initial,
            "engine.steps": result.running_time,
            "engine.counter_updates": counter_updates(final, n, r, m),
        }

    return work


def _built(cert) -> dict[str, int]:
    return {"constructions.edges_built": len(cert.graph)}


def _io_bytes(text: str):
    return lambda _: {"io.bytes": len(text)}


def _replay_work(e0: int, t: int, n: int, r: int, nbytes: int) -> dict[str, int]:
    """Work of a one-edge-per-step replay with clique size r + 1."""
    return {"e0": e0, "infected": t, "T": t, "counter_updates": counter_updates(e0 + t, n, r, r + 1),
            "sweep_tuples": comb(n, r + 1), "bytes": nbytes}


def _replay_problems(report, t: int) -> list[Problem]:
    problems = []
    if not report.all_passed:
        problems.append(("verify", f"replay failed: {report}"))
    if (report.measured_t_forward, report.measured_t_reverse) != (t, t):
        problems.append(("verify", f"measured T {report.measured_t_forward}/"
                                   f"{report.measured_t_reverse}, closed form {t}"))
    return problems


# ---------------------------------------------------------------------------
# certify


def library_job(r: int, k: int, perm: list[int]) -> Job:
    case = f"r{r}k{k}"
    n = len(perm)
    t = full_running_time(r, k)

    def relabel(e):
        return tuple(sorted(perm[v] for v in e))

    def run(c: Calls):
        cert = c.call("constructions.build", build_full, r, k, case=case, work=_built)
        edges = [relabel(e) for e in cert.graph.edges]
        graph = c.call("core.from_edges", Hypergraph.from_edges, n, r, edges,
                       work=lambda g: {"core.edges_validated": len(g)})
        sequence = tuple(relabel(e) for e in cert.sequence)
        moved = c.call("constructions.certificate", SequentialCertificate, graph=graph,
                       ignition=sequence[0], sequence=sequence, r=r, k=k,
                       predicted_t=cert.predicted_t, apex=None)
        text = c.call("io.emit_certificate", emit_certificate, moved,
                      work=lambda s: {"io.bytes": len(s)})
        doc = c.call("io.parse_certificate", parse_certificate, text, work=_io_bytes(text))
        parsed = c.call("core.from_edges", doc.to_certificate,
                        work=lambda x: {"core.edges_validated": len(x.graph)})
        report = c.call("verify.verify_sequential", verify_sequential, parsed, case=case,
                        work=lambda _: {"verify.sweep_tuples": comb(n, r + 1)})
        return cert, moved, text, parsed, report

    def check(out):
        cert, moved, text, parsed, report = out
        problems = _replay_problems(report, t)
        if cert.predicted_t != t:
            problems.append(("constructions", f"predicted T {cert.predicted_t}, closed form {t}"))
        if (parsed.graph, parsed.sequence) != (moved.graph, moved.sequence):
            problems.append(("io", "certificate changed in the emit/parse round trip"))
        return problems, _replay_work(len(cert.graph), t, n, r, len(text)), text

    return Job(f"library.{case}", run, check)


def _cli(cwd: Path, args: list[str]) -> subprocess.CompletedProcess:
    """``python -m bootperc.cli`` by way of probed_cli.py, which probes the child."""
    with paused():
        return subprocess.run(
            [sys.executable, str(PROBED_CLI), *args],
            capture_output=True, text=True, timeout=CLI_TIMEOUT_S, cwd=cwd,
        )


def cli_job(r: int, k: int, root: Path, tmp: Path) -> Job:
    case = f"r{r}k{k}"
    n = r * (4 * k - 3)
    t = full_running_time(r, k)
    cert_path, trace_path = tmp / f"{case}.cert.json", tmp / f"{case}.trace.jsonl"

    def run(c: Calls):
        build = c.call("cli.build", _cli, root, ["build", "--r", str(r), "--k", str(k),
                                                 "--out", str(cert_path)])
        replay = c.call("cli.run", _cli, root, ["run", "--in", str(cert_path),
                                                "--trace", str(trace_path)])
        verified = c.call("cli.verify", _cli, root, ["verify", "--in", str(cert_path)])
        return build, replay, verified

    def check(out):
        problems: list[Problem] = []
        for proc in out:
            if proc.returncode != 0:
                problems.append(("cli", f"{proc.args[3]} exited {proc.returncode}: {proc.stderr.strip()}"))
        build, replay, verified = (p.stdout.split() for p in out)
        fields = dict(w.split("=", 1) for w in build if "=" in w)
        if (fields.get("vertices"), fields.get("predicted_T")) != (str(n), str(t)):
            problems.append(("cli", f"build printed {build}"))
        if f"T={t}" not in replay:
            problems.append(("cli", f"run printed {replay}"))
        wanted = {f"property_{p}=pass" for p in ("i", "ii", "iii")}
        wanted |= {f"measured_T_forward={t}", f"measured_T_reverse={t}"}
        if not wanted <= set(verified):
            problems.append(("cli", f"verify printed {verified}"))
        cert_text = cert_path.read_text() if cert_path.exists() else ""
        trace_text = trace_path.read_text() if trace_path.exists() else ""
        if trace_text.count("\n") != t + 1:
            problems.append(("cli", f"trace has {trace_text.count(chr(10))} lines, expected {t + 1}"))
        work = _replay_work(int(fields.get("edges", 0)), t, n, r, len(cert_text) + len(trace_text))
        return problems, work, cert_text + trace_text

    return Job(f"cli.{case}", run, check)


def witness_job(r: int, k: int, n: int) -> Job:
    case = f"w{r}n{n}"
    t = full_running_time(r, k)

    def run(c: Calls):
        cert = c.call("constructions.build", build_full, r, k, case=case, work=_built)
        graph = c.call("core.padded", cert.graph.padded, n)
        padded = c.call("constructions.certificate", SequentialCertificate, graph=graph,
                        ignition=cert.ignition, sequence=cert.sequence, r=r, k=k,
                        predicted_t=cert.predicted_t, apex=cert.apex)
        report = c.call("verify.verify_sequential", verify_sequential, padded, case=case,
                        work=lambda _: {"verify.sweep_tuples": comb(n, r + 1)})
        return padded, report

    def check(out):
        padded, report = out
        problems = _replay_problems(report, t)
        if padded.graph.n != n:
            problems.append(("core", f"padded graph has n = {padded.graph.n}"))
        work = _replay_work(len(padded.graph), t, n, r, 0)
        fingerprint = (report.all_passed, report.measured_t_forward, report.measured_t_reverse)
        return problems, work, repr(fingerprint)

    return Job(f"witness.{case}", run, check)


def criterion5_job(ks: tuple[int, ...]) -> Job:
    """Acceptance criterion 5 on the seed certificates: density of the
    headless graph, replay, and clique census of the final graph."""

    def run(c: Calls):
        out = []
        for k in ks:
            case = f"b{k}"
            cert = c.call("constructions.build", build_base, k, case=case, work=_built)
            headless = c.call("core.without", cert.graph.without, cert.ignition)
            density, _ = c.call("verify.check_density", check_density, headless)
            g = cert.graph
            result = c.call("engine.run_fast", run_fast, g, case=case,
                            work=_engine_work(g.n, 3, 4, len(g)))
            census = c.call("verify.clique_census", clique_census, result.final_graph)
            out.append((k, cert, density, result, census))
        return out

    def check(out):
        problems: list[Problem] = []
        work = dict.fromkeys(("e0", "infected", "T", "counter_updates", "sweep_tuples", "bytes"), 0)
        for k, cert, density, result, census in out:
            t, seq = base_running_time(k), cert.sequence
            if density > 2:
                problems.append(("verify", f"k={k}: headless density {density} > 2"))
            if cert.predicted_t != t:
                problems.append(("constructions", f"k={k}: predicted T {cert.predicted_t}, closed form {t}"))
            if result.trace.steps != tuple(frozenset({e}) for e in seq[1:]):
                problems.append(("engine", f"k={k}: replay differs from the certificate sequence"))
            expected = {tuple(sorted(set(seq[i - 1]) | set(seq[i]))) for i in range(1, t + 1)}
            if census != expected:
                problems.append(("verify", f"k={k}: clique census differs from the sequence's cliques"))
            e0 = len(cert.graph)
            work["e0"] += e0
            work["infected"] += t
            work["T"] += t
            work["counter_updates"] += counter_updates(e0 + t, cert.graph.n, 3, 4)
        return problems, work, repr([(k, density, len(census)) for k, _, density, _, census in out])

    return Job("criterion5." + "".join(f"b{k}" for k in ks), run, check)


def certify_jobs(seed: int, root: Path, tmp: Path) -> list[Job]:
    rng = random.Random(seed)
    jobs = []
    for r, k in LIBRARY_CASES:
        perm = list(range(r * (4 * k - 3)))
        rng.shuffle(perm)
        jobs.append(library_job(r, k, perm))
    jobs.append(cli_job(*CLI_CASE, root, tmp))
    jobs.append(witness_job(*WITNESS_CASE))
    jobs.append(criterion5_job(BASE_KS))
    return jobs


def reconstruct_verify(c: Calls, cert: SequentialCertificate, case: str) -> None:
    """The public calls verify_sequential makes, in its order, each in its own span.

    Run on the same certificate after the timed pass; the spans estimate
    how verify's time splits between its replays.
    """
    g = cert.graph
    with c.group("verify.forward", case):
        c.call("engine.run_fast", run_fast, g, case=case, work=_engine_work(g.n, g.r, g.r + 1, len(g)))
    if comb(g.n, g.r + 1) <= NAIVE_CROSS_CHECK_LIMIT:
        with c.group("verify.cross_check", case):
            c.call("engine.run_naive", run_naive, g, case=case)
    with c.group("verify.stationarity", case):
        c.call("engine.step", step, g.without(cert.ignition), case=case)
    with c.group("verify.reverse", case):
        start = g.without(cert.ignition).with_edges([cert.sequence[-1]])
        c.call("engine.run_fast", run_fast, start, work=_engine_work(g.n, g.r, g.r + 1, len(start)))


# ---------------------------------------------------------------------------
# random-threshold


def random_inputs(seed: int) -> list[tuple[str, int, str]]:
    """(cell, m, graph document) per job; edges kept independently with probability p."""
    rng = random.Random(seed)
    out = []
    for r, n, m, p, count in RANDOM_GRID:
        cell = f"r{r}n{n}" + (f"m{m}" if m != r + 1 else "")
        for _ in range(count):
            edges = [list(e) for e in itertools.combinations(range(n), r) if rng.random() < p]
            doc = json.dumps({"format_version": "1", "r": r, "n": n, "edges": edges})
            out.append((cell, m, doc))
    return out


def random_job(index: int, cell: str, m: int, text: str) -> Job:
    def run(c: Calls):
        doc = c.call("io.parse_graph", parse_graph, text, work=_io_bytes(text))
        g = c.call("core.from_edges", doc.to_hypergraph,
                   work=lambda g: {"core.edges_validated": len(g)})
        fast = c.call("engine.run_fast", run_fast, g, m=m, case=cell,
                      work=_engine_work(g.n, g.r, m, len(g)))
        naive = c.call("engine.run_naive", run_naive, g, m=m, case=cell)
        sink = textio.StringIO()
        c.call("io.emit_trace", emit_trace, fast, sink,
               work=lambda _: {"io.bytes": len(sink.getvalue())})
        return g, fast, naive, sink.getvalue()

    def check(out):
        g, fast, naive, trace = out
        problems: list[Problem] = []
        if fast != naive:
            problems.append(("engine", "run_fast and run_naive disagree"))
        final = len(fast.final_graph)
        header = json.loads(trace.split("\n", 1)[0])
        if header.get("t") != fast.running_time or trace.count("\n") != 1 + final - len(g):
            problems.append(("io", "trace header or record count is wrong"))
        work = {"e0": len(g), "infected": final - len(g), "T": fast.running_time,
                "counter_updates": counter_updates(final, g.n, g.r, m),
                "sweep_tuples": 0, "bytes": len(text) + len(trace)}
        return problems, work, trace

    return Job(f"random.{cell}.{index}", run, check)


# ---------------------------------------------------------------------------
# oracle


def oracle_job(r: int, n: int) -> Job:
    case = f"o{r}n{n}"
    masks = 1 << comb(n, r)
    max_t, witness = ORACLE_EXPECTED[(r, n)]
    if isinstance(witness, int):
        witness = mask_edges(r, n, witness)

    def run(c: Calls):
        return c.call("verify.oracle", brute_force_max_time, r, n, jobs=1, case=case,
                      work=lambda _: {"verify.oracle.masks": masks})

    def check(result):
        got = [tuple(e) for e in result.witness.sorted_edges]
        problems: list[Problem] = []
        if (result.max_t, got, result.searched) != (max_t, witness, masks):
            problems.append(("verify", f"oracle gave max T {result.max_t}, witness {got}, "
                                       f"searched {result.searched}"))
        work = {"e0": len(got), "infected": 0, "T": result.max_t, "counter_updates": 0,
                "sweep_tuples": 0, "masks": masks, "bytes": 0}
        return problems, work, f"{result.max_t} {got} {result.searched}"

    return Job(f"oracle.{case}", run, check)


def make_jobs(workload: str, seed: int, root: Path, tmp: Path) -> list[Job]:
    """The workload's fixed job list for one pass; every input comes from ``seed``."""
    if workload == "certify":
        return certify_jobs(seed, root, tmp)
    if workload == "random-threshold":
        return [random_job(i, cell, m, text) for i, (cell, m, text) in enumerate(random_inputs(seed))]
    if workload == "oracle":
        return [oracle_job(r, n) for r, n in ORACLE_EXPECTED]
    raise ValueError(f"unknown workload {workload!r}")


def add_reconstruction(c: Calls, jobs: list[Job], outputs: list[Any], tmp: Path) -> None:
    """Traced-run extras on certify, after the timed passes.

    Replays every certificate the pass verified (and the CLI's) through
    reconstruct_verify; round-trips the CLI's certificate through
    parse and emit; times the start-up of a trivial CLI command.
    """
    c.job = None
    for job, result in zip(jobs, outputs):
        if result is None:
            continue
        kind, case = job.name.split(".", 1)
        if kind == "library":
            reconstruct_verify(c, result[3], case)
        elif kind == "witness":
            reconstruct_verify(c, result[0], case)
        elif kind == "cli":
            text = (tmp / f"{case}.cert.json").read_text()
            doc = c.call("io.parse_certificate", parse_certificate, text, case=case,
                         work=_io_bytes(text))
            c.call("io.emit_certificate", emit_certificate, doc, case=case,
                   work=lambda s: {"io.bytes": len(s)})
            cert = c.call("core.from_edges", doc.to_certificate,
                          work=lambda x: {"core.edges_validated": len(x.graph)})
            reconstruct_verify(c, cert, case)
    c.call("cli.startup", _cli, tmp, ["bounds", "--r", "3", "--n", "18"])
