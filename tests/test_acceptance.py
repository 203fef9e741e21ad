"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines for
passing criteria as well.  Expected values are either forced by tiny
case analysis, evaluated from the closed-form running-time expressions,
or frozen from this package's own exhaustive oracle on first
computation; every replay comparison is exact.
"""

from __future__ import annotations

import functools
import itertools
import json
import random
import time
from fractions import Fraction
from math import comb

import pytest

from bootperc import (
    Hypergraph,
    SequentialCertificate,
    base_running_time,
    brute_force_max_time,
    build_base,
    build_full,
    check_density,
    clique_census,
    full_running_time,
    lift,
    run_fast,
    run_naive,
    step,
    theorem_bounds,
    witness_for_n,
)
from bootperc.cli import main as cli_main
from bootperc.io import emit_certificate, parse_certificate

from helpers import random_hypergraph


def criterion(number: int, label: str):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                fn(*args, **kwargs)
            except BaseException:
                print(f"criterion {number} ({label}): FAIL")
                raise
            print(f"criterion {number} ({label}): PASS")

        return wrapper

    return decorate


@functools.lru_cache(maxsize=None)
def full_cert(r: int, k: int) -> SequentialCertificate:
    return build_full(r, k)


@criterion(1, "base-case replay")
def test_criterion_1_base_replay():
    for k in (2, 3, 4, 5):
        cert = build_base(k)
        expected_t = 8 * k * k - 12 * k + 4
        assert cert.predicted_t == expected_t
        for runner in (run_fast, run_naive):
            started = time.perf_counter()
            result = runner(cert.graph)
            elapsed = time.perf_counter() - started
            assert result.running_time == expected_t, (k, runner.__name__)
            for i in range(1, expected_t + 1):
                assert result.trace.steps[i - 1] == {cert.sequence[i]}, (k, i)
            assert elapsed < 1.0, (k, runner.__name__, elapsed)
    assert [base_running_time(k) for k in (2, 3, 4, 5)] == [12, 40, 84, 144]


@criterion(2, "ignition removal and reversal")
def test_criterion_2_definition_triple():
    for k in (2, 3, 4, 5):
        cert = build_base(k)
        headless = cert.graph.without(cert.ignition)
        assert run_fast(headless).running_time == 0
        assert not step(headless)

        reversed_start = headless.with_edges([cert.sequence[-1]])
        result = run_fast(reversed_start)
        t = cert.predicted_t
        assert result.running_time == t
        for i in range(1, t + 1):
            assert result.trace.steps[i - 1] == {cert.sequence[t - i]}, (k, i)


def expected_glued_sequence(pre: SequentialCertificate, k: int) -> list[tuple[int, ...]]:
    """Independent re-derivation of the chained sequence from a pre-glue certificate."""
    apex = pre.apex
    width = 4 * k - 3
    top_base = pre.graph.n - 1  # id of the first top-layer vertex

    def top(j: int) -> int:
        return top_base + (j - 1)

    stubs = [tuple(v for v in e if v != apex) for e in pre.sequence]
    first_stub, last_stub = stubs[0], stubs[-1]
    out: list[tuple[int, ...]] = []
    for j in range(1, 2 * k):
        leg = [tuple(sorted(stub + (top(2 * j - 1),))) for stub in stubs]
        if j % 2 == 0:
            leg.reverse()
        out.extend(leg)
        if j < 2 * k - 1:
            stub = last_stub if j % 2 == 1 else first_stub
            out.append(tuple(sorted(stub + (top(2 * j),))))
    assert len(out) == (2 * k - 1) * len(stubs) + 2 * k - 2
    assert all(max(e) < top(width) + 1 for e in out)
    return out


@criterion(3, "full constructions")
def test_criterion_3_full_constructions():
    started = time.perf_counter()
    cases = {(3, 2): 40, (3, 3): 208, (4, 2): 124, (5, 2): 376}
    for (r, k), expected_t in cases.items():
        cert = full_cert(r, k)
        assert cert.predicted_t == expected_t == full_running_time(r, k)

        pre = build_base(k) if r == 3 else lift(full_cert(r - 1, k))
        assert list(cert.sequence) == expected_glued_sequence(pre, k)

        result = run_fast(cert.graph)
        assert result.running_time == expected_t, (r, k)
        for i in range(1, expected_t + 1):
            assert result.trace.steps[i - 1] == {cert.sequence[i]}, (r, k, i)
    assert time.perf_counter() - started <= 60.0


@criterion(4, "lower/upper bound sandwich")
def test_criterion_4_bound_sandwich():
    for r, n in ((3, 18), (3, 22), (3, 26), (4, 32)):
        bounds = theorem_bounds(r, n)
        witness = witness_for_n(r, n)
        assert witness.n == n
        measured = run_fast(witness).running_time
        assert bounds.lower <= measured <= bounds.upper_exact, (r, n, measured)
        assert bounds.upper_exact == comb(n, r)
    assert theorem_bounds(3, 18).lower == Fraction(27, 8)


@criterion(5, "local density and clique census")
def test_criterion_5_density_and_census():
    for k in (2, 3, 4, 5):
        cert = build_base(k)
        density, _ = check_density(cert.graph.without(cert.ignition))
        assert density <= 2, k

        final = run_fast(cert.graph).final_graph
        expected = frozenset(
            tuple(sorted(set(cert.sequence[i - 1]) | set(cert.sequence[i])))
            for i in range(1, cert.predicted_t + 1)
        )
        assert len(expected) == cert.predicted_t
        assert clique_census(final) == expected, k


@criterion(6, "engine equivalence on random instances")
def test_criterion_6_engine_equivalence():
    started = time.perf_counter()
    rng = random.Random(0xB00157)
    cases = 0
    while cases < 1000:
        n = rng.randint(4, 9)
        g = random_hypergraph(rng, n, 3, rng.uniform(0.05, 0.85))
        naive = run_naive(g)
        fast = run_fast(g)
        step_maps = [{e: i for i, s in enumerate(x.trace.steps, 1) for e in s} for x in (naive, fast)]
        assert step_maps[0] == step_maps[1]
        assert naive.trace == fast.trace
        assert naive.final_graph == fast.final_graph
        cases += 1
    assert time.perf_counter() - started <= 60.0


@criterion(7, "exhaustive oracle")
def test_criterion_7_brute_force():
    assert brute_force_max_time(3, 4).max_t == 1

    # every (3,5) instance through both object-level engines
    edges5 = list(itertools.combinations(range(5), 3))
    for mask in range(1 << 10):
        g = Hypergraph.from_edges(5, 3, [edges5[i] for i in range(10) if mask >> i & 1])
        assert run_naive(g).trace == run_fast(g).trace, mask

    five_lone = brute_force_max_time(3, 5, jobs=1)
    five_wide = brute_force_max_time(3, 5, jobs=8)
    assert five_lone.max_t == 2  # frozen from the first exhaustive computation
    assert (five_lone.max_t, five_lone.witness) == (five_wide.max_t, five_wide.witness)

    started = time.perf_counter()
    # every instance below runs through both mask engines internally;
    # any disagreement raises EngineDisagreement
    six_lone = brute_force_max_time(3, 6, jobs=1)
    six_wide = brute_force_max_time(3, 6, jobs=8)
    elapsed = time.perf_counter() - started
    assert six_lone.max_t == 4  # frozen from the first exhaustive computation
    assert six_lone.searched == 2**20
    assert (six_lone.max_t, six_lone.witness) == (six_wide.max_t, six_wide.witness)
    assert elapsed <= 600.0


@criterion(8, "serialization round trips and corrupted fixture")
def test_criterion_8_serialization(tmp_path, capsys):
    certificates = [build_base(k) for k in (2, 3, 4, 5)]
    certificates += [full_cert(3, 2), full_cert(3, 3), full_cert(4, 2), full_cert(5, 2)]
    for cert in certificates:
        text = emit_certificate(cert)
        assert emit_certificate(parse_certificate(text)) == text

    fixture = tmp_path / "corrupted.cert.json"
    fixture.write_text(emit_certificate(build_base(2)))
    data = json.loads(fixture.read_text())
    data["sequence"][5] = [0, 2, 10]  # structurally valid, semantically wrong
    fixture.write_text(json.dumps(data))

    rc = cli_main(["verify", "--in", str(fixture)])
    out = capsys.readouterr().out
    assert rc == 1
    assert "first_divergence: step=5" in out


if __name__ == "__main__":
    raise SystemExit(pytest.main([__file__, "-v", "-s"]))
