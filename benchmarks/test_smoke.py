"""Smoke test of the benchmark harness (not part of the package's test suite).

    python3 -m pytest benchmarks/test_smoke.py -q

Runs the smallest job of each workload untraced and traced, checks that
metric and workload names match BENCHMARK.json, that wrong results and
exceptions are counted as errors rather than raised, and that the
run.py refuses to run without the package source.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import pytest  # noqa: E402

import run  # noqa: E402
import workloads  # noqa: E402
from bootperc import run_fast  # noqa: E402
from speed import REFERENCE_S, Probe  # noqa: E402
from tracing import PER_LAYER_METRICS, Calls, Tracer, layer_metrics, unit_of  # noqa: E402
from worker import run_pass  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def smallest_jobs(tmp_path: Path) -> dict[str, workloads.Job]:
    grid = workloads.make_jobs("random-threshold", 0, ROOT, tmp_path)
    return {
        "certify": workloads.criterion5_job((2,)),
        "random-threshold": next(j for j in grid if j.name.startswith("random.r4n16.")),
        "oracle": workloads.oracle_job(2, 5),
    }


def test_names_match_benchmark_json():
    assert [w["name"] for w in SPEC["workloads"]] == list(run.WORKLOADS) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == run.END_TO_END
    assert [m["name"] for m in SPEC["per_layer"]] == PER_LAYER_METRICS
    assert all(m["unit"] == unit_of(m["name"]) for m in SPEC["per_layer"])
    assert SPEC["run_seconds"] == run.DEFAULT_SECONDS


@pytest.mark.parametrize("workload", run.WORKLOADS)
def test_smallest_job_passes_untraced_and_traced(workload, tmp_path):
    job = smallest_jobs(tmp_path)[workload]
    plain = run_pass([job], Calls())
    tracer = Tracer()
    traced = run_pass([job], tracer)
    for p in (plain, traced):
        assert [r["ok"] for r in p["records"]] == [True], p["records"]
    assert plain["work_digest"] == traced["work_digest"]
    assert plain["output_digest"] == traced["output_digest"]
    metrics = layer_metrics(tracer.spans)
    assert list(metrics) == PER_LAYER_METRICS
    assert all(s.end >= s.start for s in tracer.spans)
    assert tracer.spans[0].name == "job" and all(s.parent == 0 for s in tracer.spans[1:])


def test_wrong_expected_value_is_an_error_not_an_exception(monkeypatch):
    max_t, witness = workloads.ORACLE_EXPECTED[(2, 5)]
    monkeypatch.setitem(workloads.ORACLE_EXPECTED, (2, 5), (max_t + 1, witness))
    result = run_pass([workloads.oracle_job(2, 5)], Tracer())
    (record,) = result["records"]
    assert not record["ok"]
    assert [layer for layer, _ in record["problems"]] == ["verify"]


def test_exception_is_charged_to_the_failing_layer():
    def run_bad(c):
        return c.call("engine.run_fast", run_fast, None)

    job = workloads.Job("broken", run_bad, lambda out: ([], {}, ""))
    for calls in (Calls(), Tracer()):
        (record,) = run_pass([job], calls)["records"]
        assert not record["ok"]
        assert record["problems"][0][0] == "engine"


def test_refuses_to_run_without_package_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    for path in SPEC["paths"]:
        shutil.copytree(ROOT / path, tmp_path / path, ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "certify", "--seed", "0",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_probe_scales_to_reference_seconds():
    probe = Probe()
    probe.starts = [0.0, 2.0, 4.0, 6.0, 8.0]
    probe.ends = [t + 2 * REFERENCE_S for t in probe.starts]
    # a host at half the reference speed; the probes ran inside the job
    assert probe.normalized(0.0, 10.0) == pytest.approx((10.0 - 10 * REFERENCE_S) / 2)
    # a short job borrows the nearest five probes
    assert probe.speed(3.0, 3.1) == pytest.approx(2 * REFERENCE_S)
    # a subprocess's probes merge in time order
    probe.merge([(5.0, 5.0 + 2 * REFERENCE_S)])
    assert probe.starts == sorted(probe.starts) and len(probe.ends) == 6


def test_probe_fires_during_a_job():
    with Probe() as probe:
        deadline = time.perf_counter() + 0.5
        while time.perf_counter() < deadline:
            pass
    assert len(probe.starts) >= 2
    assert all(0 < e - s < 0.2 for s, e in zip(probe.starts, probe.ends))
