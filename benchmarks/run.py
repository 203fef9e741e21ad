"""bootperc benchmark: one workload per run, closed loop, one client.

    python3 benchmarks/run.py --workload certify --seed 3 --seconds 32 --trace 0
    python3 benchmarks/run.py --workload all          # every workload, table + error_rate

Runs from the root of a source checkout and measures the package under
``src/`` as users run it: no gc tuning, no -O, no BOOTPERC_MAX_TUPLES.
Each run starts a fresh worker process (worker.py) for its passes, so
peak memory is the workload's own, and times process start to ``ready``
in that worker and in SETUP_WORKERS more as set-up.  Times are in the
speed probe's reference seconds (speed.py): the host this was written
on drifts by up to 2x in speed, which raw seconds cannot ride out.
With ``--trace 0`` the last stdout line reports the end-to-end metrics;
with ``--trace 1`` the per-layer metrics of a separate traced run (see
tracing.py).  Exits
non-zero without a result when the package source is missing or the
worker fails.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from speed import REFERENCE_S  # noqa: E402
from tracing import PER_LAYER_METRICS, unit_of  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
WORKER = Path(__file__).resolve().parent / "worker.py"
WORKLOADS = ("certify", "random-threshold", "oracle")
END_TO_END = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
SETUP_WORKERS = 9
DEFAULT_SECONDS = 32  # BENCHMARK.json run_seconds
DEADLINE_S = 175


class BenchError(RuntimeError):
    pass


def _start(args: list[str]) -> tuple[subprocess.Popen, float]:
    """Start a worker and wait for its ``ready`` line; return it with the raw set-up seconds."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    started = time.perf_counter()
    proc = subprocess.Popen([sys.executable, str(WORKER), *args], cwd=ROOT, env=env,
                            stdout=subprocess.PIPE, text=True)
    line = proc.stdout.readline()
    setup = time.perf_counter() - started
    if line.strip() != "ready":
        proc.kill()
        proc.wait()
        raise BenchError(f"worker did not start: {line!r}")
    return proc, setup


def _finish(proc: subprocess.Popen, deadline: float) -> str:
    """Wait for a worker to exit by the deadline; return its remaining stdout."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        raise BenchError("worker ran past the deadline") from None
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}")
    return out


def measure(workload: str, seed: int, seconds: int, trace: int) -> dict:
    deadline = time.monotonic() + DEADLINE_S
    base = ["--workload", workload, "--seed", str(seed)]
    setups = []  # in reference seconds, by the probes each worker takes once ready
    for _ in range(SETUP_WORKERS):
        proc, setup = _start(base + ["--setup-only"])
        probe_s = json.loads(_finish(proc, deadline).strip().splitlines()[-1])["setup_probe_s"]
        setups.append(setup * REFERENCE_S / probe_s)
    proc, setup = _start(base + ["--seconds", str(seconds), "--trace", str(trace)])
    summary = json.loads(_finish(proc, deadline).strip().splitlines()[-1])
    setups.append(setup * REFERENCE_S / summary["setup_probe_s"])

    if trace:
        metrics = {name: (summary["per_layer"][name], unit_of(name)) for name in PER_LAYER_METRICS}
    else:
        values = {
            "wall_s": summary["wall_s"],
            "setup_s": statistics.median(setups),
            "peak_rss_mb": summary["rss_mb"],
        }
        metrics = {name: (values[name], unit) for name, unit in END_TO_END.items()}
    return {
        "correct": summary["failed"] == 0,
        "attempted": summary["attempted"],
        "failed": summary["failed"],
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
        "passes": len(summary["walls"]),
        "work_digest": summary["work_digest"],
        "job_seconds": summary["job_seconds"],
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=DEFAULT_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "bootperc" / "__init__.py").is_file():
        print(f"error: no bootperc source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    names = WORKLOADS if args.workload == "all" else (args.workload,)
    results = {}
    try:
        for name in names:
            results[name] = measure(name, args.seed, args.seconds, args.trace)
    except (BenchError, subprocess.SubprocessError, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for name, result in results.items():
        print(f"{name}: {result['passes']} passes, error_rate {result['failed']}/{result['attempted']}"
              f" = {result['failed'] / result['attempted']:.4f}, work {result['work_digest'][:16]}")
        for metric, m in result["metrics"].items():
            print(f"  {metric} = {m['value']:.6g} {m['unit']}")
        latencies = result.pop("job_seconds")
        if len(latencies) >= 2:
            deciles = statistics.quantiles(latencies, n=10, method="inclusive")
            print(f"  (job latency p50 = {deciles[4]:.6g} s, p90 = {deciles[8]:.6g} s"
                  f" over {len(latencies)} jobs)")
    for result in results.values():
        del result["passes"], result["work_digest"]
    print(json.dumps(results[args.workload] if args.workload != "all" else results))
    return 0


if __name__ == "__main__":
    sys.exit(main())
