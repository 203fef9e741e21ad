"""One measured process: import bootperc, make the inputs, run passes.

Started by run.py with ``src`` on PYTHONPATH.  Prints ``ready`` once the
inputs exist (run.py times process start to that line as set-up), then
runs whole passes over the workload's job list until ``--seconds`` have
passed, and prints one JSON summary line.  A speed probe (speed.py)
runs throughout, and every job and span time is reported in its
reference seconds.  With ``--trace 1`` untraced and traced passes
alternate, so the traced run measures its own overhead.  Per-job
records, spans and probes go to
``.bench_out/<workload>-seed<seed>-trace<t>.json`` under the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

import bootperc

import workloads
from speed import MIN_PROBES, Probe, trimmed_mean
from tracing import LAYERS, Calls, Tracer, layer_metrics, layer_of

ROOT = Path(__file__).resolve().parents[1]
OUT_DIR = ROOT / ".bench_out"


def _digest(value: object) -> str:
    return hashlib.sha256(json.dumps(value, sort_keys=True).encode()).hexdigest()


def run_pass(jobs: list[workloads.Job], calls: Calls, keep: bool = False) -> dict:
    """Run every job once; failures are recorded, never raised.

    Job times are raw seconds here; ``normalize`` turns them into
    reference seconds once the run's probes are in.
    """
    records, outputs, fingerprints = [], [], []
    for index, job in enumerate(jobs):
        calls.job, calls.failed_in = index, None
        problems: list[workloads.Problem] = []
        work: dict[str, int] = {}
        out = None
        start = time.perf_counter()
        try:
            with calls.group("job", job.name):
                out = job.run(calls)
        except Exception as exc:
            problems.append((layer_of(calls.failed_in or "harness"), f"{type(exc).__name__}: {exc}"))
        end = time.perf_counter()
        if not problems:
            try:
                problems, work, fingerprint = job.check(out)
                fingerprints.append(hashlib.sha256(fingerprint.encode()).hexdigest())
            except Exception as exc:
                problems = [("harness", f"check raised {type(exc).__name__}: {exc}")]
        for layer, message in problems:
            print(f"FAIL {job.name} [{layer}] {message}", file=sys.stderr)
        records.append({"job": job.name, "start": start, "end": end, "seconds": end - start,
                        "ok": not problems, "problems": problems, "work": work})
        outputs.append(out if keep and not problems else None)
    return {
        "wall": sum(r["seconds"] for r in records),
        "records": records,
        "outputs": outputs,
        "output_digest": _digest(fingerprints),
        "work_digest": _digest([(r["job"], r["work"]) for r in records]),
        "spans": getattr(calls, "spans", []),
    }


def normalize(passes: list[dict], probe: Probe) -> None:
    """Rewrite every job time and pass wall in reference seconds."""
    for p in passes:
        for r in p["records"]:
            r["seconds"] = probe.normalized(r["start"], r["end"])
        p["wall"] = sum(r["seconds"] for r in p["records"])


def pass_seconds(passes: list[dict]) -> float:
    """One pass in reference seconds: the sum over jobs of each job's median over passes."""
    per_job = zip(*([r["seconds"] for r in p["records"]] for p in passes))
    return sum(statistics.median(times) for times in per_job)


def digest_problems(p: dict, workload: str, seed: int, work_digest: str) -> list[str]:
    """Pass-level problems: work counts that do not repeat, or digests that
    differ from the ones frozen for the default seed."""
    out = []
    if p["work_digest"] != work_digest:
        out.append("work counts differ between passes over the same inputs")
    frozen = workloads.FROZEN_DIGESTS.get(workload) if seed == workloads.DEFAULT_SEED else None
    for key in ("output_digest", "work_digest") if frozen else ():
        if p[key] != frozen[key]:
            out.append(f"{key} {p[key]} differs from the frozen {frozen[key]}")
    for message in out:
        print(f"FAIL pass: {message}", file=sys.stderr)
    return out


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=0.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    if not Path(bootperc.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"bootperc imported from {bootperc.__file__}, not {ROOT / 'src'}", file=sys.stderr)
        return 1
    with tempfile.TemporaryDirectory(prefix=".benchtmp-", dir=ROOT) as tmp:
        jobs = workloads.make_jobs(args.workload, args.seed, ROOT, Path(tmp))
        print("ready", flush=True)
        # the speed at set-up, for run.py to scale the set-up time by
        setup_probe = Probe()
        for _ in range(MIN_PROBES):
            setup_probe.sample()
        setup_probe_s = trimmed_mean([e - s for s, e in zip(setup_probe.starts, setup_probe.ends)])
        if args.setup_only:
            print(json.dumps({"setup_probe_s": setup_probe_s}))
            return 0
        cli_probes = Path(tmp) / "cli-probes.txt"
        os.environ["BENCH_PROBE_LOG"] = str(cli_probes)

        # Whole rounds while the next is expected to end within --seconds.
        # A round is one untraced pass, plus one traced pass in a traced run.
        started, rounds = time.perf_counter(), 0
        untraced, traced = [], []
        with Probe() as probe:
            while True:
                untraced.append(run_pass(jobs, Calls()))
                if args.trace:
                    tracer = Tracer()
                    traced.append(run_pass(jobs, tracer, keep=True))
                rounds += 1
                elapsed = time.perf_counter() - started
                if elapsed + elapsed / rounds > args.seconds:
                    break
            rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
            if traced and args.workload == "certify":
                workloads.add_reconstruction(tracer, jobs, traced[-1]["outputs"], Path(tmp))
            probe.sample()  # so the last spans have probes after them
        if cli_probes.exists():
            probe.merge(tuple(map(float, line.split())) for line in cli_probes.read_text().splitlines())

    passes = untraced + traced
    normalize(passes, probe)
    digest_failures = sum(len(digest_problems(p, args.workload, args.seed, untraced[0]["work_digest"]))
                          for p in passes)
    summary = {
        "attempted": sum(len(p["records"]) for p in passes),
        "failed": sum(not r["ok"] for p in passes for r in p["records"]) + digest_failures,
        "wall_s": pass_seconds(untraced),
        "walls": [p["wall"] for p in untraced],
        "job_seconds": [r["seconds"] for p in untraced for r in p["records"]],
        "rss_mb": rss_mb,
        "setup_probe_s": setup_probe_s,
        "work_digest": untraced[0]["work_digest"],
        "output_digest": untraced[0]["output_digest"],
    }
    if traced:
        # per-layer figures come from the last traced pass and the reconstruction
        per_layer = layer_metrics(tracer.spans, lambda s: probe.normalized(s.start, s.end))
        for r in traced[-1]["records"]:
            for layer, _ in r["problems"]:
                if layer in LAYERS:
                    per_layer[f"{layer}.errors"] += 1
        per_layer["trace.overhead_s"] = pass_seconds(traced) - summary["wall_s"]
        summary["per_layer"] = per_layer
        summary["traced_walls"] = [p["wall"] for p in traced]

    OUT_DIR.mkdir(exist_ok=True)
    details = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, **summary,
        "passes": [{"traced": i >= len(untraced), "wall": p["wall"], "records": p["records"]}
                   for i, p in enumerate(passes)],
        "spans": [vars(s) for s in (tracer.spans if traced else [])],
        "probes": list(zip(probe.starts, probe.ends)),
    }
    (OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(details, indent=1) + "\n")
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except Exception:
        traceback.print_exc()
        sys.exit(1)
