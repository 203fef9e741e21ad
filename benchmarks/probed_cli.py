"""Run the bootperc CLI under the speed probe, as ``python -m bootperc.cli`` would.

    python3 benchmarks/probed_cli.py build --r 5 --k 2 --out cert.json

The certify workload starts its CLI jobs through this file, so a CLI
process is probed on the CPU it runs on.  When ``BENCH_PROBE_LOG``
names a file, the probes are appended to it as ``start end`` lines on
the ``perf_counter`` clock, which the worker shares (CLOCK_MONOTONIC).
"""

from __future__ import annotations

import os
import runpy

from speed import Probe

if __name__ == "__main__":
    log = os.environ.get("BENCH_PROBE_LOG")
    probe = Probe()
    try:
        with probe:
            runpy.run_module("bootperc.cli", run_name="__main__", alter_sys=True)
    finally:
        if log:
            with open(log, "a") as f:
                f.writelines(f"{s!r} {e!r}\n" for s, e in zip(probe.starts, probe.ends))
