"""Command-line entry point.

Subcommands: build, run, verify, bounds, brute, check-base.  Human
output goes to stdout, diagnostics to stderr; machine-readable output
only via --out/--trace files.  Exit codes: 0 success/verified, 1
verification or bound check failed, 2 invalid input or arguments, 3
resource cap exceeded, out of memory or a number too large to
represent, 4 internal inconsistency (two engines or update rules that
must agree did not, or any other unexpected exception: a bug in
bootperc, not in the input), reported as one stderr line.
"""

from __future__ import annotations

import argparse
import sys
import warnings
from pathlib import Path

from . import constructions, io, verify
from .constructions import id_to_label
from .engine import TupleBudgetExceeded, run_fast, run_naive
from .verify import SearchCapExceeded

__all__ = ["main"]

EXIT_OK = 0
EXIT_FAILED = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INTERNAL = 4

# the option to change, by (command, engine), when a command's work passes its cap
_BUDGET_HINTS = {
    ("run", "fast"): "; raise --max-tuples",
    ("run", "naive"): "; use the fast engine with a larger --max-tuples",
    ("verify", None): "; raise --max-tuples",
    ("brute", None): "; raise --cap",
}


def cmd_build(args: argparse.Namespace) -> int:
    if args.stage == "base":
        if args.r != 3:
            raise ValueError(f"stage 'base' requires r = 3, got r = {args.r}")
        cert = constructions.build_base(args.k)
    else:
        cert = constructions.build_full(args.r, args.k)
    g = cert.graph
    print(f"vertices={g.n} edges={len(g)} predicted_T={cert.predicted_t}")
    if args.out is not None:
        doc = io.CertificateDocument(cert, labels=tuple(id_to_label(i, cert.k) for i in range(g.n)))
        Path(args.out).write_text(io.emit_certificate(doc), encoding="utf-8")
    return EXIT_OK


def cmd_run(args: argparse.Namespace) -> int:
    if args.engine == "naive" and args.max_tuples is not None:
        raise ValueError("--max-tuples applies to the fast engine only")
    g = io.read_document(Path(args.infile).read_text(encoding="utf-8")).to_hypergraph()
    if args.engine == "naive":
        result = run_naive(g, m=args.m)
    else:
        result = run_fast(g, m=args.m, max_tuples=args.max_tuples)
    print(f"T={result.running_time}")
    if args.trace is not None:
        with open(args.trace, "w", encoding="utf-8") as sink:
            io.emit_trace(result, sink)
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    cert = io.parse_certificate(Path(args.infile).read_text(encoding="utf-8")).to_certificate()
    report = verify.verify_sequential(cert, max_tuples=args.max_tuples)
    for name in ("property_i", "property_ii", "property_iii"):
        print(f"{name}={'pass' if getattr(report, name) else 'fail'}")
    print(
        f"measured_T_forward={report.measured_t_forward} "
        f"measured_T_reverse={report.measured_t_reverse}"
    )
    if report.all_passed:
        return EXIT_OK
    if report.first_divergence is not None:
        s, want, got = report.first_divergence
        print(
            f"first_divergence: step={s} "
            f"expected={[list(e) for e in sorted(want)]} "
            f"actual={[list(e) for e in sorted(got)]}"
        )
    return EXIT_FAILED


def cmd_bounds(args: argparse.Namespace) -> int:
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            b = constructions.theorem_bounds(args.r, args.n)
        except OverflowError as exc:
            raise ValueError(f"bounds for r = {args.r} overflow a float: {exc}") from exc
    for w in caught:
        print(f"warning: {w.message}", file=sys.stderr)
    print(f"lower = {b.lower} = {float(b.lower)}")
    print(f"upper_exact = {b.upper_exact}")
    print(f"upper_analytic = {b.upper_analytic}")
    print(f"k = {b.k_of_n}")
    return EXIT_OK


def cmd_brute(args: argparse.Namespace) -> int:
    result = verify.brute_force_max_time(args.r, args.n, jobs=args.jobs, cap=args.cap)
    print(f"max_T={result.max_t} searched={result.searched}")
    print(f"witness={[list(e) for e in result.witness.sorted_edges]}")
    return EXIT_OK


def cmd_check_base(args: argparse.Namespace) -> int:
    cert = constructions.build_base(args.k)
    density, _ = verify.check_density(cert.graph.without(cert.ignition))
    report = verify.verify_sequential(cert)
    replay = "ok" if report.property_i else f"mismatch at step {report.first_divergence[0]}"
    print(
        f"density_max={density} predicted_T={cert.predicted_t} "
        f"measured_T={report.measured_t_forward} replay={replay}"
    )
    return EXIT_OK if density <= 2 and report.property_i else EXIT_FAILED


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bootperc",
        description=(
            "Build, simulate, and verify extremal slow instances of "
            "clique-completion bootstrap percolation on uniform hypergraphs."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("build", help="generate a construction certificate")
    p.add_argument("--r", type=int, required=True, help="uniformity (>= 3)")
    p.add_argument("--k", type=int, required=True, help="size parameter (>= 2)")
    p.add_argument("--stage", choices=("base", "full"), default="full")
    p.add_argument("--out", metavar="PATH", help="write the certificate document here")
    p.set_defaults(func=cmd_build)

    p = sub.add_parser("run", help="simulate the infection process on a stored graph")
    p.add_argument("--in", dest="infile", metavar="PATH", required=True)
    p.add_argument("--engine", choices=("fast", "naive"), default="fast")
    p.add_argument("--m", type=int, default=None, help="clique size (default r+1)")
    p.add_argument("--trace", metavar="PATH", help="write the per-edge trace here")
    p.add_argument("--max-tuples", type=int)
    p.set_defaults(func=cmd_run)

    p = sub.add_parser("verify", help="replay-check a stored certificate")
    p.add_argument("--in", dest="infile", metavar="PATH", required=True)
    p.add_argument("--max-tuples", type=int)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("bounds", help="print exact running-time bounds for (r, n)")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_bounds)

    p = sub.add_parser("brute", help="exhaustive maximum running time on a tiny vertex set")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--cap", type=int, default=verify.DEFAULT_EDGE_CAP,
                   help="maximum edge count C(n, r) to allow")
    p.set_defaults(func=cmd_brute)

    p = sub.add_parser("check-base", help="density and predicted-sequence replay check of the seed")
    p.add_argument("--k", type=int, required=True)
    p.set_defaults(func=cmd_check_base)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except (TupleBudgetExceeded, SearchCapExceeded) as exc:
        hint = _BUDGET_HINTS.get((args.command, getattr(args, "engine", None)), "")
        print(f"error: {exc}{hint}", file=sys.stderr)
        return EXIT_RESOURCE
    except (MemoryError, OverflowError):  # such as a wide edge's link keys, or 1 << 10**30
        print("error: out of memory: the input needs more than is available", file=sys.stderr)
        return EXIT_RESOURCE
    except (ValueError, OSError) as exc:  # io.DocumentError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except Exception as exc:  # EngineDisagreement, or a fault no documented class covers
        print(f"error: internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
