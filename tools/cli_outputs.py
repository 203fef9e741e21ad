"""Run the bootperc CLI over a fixed list of invocations and keep all it prints and writes.

Usage: ``python tools/cli_outputs.py ROOT OUT``.  Each invocation runs as
``python -m bootperc.cli`` with ``PYTHONPATH=ROOT/src``, in the directory OUT,
so the documents and traces it writes land there, beside one ``.txt`` file per
invocation holding its argv, exit code, stdout and stderr.  Malformed documents,
each ``base-2.json`` with one field replaced, are written there too and read back
with ``verify --in`` or ``run --in``.  ``diff -r`` of the OUTs of two checkouts
then shows every byte of CLI output that differs.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BASES, FULLS = (2, 3, 4, 5), ((3, 5), (4, 2), (4, 3), (5, 2))
CERTS = [(f"base-{k}", ["--r", "3", "--k", str(k), "--stage", "base"]) for k in BASES] + [
    (f"full-{r}-{k}", ["--r", str(r), "--k", str(k)]) for r, k in FULLS]
# the bad arguments of tests/test_cli.py's TestArguments, then m and n below their least
HOSTILE = ["build --r 3 --k 1", "build --r 3 --k 1 --stage base", "build --r 3 --k 0 --stage full",
           "build --r 2 --k 2", "build --r 4 --k 2 --stage base", "check-base --k 1",
           "check-base --k -5", "bounds --r 2 --n 10", "bounds --r 3 --n -5",
           "check-base --k 2 --max-tuples 5", "run --in base-3.json --m 2", "brute --r 3 --n 2"]
# one scalar fault per certificate document: base-2.json with that field replaced
FAULTS = [("k", 0), ("k", "2"), ("k", None), ("r", 0), ("r", "3"), ("n", -1), ("predicted_t", "5"),
          ("predicted_t", 99), ("apex", "3"), ("apex", -1), ("apex", None)]


def malformed(out: Path):
    """Write each malformed document into ``out`` and yield the invocation that reads it."""
    cert = json.loads(Path(out, "base-2.json").read_text(encoding="utf-8"))
    graph = {key: cert[key] for key in ("format_version", "r", "n", "k", "labels", "edges")}
    labels = cert["labels"]
    docs = [(f"cert-{key}-{value}" + ("-str" if isinstance(value, str) else ""),
             cert | {key: value}) for key, value in FAULTS]
    docs += [("cert-labels-short", cert | {"labels": labels[:-1]}),
             ("cert-labels-layer-0", cert | {"labels": [{"layer": 0, "index": 1}, *labels[1:]]}),
             ("graph-k-0", graph | {"k": 0}), ("graph-k-None", graph | {"k": None})]
    for name, doc in docs:
        Path(out, f"{name}.json").write_text(json.dumps(doc), encoding="utf-8")
        yield ["run" if name.startswith("graph") else "verify", "--in", f"{name}.json"]


def invocations(out: Path):
    for name, args in CERTS:
        yield ["build", *args, "--out", f"{name}.json"]
    yield from malformed(out)  # read once the builds above have run
    for name, _ in CERTS:
        yield ["verify", "--in", f"{name}.json"]
    for name in ("base-3", "full-4-2"):
        for engine in ("fast", "naive"):
            yield ["run", "--in", f"{name}.json", "--engine", engine,
                   "--trace", f"{name}-{engine}.trace"]
    yield from (["check-base", "--k", str(k)] for k in BASES)
    yield ["bounds", "--r", "3", "--n", "18"]
    yield from (["brute", "--r", "3", "--n", n] for n in ("5", "6"))
    yield from (line.split() for line in HOSTILE)


def main(root: str, out: str) -> None:
    Path(out).mkdir(parents=True, exist_ok=True)
    env = {**os.environ, "PYTHONPATH": str(Path(root, "src").resolve())}
    for argv in invocations(out):
        done = subprocess.run([sys.executable, "-m", "bootperc.cli", *argv], cwd=out, env=env,
                              capture_output=True, text=True)
        record = f"argv: {argv}\nexit: {done.returncode}\n--- stdout\n{done.stdout}--- stderr\n"
        name = "_".join(arg.removeprefix("--") for arg in argv)
        Path(out, f"{name}.txt").write_text(record + done.stderr, encoding="utf-8")


if __name__ == "__main__":
    main(*sys.argv[1:])
