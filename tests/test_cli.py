import itertools
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from bootperc import Hypergraph, build_base, cli, constructions, id_to_label, verify
from bootperc.cli import main
from bootperc.io import CertificateDocument, emit_certificate, emit_graph

from helpers import complete, deadline, inject_headless_fire, padded_base, peak_traced_bytes, refuse_sweep


@pytest.fixture()
def base_cert_file(tmp_path):
    path = tmp_path / "base2.cert.json"
    rc = main(["build", "--r", "3", "--k", "2", "--stage", "base", "--out", str(path)])
    assert rc == 0
    return path


@pytest.fixture()
def full42_cert_file(tmp_path):
    path = tmp_path / "full42.cert.json"
    assert main(["build", "--r", "4", "--k", "2", "--out", str(path)]) == 0
    return path


ONE_EDGE = {"format_version": "1", "r": 2, "n": 40, "edges": [[0, 1]]}
HUGE_EMPTY = {"format_version": "1", "r": 200_000, "n": 10**30, "edges": []}


def corrupt_sequence_entry(path, index, new_edge):
    data = json.loads(path.read_text())
    data["sequence"][index] = list(new_edge)
    path.write_text(json.dumps(data))


class TestBuild:
    def test_base_prints_counts(self, capsys):
        assert main(["build", "--r", "3", "--k", "2", "--stage", "base"]) == 0
        out = capsys.readouterr().out
        assert "predicted_T=12" in out
        assert "vertices=11" in out and "edges=21" in out

    def test_full_r4(self, capsys):
        assert main(["build", "--r", "4", "--k", "2", "--stage", "full"]) == 0
        assert "predicted_T=124" in capsys.readouterr().out

    def test_stage_glued_is_refused(self, capsys):
        # the full construction at r = 3 is the glued one, so it has one stage name only
        assert main(["build", "--r", "3", "--k", "2", "--stage", "glued"]) == 2
        assert "invalid choice: 'glued'" in capsys.readouterr().err

    def test_base_requires_r3(self, capsys):
        assert main(["build", "--r", "4", "--k", "2", "--stage", "base"]) == 2
        assert "r = 3" in capsys.readouterr().err

    def test_bad_k(self):
        assert main(["build", "--r", "3", "--k", "1", "--stage", "base"]) == 2

    def test_out_file_is_canonical(self, base_cert_file):
        cert = build_base(2)
        labels = tuple(id_to_label(i, 2) for i in range(cert.graph.n))
        from bootperc.io import CertificateDocument

        expected = emit_certificate(CertificateDocument(cert, labels=labels))
        assert base_cert_file.read_text() == expected


class TestRun:
    def test_run_certificate_both_engines(self, base_cert_file, full42_cert_file, capsys, tmp_path):
        # each step of either certificate infects one edge: a trace is a header and T records
        for path, t, header in [
            (base_cert_file, 12, '{"format_version": "1", "r": 3, "n": 11, "t": 12}'),
            (full42_cert_file, 124, '{"format_version": "1", "r": 4, "n": 20, "t": 124}'),
        ]:
            outputs = []
            traces = []
            for engine in ("fast", "naive"):
                trace_path = tmp_path / f"{engine}.trace.jsonl"
                rc = main([
                    "run", "--in", str(path),
                    "--engine", engine, "--trace", str(trace_path),
                ])
                assert rc == 0
                outputs.append(capsys.readouterr().out)
                traces.append(trace_path.read_text())
            assert outputs[0] == outputs[1] == f"T={t}\n"
            assert traces[0] == traces[1]
            assert traces[0].splitlines()[0] == header
            assert len(traces[0].splitlines()) == t + 1

    def test_run_plain_graph_document(self, tmp_path, capsys):
        path = tmp_path / "empty.graph.json"
        path.write_text(emit_graph(Hypergraph(n=5, r=3, edges=frozenset())))
        assert main(["run", "--in", str(path)]) == 0
        assert capsys.readouterr().out == "T=0\n"

    def test_run_with_clique_size_knob(self, tmp_path, capsys):
        full = complete(5, 3)
        g = full.without(full.sorted_edges[0])
        path = tmp_path / "g.graph.json"
        path.write_text(emit_graph(g))
        assert main(["run", "--in", str(path), "--m", "5"]) == 0
        assert capsys.readouterr().out == "T=1\n"

    @pytest.mark.parametrize("engine", ["fast", "naive"])
    @pytest.mark.parametrize("doc, m", [
        (ONE_EDGE, "36"), (ONE_EDGE, "1000"), (ONE_EDGE, str(10**30)),
        (HUGE_EMPTY, None), (dict(HUGE_EMPTY, n=3), None),
    ], ids=["m36", "m1000", "m-huge", "huge-empty", "empty-below-r"])
    def test_degenerate_inputs_end_at_once(self, tmp_path, capsys, engine, doc, m):
        # C(38, 34), C(38, 998) and no tuples meet the one edge; no edge at all, at r = 200000
        path = tmp_path / "g.json"
        path.write_text(json.dumps(doc))
        with deadline(2):
            assert main(["run", "--in", str(path), "--engine", engine, *(["--m", m] if m else [])]) == 0
        assert capsys.readouterr() == ("T=0\n", "")

    def test_missing_file(self, tmp_path):
        assert main(["run", "--in", str(tmp_path / "nope.json")]) == 2

    def test_unparseable_file(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("\n{nope")
        for command in ("run", "verify"):
            assert main([command, "--in", str(path)]) == 2
            err = capsys.readouterr().err
            assert "syntax" in err and "(line 2)" in err

    def test_deep_nesting_is_a_parse_error(self, tmp_path, capsys):
        path = tmp_path / "deep.json"
        path.write_text("[" * 200_000)
        for command in ("run", "verify"):
            assert main([command, "--in", str(path)]) == 2
            err = capsys.readouterr().err
            assert err.startswith("error: syntax") and "Traceback" not in err

    def test_tuple_budget_exhaustion(self, base_cert_file, full42_cert_file, capsys):
        # each base edge meets C(8, 1) = 8 triangles, which the up-front check refuses; each
        # (4,2) edge meets C(16, 1) = 16 5-tuples, which it admits, but C(20, 5) = 15,504 > 100:
        # the link state counts the tuples it meets and stops at the cap
        for path, cap in [(base_cert_file, "2"), (full42_cert_file, "100")]:
            assert main(["run", "--in", str(path), "--max-tuples", cap]) == 3
            assert capsys.readouterr() == ("", f"error: more than {cap} distinct m-tuples meet "
                                               "the infected graph; raise --max-tuples\n")

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_negative_budget_is_a_usage_error(self, base_cert_file, capsys, command):
        assert main([command, "--in", str(base_cert_file), "--max-tuples", "-1"]) == 2
        assert "max_tuples must be >= 0" in capsys.readouterr().err
        assert main([command, "--in", str(base_cert_file), "--max-tuples", "0"]) == 3

    def test_huge_vertex_count_hits_the_default_cap(self, tmp_path, monkeypatch, capsys):
        # one edge on 10^9 vertices meets 10^9 - 2 triangles, past the 10^8 default;
        # both engines refuse it before building anything of size n
        path = tmp_path / "huge.graph.json"
        path.write_text(json.dumps(
            {"format_version": "1", "r": 2, "n": 10**9, "edges": [[5, 10**9 - 1]]}
        ))
        for engine in ("fast", "naive"):
            argv = ["run", "--in", str(path), "--engine", engine]
            start = time.perf_counter()
            code, peak = peak_traced_bytes(lambda: main(argv))
            assert code == 3
            assert time.perf_counter() - start < 1
            assert peak < 2**20
            assert "distinct m-tuples" in capsys.readouterr().err

    def test_max_tuples_is_refused_with_the_naive_engine(self, base_cert_file, capsys):
        argv = ["run", "--in", str(base_cert_file), "--engine", "naive", "--max-tuples", "10"]
        assert main(argv) == 2
        assert capsys.readouterr() == ("", "error: --max-tuples applies to the fast engine only\n")


class TestBudgetHints:
    """The engines name the cap; the CLI adds which flag to change, if the command has one."""

    @pytest.mark.parametrize("argv, hint", [
        (["run", "--in"], "; raise --max-tuples"),
        (["run", "--engine", "naive", "--in"], "; use the fast engine with a larger --max-tuples"),
        (["verify", "--in"], "; raise --max-tuples"),
        (["check-base", "--k", "2"], ""),
    ], ids=["run-fast", "run-naive", "verify", "check-base"])
    def test_over_cap_line(self, base_cert_file, monkeypatch, capsys, argv, hint):
        # each edge of the k = 2 base meets C(11 - 3, 1) = 8 triangles, past a cap of 5
        monkeypatch.setattr("bootperc.engine.DEFAULT_MAX_TUPLES", 5)
        if argv[-1] == "--in":
            argv = [*argv, str(base_cert_file)]
        assert main(argv) == 3
        assert capsys.readouterr() == (
            "", f"error: more than 5 distinct m-tuples meet the infected graph{hint}\n"
        )

    def test_brute_over_cap_line(self, capsys):
        assert main(["brute", "--r", "3", "--n", "8"]) == 3
        assert capsys.readouterr() == ("", "error: C(8,3) exceeds the cap of 24 edges; raise --cap\n")


class TestVerify:
    def test_valid_certificate(self, base_cert_file, capsys):
        assert main(["verify", "--in", str(base_cert_file)]) == 0
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert "property_i=pass" in lines
        assert "property_ii=pass" in lines
        assert "property_iii=pass" in lines
        assert "measured_T_forward=12" in out

    def test_corrupted_certificate_fails_with_divergence(self, base_cert_file, capsys):
        corrupt_sequence_entry(base_cert_file, 5, (0, 2, 10))
        assert main(["verify", "--in", str(base_cert_file)]) == 1
        out = capsys.readouterr().out
        assert "property_i=fail" in out
        assert "\nfirst_divergence: step=5 " in out

    def test_structural_corruption_is_a_parse_error(self, base_cert_file):
        corrupt_sequence_entry(base_cert_file, 5, (0, 1, 9))  # already in the graph
        assert main(["verify", "--in", str(base_cert_file)]) == 2

    def test_wrong_predicted_t_names_the_steps(self, tmp_path, capsys):
        path = tmp_path / "full32.cert.json"
        assert main(["build", "--r", "3", "--k", "2", "--out", str(path)]) == 0
        capsys.readouterr()
        data = json.loads(path.read_text())
        assert data["predicted_t"] == 40 and len(data["sequence"]) == 41
        path.write_text(json.dumps({**data, "predicted_t": 41}))
        assert main(["verify", "--in", str(path)]) == 2
        assert capsys.readouterr() == (
            "", "error: certificate: predicted_t = 41 but the sequence has 40 steps after the ignition\n"
        )

    def test_padded_vertex_set_needs_no_sweep(self, tmp_path, monkeypatch, capsys):
        path = tmp_path / "padded.cert.json"
        path.write_text(emit_certificate(CertificateDocument(padded_base(800))))
        refuse_sweep(monkeypatch, 20 * 797)  # the headless recount's tuples, not C(800, 4)
        assert main(["verify", "--in", str(path)]) == 0
        assert "measured_T_forward=12 measured_T_reverse=12" in capsys.readouterr().out


class TestVerifyInput:
    def test_graph_document_is_a_schema_error(self, tmp_path, capsys):
        path = tmp_path / "k4.graph.json"
        path.write_text(emit_graph(complete(4, 3)))
        assert main(["verify", "--in", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == (
            "error: schema: missing field(s): ['ignition', 'k', 'predicted_t', 'sequence']\n"
        )


class TestBounds:
    def test_r3_n18(self, capsys):
        assert main(["bounds", "--r", "3", "--n", "18"]) == 0
        captured = capsys.readouterr()
        lines = captured.out.splitlines()
        assert "lower = 27/8 = 3.375" in lines
        assert "upper_exact = 816" in lines
        assert "k = 2" in lines
        assert captured.err == ""

    def test_warning_below_threshold(self, capsys):
        assert main(["bounds", "--r", "3", "--n", "12"]) == 0
        captured = capsys.readouterr()
        assert "2r^2" in captured.err

    def test_rejects_r2(self, capsys):
        assert main(["bounds", "--r", "2", "--n", "10"]) == 2

    @pytest.mark.parametrize(
        "r, n", [("3", "1" + "0" * 400), ("3000", "5000")], ids=["n-401-digits", "r3000-n5000"]
    )
    def test_float_overflow_is_a_usage_error(self, r, n, capsys):
        assert main(["bounds", "--r", r, "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1

    @pytest.mark.parametrize("r, n", [("1000000", "367000"), ("1000000000", "0")])
    def test_huge_power_is_refused_before_it_is_built(self, r, n, capsys):
        assert main(["bounds", "--r", r, "--n", n]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: ") and captured.err.count("\n") == 1
        assert "bits" in captured.err and "Traceback" not in captured.err


class TestBrute:
    def test_three_four(self, capsys):
        assert main(["brute", "--r", "3", "--n", "4"]) == 0
        out = capsys.readouterr().out
        assert "max_T=1" in out
        assert "[0, 1, 2]" in out

    def test_jobs_invariant_output(self, capsys):
        # (3,5) is one chunk of masks, so --jobs 2 starts no pool; (3,6) has 16 chunks, which
        # --jobs 2 scans in a pool of two workers where two CPUs are usable
        for n, max_t in [("5", 2), ("6", 4)]:
            assert main(["brute", "--r", "3", "--n", n, "--jobs", "1"]) == 0
            first = capsys.readouterr().out
            assert main(["brute", "--r", "3", "--n", n, "--jobs", "2"]) == 0
            assert capsys.readouterr().out == first
            assert first.startswith(f"max_T={max_t} ")

    def test_cap_exceeded(self, capsys):
        assert main(["brute", "--r", "3", "--n", "8"]) == 3
        assert "cap" in capsys.readouterr().err

    def test_negative_cap_is_a_usage_error(self, capsys):
        assert main(["brute", "--r", "3", "--n", "5", "--cap", "-1"]) == 2
        assert "cap must be >= 0" in capsys.readouterr().err
        assert main(["brute", "--r", "3", "--n", "5", "--cap", "0"]) == 3
        assert "exceeds the cap of 0 edges" in capsys.readouterr().err


class TestInternalInconsistency:
    def test_brute_rules_disagree(self, capsys, monkeypatch):
        true_rule = verify._counter_rule

        def faulty(*args):
            new = true_rule(*args)
            new[2] ^= 1 << 5
            return new

        monkeypatch.setattr(verify, "_counter_rule", faulty)
        assert main(["brute", "--r", "3", "--n", "4"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal inconsistency" in captured.err
        assert "on mask 5" in captured.err
        assert "Traceback" not in captured.err

    def test_verify_engines_disagree(self, base_cert_file, capsys, monkeypatch):
        true_generations = verify._naive_generations
        calls = []

        def faulty(n, r, m, infected, frontier):
            calls.append(None)
            if len(calls) == 2:  # the forward cross-check; the first call recounts H
                infected = infected - {min(infected)}
            return true_generations(n, r, m, infected, frontier)

        monkeypatch.setattr(verify, "_naive_generations", faulty)
        assert main(["verify", "--in", str(base_cert_file)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "internal inconsistency" in captured.err
        assert "engines diverge" in captured.err
        assert "Traceback" not in captured.err
        assert len(calls) == 2

    def test_unexpected_exception_is_one_line(self, capsys, monkeypatch):
        def broken(args):
            raise RuntimeError("boom")

        monkeypatch.setattr(cli, "cmd_bounds", broken)
        assert main(["bounds", "--r", "3", "--n", "18"]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: internal inconsistency: boom\n"
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("module, name, command", [
        (cli, "run_fast", "run"), (verify, "verify_sequential", "verify"),
    ], ids=["run", "verify"])
    def test_out_of_memory_is_a_resource_error(
        self, base_cert_file, capsys, monkeypatch, module, name, command
    ):
        # as a huge n's n-bit mask, or 1 << 10**30, would raise; nothing that large is asked
        for error in (MemoryError, OverflowError):
            def exhausted(*args, **kwargs):
                raise error

            monkeypatch.setattr(module, name, exhausted)
            assert main([command, "--in", str(base_cert_file)]) == 3
            captured = capsys.readouterr()
            assert captured.out == ""
            assert captured.err.startswith("error: out of memory")
            assert captured.err.count("\n") == 1

    def test_verify_link_state_and_recount_disagree(self, base_cert_file, capsys, monkeypatch):
        inject_headless_fire(monkeypatch, (0, 1, 2))
        assert main(["verify", "--in", str(base_cert_file)]) == 4
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: internal inconsistency: ")
        assert captured.err.count("\n") == 1
        assert "Traceback" not in captured.err


class TestCheckBase:
    def test_passes(self, capsys):
        assert main(["check-base", "--k", "2"]) == 0
        out = capsys.readouterr().out
        assert "density_max=2" in out
        assert "replay=ok" in out

    def test_larger_k(self, capsys):
        assert main(["check-base", "--k", "5"]) == 0
        assert "density_max=2" in capsys.readouterr().out

    @pytest.mark.parametrize("k, t", [(2, 12), (3, 40), (4, 84), (5, 144)])
    def test_golden_line(self, k, t, capsys):
        assert main(["check-base", "--k", str(k)]) == 0
        assert capsys.readouterr().out == (
            f"density_max=2 predicted_T={t} measured_T={t} replay=ok\n"
        )

    def test_injected_fault_fails(self, capsys, monkeypatch):
        true_sequence = constructions._base_sequence

        def faulty(k):
            for i, edge in enumerate(true_sequence(k), 1):
                yield (0, 2, 10) if i == 5 else edge

        monkeypatch.setattr(constructions, "_base_sequence", faulty)
        assert main(["check-base", "--k", "2"]) == 1
        assert "mismatch at step 5" in capsys.readouterr().out


class TestArguments:
    @pytest.mark.parametrize(
        "argv, message",
        [
            (["build", "--r", "3", "--k", "1"], "k must be >= 2, got 1"),
            (["build", "--r", "3", "--k", "1", "--stage", "base"], "k must be >= 2, got 1"),
            (["build", "--r", "3", "--k", "0", "--stage", "full"], "k must be >= 2, got 0"),
            (["build", "--r", "2", "--k", "2"], "r must be >= 3, got 2"),
            (["build", "--r", "4", "--k", "2", "--stage", "base"],
             "stage 'base' requires r = 3, got r = 4"),
            (["check-base", "--k", "1"], "k must be >= 2, got 1"),
            (["check-base", "--k", "-5"], "k must be >= 2, got -5"),
            (["bounds", "--r", "2", "--n", "10"], "r must be >= 3, got 2"),
            (["bounds", "--r", "3", "--n", "-5"], "n must be >= 0, got -5"),
        ],
    )
    def test_each_bad_argument_is_one_error_line(self, argv, message, capsys):
        assert main(argv) == 2
        assert capsys.readouterr() == ("", f"error: {message}\n")

    def test_check_base_takes_no_tuple_cap(self, capsys):
        assert main(["check-base", "--k", "2", "--max-tuples", "5"]) == 2
        assert "unrecognized arguments: --max-tuples" in capsys.readouterr().err


class TestPlumbing:
    def test_help_exits_zero(self):
        assert main(["--help"]) == 0

    def test_subcommand_help_exits_zero(self):
        assert main(["build", "--help"]) == 0

    def test_unknown_command_exits_two(self):
        assert main(["frobnicate"]) == 2

    def test_missing_required_flag_exits_two(self):
        assert main(["build", "--r", "3"]) == 2

    @pytest.mark.parametrize("argv", [
        ["brute", "--r", "3", "--n", "5"], ["brute", "--r", "3", "--n", "7"], ["build", "--r", "3"],
        ["run", "--in", "CERT", "--engine", "naive"], ["verify", "--in", "CERT"],
        ["bounds", "--r", "3", "--n", "18"], ["check-base", "--k", "3"],
    ], ids=["ok", "cap", "usage", "run", "verify", "bounds", "check-base"])
    def test_module_entry_point_is_main(self, argv, base_cert_file, capsys):
        # ``python -m bootperc.cli`` runs the ``__main__`` block, which exits with main's code;
        # each of the six subcommands runs once as that process
        argv = [str(base_cert_file) if arg == "CERT" else arg for arg in argv]
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        child = subprocess.run([sys.executable, "-m", "bootperc.cli", *argv], capture_output=True,
                               text=True, timeout=30, env=env)
        code = main(argv)
        assert (child.returncode, child.stdout, child.stderr) == (code, *capsys.readouterr())


READERS = [["run", "--engine", "fast"], ["run", "--engine", "naive"], ["verify"]]


def assert_bounded_exit(argv, capsys, warns=False) -> int:
    """Run ``main`` for at most 2 s: an exit code of 0-3 and at most one ``error:`` line,
    besides any ``warning:`` lines when ``warns``."""
    with deadline(2):
        code = main(argv)
    err = capsys.readouterr().err
    if warns:
        err = "".join(line for line in err.splitlines(True) if not line.startswith("warning: "))
    assert code in (0, 1, 2, 3), (argv, err)
    assert "Traceback" not in err
    assert err == "" or (err.startswith("error:") and err.count("\n") == 1 and err.endswith("\n"))
    return code


def base_text() -> str:
    cert = build_base(2)
    labels = tuple(id_to_label(i, 2) for i in range(cert.graph.n))
    return emit_certificate(CertificateDocument(cert, labels=labels))


HOSTILE_TEXTS = {
    "empty": lambda: b"",
    "invalid-utf8": lambda: b'\xff\xfe{"r": 3}',
    "truncated": lambda: base_text().encode()[: len(base_text()) // 2],
    "deep-list": lambda: b"[" * 100_000,
    "deep-object": lambda: b'{"a": ' * 50_000,
    "top-level-list": lambda: b"[1, 2, 3]",
    "too-many-digits": lambda: b'{"format_version": "1", "r": 3, "n": 1' + b"0" * 5000 + b', "edges": []}',
    "huge-n": lambda: json.dumps({"format_version": "1", "r": 3, "n": 10**4000, "edges": [[0, 1, 2]]}),
    "huge-vertex": lambda: json.dumps({"format_version": "1", "r": 2, "n": 10**30, "edges": [[0, 10**29]]}),
    "negative-n": lambda: json.dumps({"format_version": "1", "r": 3, "n": -10**30, "edges": []}),
    "negative-vertex": lambda: json.dumps({"format_version": "1", "r": 2, "n": 5, "edges": [[-1, 2]]}),
    "one-edge": lambda: json.dumps(ONE_EDGE),
    "huge-empty": lambda: json.dumps(HUGE_EMPTY),
    "huge-r-empty": lambda: json.dumps({"format_version": "1", "r": 10**18, "n": 3, "edges": []}),
}

STANDINS = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.sampled_from([-1, 0, 1, 2, 3, 11, 1.5, 10**30, -(10**30), 10**4000]),
    st.lists(st.integers(-2, 12), max_size=4),
    st.dictionaries(st.text(max_size=2), st.integers(0, 3), max_size=2),
)


def mutated_certificate(draw) -> str:
    """The labelled k = 2 base certificate after one to three drawn mutations."""
    data = json.loads(base_text())
    for _ in range(draw(st.integers(1, 3))):
        key = draw(st.sampled_from([*data, "extra"]))
        op = draw(st.sampled_from(["replace", "delete", "inner"]))
        value = data.get(key)
        if op == "delete":
            data.pop(key, None)
        elif op == "inner" and isinstance(value, list) and value:
            i = draw(st.integers(0, len(value) - 1))
            if isinstance(value[i], list) and value[i] and draw(st.booleans()):
                value[i][draw(st.integers(0, len(value[i]) - 1))] = draw(STANDINS)
            else:
                value[i] = draw(STANDINS)
        else:
            data[key] = draw(STANDINS)
    return json.dumps(data)


class TestReaderFuzz:
    """Every document the readers get ends within 2 s in a documented exit, one line at most."""

    @pytest.mark.parametrize("name", ["missing", "directory", *HOSTILE_TEXTS])
    def test_hostile_inputs(self, name, tmp_path, capsys):
        path = tmp_path / "doc.json"
        if name == "directory":
            path = tmp_path
        elif name != "missing":
            text = HOSTILE_TEXTS[name]()
            path.write_bytes(text if isinstance(text, bytes) else text.encode())
        codes = {assert_bounded_exit([*reader, "--in", str(path)], capsys) for reader in READERS}
        assert codes <= {0, 2, 3}

    @settings(derandomize=True, max_examples=80, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(data=st.data())
    def test_mutated_certificates(self, tmp_path, capsys, data):
        path = tmp_path / "cert.json"
        path.write_text(mutated_certificate(data.draw))
        for reader in READERS:
            assert_bounded_exit([*reader, "--in", str(path)], capsys)


HUGE = str(10**18)
WIDE = "1" + "0" * 3000  # under int()'s 4,300-digit limit, so argparse takes it
HOSTILE_INTS = ["-5", "0", HUGE, WIDE]


def short_id(value: str) -> str | None:
    return "wide" if value == WIDE else None


class TestArgumentFuzz:
    """Huge, negative and zero arguments to bounds, brute and run end in 2 s, one line at most."""

    @pytest.mark.parametrize("r", [*HOSTILE_INTS, "3", "40"], ids=short_id)
    def test_bounds(self, r, capsys):
        for n in [*HOSTILE_INTS, "18"]:
            assert assert_bounded_exit(["bounds", "--r", r, "--n", n], capsys, warns=True) in (0, 2)

    @pytest.mark.parametrize(
        "r, n",
        [*((r, n) for r in [*HOSTILE_INTS, "2", "3"] for n in [*HOSTILE_INTS, "4", "5"]),
         ("50000000", "100000000"), ("3000000", "3000000")],
        ids=short_id,
    )
    def test_brute(self, r, n, capsys):
        # at most C(5, 2) = 10 edges get past the default cap: one chunk, so a huge --jobs
        # starts no pool; a WIDE cap also admits C(10^18, r) edges, whose chunk count is a
        # number too large to represent
        for jobs, cap in itertools.product(["-3", "0", "1", HUGE], [None, WIDE]):
            argv = ["brute", "--r", r, "--n", n, "--jobs", jobs]
            argv += [] if cap is None else ["--cap", cap]
            assert assert_bounded_exit(argv, capsys) in (0, 2, 3)
        if (r, n) == ("2", HUGE):
            with deadline(2):
                assert main(["brute", "--r", r, "--n", n, "--cap", WIDE]) == 3
            assert capsys.readouterr() == (
                "", "error: out of memory: the input needs more than is available\n"
            )

    @pytest.mark.parametrize("n", [10**12, int(WIDE)], ids=["1e12", "wide"])
    @pytest.mark.parametrize("engine", ["fast", "naive"])
    def test_run_clique_sizes(self, n, engine, tmp_path, capsys):
        # one edge on n vertices: a clique size far past the cap is refused at once, and one
        # at or above n fires nothing
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({**ONE_EDGE, "n": n}))
        for m in [*HOSTILE_INTS, "1000000", str(n // 2)]:
            argv = ["run", "--in", str(path), "--m", m, "--engine", engine]
            code = assert_bounded_exit(argv, capsys)
            assert code == 3 if m in ("1000000", str(n // 2)) else code in (0, 2, 3), m[:20]

    def test_run_wide_edge_under_a_wide_cap(self, tmp_path, capsys):
        # the cap admits the one edge's tuples, whose masks are too large to represent
        n = int(WIDE)
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({**ONE_EDGE, "n": n, "edges": [[n - 2, n - 1]]}))
        argv = ["run", "--in", str(path), "--max-tuples", WIDE]
        assert assert_bounded_exit(argv, capsys) == 3

    def test_run_naive_bounds_its_total_recount(self, tmp_path, capsys):
        # each edge alone meets C(304, 3) 6-tuples, under the cap; the first generation
        # would recount 25 times that, 116M tuples, so the naive run is refused at once
        path = tmp_path / "graph.json"
        edges = [list(e) for e in itertools.combinations(range(7), 3)][:25]
        path.write_text(json.dumps({**ONE_EDGE, "r": 3, "n": 307, "edges": edges}))
        argv = ["run", "--in", str(path), "--engine", "naive", "--m", "6"]
        assert assert_bounded_exit(argv, capsys) == 3

    @pytest.mark.parametrize("edge", [[0, 1], [0, 1, 2]], ids=["r2", "r3"])
    def test_run_huge_vertex_count_under_an_admitting_cap(self, edge, tmp_path):
        # one edge on low ids of 10^12 vertices: no mask is as wide as n (125 GB), so each
        # run ends at once in a child process whose address space is capped at 1 GiB
        path = tmp_path / "graph.json"
        path.write_text(json.dumps({**ONE_EDGE, "r": len(edge), "n": 10**12, "edges": [edge]}))
        child = ("import resource, sys; resource.setrlimit(resource.RLIMIT_AS, (2**30, 2**30)); "
                 "from bootperc.cli import main; sys.exit(main())")
        env = {**os.environ, "PYTHONPATH": str(Path(__file__).resolve().parents[1] / "src")}
        for m in (len(edge) + 1, len(edge) + 2):
            argv = ["run", "--in", str(path), "--m", str(m), "--max-tuples", str(10**30)]
            out = subprocess.run([sys.executable, "-c", child, *argv], capture_output=True,
                                 text=True, timeout=2, env=env)
            assert (out.returncode, out.stdout, out.stderr) == (0, "T=0\n", ""), m
