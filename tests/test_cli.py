"""Command-line interface: commands, formats, exit codes, determinism."""

from __future__ import annotations

import os
import subprocess
import sys
from pathlib import Path

import pytest
from hypothesis import given, seed, settings, strategies as st

from girthscope import (
    Collector,
    EnumConfig,
    ValidationError,
    cli,
    enumerate_baseline,
    enumerate_edges_fast,
    enumerate_induced_fast,
    parse_edge_list,
    petersen_graph,
    run_verification,
    to_edge_list,
    verify,
)
from girthscope.cli import (
    EXIT_BUDGET,
    EXIT_DISCREPANCY,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_PIPE,
    EXIT_USAGE,
    EXIT_VALIDATION,
    run_cli,
)

K3 = "0 1\n1 2\n2 0\n"
C5 = "0 1\n1 2\n2 3\n3 4\n4 0\n"
C4 = "0 1\n1 2\n2 3\n3 0\n"


@pytest.fixture
def graph_file(tmp_path):
    def write(text, name="g.txt"):
        path = tmp_path / name
        path.write_text(text)
        return str(path)

    return write


def test_count_k3_induced_k4(graph_file, capsys):
    assert run_cli(["count", "--graph", graph_file(K3), "-k", "4", "--mode", "induced"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "7"


def test_girth_c5(graph_file, capsys):
    assert run_cli(["girth", "--graph", graph_file(C5)]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "5"


def test_girth_weighted_and_inf(graph_file, capsys):
    path = graph_file("0 1 2\n1 2 2\n2 0 2\n")
    assert run_cli(["girth", "--graph", path, "--weighted"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "6"
    tree = graph_file("0 1\n1 2\n", name="tree.txt")
    assert run_cli(["girth", "--graph", tree]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "inf"


def test_extremal_report(capsys):
    assert run_cli(["extremal", "-n", "5", "-k", "5"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "max_edges=5" in out


def test_enum_streams_sorted_id_lines(graph_file, capsys):
    assert run_cli(["enum", "--graph", graph_file(K3), "-k", "4", "--mode", "edge"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ""  # the empty solution
    assert set(lines) == {"", "0", "1", "2", "0 1", "0 2", "1 2"}


def test_enum_endpoint_rendering(graph_file, capsys):
    assert (
        run_cli(["enum", "--graph", graph_file(K3), "-k", "4", "--mode", "edge", "--endpoints", "--no-empty"])
        == EXIT_OK
    )
    lines = capsys.readouterr().out.splitlines()
    assert "0-1 1-2" in lines


def test_enum_to_file_and_determinism(graph_file, tmp_path, capsys):
    src = graph_file(C4)
    out1, out2 = tmp_path / "a.txt", tmp_path / "b.txt"
    for out in (out1, out2):
        assert run_cli(["enum", "--graph", src, "-k", "4", "--output", str(out)]) == EXIT_OK
    assert out1.read_bytes() == out2.read_bytes()
    assert len(out1.read_text().splitlines()) == 14


def test_limit_reached_is_reported_on_stderr(graph_file, capsys):
    # stdout keeps the count or the stream alone; stderr says the run may be a prefix
    src = graph_file(to_edge_list(petersen_graph()))
    notice = "limit of 5 solutions reached; more solutions may exist\n"
    assert run_cli(["count", "--graph", src, "-k", "5", "--limit", "5"]) == EXIT_OK
    assert capsys.readouterr() == ("5\n", notice)
    assert run_cli(["enum", "--graph", src, "-k", "5", "--limit", "5"]) == EXIT_OK
    out, err = capsys.readouterr()
    assert len(out.splitlines()) == 5 and err == notice
    assert run_cli(["count", "--graph", src, "-k", "5"]) == EXIT_OK
    full = int(capsys.readouterr().out)
    for limit in (None, full + 1):
        extra = [] if limit is None else ["--limit", str(limit)]
        assert run_cli(["count", "--graph", src, "-k", "5", *extra]) == EXIT_OK
        assert capsys.readouterr() == (f"{full}\n", "")


def test_unwritable_output_is_a_usage_error(graph_file, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.txt"
    code = run_cli(["enum", "--graph", graph_file(K3), "-k", "4", "--output", str(target)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write") and err.count("\n") == 1


def test_enum_baseline_any_connectivity(graph_file, capsys):
    # induced mode without connectivity has no fast engine, so the baseline runs
    text = "0 1\n1 2\n"
    assert run_cli(["count", "--graph", graph_file(text), "-k", "3", "--connectivity", "any"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "8"
    assert enumerate_baseline(parse_edge_list(text), EnumConfig(k=3, connectivity="any")) == 8


FAST_ENGINE = {"induced": "enumerate_induced_fast", "edge": "enumerate_edges_fast"}


def record_engines(monkeypatch) -> list[str]:
    """Wrap the engine names in girthscope.cli; returns the names called, in order."""
    called = []

    def recorded(name, real):
        def engine(*args, **kwargs):
            called.append(name)
            return real(*args, **kwargs)

        return engine

    for name in ("enumerate_induced_fast", "enumerate_edges_fast", "enumerate_baseline"):
        monkeypatch.setattr(cli, name, recorded(name, getattr(cli, name)))
    return called


def library_stream(g, k, mode, connectivity, engine) -> str:
    """What `enum` prints for the solutions `engine` emits on g."""
    sink = Collector()
    if engine == "enumerate_baseline":
        enumerate_baseline(g, EnumConfig(k=k, mode=mode, connectivity=connectivity), sink)
    elif mode == "induced":
        enumerate_induced_fast(g, k, sink)
    else:
        enumerate_edges_fast(g, k, sink, connectivity=connectivity)
    return "".join(" ".join(map(str, sorted(s))) + "\n" for s in sink.solutions)


# a triangle 0-1-2 and a 4-cycle 0-2-3-4 sharing the chord 0-2: "plain" is
# read without --weighted, the others with it; with the weight 2 on 0-1 the
# triangle weighs 4, so it passes k=4 only in "weighted"
CHORDED_C5 = {
    "plain": "0 1\n1 2\n2 3\n3 4\n4 0\n0 2\n",
    "unit": "0 1 1\n1 2 1\n2 3 1\n3 4 1\n4 0 1\n0 2 1\n",
    "weighted": "0 1 2\n1 2 1\n2 3 1\n3 4 1\n4 0 1\n0 2 1\n",
}


@pytest.mark.parametrize("weights", ["plain", "weighted", "unit"])
@pytest.mark.parametrize("connectivity", ["connected", "any"])
@pytest.mark.parametrize("mode", ["induced", "edge"])
def test_every_variant_runs_on_the_engine_for_it(graph_file, monkeypatch, capsys, mode, connectivity, weights):
    # the baseline runs exactly where no fast engine does: a weighted graph, or
    # induced mode without connectivity; a file whose weights are all 1 is unweighted
    text, flag = CHORDED_C5[weights], weights != "plain"
    baseline = weights == "weighted" or (mode == "induced" and connectivity == "any")
    engine = "enumerate_baseline" if baseline else FAST_ENGINE[mode]
    expected = library_stream(parse_edge_list(text, weighted=flag), 4, mode, connectivity, engine)
    called = record_engines(monkeypatch)
    argv = ["enum", "--graph", graph_file(text), "-k", "4", "--mode", mode, "--connectivity", connectivity]
    assert run_cli(argv + (["--weighted"] if flag else [])) == EXIT_OK
    assert called == [engine]
    assert capsys.readouterr() == (expected, "")
    triangle = "0 1 2" if mode == "induced" else "0 1 5"
    assert (triangle in expected.splitlines()) == (weights == "weighted")


@pytest.mark.parametrize("command", ["count", "enum"])
def test_help_offers_no_engine_choice(command, capsys):
    assert run_cli([command, "--help"]) == EXIT_OK
    out = capsys.readouterr().out
    assert "--weighted" in out and "--algorithm" not in out


@pytest.mark.parametrize("k", ["5", "6"])
def test_fast_edge_any_count_equals_baseline(graph_file, capsys, k):
    g = petersen_graph()
    argv = ["count", "--graph", graph_file(to_edge_list(g)), "-k", k, "--mode", "edge", "--connectivity", "any"]
    assert run_cli(argv) == EXIT_OK
    fast = int(capsys.readouterr().out)
    assert fast == enumerate_baseline(g, EnumConfig(k=int(k), mode="edge", connectivity="any"))
    if k == "5":
        assert fast == 2**15  # Petersen has girth 5: every edge subset counts


def test_fast_edge_any_enum_streams_like_baseline(graph_file, capsys):
    text = C5 + "0 2\n5 6\n"
    argv = ["enum", "--graph", graph_file(text), "-k", "4", "--mode", "edge", "--connectivity", "any", "--endpoints"]
    assert run_cli(argv) == EXIT_OK
    fast = capsys.readouterr().out
    g = parse_edge_list(text)
    baseline = Collector()
    enumerate_baseline(g, EnumConfig(k=4, mode="edge", connectivity="any"), baseline)
    lines = (" ".join(f"{u}-{v}" for u, v in (g.endpoints(e) for e in sorted(s))) for s in baseline.solutions)
    assert fast == "".join(line + "\n" for line in lines)
    assert "0-1 1-2 5-6" in fast.splitlines()  # disconnected solutions are streamed


def test_parse_error_exit_code(graph_file, capsys):
    assert run_cli(["girth", "--graph", graph_file("0 1 oops\n")]) == EXIT_PARSE
    assert "parse error" in capsys.readouterr().err


def test_missing_file_is_parse_class(tmp_path, capsys):
    assert run_cli(["girth", "--graph", str(tmp_path / "nope.txt")]) == EXIT_PARSE


def test_validation_error_exit_code(graph_file, capsys):
    assert run_cli(["girth", "--graph", graph_file("0 0\n")]) == EXIT_VALIDATION


def test_budget_exit_code(graph_file, capsys):
    edges = "\n".join(f"{u} {v}" for u in range(25) for v in range(u + 1, 25))
    code = run_cli(["bench", "--graph", graph_file(edges), "-k", "4", "--mode", "edge", "--limit", "5"])
    assert code == EXIT_BUDGET


@pytest.mark.parametrize("mode", ["induced", "edge"])
def test_bench_complete_refuses_from_n_before_building(mode, monkeypatch, capsys):
    def no_build(n):
        raise AssertionError(f"K_{n} was built")

    monkeypatch.setattr("girthscope.cli.complete_graph", no_build)
    assert run_cli(["bench", "--complete", "100000", "-k", "4", "--mode", mode]) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded: ")


@pytest.mark.parametrize("flags", [[], ["--any"], ["--reduce-iso"]])
def test_extremal_refuses_from_n_before_building(flags, monkeypatch, capsys):
    def no_build(n):
        raise AssertionError(f"K_{n} was built")

    monkeypatch.setattr("girthscope.extremal.complete_graph", no_build)
    assert run_cli(["extremal", "-n", "100000", "-k", "5", "--limit", "1"] + flags) == EXIT_BUDGET
    assert capsys.readouterr().err.startswith("budget exceeded: ")
    assert run_cli(["extremal", "-n", "1001", "-k", "5"]) == EXIT_BUDGET  # the first n over the budget
    with pytest.raises(AssertionError, match="K_1000 was built"):
        run_cli(["extremal", "-n", "1000", "-k", "5"])


def test_usage_exit_codes(capsys):
    assert run_cli(["count", "-k", "4"]) == EXIT_USAGE  # missing --graph
    assert run_cli(["bench", "-k", "4"]) == EXIT_USAGE  # neither --graph nor --complete
    assert run_cli(["count", "--graph", "x", "-k", "2"]) == EXIT_USAGE  # k too small
    assert run_cli(["--help"]) == EXIT_OK


K3_DIMACS = "p edge 3 3\ne 1 2\ne 2 3\ne 1 3\n"


def test_dimacs_input(graph_file, capsys):
    path = graph_file("c five-cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n", name="g.col")
    assert run_cli(["girth", "--graph", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "5"
    triangle = graph_file(K3_DIMACS, name="k3.col")
    for flags in ([], ["--format", "dimacs"]):  # detection reads it as --format dimacs does
        assert run_cli(["girth", "--graph", triangle, *flags]) == EXIT_OK
        assert capsys.readouterr().out == "3\n"


def test_format_forces_the_parser(graph_file, capsys):
    # without a problem line, "e 1 2" is no DIMACS graph; a problem line is no edge-list line
    headerless = graph_file(K3_DIMACS.split("\n", 1)[1], name="headerless.col")
    assert run_cli(["girth", "--graph", headerless, "--format", "dimacs"]) == EXIT_PARSE
    assert capsys.readouterr().err == "parse error: line 1: edge line before problem line\n"
    dimacs = graph_file(K3_DIMACS, name="k3.col")
    assert run_cli(["girth", "--graph", dimacs, "--format", "edgelist"]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("parse error: line 1: ")


def test_p_label_is_not_a_dimacs_header(graph_file, capsys):
    # only a four-token "p" line marks DIMACS; "p q" is an edge between labels p and q
    path = graph_file("p q\nq r\n")
    assert run_cli(["count", "--graph", path, "-k", "4"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "7"
    assert run_cli(["count", "--graph", graph_file("# p edge 2 1\np q\n"), "-k", "4"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "4"


# lines built from the tokens format detection and both parsers look at
DETECTION_TOKENS = st.one_of(
    st.sampled_from(["p", "e", "c", "#", "edge", "col"]), st.integers(0, 12).map(str), st.text(max_size=3)
)
GRAPH_FILES = st.one_of(
    st.text().map(str.encode),
    st.binary(),
    st.lists(st.lists(DETECTION_TOKENS, max_size=5).map(" ".join), max_size=8).map("\n".join).map(str.encode),
)


# the seed derandomize derived from this test's text; pinned so that an edit
# leaves its examples as they are
@seed(0x1c1039e5ef0546d08f80a162a5711fcf1cb8d9767f7f7106a6af8617ad6375748ffa1538a78056cee752fd2d9f70df65)
@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(GRAPH_FILES)
def test_any_graph_file_gets_a_documented_exit_code(tmp_path_factory, content):
    path = tmp_path_factory.getbasetemp() / "detect.txt"
    path.write_bytes(content)
    assert run_cli(["count", "-g", str(path), "-k", "4", "--limit", "5"]) in (EXIT_OK, EXIT_PARSE, EXIT_VALIDATION)


def test_k_inf_spelling(graph_file, capsys):
    assert run_cli(["count", "--graph", graph_file(C4), "-k", "inf"]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "13"


def test_bench_reports_and_checks_counts(capsys):
    assert run_cli(["bench", "--complete", "4", "-k", "4", "--mode", "edge"]) == EXIT_OK
    out = capsys.readouterr().out
    kv = dict(line.split("=", 1) for line in out.splitlines() if "=" in line)
    assert kv["status"] == "OK"
    assert kv["fast_count"] == kv["brute_count"]
    assert float(kv["fast_seconds"]) >= 0


def test_verify_smoke(capsys):
    assert run_cli(["verify", "--random-count", "2", "--seed", "1"]) == EXIT_OK
    assert "0 failure(s)" in capsys.readouterr().out


def test_verify_fails_an_engine_that_emits_a_solution_twice(monkeypatch):
    # the same solution set, but the first solution comes out twice
    real = verify.enumerate_edges_fast

    def duplicating(g, k, sink, **kwargs):
        first = []

        def twice(solution, ordinal):
            if not first:
                first.append(solution)
                sink(solution, ordinal)
            return sink(solution, ordinal)

        return real(g, k, twice, **kwargs)

    monkeypatch.setattr(verify, "enumerate_edges_fast", duplicating)
    failures = run_verification(random_count=0)
    assert failures and all(name.endswith(" fast") and " edge/" in name for name in failures)


def test_verify_rejects_a_negative_count(capsys):
    with pytest.raises(ValidationError):
        run_verification(random_count=-1)
    assert run_cli(["verify", "--random-count", "-1"]) == EXIT_VALIDATION
    assert "random_count must be >= 0" in capsys.readouterr().err


# every error path of run_cli: argv, whether the fast edge engine is replaced
# by one that finds nothing, exit code, stderr prefix; "@name" stands for a
# file holding ERROR_INPUTS[name] ("@missing" for one that does not exist)
ERROR_INPUTS = {
    "k3": K3.encode(),
    "bad": b"0 1 oops\n",
    "loop": b"0 0\n",
    "binary": b"\xff\n",
    "huge": b"p edge 100000000 0\n",
}
ERROR_PATHS = [
    pytest.param(["bench", "--complete", "4", "-k", "4"], True, EXIT_DISCREPANCY,
                 "fast solutions differ from brute force", id="discrepancy"),
    pytest.param(["count", "-k", "4"], False, EXIT_USAGE, "usage: girthscope count", id="argparse"),
    pytest.param(["bench", "-k", "4"], False, EXIT_USAGE, "bench needs exactly one of", id="bench-source"),
    pytest.param(["enum", "--graph", "@k3", "-k", "4", "--output", "@no/such/out.txt"], False, EXIT_USAGE,
                 "usage error: cannot write", id="unwritable-output"),
    pytest.param(["girth", "--graph", "@bad"], False, EXIT_PARSE, "parse error: ", id="parse"),
    pytest.param(["girth", "--graph", "@missing"], False, EXIT_PARSE, "parse error: cannot read", id="unreadable"),
    pytest.param(["girth", "--graph", "@binary"], False, EXIT_PARSE, "parse error: cannot read", id="not-utf8"),
    pytest.param(["girth", "--graph", "@loop"], False, EXIT_VALIDATION, "invalid input: ", id="validation"),
    pytest.param(["verify", "--random-count", "-1"], False, EXIT_VALIDATION, "invalid input: ", id="negative-count"),
    pytest.param(["bench", "--complete", "30", "-k", "4"], False, EXIT_BUDGET, "budget exceeded: ", id="budget"),
    pytest.param(["girth", "--graph", "@huge"], False, EXIT_BUDGET, "budget exceeded: ", id="dimacs-vertex-budget"),
]


@pytest.mark.parametrize("argv,fake_engine,code,prefix", ERROR_PATHS)
def test_each_error_path_exits_with_its_code(argv, fake_engine, code, prefix, tmp_path, monkeypatch, capsys):
    if fake_engine:
        monkeypatch.setattr("girthscope.bench.enumerate_edges_fast", lambda g, k, sink=None, **kwargs: 0)
    for name, content in ERROR_INPUTS.items():
        (tmp_path / name).write_bytes(content)
    argv = [str(tmp_path / arg[1:]) if arg.startswith("@") else arg for arg in argv]
    assert run_cli(argv) == code
    assert capsys.readouterr().err.startswith(prefix)


@pytest.mark.parametrize(
    "argv",
    [
        ["enum", "--graph", "k6.txt", "-k", "4", "--mode", "edge"],
        ["extremal", "-n", "7", "-k", "6"],
    ],
)
def test_closed_stdout_stops_quietly(argv, tmp_path):
    # `girthscope enum ... | head -1`: the reader closes the pipe after one
    # line, long before the output (more than a pipe buffer) is written
    (tmp_path / "k6.txt").write_text("".join(f"{u} {v}\n" for u in range(6) for v in range(u + 1, 6)))
    env = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))
    with subprocess.Popen(
        [sys.executable, "-m", "girthscope.cli", *argv],
        cwd=tmp_path,
        env=env,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
    ) as proc:
        assert proc.stdout.readline()
        proc.stdout.close()
        stderr = proc.stderr.read().decode()
        assert proc.wait(timeout=60) == EXIT_PIPE
    assert "Traceback" not in stderr and "Error" not in stderr, stderr
