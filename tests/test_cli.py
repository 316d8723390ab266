"""Command-line interface: commands, formats, exit codes, determinism."""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from girthscope import ValidationError, run_verification
from girthscope.cli import (
    EXIT_BUDGET,
    EXIT_DISCREPANCY,
    EXIT_OK,
    EXIT_PARSE,
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


def test_unwritable_output_is_a_usage_error(graph_file, tmp_path, capsys):
    target = tmp_path / "no" / "such" / "dir" / "out.txt"
    code = run_cli(["enum", "--graph", graph_file(K3), "-k", "4", "--output", str(target)])
    assert code == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("usage error: cannot write") and err.count("\n") == 1


def test_enum_baseline_any_connectivity(graph_file, capsys):
    src = graph_file("0 1\n1 2\n")
    code = run_cli(
        ["count", "--graph", src, "-k", "3", "--connectivity", "any", "--algorithm", "baseline"]
    )
    assert code == EXIT_OK
    assert capsys.readouterr().out.strip() == "8"


def test_fast_flag_combinations_rejected(graph_file, capsys):
    src = graph_file("0 1 2\n", name="w.txt")
    assert run_cli(["count", "--graph", src, "-k", "3", "--weighted"]) == EXIT_USAGE
    assert "baseline" in capsys.readouterr().err
    src2 = graph_file(K3)
    assert run_cli(["count", "--graph", src2, "-k", "3", "--connectivity", "any"]) == EXIT_USAGE


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


def test_usage_exit_codes(capsys):
    assert run_cli(["count", "-k", "4"]) == EXIT_USAGE  # missing --graph
    assert run_cli(["bench", "-k", "4"]) == EXIT_USAGE  # neither --graph nor --complete
    assert run_cli(["count", "--graph", "x", "-k", "2"]) == EXIT_USAGE  # k too small
    assert run_cli(["--help"]) == EXIT_OK


def test_dimacs_input(graph_file, capsys):
    path = graph_file("c five-cycle\np edge 5 5\ne 1 2\ne 2 3\ne 3 4\ne 4 5\ne 5 1\n", name="g.col")
    assert run_cli(["girth", "--graph", path]) == EXIT_OK
    assert capsys.readouterr().out.strip() == "5"


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


def test_verify_rejects_a_negative_count(capsys):
    with pytest.raises(ValidationError):
        run_verification(random_count=-1)
    assert run_cli(["verify", "--random-count", "-1"]) == EXIT_VALIDATION
    assert "random_count must be >= 0" in capsys.readouterr().err


# every error path of run_cli: argv, whether the fast edge engine is replaced
# by one that finds nothing, exit code, stderr prefix; "@name" stands for a
# file holding ERROR_INPUTS[name] ("@missing" for one that does not exist)
ERROR_INPUTS = {"k3": K3.encode(), "bad": b"0 1 oops\n", "loop": b"0 0\n", "binary": b"\xff\n"}
ERROR_PATHS = [
    pytest.param(["bench", "--complete", "4", "-k", "4"], True, EXIT_DISCREPANCY,
                 "fast solutions differ from brute force", id="discrepancy"),
    pytest.param(["count", "-k", "4"], False, EXIT_USAGE, "usage: girthscope count", id="argparse"),
    pytest.param(["bench", "-k", "4"], False, EXIT_USAGE, "bench needs exactly one of", id="bench-source"),
    pytest.param(["count", "--graph", "@k3", "-k", "3", "--connectivity", "any"], False, EXIT_USAGE,
                 "usage error: ", id="flag-combination"),
    pytest.param(["girth", "--graph", "@bad"], False, EXIT_PARSE, "parse error: ", id="parse"),
    pytest.param(["girth", "--graph", "@missing"], False, EXIT_PARSE, "parse error: cannot read", id="unreadable"),
    pytest.param(["girth", "--graph", "@binary"], False, EXIT_PARSE, "parse error: cannot read", id="not-utf8"),
    pytest.param(["girth", "--graph", "@loop"], False, EXIT_VALIDATION, "invalid input: ", id="validation"),
    pytest.param(["verify", "--random-count", "-1"], False, EXIT_VALIDATION, "invalid input: ", id="negative-count"),
    pytest.param(["bench", "--complete", "30", "-k", "4"], False, EXIT_BUDGET, "budget exceeded: ", id="budget"),
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
