"""Benchmark harness: cross-checked counts and report structure."""

from __future__ import annotations

import pytest

import girthscope.bench as bench_module
from girthscope import (
    INFINITE,
    BudgetExceededError,
    ValidationError,
    bench_compare,
    complete_graph,
    enumerate_edges_fast,
    enumerate_induced_fast,
    path_graph,
    petersen_graph,
)
from girthscope.cli import EXIT_BUDGET, run_cli
from girthscope.edges_fast import EdgeRunStats
from girthscope.induced_fast import InducedRunStats


def test_trivial_graph_counts_agree():
    report = bench_compare(path_graph(3), INFINITE, mode="induced", graph_desc="P_3")
    assert report.ok
    assert report.fast_count == report.brute_count == 7
    assert report.speedup > 0


def test_edge_mode_report():
    report = bench_compare(complete_graph(4), 4, mode="edge", graph_desc="K_4")
    assert report.ok
    assert report.fast_max_depth >= 2
    kv = dict(line.split("=", 1) for line in report.to_kv_lines())
    assert kv["graph"] == "K_4" and kv["k"] == "4" and kv["status"] == "OK"
    assert int(kv["fast_count"]) == int(kv["brute_count"])
    assert kv["limit"] == "none"


def test_limit_truncates_both_sides_identically():
    report = bench_compare(complete_graph(5), 4, mode="edge", limit=50)
    assert report.ok and report.fast_count == report.brute_count == 50


@pytest.mark.parametrize("limit", [None, 0, 1, 40])
def test_max_depth_is_the_one_the_engine_counts(limit):
    # the report derives the depth from the emitted solutions; the root,
    # with the empty solution, has depth 1, also when limit=0 emits nothing
    runs = [
        ("edge", complete_graph(5), 4, enumerate_edges_fast, EdgeRunStats),
        ("induced", petersen_graph(), 5, enumerate_induced_fast, InducedRunStats),
    ]
    for mode, g, k, engine, stats_type in runs:
        stats = stats_type()
        engine(g, k, limit=limit, stats=stats)
        assert bench_compare(g, k, mode=mode, limit=limit).fast_max_depth == stats.max_depth, (mode, limit)


def test_mode_validation():
    with pytest.raises(ValidationError):
        bench_compare(path_graph(3), 4, mode="both")


def test_duplicated_solution_fails_even_when_counts_agree(monkeypatch):
    # the engine repeats one solution in place of another, so counts still
    # match (and a limit caps both sides at the same number anyway)
    real = bench_module.enumerate_edges_fast

    def duplicating(g, k, sink, **kwargs):
        emitted = []

        def relay(solution, ordinal):
            emitted.append(solution)
            return sink(emitted[1] if ordinal == 2 else solution, ordinal)

        return real(g, k, relay, **kwargs)

    monkeypatch.setattr(bench_module, "enumerate_edges_fast", duplicating)
    for limit in (None, 50):
        report = bench_compare(complete_graph(5), 4, mode="edge", limit=limit)
        assert report.fast_count == report.brute_count
        assert "status=FAILED" in report.to_kv_lines()


def test_budget_is_checked_before_the_fast_run(monkeypatch, capsys):
    # K_30 has 30 vertices and 435 edges, past the 2^28 budget in both modes;
    # a fast run there would store every solution before brute force refused
    def refused(*args, **kwargs):
        raise AssertionError("the fast engine ran on an input over the brute-force budget")

    monkeypatch.setattr(bench_module, "enumerate_edges_fast", refused)
    monkeypatch.setattr(bench_module, "enumerate_induced_fast", refused)
    for mode in ("edge", "induced"):
        with pytest.raises(BudgetExceededError):
            bench_compare(complete_graph(30), 4, mode=mode)
    assert run_cli(["bench", "--complete", "30", "-k", "4"]) == EXIT_BUDGET
