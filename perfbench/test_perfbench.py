"""Fast tests of the benchmark itself, on tiny instances.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import io
import json
from pathlib import Path

import pytest

import harness
from spans import Tracer, instrument, patched

TINY = harness.tiny_workloads()
BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


def prepared(name: str, seed: int = 5):
    prog = harness.load_package()
    inputs, searches = harness.generate_inputs(prog, TINY[name], seed)
    assert all(harness.map_ids(inp) for inp in inputs)
    result = harness.PassResult()
    warm = harness.warm_up(prog, inputs, searches, {}, result)
    assert not result.failures
    return prog, inputs, searches, warm


def test_metric_lists_match_benchmark_json():
    assert [(m["name"], m["unit"]) for m in BENCHMARK["end_to_end"]] == list(harness.END_TO_END)
    assert [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]] == list(harness.PER_LAYER)
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(harness.WORKLOADS)


@pytest.mark.parametrize("name", list(TINY))
@pytest.mark.parametrize("trace", [False, True])
def test_every_metric_is_printed_with_its_unit(name, trace):
    out = io.StringIO()
    result = harness.run(TINY[name], seed=2, seconds=0, trace=trace, out=out)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    expected = harness.PER_LAYER if trace else harness.END_TO_END
    assert list(result["metrics"]) == [metric for metric, _ in expected]
    text = out.getvalue()
    for metric, unit in expected:
        assert result["metrics"][metric]["unit"] == unit
        assert f"{name} {metric} = " in text and text.split(f"{name} {metric} = ", 1)[1].split("\n")[0].endswith(f" {unit}")
    if not trace:
        assert all(result["metrics"][metric]["value"] > 0 for metric, _ in expected)


def _dropping(engine, renumber: bool):
    """The engine, except that the sink never hears of the solution with ordinal 3."""

    def call(g, k, sink=None, **kwargs):
        dropped = 0

        def lossy(solution, ordinal):
            nonlocal dropped
            if ordinal == 3:
                dropped = 1
                return True
            return sink(solution, ordinal - dropped if renumber else ordinal)

        return engine(g, k, lossy, **kwargs) - (dropped if renumber else 0)

    return call


@pytest.mark.parametrize("renumber", [False, True])
@pytest.mark.parametrize("module,attr,name", [
    ("induced_fast", "enumerate_induced_fast", "induced-random"),
    ("edges_fast", "enumerate_edges_fast", "edge-complete"),
])
def test_a_dropped_solution_is_a_failure(module, attr, name, renumber):
    prog, inputs, searches, warm = prepared(name)
    owner = getattr(prog, module)
    with patched(owner, attr, _dropping(getattr(owner, attr), renumber)):
        result = harness.run_pass(prog, inputs, searches, warm, Tracer(enabled=False))
    assert result.failures and result.attempted >= 1


def test_wrong_extremal_witnesses_are_a_failure():
    prog, inputs, searches, warm = prepared("extremal")
    real = prog.extremal.densest_girth_graphs

    def short(*args, **kwargs):
        found = real(*args, **kwargs)
        found.witnesses = found.witnesses[1:]
        return found

    with patched(prog.extremal, "densest_girth_graphs", short):
        result = harness.run_pass(prog, inputs, searches, warm, Tracer(enabled=False))
    assert len(result.failures) == len(searches)


def _attributes(prog):
    owners = [getattr(prog, name) for name in harness.MODULES]
    owners += [prog.graph.Graph, prog.enum_core._Emitter]
    return {(id(owner), attr): value for owner in owners for attr, value in vars(owner).items()}


@pytest.mark.parametrize("name", list(TINY))
def test_traced_pass_restores_every_function_and_accounts_for_its_wall(name):
    prog, inputs, searches, warm = prepared(name)
    before = _attributes(prog)
    tracer = Tracer()
    with instrument(prog, tracer):
        assert _attributes(prog) != before
        result = harness.run_pass(prog, inputs, searches, warm, tracer)
    after = _attributes(prog)
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    assert not result.failures
    attributed = tracer.attributed_ns()
    assert attributed <= result.wall_ns
    assert result.wall_ns - attributed < 0.02 * result.wall_ns + 200_000


def test_delay_quantiles_use_nearest_rank_and_ten_beyond_the_tail():
    delays = list(range(1, 1001))
    p50, p99, tail, tail_pct = harness.delay_quantiles(delays)
    assert (p50, p99, tail) == (500, 990, 990)
    assert tail_pct == pytest.approx(99.0)
    assert sum(d > tail for d in delays) == 10


def test_every_standard_call_has_a_stored_digest():
    table = harness.load_expected()
    for workload in harness.WORKLOADS.values():
        instances, searches = workload.build()
        keys = [harness.call_key(i, mode, k) for i in instances for mode, k in i.calls]
        keys += [s.key for s in searches]
        assert keys and all(key in table for key in keys)


def test_seed_changes_ids_but_not_the_canonical_instance():
    prog = harness.load_package()
    a, _ = harness.generate_inputs(prog, TINY["induced-random"], 1)
    b, _ = harness.generate_inputs(prog, TINY["induced-random"], 2)
    c, _ = harness.generate_inputs(prog, TINY["induced-random"], 1)
    assert [i.text for i in a] == [i.text for i in c]
    assert [i.text for i in a] != [i.text for i in b]
    assert [i.instance for i in a] == [i.instance for i in b]
