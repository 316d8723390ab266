"""Workloads, correctness checks and timed passes of the girthscope benchmark.

Load model: a closed loop with one client. One process and one thread make
library calls one after another, each running to completion.

Every workload is built from fixed canonical instances. The run seed relabels
the vertices and shuffles the edge lines before the graph is serialised with
`to_edge_list`; the program sees only that text, through `parse_edge_list`.
So vertex and edge ids, and with them the enumeration order, change with the
seed, while the solution count and the amount of work stay the same. Seeded
random structure was tried first: the solution count of 8 G(20, 30) graphs
varied from 131k to 205k across seeds, a spread no bound could absorb.

Each enumeration call is checked on its solution set, reduced to the digest
(count, sum of hash(frozenset) mod 2^64). An untimed warm-up call maps its
solutions back to canonical ids and compares that digest with expected.json
(or, for an instance not in the table, with the baseline engine's result).
Every timed call must then reproduce the warm-up's digest in the ids the
program saw.
"""

from __future__ import annotations

import importlib
import inspect
import json
import random
import resource
import statistics
import sys
import time
import traceback
from array import array
from collections.abc import Callable
from contextlib import ExitStack, contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from spans import Tracer, instrument, patched

SRC = Path(__file__).resolve().parent.parent / "src"
EXPECTED_FILE = Path(__file__).with_name("expected.json")
MASK64 = (1 << 64) - 1
SETUP_REPS = 15
MODULES = ("graph", "girth", "enum_core", "induced_fast", "edges_fast", "extremal")

END_TO_END = (
    ("wall_s", "s"),
    ("solutions_per_s", "1/s"),
    ("delay_p50_us", "us"),
    ("delay_p99_us", "us"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
)


# --- canonical instances ----------------------------------------------------

@dataclass(frozen=True)
class Instance:
    """A canonical graph (vertices 0..n-1, edge ids = positions) and the (mode, k) calls made on it."""

    key: str
    n: int
    edges: tuple[tuple[int, int], ...]
    calls: tuple[tuple[str, int], ...]


@dataclass(frozen=True)
class Search:
    """One densest_girth_graphs(n, k, connected_only=...) call."""

    key: str
    n: int
    k: int
    connected_only: bool


@dataclass(frozen=True)
class Workload:
    name: str
    build: Callable[[], tuple[list[Instance], list[Search]]]


def complete_edges(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((u, v) for u in range(n) for v in range(u + 1, n))


def compact(edges) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Renumber the vertices that touch an edge to 0..n-1 in ascending order.

    An edge list cannot carry isolated vertices, so the canonical graph is the
    one the text describes.
    """
    used = sorted({x for e in edges for x in e})
    index = {v: i for i, v in enumerate(used)}
    return len(used), tuple(sorted((index[u], index[v]) for u, v in edges))


def gnm_edges(rng: random.Random, n: int, m: int):
    """Uniform random graph with exactly m edges on n labelled vertices."""
    return rng.sample(complete_edges(n), m)


def connected_edges(rng: random.Random, n: int, m: int):
    """Random recursive tree on n vertices plus m - n + 1 distinct extra edges: always connected."""
    edges = {(rng.randrange(v), v) for v in range(1, n)}
    rest = [p for p in complete_edges(n) if p not in edges]
    edges.update(rng.sample(rest, m - n + 1))
    return sorted(edges)


def edge_complete(n: int = 7, k: int = 4) -> Workload:
    def build():
        return [Instance(f"K{n}", n, complete_edges(n), (("edge", k),))], []

    return Workload("edge-complete", build)


def induced_random(graphs: int = 40, n: int = 16, m: int = 24, k: int = 5) -> Workload:
    def build():
        rng = random.Random("induced-random")
        out = []
        for i in range(graphs):
            size, edges = compact(gnm_edges(rng, n, m))
            out.append(Instance(f"gnm-n{n}-m{m}-{i}", size, edges, (("induced", k),)))
        return out, []

    return Workload("induced-random", build)


def sparse_union(components: int = 200, size: int = 8, m: int = 10, k: int = 5) -> Workload:
    def build():
        rng = random.Random("sparse-union")
        edges = []
        for c in range(components):
            edges += [(size * c + u, size * c + v) for u, v in connected_edges(rng, size, m)]
        key = f"union-{components}x-n{size}-m{m}"
        return [Instance(key, components * size, tuple(edges), (("induced", k), ("edge", k)))], []

    return Workload("sparse-union", build)


def extremal(searches=((7, 5, True), (6, 4, False))) -> Workload:
    def build():
        return [], [
            Search(f"densest-n{n}-k{k}-{'connected' if c else 'any'}", n, k, c)
            for n, k, c in searches
        ]

    return Workload("extremal", build)


WORKLOADS = {
    w.name: w for w in (edge_complete(), induced_random(), sparse_union(), extremal())
}


def tiny_workloads() -> dict[str, Workload]:
    """Same four workloads at sizes that finish in milliseconds (for the benchmark's own tests)."""
    return {
        w.name: w
        for w in (
            edge_complete(5, 4),
            induced_random(2, 8, 10, 4),
            sparse_union(4, 5, 6, 4),
            extremal(((5, 4, True), (4, 3, False))),
        )
    }


# --- the program as the run sees it -----------------------------------------

def load_package():
    """Import girthscope afresh and return its modules as attributes of one namespace."""
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "girthscope" or m.startswith("girthscope.")]:
        del sys.modules[name]
    package = importlib.import_module("girthscope")
    if Path(package.__file__).resolve().parent != SRC / "girthscope":
        raise ImportError(f"girthscope was imported from {package.__file__}, not from {SRC}")
    prog = type("Program", (), {})()
    for name in MODULES:
        setattr(prog, name, importlib.import_module(f"girthscope.{name}"))
    return prog


@dataclass
class Input:
    """One instance as handed to the program, with the maps from parsed ids back to canonical ids."""

    instance: Instance
    text: str
    perm: list[int]
    order: list[int]
    graph: object = None
    vertex_map: list[int] = field(default_factory=list)

    @property
    def edge_map(self) -> list[int]:
        # parse_edge_list numbers edges by line, and line i carries canonical edge order[i]
        return self.order


def generate_inputs(prog, workload: Workload, seed: int):
    """Generate, relabel, serialise and parse every instance: the timed part of set-up."""
    instances, searches = workload.build()
    rng = random.Random(seed)
    inputs = []
    for inst in instances:
        perm = list(range(inst.n))
        rng.shuffle(perm)
        order = list(range(len(inst.edges)))
        rng.shuffle(order)
        g = prog.graph.Graph(inst.n, [(perm[inst.edges[j][0]], perm[inst.edges[j][1]]) for j in order])
        inputs.append(Input(inst, prog.graph.to_edge_list(g), perm, order))
    for inp in inputs:
        inp.graph = prog.graph.parse_edge_list(inp.text)
    return inputs, searches


def timed_setup(workload: Workload, seed: int):
    """SETUP_REPS rounds of import, generation, serialisation and parse; keeps the last round."""
    times = []
    for _ in range(SETUP_REPS):
        t0 = time.perf_counter()
        prog = load_package()
        inputs, searches = generate_inputs(prog, workload, seed)
        times.append(time.perf_counter() - t0)
    return times, prog, inputs, searches


def map_ids(inp: Input) -> bool:
    """Fill inp.vertex_map by replaying first-appearance numbering; False if the parse disagrees."""
    inverse = [0] * inp.instance.n
    for canonical, label in enumerate(inp.perm):
        inverse[label] = canonical
    labels: dict[str, int] = {}
    for line in inp.text.splitlines():
        for token in line.split():
            labels.setdefault(token, len(labels))
    inp.vertex_map = [0] * len(labels)
    for token, parsed in labels.items():
        inp.vertex_map[parsed] = inverse[int(token)]
    g = inp.graph
    if g.n != inp.instance.n or g.m != len(inp.instance.edges):
        return False
    vm = inp.vertex_map
    return all(
        tuple(sorted((vm[u], vm[v]))) == inp.instance.edges[inp.order[i]]
        for i, (u, v, _) in enumerate(g.edges)
    )


# --- digests and references -------------------------------------------------

def set_digest(solutions) -> dict:
    """Order-independent digest: count and sum of hash(frozenset) mod 2^64."""
    count = 0
    total = 0
    for s in solutions:
        count += 1
        total += hash(s)
    return {"count": count, "digest": total & MASK64}


def call_key(inst: Instance, mode: str, k: int) -> str:
    return f"{inst.key}/{mode}/k{k}"


def enumeration_reference(prog, inst: Instance, mode: str, k: int) -> dict:
    """Solution-set digest from the baseline engine, run component by component.

    Connected solutions lie inside one component, so the union's solution set
    is the empty set plus every component's non-empty solutions.
    """
    adjacency: dict[int, list[int]] = {}
    for u, v in inst.edges:
        adjacency.setdefault(u, []).append(v)
        adjacency.setdefault(v, []).append(u)
    seen: set[int] = set()
    solutions = [frozenset()]
    for start in sorted(adjacency):
        if start in seen:
            continue
        component = {start}
        stack = [start]
        while stack:
            for y in adjacency[stack.pop()]:
                if y not in component:
                    component.add(y)
                    stack.append(y)
        seen |= component
        verts = sorted(component)
        local = {v: i for i, v in enumerate(verts)}
        eids = [j for j, (u, _) in enumerate(inst.edges) if u in component]
        g = prog.graph.Graph(len(verts), [(local[inst.edges[j][0]], local[inst.edges[j][1]]) for j in eids])
        collector = prog.enum_core.Collector()
        cfg = prog.enum_core.EnumConfig(k=k, mode=mode, include_empty=False)
        prog.enum_core.enumerate_baseline(g, cfg, collector)
        back = verts if mode == "induced" else eids
        solutions += [frozenset(back[x] for x in s) for s in collector.solutions]
    return set_digest(solutions)


def witness_digest(max_edges: int, witnesses) -> dict:
    return {"max_edges": max_edges, **set_digest(frozenset(w) for w in witnesses)}


def search_reference(prog, search: Search) -> dict | None:
    """Max edge count and witnesses by the brute-force filter; None past its 2^20-subset budget."""
    if search.n * (search.n - 1) // 2 > 20:
        return None
    g = prog.graph.complete_graph(search.n)
    cfg = prog.enum_core.EnumConfig(
        k=search.k, mode="edge", connectivity="connected" if search.connected_only else "any"
    )
    solutions = prog.enum_core.brute_force_enumerate(g, cfg)
    best = max(len(s) for s in solutions)
    witnesses = [tuple(g.endpoints(e) for e in sorted(s)) for s in solutions if len(s) == best]
    return witness_digest(best, witnesses)


def load_expected() -> dict:
    return json.loads(EXPECTED_FILE.read_text()) if EXPECTED_FILE.exists() else {}


# --- passes -----------------------------------------------------------------

@dataclass
class PassResult:
    wall_ns: int = 0
    solutions: int = 0
    delays: list[int] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    attempted: int = 0
    streams: list[str] = field(default_factory=list)


def _delays(start: int, stamps: array, count: int) -> list[int]:
    ts = stamps[:count].tolist()
    return [b - a for a, b in zip([start] + ts, ts)]


def _stream_digest(hashes) -> int:
    h = 0
    for x in hashes:
        h = (h * 1099511628211 + x) & MASK64
    return h


def _interposer(engine, span: str, stats_cls, tracer: Tracer, stamped):
    """Stand-in for an engine that extremal calls: adds the delay sink, and spans when tracing."""
    signature = inspect.signature(engine)
    traced_engine = tracer.wrap(span, engine)
    counts = tracer.counts

    def prune_counts(result, args, kwargs):
        counts["extremal.prune.cut"] += bool(result)
        counts["extremal.prune.edges_scanned"] += args[0].g.m

    def call(*args, **kwargs):
        bound = signature.bind(*args, **kwargs)
        arguments = bound.arguments
        arguments["sink"] = tracer.wrap("bench.sink", stamped(tracer.wrap("extremal.sink", arguments["sink"])))
        if span == "edges_fast.driver" and arguments.get("prune") is not None:  # the baseline's prune takes no state
            arguments["prune"] = tracer.wrap("extremal.prune", arguments["prune"], prune_counts)
        stats = None
        if tracer.enabled and stats_cls is not None and arguments.get("stats") is None:
            stats = arguments["stats"] = stats_cls()
        result = traced_engine(*bound.args, **bound.kwargs)
        if stats is not None:
            tracer.add_stats("edges_fast", stats)
        return result

    return call


@contextmanager
def extremal_interposed(prog, tracer: Tracer, stamped):
    ext = prog.extremal
    points = (
        ("enumerate_edges_fast", "edges_fast.driver", prog.edges_fast.EdgeRunStats),
        ("enumerate_baseline", "enum_core.driver", None),
    )
    with ExitStack() as stack:
        for attr, span, stats_cls in points:
            engine = getattr(ext, attr)
            stack.enter_context(patched(ext, attr, _interposer(engine, span, stats_cls, tracer, stamped)))
        yield


def warm_up(prog, inputs, searches, table: dict, result: PassResult) -> dict[str, dict]:
    """One untimed pass that checks every call against its canonical expected value.

    Expected values come from `table` (expected.json), or from the reference
    engines for an instance the table lacks.

    Its sink maps each solution back to canonical ids as it arrives, keeping
    none, so memory stays what the program itself needs. Returns, per call,
    the count and the digest in the ids the program saw, which the timed
    passes must reproduce; for a search, the count is the states it explored.
    """
    seen: dict[str, dict] = {}
    for inp in inputs:
        for mode, k in inp.instance.calls:
            key = call_key(inp.instance, mode, k)
            engine = prog.induced_fast.enumerate_induced_fast if mode == "induced" else prog.edges_fast.enumerate_edges_fast
            id_map = inp.vertex_map if mode == "induced" else inp.edge_map
            sums = [0, 0]

            def sink(solution, ordinal, id_map=id_map, sums=sums):
                sums[0] += hash(frozenset([id_map[x] for x in solution]))
                sums[1] += hash(solution)

            result.attempted += 1
            seen[key] = {"count": 0, "digest": 0}
            try:
                count = engine(inp.graph, k, sink)
            except Exception:
                traceback.print_exc()
                result.failures.append(f"{key}: raised")
                continue
            seen[key] = {"count": count, "digest": sums[1] & MASK64}
            got = {"count": count, "digest": sums[0] & MASK64}
            want = table.get(key) or enumeration_reference(prog, inp.instance, mode, k)
            if got != want:
                result.failures.append(f"{key}: got {got}, want {want}")
    for search in searches:
        result.attempted += 1
        seen[search.key] = {"count": 0, "witnesses": None}
        try:
            found = prog.extremal.densest_girth_graphs(search.n, search.k, connected_only=search.connected_only)
        except Exception:
            traceback.print_exc()
            result.failures.append(f"{search.key}: raised")
            continue
        got = witness_digest(found.max_edges, found.witnesses)
        seen[search.key] = {"count": found.explored, "witnesses": got}
        want = table.get(search.key) or search_reference(prog, search)
        if want is None:
            result.failures.append(f"{search.key}: no stored or reference value")
        elif got != want or not found.complete:
            result.failures.append(f"{search.key}: got {got}, complete={found.complete}; want {want}")
    return seen


def run_pass(prog, inputs, searches, warm: dict[str, dict], tracer: Tracer) -> PassResult:
    """Every call of the workload once, timed; each must reproduce its warm-up count and digest.

    The sink stores a timestamp and the solution's hash in preallocated
    arrays and keeps no solution, so the garbage collector sees what it
    would see without the benchmark.
    """
    result = PassResult()
    clock = time.perf_counter_ns
    for inp in inputs:
        for mode, k in inp.instance.calls:
            key = call_key(inp.instance, mode, k)
            if mode == "induced":
                engine, span, stats_cls = prog.induced_fast.enumerate_induced_fast, "induced_fast", prog.induced_fast.InducedRunStats
            else:
                engine, span, stats_cls = prog.edges_fast.enumerate_edges_fast, "edges_fast", prog.edges_fast.EdgeRunStats
            cap = warm[key]["count"]
            stamps = array("q", bytes(8 * cap))
            hashes = array("q", bytes(8 * cap))

            def sink(solution, ordinal, stamps=stamps, hashes=hashes):
                stamps[ordinal] = clock()
                hashes[ordinal] = hash(solution)

            kwargs = {}
            if tracer.enabled:
                kwargs["stats"] = stats_cls()
            call = tracer.wrap(f"{span}.driver", engine)
            traced_sink = tracer.wrap("bench.sink", sink)
            result.attempted += 1
            start = clock()
            try:
                count = call(inp.graph, k, traced_sink, **kwargs)
            except Exception:
                result.wall_ns += clock() - start
                traceback.print_exc()
                result.failures.append(f"{key}: raised")
                continue
            result.wall_ns += clock() - start
            if tracer.enabled:
                tracer.add_stats(span, kwargs["stats"])
            result.solutions += count
            if count > cap or 0 in stamps[:count]:
                result.failures.append(f"{key}: the sink did not see {count} solutions")
                continue
            result.delays += _delays(start, stamps, count)
            got = {"count": count, "digest": sum(hashes[:count]) & MASK64}
            if got != warm[key]:
                result.failures.append(f"{key}: got {got}, warm-up gave {warm[key]}")
            result.streams.append(
                f"{key}: count={count} digest={got['digest']} stream_digest={_stream_digest(hashes[:count])}"
            )
    for search in searches:
        stamps = array("q", bytes(8 * warm[search.key]["count"]))

        def stamped(inner, stamps=stamps):
            def sink(solution, ordinal):
                stamps[ordinal] = clock()
                return inner(solution, ordinal)

            return sink

        densest = tracer.wrap("extremal.driver", prog.extremal.densest_girth_graphs)
        result.attempted += 1
        with extremal_interposed(prog, tracer, stamped):
            start = clock()
            try:
                found = densest(search.n, search.k, connected_only=search.connected_only)
            except Exception:
                result.wall_ns += clock() - start
                traceback.print_exc()
                result.failures.append(f"{search.key}: raised")
                continue
            result.wall_ns += clock() - start
        result.solutions += found.explored
        result.delays += _delays(start, stamps, found.explored)
        got = witness_digest(found.max_edges, found.witnesses)
        if found.explored != warm[search.key]["count"] or got != warm[search.key]["witnesses"]:
            result.failures.append(f"{search.key}: got {got} after {found.explored} states, warm-up gave {warm[search.key]}")
    return result


# --- metrics ----------------------------------------------------------------

def delay_quantiles(delays: list[int]) -> tuple[float, float, float, float]:
    """(p50, p99, tail, tail percentile) in ns by nearest rank.

    The tail is the highest percentile with at least 10 samples beyond it:
    the value at rank N - 10.
    """
    d = sorted(delays)
    n = len(d)
    if n == 0:
        return 0.0, 0.0, 0.0, 0.0

    def rank(p: int) -> float:
        return float(d[max(0, -(-p * n // 100) - 1)])

    tail_index = max(0, n - 11)
    return rank(50), rank(99), float(d[tail_index]), 100.0 * (tail_index + 1) / n


def end_to_end_metrics(passes: list[PassResult], setup_times: list[float], peak_rss_kb: int, out) -> dict:
    """Medians over the timed passes (set-up: over its rounds).

    The delay tail is printed but is not a metric: on a shared machine it is
    set by scheduler preemptions, and it spread by 0.7 to 1.0 of its median
    across runs, more than any bound could absorb.
    """
    quantiles = [delay_quantiles(p.delays) for p in passes]
    values = {
        "wall_s": statistics.median(p.wall_ns for p in passes) / 1e9,
        "solutions_per_s": statistics.median(p.solutions / (p.wall_ns / 1e9) for p in passes if p.wall_ns),
        "delay_p50_us": statistics.median(q[0] for q in quantiles) / 1e3,
        "delay_p99_us": statistics.median(q[1] for q in quantiles) / 1e3,
        "setup_s": statistics.median(setup_times),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
    print("# pass walls (s): " + " ".join(f"{p.wall_ns / 1e9:.4f}" for p in passes), file=out)
    print(
        f"# delay tail: p{statistics.median(q[3] for q in quantiles):.4f} ="
        f" {statistics.median(q[2] for q in quantiles) / 1e3:.1f} us (median over {len(passes)} passes"
        f" of {statistics.median(len(p.delays) for p in passes):.0f} samples, 10 beyond it)",
        file=out,
    )
    return {name: (values[name], unit) for name, unit in END_TO_END}


PER_LAYER = (
    ("graph.parse_s", "s"),
    ("graph.build_s", "s"),
    ("induced_fast.filter.self_s", "s"),
    ("induced_fast.filter.scanned_per_solution", "count"),
    ("induced_fast.exclude.self_s", "s"),
    ("induced_fast.exclude.rows_touched_per_solution", "count"),
    ("induced_fast.update_dist.self_s", "s"),
    ("induced_fast.update_dist.entries_per_solution", "count"),
    ("induced_fast.update_second.self_s", "s"),
    ("induced_fast.update_second.full_recompute_ratio", "ratio"),
    ("induced_fast.advance.self_s", "s"),
    ("induced_fast.initial_state_s", "s"),
    ("induced_fast.driver.self_s", "s"),
    ("induced_fast.iterations", "count"),
    ("induced_fast.max_depth", "count"),
    ("edges_fast.update_dist_s.self_s", "s"),
    ("edges_fast.dist_entries_per_solution", "count"),
    ("edges_fast.update_edge_cand.self_s", "s"),
    ("edges_fast.pair_girth_ok.self_s", "s"),
    ("edges_fast.pair_girth_ok.calls", "count"),
    ("edges_fast.pair_accept_ratio", "ratio"),
    ("edges_fast.advance.self_s", "s"),
    ("edges_fast.seed_state.self_s", "s"),
    ("edges_fast.exclude.self_s", "s"),
    ("edges_fast.blocked_copied_per_solution", "count"),
    ("edges_fast.driver.self_s", "s"),
    ("edges_fast.inner_picks", "count"),
    ("edges_fast.outer_picks", "count"),
    ("edges_fast.pair_checks", "count"),
    ("edges_fast.max_depth", "count"),
    ("extremal.driver.self_s", "s"),
    ("extremal.sink.self_s", "s"),
    ("extremal.prune.self_s", "s"),
    ("extremal.prune.calls", "count"),
    ("extremal.prune.cut_ratio", "ratio"),
    ("extremal.prune.edges_scanned_per_call", "count"),
    ("enum_core.emit.self_s", "s"),
    ("enum_core.driver.self_s", "s"),
    ("enum_core.candidate_set_naive.self_s", "s"),
    ("enum_core.candidate_set_naive.calls", "count"),
    ("enum_core.accept_ratio", "ratio"),
    ("girth.girth_of_adjacency.self_s", "s"),
    ("girth.girth_of_adjacency.calls", "count"),
    ("bench.sink.self_s", "s"),
    ("trace.bookkeeping_s", "s"),
    ("trace.unattributed_s", "s"),
    ("trace.wall_s", "s"),
    ("trace.overhead_ratio", "ratio"),
)


def per_layer_metrics(tracer: Tracer, setup: Tracer, traced: list[PassResult], plain: list[PassResult], out) -> dict:
    """Per-pass averages of the traced passes; graph.* per set-up round.

    A per-solution figure divides by the solutions that engine emitted (its
    iteration count), so the two engines of sparse-union do not dilute each other.
    """
    passes = len(traced)
    c = tracer.counts
    induced_solutions = c["induced_fast.iterations"]
    edge_solutions = c["edges_fast.iterations"]
    calls = tracer.calls

    def self_s(name: str) -> float:
        return tracer.self_ns.get(name, 0) / passes / 1e9

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    traced_wall = sum(p.wall_ns for p in traced) / passes / 1e9
    attributed = tracer.attributed_ns() / passes / 1e9
    values = {
        "graph.parse_s": setup.self_ns.get("graph.parse", 0) / SETUP_REPS / 1e9,
        "graph.build_s": setup.self_ns.get("graph.build", 0) / SETUP_REPS / 1e9,
        "induced_fast.filter.self_s": self_s("induced_fast.filter"),
        "induced_fast.filter.scanned_per_solution": ratio(c["induced_fast.filter.scanned"], induced_solutions),
        "induced_fast.exclude.self_s": self_s("induced_fast.exclude"),
        "induced_fast.exclude.rows_touched_per_solution": ratio(c["induced_fast.exclude.rows_touched"], induced_solutions),
        "induced_fast.update_dist.self_s": self_s("induced_fast.update_dist"),
        "induced_fast.update_dist.entries_per_solution": ratio(c["induced_fast.update_dist.entries"], induced_solutions),
        "induced_fast.update_second.self_s": self_s("induced_fast.update_second"),
        "induced_fast.update_second.full_recompute_ratio": ratio(
            c["induced_fast.full_recomputes"], c["induced_fast.candidate_pairs"]
        ),
        "induced_fast.advance.self_s": self_s("induced_fast.advance"),
        "induced_fast.initial_state_s": self_s("induced_fast.initial_state"),
        "induced_fast.driver.self_s": self_s("induced_fast.driver"),
        "induced_fast.iterations": c["induced_fast.iterations"] / passes,
        "induced_fast.max_depth": c["induced_fast.max_depth"],
        "edges_fast.update_dist_s.self_s": self_s("edges_fast.update_dist_s"),
        "edges_fast.dist_entries_per_solution": ratio(c["edges_fast.dist_entries"], edge_solutions),
        "edges_fast.update_edge_cand.self_s": self_s("edges_fast.update_edge_cand"),
        "edges_fast.pair_girth_ok.self_s": self_s("edges_fast.pair_girth_ok"),
        "edges_fast.pair_girth_ok.calls": calls["edges_fast.pair_girth_ok"] / passes,
        "edges_fast.pair_accept_ratio": ratio(
            c["edges_fast.pair_girth_ok.accepted"], calls["edges_fast.pair_girth_ok"]
        ),
        "edges_fast.advance.self_s": self_s("edges_fast.advance"),
        "edges_fast.seed_state.self_s": self_s("edges_fast.seed_state"),
        "edges_fast.exclude.self_s": self_s("edges_fast.exclude"),
        "edges_fast.blocked_copied_per_solution": ratio(c["edges_fast.blocked_copied"], edge_solutions),
        "edges_fast.driver.self_s": self_s("edges_fast.driver"),
        "edges_fast.inner_picks": c["edges_fast.inner_picks"] / passes,
        "edges_fast.outer_picks": c["edges_fast.outer_picks"] / passes,
        "edges_fast.pair_checks": c["edges_fast.pair_checks"] / passes,
        "edges_fast.max_depth": c["edges_fast.max_depth"],
        "extremal.driver.self_s": self_s("extremal.driver"),
        "extremal.sink.self_s": self_s("extremal.sink"),
        "extremal.prune.self_s": self_s("extremal.prune"),
        "extremal.prune.calls": calls["extremal.prune"] / passes,
        "extremal.prune.cut_ratio": ratio(c["extremal.prune.cut"], calls["extremal.prune"]),
        "extremal.prune.edges_scanned_per_call": ratio(c["extremal.prune.edges_scanned"], calls["extremal.prune"]),
        "enum_core.emit.self_s": self_s("enum_core.emit"),
        "enum_core.driver.self_s": self_s("enum_core.driver"),
        "enum_core.candidate_set_naive.self_s": self_s("enum_core.candidate_set_naive"),
        "enum_core.candidate_set_naive.calls": calls["enum_core.candidate_set_naive"] / passes,
        "enum_core.accept_ratio": ratio(
            c["enum_core.candidate_set_naive.accepted"], c["enum_core.candidate_set_naive.tested"]
        ),
        "girth.girth_of_adjacency.self_s": self_s("girth.girth_of_adjacency"),
        "girth.girth_of_adjacency.calls": calls["girth.girth_of_adjacency"] / passes,
        "bench.sink.self_s": self_s("bench.sink"),
        "trace.bookkeeping_s": self_s("trace.bookkeeping"),
        "trace.unattributed_s": traced_wall - attributed,
        "trace.wall_s": traced_wall,
        "trace.overhead_ratio": ratio(
            statistics.median(p.wall_ns for p in traced), statistics.median(p.wall_ns for p in plain)
        ),
    }
    print(
        f"# {passes} traced passes; span self times cover {attributed:.6f} s"
        f" of {traced_wall:.6f} s traced wall per pass",
        file=out,
    )
    return {name: (values[name], unit) for name, unit in PER_LAYER}


# --- one run ----------------------------------------------------------------

def run(workload: Workload, seed: int, seconds: float, trace: bool, out=sys.stdout) -> dict:
    """Set up, warm up, then time passes for `seconds`; returns the result object the CLI prints."""
    setup_times, prog, inputs, searches = timed_setup(workload, seed)
    failures: list[str] = []
    attempted = len(inputs)  # each parse is checked too
    for inp in inputs:
        if not map_ids(inp):
            failures.append(f"{inp.instance.key}: parsed graph differs from the serialised text")
    first = PassResult()
    warm = warm_up(prog, inputs, searches, load_expected(), first)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss

    plain: list[PassResult] = []
    traced: list[PassResult] = []
    tracer = Tracer(enabled=trace)
    deadline = time.perf_counter() + seconds
    while True:
        plain.append(run_pass(prog, inputs, searches, warm, Tracer(enabled=False)))
        if trace:
            with instrument(prog, tracer):
                traced.append(run_pass(prog, inputs, searches, warm, tracer))
        if time.perf_counter() >= deadline:
            break

    for p in [first] + plain + traced:
        attempted += p.attempted
        failures += p.failures
    for line in plain[0].streams:
        print(f"# {line}", file=out)

    if trace:
        setup_tracer = Tracer()
        with instrument(prog, setup_tracer):
            for _ in range(SETUP_REPS):
                generate_inputs(prog, workload, seed)
        metrics = per_layer_metrics(tracer, setup_tracer, traced, plain, out)
    else:
        metrics = end_to_end_metrics(plain, setup_times, peak_rss_kb, out)

    for line in failures:
        print(f"# FAILED {line}", file=out)
    print(f"# error_rate = {len(failures) / attempted:.6g} ({len(failures)} of {attempted} calls)", file=out)
    for name, (value, unit) in metrics.items():
        print(f"{workload.name} {name} = {value:.6g} {unit}", file=out)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
