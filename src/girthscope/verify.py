"""Cross-engine verification: equivalence of all enumerators on small corpora.

Also home to the corpus builders (exhaustive connected graphs up to
isomorphism, seeded random graphs) used by the verification command and the
test suite.
"""

from __future__ import annotations

import random
from collections.abc import Callable

from . import enumerate_subgraphs
from .enum_core import Collector, EnumConfig, brute_force_enumerate, enumerate_baseline
from .errors import ValidationError
from .extremal import reduce_up_to_isomorphism
from .graph import Graph, INFINITE, Length, is_connected


def all_connected_graphs(max_n: int) -> list[Graph]:
    """Every connected graph with 1..max_n vertices, one per isomorphism class.

    Generated by filtering all labeled graphs, keeping the first of each
    class in mask order (reduce_up_to_isomorphism). Intended for small max_n:
    31 graphs at max_n=5; 143 at max_n=6, in about 3 s.
    """
    out: list[Graph] = []
    for n in range(1, max_n + 1):
        pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
        labeled = []
        for mask in range(1 << len(pairs)):
            edges = tuple(pairs[i] for i in range(len(pairs)) if mask >> i & 1)
            if is_connected(Graph(n, edges)):
                labeled.append(edges)
        out += [Graph(n, edges) for edges in reduce_up_to_isomorphism(labeled, n)]
    return out


def random_graph(rng: random.Random, n: int, p: float, weighted: bool = False) -> Graph:
    edges = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                w = rng.randint(1, 4) if weighted else 1
                edges.append((u, v, w))
    return Graph(n, edges)


def random_corpus(
    count: int,
    max_n: int,
    seed: int,
    max_m: int | None = None,
    weighted: bool = False,
) -> list[Graph]:
    """`count` seeded random graphs with n <= max_n (and m <= max_m if given)."""
    rng = random.Random(seed)
    out: list[Graph] = []
    while len(out) < count:
        n = rng.randint(1, max_n)
        p = rng.choice([0.2, 0.35, 0.5, 0.7])
        g = random_graph(rng, n, p, weighted=weighted)
        if max_m is not None and g.m > max_m:
            continue
        out.append(g)
    return out


VERIFY_MAX_N = 6  # vertex bound of the random graphs
VERIFY_MAX_M = 7  # edge mode runs only on graphs with at most this many edges
VERIFY_THRESHOLDS: tuple[Length, ...] = (3, 4, 5, INFINITE)


def run_verification(
    *,
    random_count: int = 50,
    seed: int = 2024,
    report: Callable[[str], object] | None = None,
) -> list[str]:
    """Full oracle-equivalence matrix; returns a list of discrepancy strings.

    Corpus: every connected graph on <= 5 vertices plus `random_count`
    unweighted and `random_count` weighted random graphs with
    n <= VERIFY_MAX_N. Every variant of every graph and threshold (both modes
    and both connectivities, edge mode only on graphs with m <= VERIFY_MAX_M)
    runs through `enumerate_baseline` and `enumerate_subgraphs`, and each is
    checked against the brute-force filter. A function fails a check if it
    misses a solution, adds one, or emits one twice.
    """
    if random_count < 0:
        raise ValidationError("random_count must be >= 0")
    say = report or (lambda _msg: None)
    corpus = all_connected_graphs(5) + random_corpus(random_count, VERIFY_MAX_N, seed)
    corpus += random_corpus(random_count, VERIFY_MAX_N, seed + 1, weighted=True)
    failures: list[str] = []

    def check(name: str, got, expected):
        if len(got) != len(set(got)) or set(got) != set(expected):
            failures.append(name)
            say(f"FAIL {name}: {len(got)} vs {len(expected)} solutions")

    for idx, g in enumerate(corpus):
        tag = f"graph#{idx}(n={g.n},m={g.m})"
        for k in VERIFY_THRESHOLDS:
            for mode in ("induced", "edge"):
                if mode == "edge" and g.m > VERIFY_MAX_M:
                    continue
                for connectivity in ("connected", "any"):
                    cfg = EnumConfig(k=k, mode=mode, connectivity=connectivity)
                    expected = brute_force_enumerate(g, cfg)
                    for enumerate_ in (enumerate_baseline, enumerate_subgraphs):
                        sink = Collector()
                        enumerate_(g, cfg, sink)
                        check(f"{tag} k={k} {mode}/{connectivity} {enumerate_.__name__}", sink.solutions, expected)
    say(f"verified {len(corpus)} graphs x {len(VERIFY_THRESHOLDS)} thresholds; {len(failures)} failure(s)")
    return failures
