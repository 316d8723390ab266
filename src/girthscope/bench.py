"""Benchmark harness: fast enumerator vs the exhaustive subset filter.

The comparison baseline is subset generation (2^m / 2^n candidates filtered
one by one), which is what the fast engines are supposed to beat; both sides
run serially on one core so ratios stay comparable.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import enumerate_subgraphs
from .enum_core import EnumConfig, _solution_ok, brute_force_enumerate, brute_force_total
from .graph import Graph, INFINITE, Length

BENCH_MAX_EXPONENT = 28  # bench_compare's brute force refuses more than 2**28 subsets


@dataclass
class BenchReport:
    graph_desc: str
    k: Length
    mode: str
    limit: int | None
    fast_count: int
    fast_seconds: float
    fast_max_delay: float  # longest gap between consecutive solutions
    fast_max_depth: int
    brute_count: int
    brute_seconds: float
    speedup: float
    ok: bool

    @property
    def fast_per_solution(self) -> float:
        return self.fast_seconds / self.fast_count if self.fast_count else 0.0

    @property
    def brute_per_solution(self) -> float:
        return self.brute_seconds / self.brute_count if self.brute_count else 0.0

    def to_kv_lines(self) -> list[str]:
        k_text = "inf" if self.k == INFINITE else str(self.k)
        return [
            f"graph={self.graph_desc}",
            f"k={k_text}",
            f"mode={self.mode}",
            f"limit={self.limit if self.limit is not None else 'none'}",
            f"fast_count={self.fast_count}",
            f"fast_seconds={self.fast_seconds:.6f}",
            f"fast_per_solution_us={self.fast_per_solution * 1e6:.3f}",
            f"fast_max_delay_us={self.fast_max_delay * 1e6:.3f}",
            f"fast_max_depth={self.fast_max_depth}",
            f"brute_count={self.brute_count}",
            f"brute_seconds={self.brute_seconds:.6f}",
            f"brute_per_solution_us={self.brute_per_solution * 1e6:.3f}",
            f"speedup={self.speedup:.2f}",
            f"status={'OK' if self.ok else 'FAILED'}",
        ]


def bench_compare(
    g: Graph,
    k: Length,
    mode: str = "edge",
    limit: int | None = None,
    graph_desc: str | None = None,
) -> BenchReport:
    """Run `enumerate_subgraphs` and the brute-force filter on identical input.

    On a weighted graph that is the baseline engine, so this times the
    baseline; the report still calls that side "fast". The fast solutions
    are cross-checked, and any mismatch marks the report FAILED: that is a
    correctness alarm, not a measurement artifact. They must be distinct
    and as many as the brute-force ones. Without a limit they must equal
    the brute-force set; with a limit both sides stop after the same number
    of solutions, which need not be the same ones, so each fast solution is
    re-checked from scratch instead.
    """
    cfg = EnumConfig(k=k, mode=mode, limit=limit)
    cfg.validate()
    brute_force_total(g.n, g.m, mode, BENCH_MAX_EXPONENT)  # refuse before the fast run stores every solution
    desc = graph_desc or repr(g)

    max_delay = 0.0
    last_emit = time.perf_counter()
    fast_solutions: list[frozenset[int]] = []

    def delay_probe(solution, ordinal):
        nonlocal max_delay, last_emit
        now = time.perf_counter()
        fast_solutions.append(solution)
        if now - last_emit > max_delay:
            max_delay = now - last_emit
        last_emit = now

    t0 = time.perf_counter()
    fast_count = enumerate_subgraphs(g, cfg, delay_probe)
    fast_seconds = time.perf_counter() - t0

    t0 = time.perf_counter()
    brute = brute_force_enumerate(g, cfg, max_exponent=BENCH_MAX_EXPONENT)
    brute_seconds = time.perf_counter() - t0

    ok = fast_count == len(brute) == len(set(fast_solutions))
    if limit is None:
        ok = ok and set(fast_solutions) == set(brute)
    else:
        full = EnumConfig(k=k, mode=mode)
        ok = ok and all(_solution_ok(g, set(s), full) for s in fast_solutions)

    return BenchReport(
        graph_desc=desc,
        k=k,
        mode=mode,
        limit=limit,
        fast_count=fast_count,
        fast_seconds=fast_seconds,
        fast_max_delay=max_delay,
        fast_max_depth=1 + max(map(len, fast_solutions), default=0),  # the root has depth 1
        brute_count=len(brute),
        brute_seconds=brute_seconds,
        speedup=brute_seconds / fast_seconds if fast_seconds > 0 else float("inf"),
        ok=ok,
    )
