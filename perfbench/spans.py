"""Span tracing from outside the package: wrap module functions, aggregate self time online.

A span is one call of a wrapped function. The tracer keeps a stack with one
child-time accumulator per open span, so when a span closes its self time is
its duration minus the time its child spans covered. Only per-name totals are
kept (self nanoseconds, calls, counters), so memory stays constant however
many spans a run makes. Work that a wrapper does after the wrapped call
returns (reading result sizes for counters) is charged to the span name
"trace.bookkeeping", never to the layer being measured.

Nothing under src/ is edited: `instrument` replaces attributes on the loaded
modules and puts every original back when its block exits.
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import ExitStack, contextmanager

BOOKKEEPING = "trace.bookkeeping"


class Tracer:
    """Per-name span totals; with enabled=False, wrap() returns functions unchanged."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.self_ns: defaultdict[str, int] = defaultdict(int)
        self.calls: defaultdict[str, int] = defaultdict(int)
        self.counts: defaultdict[str, int] = defaultdict(int)
        self._stack = [0]

    def wrap(self, name, fn, after=None):
        """`fn` with a span named `name`; after(result, args, kwargs) updates counters."""
        if not self.enabled:
            return fn
        stack = self._stack
        self_ns = self.self_ns
        calls = self.calls
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            stack.append(0)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self_ns[name] += t1 - t0 - stack.pop()
                calls[name] += 1
            if after is not None:
                after(result, args, kwargs)
                t2 = clock()
                self_ns[BOOKKEEPING] += t2 - t1
                stack[-1] += t2 - t0
            else:
                stack[-1] += t1 - t0
            return result

        return traced

    def add_stats(self, prefix: str, stats) -> None:
        """Fold an engine's run-stats record into counters named prefix.field."""
        for field, value in vars(stats).items():
            key = f"{prefix}.{field}"
            if field == "max_depth":
                self.counts[key] = max(self.counts[key], value)
            else:
                self.counts[key] += value

    def attributed_ns(self) -> int:
        """Total self time of every span, bookkeeping included."""
        return sum(self.self_ns.values())


def attribute(owner, attr):
    """owner.attr as stored, so a function kept on a class is not turned into a bound method."""
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


@contextmanager
def patched(owner, attr, replacement):
    """Set owner.attr to `replacement` for the block; the original is always put back."""
    original = attribute(owner, attr)
    setattr(owner, attr, replacement)
    try:
        yield
    finally:
        setattr(owner, attr, original)


def _table_entries(table) -> int:
    return sum(len(row) for row in table.values())


def instrumentation_points(prog, tracer: Tracer):
    """(owner, attribute, span name, after-hook) for every function called through a module global.

    The engines reach these functions by module-global or class-attribute
    lookup, so replacing the attribute puts a span around every internal call.
    Entry points (the engine drivers, the extremal search) are wrapped at the
    call site by the harness instead.
    """
    counts = tracer.counts

    def filter_scan(result, args, kwargs):
        counts["induced_fast.filter.scanned"] += len(args[0].cand)

    def induced_exclude_rows(result, args, kwargs):
        state = args[0]
        counts["induced_fast.exclude.rows_touched"] += len(state.dist) + len(state.second)

    def induced_dist_entries(result, args, kwargs):
        counts["induced_fast.update_dist.entries"] += _table_entries(result)

    def edge_seed_blocked(result, args, kwargs):
        counts["edges_fast.blocked_copied"] += len(args[3])

    def edge_advance_blocked(result, args, kwargs):
        counts["edges_fast.blocked_copied"] += len(args[0].blocked)

    def pair_accepted(result, args, kwargs):
        if result:
            counts["edges_fast.pair_girth_ok.accepted"] += 1

    def edge_dist_entries(result, args, kwargs):
        counts["edges_fast.dist_entries"] += _table_entries(result)

    def naive_tested(result, args, kwargs):
        g, state, cfg = args
        total = g.n if cfg.mode == "induced" else g.m
        counts["enum_core.candidate_set_naive.tested"] += total - len(state.solution) - len(state.excluded)
        counts["enum_core.candidate_set_naive.accepted"] += len(result)

    ind = prog.induced_fast
    edg = prog.edges_fast
    core = prog.enum_core
    return [
        (prog.graph, "parse_edge_list", "graph.parse", None),
        (prog.graph.Graph, "__init__", "graph.build", None),
        (ind, "initial_state", "induced_fast.initial_state", None),
        (ind, "_split_old_candidates", "induced_fast.filter", filter_scan),
        (ind, "adopt_new_candidates", "induced_fast.filter", None),
        (ind, "update_dist", "induced_fast.update_dist", induced_dist_entries),
        (ind, "update_second", "induced_fast.update_second", None),
        (ind, "advance", "induced_fast.advance", None),
        (ind, "exclude_candidate", "induced_fast.exclude", induced_exclude_rows),
        (edg, "seed_state", "edges_fast.seed_state", edge_seed_blocked),
        (edg, "advance", "edges_fast.advance", edge_advance_blocked),
        (edg, "update_edge_cand", "edges_fast.update_edge_cand", None),
        (edg, "pair_girth_ok", "edges_fast.pair_girth_ok", pair_accepted),
        (edg, "update_dist_s", "edges_fast.update_dist_s", edge_dist_entries),
        (edg, "exclude_candidate", "edges_fast.exclude", None),
        (core._Emitter, "emit", "enum_core.emit", None),
        (core, "candidate_set_naive", "enum_core.candidate_set_naive", naive_tested),
        (core, "girth_of_adjacency", "girth.girth_of_adjacency", None),
    ]


@contextmanager
def instrument(prog, tracer: Tracer):
    """Wrap every instrumentation point of `prog` for the block; restore all on exit.

    A point whose attribute no longer exists is skipped, so its metrics read 0
    instead of failing the run.
    """
    with ExitStack() as stack:
        if tracer.enabled:
            for owner, attr, name, after in instrumentation_points(prog, tracer):
                if hasattr(owner, attr):
                    wrapped = tracer.wrap(name, attribute(owner, attr), after)
                    stack.enter_context(patched(owner, attr, wrapped))
        yield
