"""Per-module spans for one CLI run, recorded from outside the package.

The tracer replaces the module attributes through which one ranking_market
module calls another (for example ``analysis._assign_min_score``, the kernel
as bound in ``analysis``) with timing wrappers. Nothing in the package
changes: the wrappers live only in the traced process.

Each span name is ``<layer>.<part>``, where the layer is the module that
defines the callee. A span's self time is its duration minus the time of
the spans it called. The wrappers' own bookkeeping is kept apart, so

    cli self + sum of span self times + bookkeeping == cli.main wall time

holds exactly, up to float rounding. Spans are aggregated in memory (calls
and self time per name) and read out when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import math
from collections import defaultdict
from time import perf_counter

# (module, attribute, span). A module attribute that no longer exists, for
# example after a rename, is skipped; a span with no attribute left is
# reported as absent rather than as zero.
WRAPPED = (
    ("cli", "edge_guarantee_sweep", "analysis.estimator"),
    ("cli", "estimate_competitive_ratio", "analysis.estimator"),
    ("cli", "estimate_matching_size", "analysis.estimator"),
    ("cli", "last_buyer_report", "analysis.estimator"),
    ("cli", "property_sweep", "analysis.estimator"),
    ("cli", "maximum_matching", "matchers.optimum"),
    ("cli", "kvv_hard_instance", "instance.load"),
    ("cli", "parse", "instance.load"),
    ("cli", "random_bipartite", "instance.load"),
    ("cli", "prices_from_weights", "market.prices"),
    ("cli", "run_market", "market.run_market"),
    ("analysis", "trial_rng", "analysis.stream"),
    ("analysis", "_run_chunks", "analysis.pool"),
    ("analysis", "_edge_chunk", "analysis.chunk"),
    ("analysis", "_size_chunk", "analysis.chunk"),
    ("analysis", "_welfare_chunk", "analysis.chunk"),
    ("analysis", "_property_chunk", "analysis.chunk"),
    ("analysis", "check_counterfactual_properties", "analysis.checks"),
    ("analysis", "check_monotone_availability", "analysis.checks"),
    ("analysis", "_assign_min_score", "matchers.kernel"),
    ("analysis", "maximum_matching", "matchers.optimum"),
    ("analysis", "run_market", "market.run_market"),
    ("analysis", "prices_from_weights", "market.prices"),
    ("analysis", "kvv_hard_instance", "instance.load"),
    ("analysis", "random_bipartite", "instance.build"),
    ("analysis", "without_right_vertex", "instance.build"),
    ("market", "_assign_min_score", "matchers.kernel"),
)

KERNEL = "matchers.kernel"


class Tracer:
    """Install with ``install()``, then call ``run(main, argv)`` once."""

    def __init__(self) -> None:
        self.calls: dict[str, int] = defaultdict(int)
        self.self_s: dict[str, float] = defaultdict(float)
        self.present: set[str] = set()
        # sum of arrival degrees over all kernel calls; NaN once a kernel
        # call's first argument is not an adjacency list of lists
        self.edge_scans: float = 0
        self.bookkeeping_s = 0.0
        self.main_s = 0.0
        self.cli_self_s = 0.0
        # children time of each open span; the bottom entry belongs to main
        self._stack = [0.0]

    def install(self) -> None:
        for module_name, attr, span in WRAPPED:
            module = importlib.import_module(f"ranking_market.{module_name}")
            fn = getattr(module, attr, None)
            if fn is None:
                continue
            setattr(module, attr, self._wrap(fn, span))
            self.present.add(span)

    def _wrap(self, fn, span: str):
        stack = self._stack
        calls = self.calls
        self_s = self.self_s
        is_kernel = span == KERNEL

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t_in = perf_counter()
            stack.append(0.0)
            t0 = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                children = stack.pop()
                calls[span] += 1
                self_s[span] += t1 - t0 - children
                if is_kernel:
                    self._count_scans(args)
                t_out = perf_counter()
                self.bookkeeping_s += (t0 - t_in) + (t_out - t1)
                stack[-1] += t_out - t_in

        return wrapper

    def _count_scans(self, args) -> None:
        try:
            self.edge_scans += sum(map(len, args[0]))
        except (IndexError, TypeError):
            self.edge_scans = math.nan

    def run(self, main, argv):
        t0 = perf_counter()
        try:
            return main(argv)
        finally:
            self.main_s = perf_counter() - t0
            self.cli_self_s = self.main_s - self._stack[0]

    def table(self) -> dict:
        return {
            "spans": {
                span: {"calls": self.calls[span], "self_s": self.self_s[span]}
                for span in sorted(self.present)
            },
            "edge_scans": None if math.isnan(self.edge_scans) else self.edge_scans,
            "bookkeeping_s": self.bookkeeping_s,
            "main_s": self.main_s,
            "cli_self_s": self.cli_self_s,
        }
