"""Traced in-process pass: the CLI's pipeline with a span around each public call.

The pass mirrors `ultirate.cli evaluate`: read, partition, then per slice and
method rate, predict and report, then write.
Spans wrap only public functions, so they survive rewrites of the program's
internals. Peak allocations come from a separate tracemalloc pass, because
tracemalloc slows the object-heavy ingest and domain layers.
"""

from __future__ import annotations

import statistics
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path

from ultirate import ingest
from ultirate.domain import Method, Stage, partition_seasons
from ultirate.leastsq import LsParams, build_system, solve_ratings
from ultirate.metrics import build_report
from ultirate.predict import build_predictions
from ultirate.usau import UsauParams, compute_usau

MAX_ROUNDS = UsauParams().max_iterations  # the CLI's default --max-iters
# Rounds run under tracemalloc, which slows the power rating ~17x. Every round
# allocates the same arrays, so the peak is reached within the first rounds.
ALLOC_ROUNDS = 25

# Leaf spans whose durations add up to trace.layer_sum_s.
LAYER_SPANS = ("ingest.read", "domain.partition", "usau.compute", "leastsq.build",
               "leastsq.solve", "predict", "metrics", "ingest.write")


@dataclass
class Span:
    name: str
    parent: int | None
    start: float
    end: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


@dataclass
class Tracer:
    """Spans kept in memory; each knows the index of the span that caused it."""

    spans: list[Span] = field(default_factory=list)
    _open: list[int] = field(default_factory=list)

    @contextmanager
    def span(self, name: str):
        parent = self._open[-1] if self._open else None
        self.spans.append(Span(name, parent, time.perf_counter()))
        self._open.append(len(self.spans) - 1)
        try:
            yield
        finally:
            self.spans[self._open.pop()].end = time.perf_counter()

    def total(self, name: str) -> float:
        return sum(s.seconds for s in self.spans if s.name == name)


@dataclass
class Pass:
    """What one traced pass produced."""

    tracer: Tracer
    slices: list
    tables: list        # RatingTable per (slice, method), in CLI order
    rows: int
    rejected: int
    entries: int
    skipped: int
    write_bytes: int


def traced_pass(files, output: Path) -> Pass:
    tr = Tracer()
    ls_params = LsParams()
    with tr.span("cli"):
        with tr.span("ingest.read"):
            games, rejections = ingest.read_games_many(files)
        with tr.span("domain.partition"):
            slices = partition_seasons(games)
        slices = [s for s in slices if s.stage is Stage.REGULAR]
        tables, results = [], []
        entries = skipped = 0
        for s in slices:
            for method in (Method.USAU, Method.LEASTSQ):
                if method is Method.USAU:
                    with tr.span("usau.compute"):
                        table = compute_usau(s)
                else:
                    with tr.span("leastsq.build"):
                        system = build_system(s, ls_params)
                    with tr.span("leastsq.solve"):
                        table = solve_ratings(system)
                tables.append(table)
                with tr.span("predict"):
                    predictions = build_predictions(table, s, ls_params)
                entries += len(predictions.entries)
                skipped += predictions.n_skipped
                with tr.span("metrics"):
                    results.append(build_report(table, s, predictions))
        with tr.span("ingest.write"):
            ingest.write_metrics(results, output)
    return Pass(tr, slices, tables, len(games) + len(rejections), len(rejections),
                entries, skipped, output.stat().st_size)


def usau_prep_seconds(slices) -> float:
    """compute_usau stopped after one round: set-up plus a single round."""
    params = UsauParams(max_iterations=1)
    t0 = time.perf_counter()
    for s in slices:
        compute_usau(s, params)
    return time.perf_counter() - t0


def peak_alloc_mb(slices) -> dict[str, float]:
    """Largest tracemalloc peak over slices, per rating method."""
    peaks = {"usau": 0.0, "leastsq": 0.0}
    usau_params = UsauParams(max_iterations=ALLOC_ROUNDS)
    for s in slices:
        for name, rate in (("usau", lambda sl: compute_usau(sl, usau_params)),
                           ("leastsq", lambda sl: solve_ratings(build_system(sl)))):
            tracemalloc.start()
            try:
                rate(s)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            peaks[name] = max(peaks[name], peak / 2**20)
    return peaks


def layer_metrics(passes: list[Pass], prep_s: list[float], cli_wall_s: list[float],
                  setup_s: float) -> dict[str, float]:
    """Per-layer metrics: times are medians over passes, counts from the last pass."""

    def med(name: str) -> float:
        return statistics.median(p.tracer.total(name) for p in passes)

    last = passes[-1]
    usau_tables = [t for t in last.tables if t.method is Method.USAU]
    ls_tables = [t for t in last.tables if t.method is Method.LEASTSQ]
    rounds = sum(t.iterations_used for t in usau_tables)
    usau_total, prep = med("usau.compute"), statistics.median(prep_s)
    traced_total = setup_s + statistics.median(p.tracer.total("cli") for p in passes)
    return {
        "ingest.read_s": med("ingest.read"),
        "ingest.rows": last.rows,
        "ingest.rejected": last.rejected,
        "ingest.accept_frac": (last.rows - last.rejected) / last.rows,
        "ingest.write_s": med("ingest.write"),
        "ingest.write_bytes": last.write_bytes,
        "domain.partition_s": med("domain.partition"),
        "domain.slices": len(last.slices),
        "usau.total_s": usau_total,
        "usau.prep_s": prep,
        "usau.round_s": (usau_total - prep) / max(1, rounds - len(usau_tables)),
        "usau.rounds": rounds,
        "usau.unconverged": sum(not t.converged for t in usau_tables),
        "usau.ignored": sum(len(t.ignored_games) for t in usau_tables),
        "leastsq.total_s": med("leastsq.build") + med("leastsq.solve"),
        "leastsq.build_s": med("leastsq.build"),
        "leastsq.solve_s": med("leastsq.solve"),
        "leastsq.components": sum(t.n_components for t in ls_tables),
        "predict.total_s": med("predict"),
        "predict.entries": last.entries,
        "predict.skipped": last.skipped,
        "metrics.total_s": med("metrics"),
        "trace.layer_sum_s": sum(med(name) for name in LAYER_SPANS),
        "trace.overhead_s": traced_total - statistics.median(cli_wall_s),
    }
