"""Benchmark-side layer timing: wrap public calls, book self time.

A traced run wraps the public entry points of each layer (a class
method, or a method of one live object) with a timer.  Each thread
keeps a stack of open calls, so a call's *self time* is its duration
minus the time of the wrapped calls it made on the same thread.  Every
call that carries a query identifier is also kept as a span
``(query_id, name, thread, start, duration, self)`` and written out
when the run ends.

Observer calls (metrics, spans, trace, SLO) are booked under the one
layer ``obs.hook`` without a span each: they are many and small, and
the layer total is what the hook-bus work needs.
"""

from __future__ import annotations

import inspect
import json
import threading
import time
from dataclasses import dataclass
from pathlib import Path

#: spans kept in memory per run; later ones are counted, not stored
MAX_SPANS = 200_000
HOOK = "obs.hook"


@dataclass
class Book:
    """One layer's totals: calls, queries served, seconds, self seconds, bytes."""

    calls: int = 0
    units: int = 0
    total: float = 0.0
    own: float = 0.0
    nbytes: int = 0

    def add(self, other: "Book") -> None:
        self.calls += other.calls
        self.units += other.units
        self.total += other.total
        self.own += other.own
        self.nbytes += other.nbytes


class LayerTracer:
    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self._books: list[dict[str, Book]] = []  # one dict per thread
        self._patches: list[tuple[object, str, object, bool]] = []
        self.spans: list[tuple] = []
        self.dropped = 0

    # -- booking --------------------------------------------------------------

    def _thread_state(self):
        local = self._local
        if not hasattr(local, "stack"):
            local.stack = []
            local.books = {}
            with self._lock:
                self._books.append(local.books)
        return local

    def timed(self, name: str, fn, qid=None, units=None, bytes_of=None):
        """``fn`` wrapped to book its calls under layer ``name``.

        ``qid(args, result)`` gives the query identifier of a call (spans
        are kept only when it is given); ``units(args)`` the number of
        queries one call serves (batch entry points, default 1);
        ``bytes_of(result)`` the bytes the call streamed.
        """
        tracer = self

        def wrapper(*args, **kwargs):
            state = tracer._thread_state()
            stack = state.stack
            stack.append(0.0)
            t0 = time.perf_counter()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                dur = time.perf_counter() - t0
                own = dur - stack.pop()
                if stack:
                    stack[-1] += dur
                book = state.books.get(name)
                if book is None:
                    book = state.books[name] = Book()
                book.calls += 1
                book.units += units(args) if units is not None else 1
                book.total += dur
                book.own += own
                if result is not None:
                    if bytes_of is not None:
                        book.nbytes += bytes_of(result)
                    if qid is not None:
                        if len(tracer.spans) < MAX_SPANS:
                            tracer.spans.append(
                                (qid(args, result), name, threading.get_ident(), t0, dur, own)
                            )
                        else:
                            tracer.dropped += 1

        wrapper.__wrapped__ = fn
        return wrapper

    # -- patching -------------------------------------------------------------

    def wrap(self, owner, attr: str, name: str, **how) -> None:
        """Replace ``owner.attr`` (a class or a live object) by a timed wrapper."""
        if isinstance(owner, type):
            original, had_own = vars(owner)[attr], True
        else:
            original, had_own = getattr(owner, attr), attr in vars(owner)
        self._patches.append((owner, attr, original, had_own))
        setattr(owner, attr, self.timed(name, original, **how))

    def wrap_hooks(self, cls) -> None:
        """Book every public method of an observer class under ``obs.hook``."""
        for attr, value in list(vars(cls).items()):
            if not attr.startswith("_") and inspect.isfunction(value):
                self.wrap(cls, attr, HOOK)

    def restore(self) -> None:
        for owner, attr, original, had_own in reversed(self._patches):
            if had_own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)
        self._patches.clear()

    # -- results --------------------------------------------------------------

    def reset(self) -> None:
        """Forget everything booked so far (call while the system is idle)."""
        with self._lock:
            for books in self._books:
                books.clear()
        self.spans.clear()
        self.dropped = 0

    def totals(self) -> dict[str, Book]:
        out: dict[str, Book] = {}
        with self._lock:
            for books in self._books:
                for name, book in list(books.items()):
                    out.setdefault(name, Book()).add(book)
        return out

    def us_per_query(self, name: str) -> float:
        book = self.totals().get(name)
        return book.total / book.units * 1e6 if book and book.units else 0.0

    def self_seconds(self, name: str) -> float:
        book = self.totals().get(name)
        return book.own if book else 0.0

    def share_lines(self, exclude=(), extra=None) -> list[str]:
        """The layer table: self seconds per layer and its share of the sum.

        ``extra`` adds derived layers as ``name -> (calls, self seconds)``.
        """
        rows = {n: (b.calls, b.own) for n, b in self.totals().items() if n not in exclude}
        rows.update(extra or {})
        whole = sum(own for _, own in rows.values()) or 1.0
        lines = [f"{'layer':<22s} {'calls':>8s} {'self s':>9s} {'share':>7s}"]
        for name, (calls, own) in sorted(rows.items(), key=lambda kv: -kv[1][1]):
            lines.append(f"{name:<22s} {calls:>8d} {own:>9.3f} {own / whole:>7.1%}")
        return lines

    def write_spans(self, path: Path) -> int:
        """Write the kept spans as JSON lines; returns how many."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((s[3] for s in self.spans), default=0.0)
        with path.open("w") as fh:
            for qid, name, thread, t0, dur, own in self.spans:
                span = {
                    "query_id": qid,
                    "name": name,
                    "thread": thread,
                    "start_us": round((t0 - origin) * 1e6, 1),
                    "dur_us": round(dur * 1e6, 1),
                    "self_us": round(own * 1e6, 1),
                }
                fh.write(json.dumps(span) + "\n")
        return len(self.spans)


def wrap_observers(tracer: LayerTracer) -> None:
    """Book every observation plane's hook methods under ``obs.hook``."""
    from repro.metrics.instrument import (
        ObsMetrics,
        PoolInstruments,
        RollupMetrics,
        RuntimeMetrics,
        TranslatorMetrics,
    )
    from repro.metrics.slo import SloMonitor
    from repro.obs.hooks import PoolSpans, RollupSpans, SchedulerSpans, TranslatorSpans
    from repro.obs.span import SpanTracer
    from repro.sim.obs import TraceCollector

    for cls in (
        RuntimeMetrics,
        PoolInstruments,
        RollupMetrics,
        TranslatorMetrics,
        ObsMetrics,
        SchedulerSpans,
        PoolSpans,
        RollupSpans,
        TranslatorSpans,
        SpanTracer,
        TraceCollector,
        SloMonitor,
    ):
        tracer.wrap_hooks(cls)
    # the collector's feedback hook is bound when an engine attaches it
    tracer.wrap(TraceCollector, "_on_feedback", HOOK)
