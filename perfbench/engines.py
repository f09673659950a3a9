"""The two single-engine workloads: ``mixed`` and ``observed-batched``.

Both serve the BENCH-SERVE world and its Table-3 mix from one
:class:`~repro.serve.ServeEngine` in this process.

* ``mixed`` is the bare engine (no observers, no rollup); each client
  calls ``submit`` and waits on its ticket.  This is the Figure-10 hot
  path: CPU aggregation, the GPU-substitute scan, translation and
  scheduling.
* ``observed-batched`` attaches every production observation plane
  (metrics, SLO, spans at sample rate 1.0, the trace collector) and
  each client submits batches of 16 through ``submit_batch``.  Observer
  fan-out runs at every transition, and the retained books and spans
  grow with the run.
"""

from __future__ import annotations

import gc
import itertools
import statistics
import time

from common import (
    SETUP_RUNS,
    Reference,
    Result,
    Sample,
    build_world,
    closed_loop,
    cpu_seconds,
    POOL_KINDS,
    good_rate,
    peak_rss_mb,
    record_metrics,
    run_count,
    same_answer,
    score,
    table3_mix,
    zero,
)
from layers import HOOK, LayerTracer, wrap_observers

POOL_SIZE = 2000  # distinct queries drawn from the seed; clients cycle them
WARMUP_QUERIES = 400
BATCH = 16


class EngineBench:
    def __init__(self, name: str, seed: int):
        self.observed = name == "observed-batched"
        self.seed = seed
        self.result = Result()
        self.world = None
        self.pool = []
        self.engine = None
        self.collector = None
        self.spans = None
        self.tracer = None
        self._seq = itertools.count()
        self._samples: list[Sample] = []

    # -- the engine and its clients -------------------------------------------

    def _start(self) -> None:
        """Build and start an engine on the world, then warm it up."""
        from repro.metrics import MetricsRegistry, SloMonitor
        from repro.obs import SpanTracer
        from repro.serve import ServeEngine
        from repro.sim.obs import TraceCollector

        config = self.world[0]
        if self.observed:
            registry = MetricsRegistry()
            # as `repro serve` attaches it: lifecycle events, no partition series
            self.collector = TraceCollector(sample_series=False)
            self.spans = SpanTracer(1.0, seed=self.seed, process="serve")
            self.engine = ServeEngine(
                config,
                collector=self.collector,
                metrics=registry,
                slo=SloMonitor(target=0.9, registry=registry),
                spans=self.spans,
            )
        else:
            self.engine = ServeEngine(config)
        if self.tracer is not None:
            self._wrap_engine(self.tracer)
        self.engine.start()
        run_count(WARMUP_QUERIES // (BATCH if self.observed else 1), self._step)

    def _next_queries(self, n: int):
        """The next ``n`` queries of the cycle, as fresh query objects."""
        from repro.query.model import Query

        out = []
        for _ in range(n):
            idx = next(self._seq) % len(self.pool)
            base = self.pool[idx]
            q = base.query
            out.append((idx, Query(q.conditions, q.measures, q.agg), base.query_class))
        return out

    def _step(self, client: int) -> None:
        engine = self.engine
        batch = self._next_queries(BATCH if self.observed else 1)
        t0 = engine.elapsed
        if self.observed:
            outcomes = engine.submit_batch(
                [q for _, q, _ in batch], [c for _, _, c in batch]
            )
        else:
            _, query, qclass = batch[0]
            outcomes = [engine.submit(query, qclass)]
        for (idx, query, _), outcome in zip(batch, outcomes):
            ticket = outcome.ticket
            if not outcome.accepted:
                status = "rejected"
            elif not ticket.wait(timeout=30.0) or ticket.error is not None:
                status = "error"
            else:
                record = ticket.record
                self._samples.append(
                    Sample(
                        record.finish_time,
                        record.finish_time - t0,
                        "ok",
                        idx,
                        query.query_id,
                        answer=record.answer,
                        on_time=record.met_deadline,
                    )
                )
                continue
            now = engine.elapsed
            self._samples.append(Sample(now, now - t0, status, idx, query.query_id))

    # -- set-up, window, audit ------------------------------------------------

    def setup(self) -> None:
        """World build, engine start and warm-up, ``SETUP_RUNS`` times."""
        times = []
        for _ in range(SETUP_RUNS):
            if self.engine is not None:
                self.engine.drain()
                self.engine = self.world = None
                gc.collect()
            t0 = time.perf_counter()
            self.world = build_world()
            if not self.pool:
                _, dataset, schema = self.world
                mix = table3_mix(schema, dataset, self.seed)
                self.pool = list(mix.generate(POOL_SIZE))
            self._start()
            times.append(time.perf_counter() - t0)
        self.result.metrics["setup_s"] = (statistics.median(times), "s")
        self.result.lines.append(
            "setup runs (s): " + ", ".join(f"{t:.3f}" for t in times)
        )

    def window(self, seconds: float):
        """One timed closed-loop window: (samples, start, wall, cpu)."""
        self._samples = []
        self._busy0 = {n: p.busy_time for n, p in self.engine.pools.items()}
        # records are stamped on the engine clock; the window starts there
        offset = self.engine.elapsed - time.perf_counter()
        cpu0 = cpu_seconds()
        t0, wall = closed_loop(seconds, self._step)
        cpu = cpu_seconds() - cpu0
        self._busy = {
            n: p.busy_time - self._busy0.get(n, 0.0) for n, p in self.engine.pools.items()
        }
        return self._samples, offset + t0, wall, cpu

    def audit(self, samples) -> None:
        """Drain, audit the books, and check every answer."""
        from repro.sim.validate import assert_trace_valid, assert_valid

        self.engine.drain()
        self.report = assert_valid(self.engine.report(), require_drained=True)
        audits = "assert_valid require_drained"
        if self.collector is not None:
            assert_trace_valid(self.report, self.collector)
            audits += ", assert_trace_valid"
        config, dataset, _ = self.world
        ref = Reference(dataset.table, config.translation_service)
        for s in samples:
            if s.status == "ok":
                want = ref.answer(s.key, self.pool[s.key].query)
                s.wrong = not same_answer(s.answer, want)
        if any(s.wrong for s in samples):
            self.result.correct = False
        self.result.lines.append(
            f"audit ok ({audits}); "
            f"{sum(s.status == 'ok' for s in samples)} answers checked, "
            f"{sum(s.wrong for s in samples)} wrong"
        )

    def run(self, seconds: float) -> Result:
        self.setup()
        samples, start, wall, cpu = self.window(seconds)
        self.result.metrics["rss_peak_mb"] = (peak_rss_mb(), "MB")
        self.audit(samples)
        good = score(samples, start, seconds, self.result)
        self.result.metrics["cpu_ms_per_query"] = (cpu * 1e3 / max(1, len(good)), "ms")
        return self.result

    # -- the traced run -------------------------------------------------------

    def _wrap_engine(self, tracer: LayerTracer) -> None:
        engine = self.engine
        by_query = lambda a, r: a[0].query_id  # noqa: E731
        per_batch = lambda a: len(a[0])  # noqa: E731
        tracer.wrap(engine.scheduler, "schedule", "core.schedule", qid=by_query)
        tracer.wrap(engine.scheduler, "schedule_batch", "core.schedule", units=per_batch)
        tracer.wrap(engine.estimator, "estimate", "core.estimate", qid=by_query)
        tracer.wrap(engine.estimator, "estimate_batch", "core.estimate", units=per_batch)
        tracer.wrap(engine, "submit", "serve.submit", qid=by_query)
        tracer.wrap(engine, "submit_batch", "serve.submit", units=per_batch)

    def run_traced(self, seconds: float) -> Result:
        """An untraced window, then a traced one on a fresh engine."""
        from repro.olap.parallel import ParallelAggregator

        self.setup()
        samples, start, _, _ = self.window(seconds)
        self.audit(samples)
        untraced_qps = good_rate(samples, start, seconds)

        tracer = self.tracer = LayerTracer()
        config = self.world[0]
        by_query = lambda a, r: a[0].query_id  # noqa: E731
        wrap_observers(tracer)
        tracer.wrap(
            ParallelAggregator, "aggregate", "olap.aggregate",
            qid=lambda a, r: a[2].query_id,
            bytes_of=lambda r: r.bytes_streamed,
        )
        tracer.wrap(config.device, "execute_query", "gpu.execute", qid=by_query)
        tracer.wrap(config.translation_service, "translate", "text.translate", qid=by_query)
        try:
            self._start()
            tracer.reset()
            samples, start, wall, _ = self.window(seconds)
        finally:
            tracer.restore()
        self.audit(samples)
        traced_qps = good_rate(samples, start, seconds)
        score(samples, start, seconds, self.result)
        self._layer_metrics(samples, wall)
        self.result.metrics["trace_overhead_frac"] = (
            1.0 - traced_qps / untraced_qps if untraced_qps else 0.0,
            "frac",
        )
        self.result.lines.append(
            f"throughput untraced {untraced_qps:.1f} q/s, traced {traced_qps:.1f} q/s"
        )
        self.result.lines += tracer.share_lines()
        return self.result

    def _layer_metrics(self, samples, wall) -> None:
        tracer = self.tracer
        m = self.result.metrics
        agg = tracer.totals().get("olap.aggregate")
        m["olap.aggregate_us"] = (tracer.us_per_query("olap.aggregate"), "us")
        m["olap.aggregate_gbps"] = (agg.nbytes / agg.total / 1e9 if agg else 0.0, "GB/s")
        m["core.schedule_us"] = (tracer.us_per_query("core.schedule"), "us")
        m["core.estimate_us"] = (tracer.us_per_query("core.estimate"), "us")
        window_ids = {s.qid for s in samples}
        records = [r for r in self.report.records if r.query_id in window_ids]
        record_metrics(m, records)
        m["gpu.execute_us"] = (tracer.us_per_query("gpu.execute"), "us")
        m["text.translate_us"] = (tracer.us_per_query("text.translate"), "us")
        m["serve.submit_us"] = (tracer.us_per_query("serve.submit"), "us")
        caps = {n: p.peak_capacity for n, p in self.engine.pools.items()}
        for kind, match in POOL_KINDS:
            names = [q for q in self._busy if match(q)]
            busy = sum(self._busy[q] for q in names)
            m[f"serve.{kind}_pool_busy_frac"] = (
                busy / (wall * (sum(caps[q] for q in names) or 1)),
                "frac",
            )
        engine = self.engine
        m["serve.records_retained"] = (
            float(len(engine.records) + len(engine.cache_hits)),
            "count",
        )
        good = sum(1 for s in samples if s.status == "ok")
        m["obs.hook_us_per_query"] = (tracer.self_seconds(HOOK) * 1e6 / max(1, good), "us")
        m["obs.spans_retained"] = (float(len(self.spans or ())), "count")
        m["sim.trace_events_retained"] = (
            float(len(self.collector.events)) if self.collector is not None else 0.0,
            "count",
        )
        # the engine workloads cross no rollup, parser, router or wire
        zero(m, ROLLUP_AND_FLEET)


ROLLUP_AND_FLEET = {
    "olap.rollup_hit_rate": "frac",
    "olap.rollup_hit_us": "us",
    "olap.rollup_cuboids_built": "count",
    "olap.maintain_ms": "ms",
    "query.parse_us": "us",
    "fleet.http_self_us": "us",
    "fleet.submit_us": "us",
    "fleet.route_us": "us",
    "fleet.wire_us": "us",
    "fleet.shard_imbalance": "ratio",
}
