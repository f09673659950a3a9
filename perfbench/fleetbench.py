"""The ``fleet-dashboard`` workload: two shards behind the HTTP front door.

Two shard processes run the ``repro fleet`` production configuration
(metrics, SLO and a rollup router on each shard) behind
:class:`~repro.fleet.FleetServer`.  Clients POST query text from the
dashboard mix of :mod:`dashboard`; the load generator calls
:meth:`~repro.fleet.Fleet.maintain` every ``MAINTAIN_EVERY`` queries,
so cuboid builds run beside lookups in the timed window, and the hot
set shifts at query ``SHIFT_AT``.  This loads HTTP parsing,
``parse_query``, affinity routing, the wire protocol and rollup
lookups; the CPU aggregator does little.
"""

from __future__ import annotations

import gc
import http.client
import itertools
import json
import multiprocessing
import os
import signal
import statistics
import time

import dashboard
from common import (
    SETUP_RUNS,
    WORLD_ROWS,
    WORLD_SCALE,
    WORLD_SEED,
    POOL_KINDS,
    Reference,
    Result,
    Sample,
    closed_loop,
    cpu_seconds,
    good_rate,
    peak_rss_mb,
    record_metrics,
    run_count,
    same_answer,
    score,
    zero,
)
from layers import LayerTracer

SHARDS = 2
WARMUP_QUERIES = 300
STREAM = 12_000  # window queries generated per run; later ones wrap in phase 1
SHIFT_AT = 3_000  # window query index where the hot set shifts
MAINTAIN_EVERY = 1_000

#: per-layer metrics this process cannot see: layers inside the shard
#: processes, and span/trace buffers the shards do not keep
SHARD_SIDE = {
    "olap.aggregate_us": "us",
    "olap.aggregate_gbps": "GB/s",
    "core.schedule_us": "us",
    "core.estimate_us": "us",
    "gpu.execute_us": "us",
    "serve.submit_us": "us",
    "obs.hook_us_per_query": "us",
    "obs.spans_retained": "count",
    "sim.trace_events_retained": "count",
}


def stop_resource_tracker(timeout: float = 10.0) -> None:
    """Stop the ``multiprocessing`` resource tracker and wait for it to end.

    Starting spawn-context processes starts a tracker process that,
    left alone, ends only after this process has exited.  Closing its
    pipe ends it; it is killed if it has not ended within ``timeout``.
    """
    from multiprocessing import resource_tracker

    tracker = resource_tracker._resource_tracker
    fd, pid = tracker._fd, tracker._pid
    if fd is None or pid is None:
        return
    tracker._fd = tracker._pid = None
    os.close(fd)
    deadline = time.monotonic() + timeout
    while os.waitpid(pid, os.WNOHANG) == (0, 0):
        if time.monotonic() > deadline:
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
            return
        time.sleep(0.01)


def _hist(snapshot, name: str, match=lambda labels: True) -> tuple[float, int]:
    """(sum, count) over the label sets of a histogram family."""
    family = snapshot.family(name)
    total, count = 0.0, 0
    for labels, hist in family.items() if family is not None else ():
        if match(labels):
            total += hist.total
            count += hist.count
    return total, count


def _labelled(snapshot, name: str) -> dict[tuple[str, ...], object]:
    family = snapshot.family(name)
    return dict(family.items()) if family is not None else {}


class FleetBench:
    def __init__(self, name: str, seed: int):
        self.seed = seed
        self.result = Result()
        self.fleet = None
        self.server = None
        self.tracer = None
        self.built = 0
        self._samples: list[Sample] = []

    # -- inputs and reference -------------------------------------------------

    def _inputs(self) -> None:
        """The seeded stream, its text, the round-trip check and the reference."""
        from repro.relational import generate_dataset, tpcds_like_schema
        from repro.text import TranslationService, build_dictionaries

        schema = tpcds_like_schema(scale=WORLD_SCALE)
        dataset = generate_dataset(schema, num_rows=WORLD_ROWS, seed=WORLD_SEED)
        hier = schema.hierarchies
        queries = dashboard.make_stream(
            WARMUP_QUERIES + STREAM, WARMUP_QUERIES + SHIFT_AT, hier,
            dataset.vocabularies, self.seed,
        )
        texts = [dashboard.render(q, hier) for q in queries]
        dashboard.check_round_trip(queries, texts, hier)
        self.queries = queries
        self.bodies = [
            json.dumps({"q": t, "class": "text" if q.needs_translation else "panel"}).encode()
            for q, t in zip(queries, texts)
        ]
        self.reference = Reference(
            dataset.table,
            TranslationService(build_dictionaries(dataset.vocabularies), hier),
        )
        self.result.lines.append(
            f"dashboard stream: {len(queries)} queries rendered and round-tripped "
            f"through parse_query; {sum(q.needs_translation for q in queries)} carry text"
        )

    # -- one request ----------------------------------------------------------

    def _post(self, i: int) -> None:
        t0 = time.perf_counter()
        conn = http.client.HTTPConnection("127.0.0.1", self.server.port, timeout=30)
        try:
            conn.request("POST", "/query", self.bodies[i], {"Content-Type": "application/json"})
            resp = conn.getresponse()
            data = resp.read()
        finally:
            conn.close()
        t1 = time.perf_counter()
        if resp.status != 200:
            self._samples.append(Sample(t1, t1 - t0, f"http-{resp.status}", i))
            return
        payload = json.loads(data)
        if not payload.get("accepted"):
            status = "shed" if payload.get("shed") else "rejected"
            self._samples.append(Sample(t1, t1 - t0, status, i))
            return
        record = payload["record"]
        self._samples.append(
            Sample(
                t1,
                t1 - t0,
                "ok",
                i,
                record["query_id"],
                answer=record["answer"],
                on_time=record["finish_time"] <= record["deadline"],
            )
        )

    def _warm_step(self, client: int) -> None:
        self._post(next(self._seq))

    def _step(self, client: int) -> None:
        seq = next(self._seq)
        if seq and seq % MAINTAIN_EVERY == 0:
            self.built += self.fleet.maintain()
        if seq >= STREAM:  # past the generated stream: cycle its phase-1 part
            seq = SHIFT_AT + (seq - SHIFT_AT) % (STREAM - SHIFT_AT)
        self._post(WARMUP_QUERIES + seq)

    # -- set-up, window, audit ------------------------------------------------

    def _start(self) -> None:
        """Fleet and front-door start, then warm-up with one maintenance."""
        from repro.fleet import Fleet, FleetServer, ShardSpec

        spec = ShardSpec(shard_id=0, rows=WORLD_ROWS, seed=WORLD_SEED, scale=WORLD_SCALE)
        self.fleet = Fleet(SHARDS, spec=spec).start()
        if self.tracer is not None:
            self._wrap_fleet(self.tracer)
        self.server = FleetServer(self.fleet).start()
        self._seq = itertools.count()
        run_count(WARMUP_QUERIES // 2, self._warm_step)
        self.fleet.maintain()
        run_count(WARMUP_QUERIES - WARMUP_QUERIES // 2, self._warm_step)
        self.shard_pids = [
            p.pid for p in multiprocessing.active_children() if p.name.startswith("repro-shard-")
        ]

    def _stop(self) -> None:
        if self.server is not None:
            self.server.close()
        self.fleet.stop()
        self.fleet = self.server = None

    def setup(self) -> None:
        """Fleet start and warm-up, ``SETUP_RUNS`` times."""
        self._inputs()
        times = []
        for _ in range(SETUP_RUNS):
            if self.fleet is not None:
                self._stop()
                gc.collect()
            t0 = time.perf_counter()
            self._start()
            times.append(time.perf_counter() - t0)
        self.result.metrics["setup_s"] = (statistics.median(times), "s")
        self.result.lines.append("setup runs (s): " + ", ".join(f"{t:.3f}" for t in times))

    def window(self, seconds: float):
        """One timed closed-loop window: (samples, start, wall, cpu)."""
        self._samples = []
        self._seq = itertools.count()
        self.built = 0
        self.before = self.fleet.merged_metrics()
        cpu0 = cpu_seconds(self.shard_pids)
        start, wall = closed_loop(seconds, self._step)
        cpu = cpu_seconds(self.shard_pids) - cpu0
        self.after = self.fleet.merged_metrics()
        return self._samples, start, wall, cpu

    def audit(self, samples) -> None:
        """Drain the fleet, audit its books and every shard's, check answers."""
        from repro.sim.validate import assert_fleet_valid

        self.server.close()
        self.report = assert_fleet_valid(self.fleet.fleet_report(drain=True))
        self.fleet = self.server = None
        for shard in self.report.shards:
            # cache hits in the shard's books make its local audit run the
            # rollup family
            if not shard.validation.startswith("ok") or not shard.cache_hits:
                raise AssertionError(
                    f"shard {shard.shard_id} local audit: {shard.validation} "
                    f"({len(shard.cache_hits)} cache hits)"
                )
        for s in samples:
            if s.status == "ok":
                want = self.reference.answer(s.key, self.queries[s.key])
                s.wrong = not same_answer(s.answer, want)
        if any(s.wrong for s in samples):
            self.result.correct = False
        self.result.lines.append(
            f"{self.built} cuboids built in the window; fleet audit ok "
            f"(assert_fleet_valid; every shard's local audit ok, rollup family "
            f"included); {sum(s.status == 'ok' for s in samples)} answers "
            f"checked, {sum(s.wrong for s in samples)} wrong"
        )

    def _guarded(self, body, seconds: float) -> Result:
        """Run ``body``; stop a fleet it leaves running, whatever happens.

        Shards ignore SIGTERM, so a fleet left to the interpreter's exit
        handlers would keep this process from exiting.  The resource
        tracker the spawn context started is stopped and reaped too.
        """
        try:
            return body(seconds)
        finally:
            if self.fleet is not None:
                self._stop()
            stop_resource_tracker()

    def run(self, seconds: float) -> Result:
        return self._guarded(self._run, seconds)

    def run_traced(self, seconds: float) -> Result:
        """An untraced window, then a traced one on a fresh fleet."""
        return self._guarded(self._run_traced, seconds)

    def _run(self, seconds: float) -> Result:
        self.setup()
        samples, start, wall, cpu = self.window(seconds)
        self.result.metrics["rss_peak_mb"] = (peak_rss_mb(self.shard_pids), "MB")
        self.audit(samples)
        good = score(samples, start, seconds, self.result)
        self.result.metrics["cpu_ms_per_query"] = (cpu * 1e3 / max(1, len(good)), "ms")
        return self.result

    # -- the traced run -------------------------------------------------------

    def _wrap_fleet(self, tracer: LayerTracer) -> None:
        fleet = self.fleet
        tracer.wrap(fleet, "submit", "fleet.submit", qid=lambda a, r: a[0].query_id)
        tracer.wrap(fleet.ring, "route", "fleet.route")
        tracer.wrap(fleet, "maintain", "olap.maintain")

    def _run_traced(self, seconds: float) -> Result:
        import repro.query.parser as parser
        from repro.fleet.fleet import ShardClient

        self.setup()
        samples, start, _, _ = self.window(seconds)
        self.audit(samples)
        untraced_qps = good_rate(samples, start, seconds)

        tracer = self.tracer = LayerTracer()
        tracer.wrap(parser, "parse_query", "query.parse", qid=lambda a, r: r.query_id)
        request = ShardClient.request
        wire = tracer.timed("fleet.wire", request)

        def request_timed(client, message, timeout=None):
            # only query frames: maintenance and metrics frames are not wire time
            if message.get("kind") == "query":
                return wire(client, message, timeout)
            return request(client, message, timeout)

        ShardClient.request = request_timed
        post = self._post
        self._post = tracer.timed("client.http", post)
        try:
            self._start()
            tracer.reset()
            samples, start, wall, _ = self.window(seconds)
        finally:
            self._post = post
            ShardClient.request = request
            tracer.restore()
        self.audit(samples)
        traced_qps = good_rate(samples, start, seconds)
        score(samples, start, seconds, self.result)
        self._layer_metrics(samples, wall)
        m = self.result.metrics
        m["trace_overhead_frac"] = (
            1.0 - traced_qps / untraced_qps if untraced_qps else 0.0,
            "frac",
        )
        self.result.lines.append(
            f"throughput untraced {untraced_qps:.1f} q/s, traced {traced_qps:.1f} q/s"
        )
        http_self = tracer.totals()["client.http"].total - tracer.totals()["fleet.submit"].total
        self.result.lines += tracer.share_lines(
            exclude=("client.http",),
            extra={"fleet.http_self": (len(samples), http_self)},
        )
        return self.result

    def _layer_metrics(self, samples, wall) -> None:
        tracer = self.tracer
        m = self.result.metrics
        before, after = self.before, self.after

        def delta(name, match=lambda labels: True):
            s1, c1 = _hist(after, name, match)
            s0, c0 = _hist(before, name, match)
            return s1 - s0, c1 - c0

        def grown(name):
            return after.value(name) - before.value(name)

        hits, misses = grown("repro_rollup_hits_total"), grown("repro_rollup_misses_total")
        hit_s, hit_n = delta("repro_rollup_hit_latency_seconds")
        m["olap.rollup_hit_rate"] = (hits / (hits + misses) if hits + misses else 0.0, "frac")
        m["olap.rollup_hit_us"] = (hit_s / hit_n * 1e6 if hit_n else 0.0, "us")
        m["olap.rollup_cuboids_built"] = (float(self.built), "count")
        m["olap.maintain_ms"] = (tracer.us_per_query("olap.maintain") / 1e3, "ms")

        window_ids = {s.qid for s in samples if s.status == "ok"}
        records = [r for sh in self.report.shards for r in sh.records if r.query_id in window_ids]
        record_metrics(m, records)
        tr_s, tr_n = delta("repro_translation_seconds")
        m["text.translate_us"] = (tr_s / tr_n * 1e6 if tr_n else 0.0, "us")
        pools = {labels[0] for labels in _labelled(after, "repro_pool_service_seconds")}
        for kind, match in POOL_KINDS:
            busy, _ = delta("repro_pool_service_seconds", lambda labels: match(labels[0]))
            # each shard partition has one worker (ShardSpec defaults)
            workers = SHARDS * sum(1 for p in pools if match(p)) or 1
            m[f"serve.{kind}_pool_busy_frac"] = (busy / (wall * workers), "frac")
        m["serve.records_retained"] = (
            float(sum(len(s.records) + len(s.cache_hits) for s in self.report.shards)),
            "count",
        )
        m["query.parse_us"] = (tracer.us_per_query("query.parse"), "us")
        m["fleet.submit_us"] = (tracer.us_per_query("fleet.submit"), "us")
        m["fleet.route_us"] = (tracer.us_per_query("fleet.route"), "us")
        m["fleet.wire_us"] = (tracer.us_per_query("fleet.wire"), "us")
        m["fleet.http_self_us"] = (
            tracer.us_per_query("client.http") - m["fleet.submit_us"][0],
            "us",
        )
        routed0 = _labelled(before, "repro_fleet_routed_total")
        routed = [
            v - routed0.get(k, 0.0) for k, v in _labelled(after, "repro_fleet_routed_total").items()
        ]
        mean = statistics.fmean(routed) if routed else 0.0
        m["fleet.shard_imbalance"] = (max(routed) / mean if mean else 0.0, "ratio")
        zero(m, SHARD_SIDE)
        self.result.lines.append(
            "not measured (inside the shard processes), reported as 0: "
            + ", ".join(SHARD_SIDE)
        )
