"""Shared pieces of the benchmark: the world, the closed loop, the books.

Everything here drives public entry points only.  Clients are threads
of this process; each sends its next request only after the previous
one completed (a closed loop), which is the saturation model behind
the paper's Tables 1-3.
"""

from __future__ import annotations

import math
import os
import resource
import statistics
import threading
import time
from collections import Counter
from dataclasses import dataclass, field

#: the BENCH-SERVE world: fixed, so every seed runs against the same data
WORLD_ROWS = 10_000
WORLD_SEED = 2012
WORLD_SCALE = 0.5
TIME_CONSTRAINT = 0.5
CLIENTS = 2
#: set-ups per run; ``setup_s`` is their median
SETUP_RUNS = 5


@dataclass
class Sample:
    """One attempted operation, as the client saw it."""

    done: float  # completion time, on the clock the window is timed on
    latency: float  # seconds from the submit call until the result
    status: str  # "ok", "rejected", "shed", "error" or "http-<code>"
    key: object = None  # reference key of the query
    qid: int = 0
    answer: float | None = None
    on_time: bool = False
    wrong: bool = False


@dataclass
class Result:
    """What one run reports: books, metrics by name, and report lines."""

    attempted: int = 0
    failed: int = 0
    correct: bool = True
    metrics: dict[str, tuple[float, str]] = field(default_factory=dict)
    lines: list[str] = field(default_factory=list)


def build_world():
    """The BENCH-SERVE world: 10k rows, scale 0.5, the paper's partitions.

    Returns ``(config, dataset, schema)``.
    """
    from repro.core.perfmodel import XEON_X5667_8T
    from repro.gpu import SimulatedGPU
    from repro.gpu.partitioning import paper_partition_scheme
    from repro.gpu.timing import TESLA_C2070_TIMING
    from repro.olap import CubePyramid
    from repro.relational import generate_dataset, tpcds_like_schema
    from repro.sim.system import SystemConfig
    from repro.text import TranslationService, build_dictionaries
    from repro.units import GB

    schema = tpcds_like_schema(scale=WORLD_SCALE)
    dataset = generate_dataset(schema, num_rows=WORLD_ROWS, seed=WORLD_SEED)
    pyramid = CubePyramid.from_fact_table(dataset.table, "sales_price", [0, 1, 2])
    translator = TranslationService(
        build_dictionaries(dataset.vocabularies), schema.hierarchies
    )
    device = SimulatedGPU(global_memory_bytes=GB, timing=TESLA_C2070_TIMING)
    device.load_table(dataset.table)
    config = SystemConfig(
        cpu_model=XEON_X5667_8T.with_overhead(0.002),
        pyramid=pyramid,
        device=device,
        scheme=paper_partition_scheme(),
        translation_service=translator,
        time_constraint=TIME_CONSTRAINT,
    )
    return config, dataset, schema


def table3_mix(schema, dataset, seed: int):
    """The Table-3 mix of BENCH-SERVE: small, mid (50 % text) and fine."""
    from repro.query.workload import QueryClass, WorkloadSpec

    return WorkloadSpec(
        schema.dimensions,
        [
            QueryClass("small", 0.6, resolution=1, coverage=(0.1, 0.5)),
            QueryClass(
                "mid",
                0.25,
                resolution=2,
                dims_constrained=(1, 2),
                coverage=(0.5, 1.0),
                text_prob=0.5,
            ),
            QueryClass("fine", 0.15, resolution=3, coverage=(0.2, 0.8)),
        ],
        measures=("sales_price",),
        text_levels=list(schema.text_levels),
        vocabularies=dataset.vocabularies,
        seed=seed,
    )


class Reference:
    """Reference answers: a plain table scan of the same seeded world."""

    def __init__(self, table, translator):
        self._table = table
        self._translator = translator
        self._cache: dict = {}

    def answer(self, key, query) -> float:
        if key not in self._cache:
            if query.needs_translation:
                query = self._translator.translate(query).query
            self._cache[key] = self._table.execute(query).value()
        return self._cache[key]


def same_answer(got: float | None, want: float) -> bool:
    if got is None:
        return False
    if math.isnan(want):
        return math.isnan(got)
    return math.isclose(got, want, rel_tol=1e-9, abs_tol=1e-6)


def closed_loop(seconds: float, step, clients: int = CLIENTS) -> tuple[float, float]:
    """Run ``clients`` threads calling ``step(client)`` for ``seconds``.

    Each call performs one request (or one batch) and returns only when
    it completed.  Returns the ``perf_counter`` start of the window and
    the wall seconds until the last client finished its final request.
    """
    barrier = threading.Barrier(clients + 1)
    errors: list[BaseException] = []
    stop_at = [0.0]

    def client(i: int) -> None:
        barrier.wait()
        try:
            while time.perf_counter() < stop_at[0]:
                step(i)
        except BaseException as exc:  # noqa: BLE001 - re-raised below
            errors.append(exc)

    threads = [
        threading.Thread(target=client, args=(i,), name=f"bench-client-{i}")
        for i in range(clients)
    ]
    for t in threads:
        t.start()
    start = time.perf_counter()
    stop_at[0] = start + seconds
    barrier.wait()
    for t in threads:
        t.join()
    if errors:
        raise errors[0]
    return start, time.perf_counter() - start


def run_count(count: int, step, clients: int = CLIENTS) -> None:
    """Closed loop over a fixed number of ``step`` calls (warm-up)."""
    remaining = [count]
    lock = threading.Lock()

    def client(i: int) -> None:
        while True:
            with lock:
                if remaining[0] <= 0:
                    return
                remaining[0] -= 1
            step(i)

    threads = [threading.Thread(target=client, args=(i,)) for i in range(clients)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()


def percentile(values, q: float) -> float:
    """Nearest-rank percentile (``q`` in [0, 100])."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return ordered[rank - 1]


def good_rate(samples, start: float, seconds: float) -> float:
    """Correct, on-time completions in ``[start, start + seconds]`` per second.

    Stalls inside the window (collector pauses, blocking maintenance,
    a stretch of cache misses) lower the rate by the time they take.
    """
    end = start + seconds
    good = sum(
        1
        for s in samples
        if s.status == "ok" and s.on_time and not s.wrong and start <= s.done <= end
    )
    return good / seconds


def zero(metrics: dict, units: dict[str, str]) -> None:
    """Book 0 for the per-layer metrics of layers a workload does not cross."""
    for name, unit in units.items():
        metrics[name] = (0.0, unit)


def score(samples, start: float, seconds: float, result: Result) -> list[Sample]:
    """Book attempted/failed and the end-to-end throughput and latency.

    A failure is a rejection, a shed, an error, a non-200 response, a
    wrong answer or a missed deadline; only the rest count toward
    ``throughput_qps``.
    """
    good = [s for s in samples if s.status == "ok" and s.on_time and not s.wrong]
    result.attempted = len(samples)
    result.failed = len(samples) - len(good)
    result.metrics["throughput_qps"] = (good_rate(samples, start, seconds), "q/s")
    latencies = [s.latency * 1e3 for s in samples if s.status == "ok"]
    if latencies:
        result.metrics["latency_p50_ms"] = (statistics.median(latencies), "ms")
        result.metrics["latency_p90_ms"] = (percentile(latencies, 90), "ms")
        # reported, not a metric: on a shared host the p99 of one run
        # follows the host's stalls more than the code (see README)
        result.lines.append(
            f"latency samples: {len(latencies)}; p99 {percentile(latencies, 99):.3f} ms "
            f"({len(latencies) - math.ceil(0.99 * len(latencies))} beyond it)"
        )
    outcomes = Counter(
        "wrong" if s.wrong else "late" if s.status == "ok" and not s.on_time else s.status
        for s in samples
    )
    result.lines.append(f"outcomes: {dict(sorted(outcomes.items()))}")
    return good


# -- process accounting ----------------------------------------------------


def _proc_cpu_seconds(pid: int) -> float:
    with open(f"/proc/{pid}/stat") as fh:
        fields = fh.read().rsplit(")", 1)[1].split()
    # utime and stime are fields 14 and 15 of stat(5); fields[0] is field 3
    return (int(fields[11]) + int(fields[12])) / os.sysconf("SC_CLK_TCK")


def _proc_peak_rss_mb(pid: int) -> float:
    with open(f"/proc/{pid}/status") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    return 0.0


def cpu_seconds(children=()) -> float:
    """CPU seconds of this process plus the given child pids."""
    return time.process_time() + sum(_proc_cpu_seconds(pid) for pid in children)


def peak_rss_mb(children=()) -> float:
    """Peak resident MB of this process plus the given child pids."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    return own + sum(_proc_peak_rss_mb(pid) for pid in children)


#: partition kinds by pool name
POOL_KINDS = (
    ("cpu", lambda q: q == "Q_CPU"),
    ("gpu", lambda q: q.startswith("Q_G")),
    ("trans", lambda q: q == "Q_TRANS"),
)


def record_metrics(m, records) -> None:
    """Placement share, estimate ratios and queue wait from query records."""
    cpu = [r for r in records if r.target == "Q_CPU"]
    gpu = [r for r in records if r.target.startswith("Q_G")]
    m["core.cpu_dispatch_frac"] = (len(cpu) / max(1, len(records)), "frac")
    m["core.cpu_estimate_ratio"] = (_ratio(cpu), "ratio")
    m["core.gpu_estimate_ratio"] = (_ratio(gpu), "ratio")
    # admission to service start (includes translation for translated queries)
    waits = [r.finish_time - r.submit_time - r.measured_time for r in records]
    m["serve.queue_wait_ms"] = (statistics.fmean(waits) * 1e3 if waits else 0.0, "ms")


def _ratio(records) -> float:
    """Median measured over estimated service time."""
    ratios = [r.measured_time / r.estimated_time for r in records if r.estimated_time > 0]
    return statistics.median(ratios) if ratios else 0.0
