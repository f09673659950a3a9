"""Run one benchmark workload and print its metrics.

Usage, from the root of a checkout::

    python3 perfbench/run.py --workload mixed --seed 1 --seconds 10 --trace 0

``--trace 0`` measures the end-to-end metrics; ``--trace 1`` makes an
untraced window and then a traced one, and reports the per-layer
metrics.  The last line of standard output is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``; the lines
before it are the human-readable report and the run's provenance.
``--out PATH`` also appends the result with its provenance to a JSON
lines file, which ``perfbench/compare.py`` reads.

The program is imported from ``src/`` of the checkout; without it the
benchmark exits with code 2 and prints no result.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import sys
from pathlib import Path

from common import SETUP_RUNS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("mixed", "observed-batched", "fleet-dashboard")


def git_commit(root: Path) -> str:
    """The checked-out commit, read from ``.git`` without running git."""
    head = root / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = root / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (root / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def provenance(args) -> dict:
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "setup_runs": SETUP_RUNS,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "commit": git_commit(ROOT),
    }


def declared_metrics(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="append the result to this JSON lines file")
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be > 0")

    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program to measure: {ROOT / 'src' / 'repro'} is missing",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    if args.workload == "fleet-dashboard":
        from fleetbench import FleetBench as Bench
    else:
        from engines import EngineBench as Bench
    bench = Bench(args.workload, args.seed)
    result = bench.run_traced(args.seconds) if args.trace else bench.run(args.seconds)
    if args.trace:
        out = HERE / "out" / f"{args.workload}-seed{args.seed}-spans.jsonl"
        n = bench.tracer.write_spans(out)
        result.lines.append(
            f"spans: {n} kept ({bench.tracer.dropped} over the cap) -> {out.relative_to(ROOT)}"
        )

    declared = declared_metrics(bool(args.trace))
    wrong = sorted(
        name for name, unit in declared.items()
        if name not in result.metrics or result.metrics[name][1] != unit
    )
    if wrong:
        print(f"error: no value in the declared unit for {wrong}", file=sys.stderr)
        return 3
    metrics = {
        name: {"value": float(result.metrics[name][0]), "unit": unit}
        for name, unit in declared.items()
    }
    prov = provenance(args)
    for line in result.lines:
        print(line)
    print("provenance: " + json.dumps(prov, sort_keys=True))
    final = {
        "correct": bool(result.correct),
        "attempted": int(result.attempted),
        "failed": int(result.failed),
        "metrics": metrics,
    }
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        with args.out.open("a") as fh:
            fh.write(json.dumps({"provenance": prov, "result": final}) + "\n")
    print(json.dumps(final))
    return 0


if __name__ == "__main__":
    sys.exit(main())
