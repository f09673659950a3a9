"""Compare two benchmark result sets, metric by metric.

Usage::

    python3 perfbench/compare.py BASE.jsonl NEW.jsonl

Each file holds the JSON lines ``run.py --out`` appends: one run's
provenance and result per line.  For every workload and metric the tool
prints the median and quartiles of both sets and a verdict against the
metric's bound in ``BENCHMARK.json``:

* ``unresolved`` -- the run-to-run spread (quartile distance over the
  median) of either set exceeds the bound, so the sets cannot tell a
  change from noise, unless every new run beats every base run;
* ``regressed`` -- the new median is worse than the base median by more
  than the bound;
* ``better`` -- the new median is better by more than the base set's
  own quartile distance;
* ``within bound`` -- otherwise.

Per-layer metrics have no bound; they get the deltas only.  Results of
hosts with another core count, Python or NumPy are flagged.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(path: Path) -> tuple[dict, list[dict]]:
    """``{(workload, trace): {metric: [values]}}`` and the provenances."""
    sets: dict = {}
    provs = []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        record = json.loads(line)
        prov, result = record["provenance"], record["result"]
        provs.append(prov)
        group = sets.setdefault((prov["workload"], prov["trace"]), {})
        for name, metric in result["metrics"].items():
            group.setdefault(name, []).append(metric["value"])
    return sets, provs


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def verdict(base: list[float], new: list[float], bound: float, better: str) -> str:
    worse = 1.0 if better == "lower" else -1.0  # sign that makes "worse" positive
    if all(worse * (n - b) < 0 for n in new for b in base):
        return "better (every run)"
    b1, bm, b3 = quartiles(base)
    n1, nm, n3 = quartiles(new)
    spread = max((b3 - b1) / abs(bm) if bm else 0.0, (n3 - n1) / abs(nm) if nm else 0.0)
    if spread > bound:
        return f"unresolved (spread {spread:.1%} > bound {bound:.0%})"
    change = worse * (nm - bm) / abs(bm) if bm else 0.0
    if change > bound:
        return f"regressed ({change:+.1%} > bound {bound:.0%})"
    if -worse * (nm - bm) > b3 - b1:
        return "better"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: (m["bound"], m["better"]) for m in spec["end_to_end"]}
    base, base_prov = load(Path(argv[0]))
    new, new_prov = load(Path(argv[1]))
    for key in ("nproc", "python", "numpy"):
        seen = {p[key] for p in base_prov + new_prov}
        if len(seen) > 1:
            print(f"warning: results come from hosts with different {key}: {sorted(map(str, seen))}")
    commits = sorted({p["commit"][:12] for p in base_prov}), sorted(
        {p["commit"][:12] for p in new_prov}
    )
    print(f"base commits {commits[0]}  new commits {commits[1]}")
    for group in sorted(set(base) & set(new)):
        workload, trace = group
        runs = len(next(iter(base[group].values()))), len(next(iter(new[group].values())))
        print(f"\n== {workload} ({'traced' if trace else 'end to end'}; "
              f"{runs[0]} base runs, {runs[1]} new runs) ==")
        print(f"{'metric':<28s} {'base median [q1, q3]':>34s} {'new median [q1, q3]':>34s} "
              f"{'delta':>8s}  verdict")
        for name in sorted(set(base[group]) & set(new[group])):
            b, n = base[group][name], new[group][name]
            b1, bm, b3 = quartiles(b)
            n1, nm, n3 = quartiles(n)
            delta = (nm - bm) / abs(bm) if bm else 0.0
            text = (
                verdict(b, n, *bounds[name]) if name in bounds and not trace else "-"
            )
            print(
                f"{name:<28s} {bm:>12.4g} [{b1:>8.4g}, {b3:>8.4g}] "
                f"{nm:>12.4g} [{n1:>8.4g}, {n3:>8.4g}] {delta:>+8.1%}  {text}"
            )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
