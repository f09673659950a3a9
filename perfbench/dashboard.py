"""The ``fleet-dashboard`` query mix and its text renderer.

The mix follows the dashboard skew of BENCH-ROLLUP
(``benchmarks/test_rollup_cache.py``): 95 % of queries reuse one of
three hot shapes, picked uniformly, with fresh ranges; each shape is
answerable from one materialised rollup cuboid.  BENCH-ROLLUP's other
5 % are cold probes on a dimension its fixed catalog never covers.
Here ``Fleet.maintain`` would build a cuboid for any repeated shape, so
the cold 5 % are instead queries filtering on one text literal (a city
or a brand): they need dictionary translation, which the rollup cache
never covers, so they always miss.

Partway through the stream the hot set shifts.  BENCH-ROLLUP has no
shift, so its shapes after the shift are an assumption of this
benchmark: the dashboard swaps its ``date`` panels for ``item`` panels,
so two of the three hot shapes miss until a maintenance pass builds
their cuboids, and the ``store`` panel keeps hitting.  The aggregate is
drawn uniformly from sum, count and avg, so the renderer and the cache
see all three.

The fleet's front door receives query *text*, so :func:`render` turns a
:class:`~repro.query.model.Query` into the grammar of
:mod:`repro.query.parser`; :func:`check_round_trip` proves, before any
timing, that parsing every rendered query gives back the same
conditions, aggregate and measures.
"""

from __future__ import annotations

import numpy as np

from repro.query.model import Condition, Query

MEASURE = "sales_price"
AGGS = ("sum", "count", "avg")

#: BENCH-ROLLUP's share of queries on hot shapes
HOT_FRACTION = 0.95
#: hot shapes before the shift (BENCH-ROLLUP's ``HOT_SHAPES``) and
#: after it (``date`` panels swapped for ``item`` panels)
PHASES = (
    ((("date", 2),), (("store", 2),), (("date", 2), ("store", 2))),
    ((("item", 2),), (("store", 2),), (("item", 2), ("store", 2))),
)
#: text levels the cold queries filter on: (dimension, level, resolution)
TEXT_LEVELS = (("store", "city", 2), ("item", "brand", 2))


def _range(hierarchy, resolution: int, rng: np.random.Generator) -> Condition:
    card = hierarchy.cardinality(resolution)
    width = int(rng.integers(1, max(2, card // 2) + 1))
    lo = int(rng.integers(0, card - width + 1))
    return Condition(hierarchy.name, resolution, lo=lo, hi=lo + width)


def make_query(phase: int, hierarchies, vocabularies, rng) -> Query:
    """One dashboard query of ``phase`` (0 before the shift, 1 after)."""
    if rng.random() < HOT_FRACTION:
        shapes = PHASES[phase]
        shape = shapes[int(rng.integers(len(shapes)))]
        conditions = [_range(hierarchies[dim], res, rng) for dim, res in shape]
    else:
        dim, level, res = TEXT_LEVELS[int(rng.integers(len(TEXT_LEVELS)))]
        vocab = vocabularies[f"{dim}__{level}"]
        conditions = [
            Condition(dim, res, text_values=(vocab[int(rng.integers(len(vocab)))],))
        ]
    agg = AGGS[int(rng.integers(len(AGGS)))]
    return Query(
        conditions=tuple(conditions),
        measures=() if agg == "count" else (MEASURE,),
        agg=agg,
    )


def make_stream(n: int, shift_at: int, hierarchies, vocabularies, seed: int):
    """``n`` queries; the hot set shifts from phase 0 to 1 at ``shift_at``."""
    rng = np.random.default_rng(seed)
    return [
        make_query(0 if i < shift_at else 1, hierarchies, vocabularies, rng)
        for i in range(n)
    ]


def _literal(value) -> str:
    if isinstance(value, str):
        return "'" + value.replace("'", "\\'") + "'"
    return str(int(value))


def render(query: Query, hierarchies) -> str:
    """The query as text in the :mod:`repro.query.parser` grammar."""

    def column(dim: str, resolution: int) -> str:
        return f"{dim}.{hierarchies[dim].levels[resolution].name}"

    measures = "*" if query.agg == "count" else ", ".join(query.measures)
    text = f"SELECT {query.agg}({measures})"
    if query.group_by:
        text += " BY " + ", ".join(column(d, r) for d, r in query.group_by)
    clauses = []
    for cond in query.conditions:
        col = column(cond.dimension, cond.resolution)
        if cond.is_range:
            clauses.append(f"{col} IN [{cond.lo}, {cond.hi})")
        else:
            values = cond.text_values if cond.is_text else cond.codes
            clauses.append(f"{col} IN ({', '.join(_literal(v) for v in values)})")
    if clauses:
        text += " WHERE " + " AND ".join(clauses)
    return text


def check_round_trip(queries, texts, hierarchies) -> None:
    """Raise ``ValueError`` unless every text parses back to its query."""
    from repro.query.parser import parse_query

    for query, text in zip(queries, texts, strict=True):
        parsed = parse_query(text, hierarchies)
        if (
            parsed.conditions != query.conditions
            or parsed.agg != query.agg
            or parsed.measures != query.measures
            or parsed.group_by != query.group_by
        ):
            raise ValueError(f"render round trip failed: {text!r} -> {parsed}")
