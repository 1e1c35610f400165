"""Spans recorded around the benchmark's calls into padfa, and the per-layer
metrics derived from them.

A span is (name, start, end, parent, question id) plus counters read at the
same boundary.  Where one public call nests another layer (saturate runs the
rank search, the birecurrence deciders run minimize, graphs and saturate,
``cli.main`` runs formats and gadgets), the nested call is timed again on the
same input as a child span, and the parent's self time is its duration minus
its children's.  Spans stay in memory until the run ends.
"""

from __future__ import annotations

import json
import time
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator, Optional


@dataclass
class Span:
    name: str
    question: int
    parent: Optional[int]
    start: float
    index: int = 0
    end: float = 0.0
    counts: dict = field(default_factory=dict)
    error: Optional[str] = None

    @property
    def duration(self) -> float:
        return self.end - self.start


class Tracer:
    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.question = 0

    @contextmanager
    def span(self, name: str, parent: Optional[int] = None) -> Iterator[Span]:
        """Time the body as span ``name``; ``parent`` is the index of the span
        whose call the body repeats."""
        record = Span(name, self.question, parent, 0.0, len(self.spans))
        self.spans.append(record)
        record.start = time.perf_counter()
        try:
            yield record
        except Exception as exc:
            record.error = type(exc).__name__
            raise
        finally:
            record.end = time.perf_counter()

    def question_seconds(self) -> float:
        """Time in the top-level spans of the questions (what an untraced
        run times), excluding probes that belong to no question."""
        return sum(
            s.duration for s in self.spans if s.parent is None and s.question >= 0
        )

    def dump(self, path) -> None:
        rows = [
            {
                "id": i,
                "name": s.name,
                "question": s.question,
                "parent": s.parent,
                "start": s.start,
                "end": s.end,
                "counts": s.counts,
                "error": s.error,
            }
            for i, s in enumerate(self.spans)
        ]
        path.write_text(json.dumps(rows) + "\n", encoding="utf-8")


# Per-layer metrics: name -> (unit, how it is computed).  Kinds:
#   ("time", span)        total duration of the spans called ``span``
#   ("self", span)        the same minus the durations of their child spans
#   ("count", span, key)  sum of counter ``key`` over those spans
#   ("rate", span, key)   that sum divided by their total duration
#   ("self_rate", span, key)  that sum divided by their total self time
#   ("exceeded", layer)   spans of the layer that ran out of budget
#   ("share", span, key, child, child_key)
#                         children's counter sum over the spans' counter sum
#   ("ns_per", span, key) total duration in ns over the counter sum
LAYER_METRICS: dict[str, tuple[str, tuple]] = {
    "core.step_mask_ns": ("ns", ("ns_per", "core.step_mask", "calls")),
    "core.image_mask_ns_per_letter": ("ns", ("ns_per", "core.image_mask", "letters")),
    "rank.exact_s": ("s", ("time", "rank.exact")),
    "rank.exact_visited": ("count", ("count", "rank.exact", "visited")),
    "rank.exact_visited_per_s": ("1/s", ("rate", "rank.exact", "visited")),
    "rank.witness_len": ("count", ("count", "rank.exact", "witness_len")),
    "rank.poly_s": ("s", ("time", "rank.poly")),
    "rank.poly_witness_len": ("count", ("count", "rank.poly", "witness_len")),
    "saturate.search_s": ("s", ("self", "saturate.search")),
    "saturate.config_visited": ("count", ("count", "saturate.search", "config_visited")),
    "saturate.config_visited_per_s": ("1/s", ("self_rate", "saturate.search", "config_visited")),
    "saturate.word_len": ("count", ("count", "saturate.search", "word_len")),
    "saturate.rank_share": (
        "ratio",
        ("share", "saturate.search", "visited", "rank.exact", "visited"),
    ),
    "graphs.pair_automaton_s": ("s", ("time", "graphs.pair_automaton")),
    "graphs.pair_nodes": ("count", ("count", "graphs.pair_automaton", "nodes")),
    "graphs.merge_policy_s": ("s", ("time", "graphs.merge_policy")),
    "graphs.sc_check_s": ("s", ("time", "graphs.sc_check")),
    "birecurrent.minimize_s": ("s", ("time", "birecurrent.minimize")),
    "birecurrent.minimal_states": ("count", ("count", "birecurrent.minimize", "states")),
    "birecurrent.reversal_s": ("s", ("time", "birecurrent.reversal")),
    "birecurrent.reversal_subsets": ("count", ("count", "birecurrent.reversal", "subsets")),
    "birecurrent.reversal_subsets_per_s": ("1/s", ("rate", "birecurrent.reversal", "subsets")),
    "birecurrent.direct_s": ("s", ("time", "birecurrent.direct")),
    "birecurrent.char_s": ("s", ("time", "birecurrent.char")),
    "gadgets.build_sync_s": ("s", ("time", "gadgets.build_sync")),
    "gadgets.build_saturation_s": ("s", ("time", "gadgets.build_saturation")),
    "gadgets.build_sc_s": ("s", ("time", "gadgets.build_sc")),
    "gadgets.build_complete_s": ("s", ("time", "gadgets.build_complete")),
    "gadgets.build_binarize_s": ("s", ("time", "gadgets.build_binarize")),
    "gadgets.states": ("count", ("count", "gadgets.", "states")),
    "gadgets.oracle_s": ("s", ("time", "gadgets.oracle")),
    "gadgets.oracle_visited": ("count", ("count", "gadgets.oracle", "visited")),
    "formats.parse_s": ("s", ("time", "formats.parse")),
    "formats.parse_bytes_per_s": ("B/s", ("rate", "formats.parse", "bytes")),
    "formats.serialize_s": ("s", ("time", "formats.serialize")),
    "cli.main_s": ("s", ("time", "cli.main")),
    "cli.startup_s": ("s", ("self", "cli.process")),
    "rank.budget_exceeded": ("count", ("exceeded", "rank.")),
    "saturate.budget_exceeded": ("count", ("exceeded", "saturate.")),
    "birecurrent.budget_exceeded": ("count", ("exceeded", "birecurrent.")),
    "gadgets.budget_exceeded": ("count", ("exceeded", "gadgets.")),
}


def _matches(span: Span, name: str) -> bool:
    # A name ending in "." selects the whole layer.
    return span.name.startswith(name) if name.endswith(".") else span.name == name


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Every metric of LAYER_METRICS whose spans occur in ``spans``."""
    children: dict[int, list[Span]] = {}
    for span in spans:
        if span.parent is not None:
            children.setdefault(span.parent, []).append(span)

    def self_time(index: int) -> float:
        return spans[index].duration - sum(c.duration for c in children.get(index, ()))

    out: dict[str, tuple[float, str]] = {}
    for metric, (unit, (kind, name, *keys)) in LAYER_METRICS.items():
        picked = [i for i, s in enumerate(spans) if _matches(s, name)]
        if kind == "exceeded":
            # Layers a workload never calls still report zero exhausted budgets.
            errors = [i for i in picked if spans[i].error == "BudgetExceededError"]
            out[metric] = (len(errors), unit)
            continue
        if not picked:
            continue
        total = sum(spans[i].duration for i in picked)
        counted = sum(spans[i].counts.get(keys[0], 0) for i in picked) if keys else 0
        if kind == "time":
            value = total
        elif kind == "self":
            value = sum(self_time(i) for i in picked)
        elif kind == "count":
            value = counted
        elif kind == "rate":
            value = counted / total
        elif kind == "self_rate":
            value = counted / sum(self_time(i) for i in picked)
        elif kind == "ns_per":
            value = total * 1e9 / counted
        else:  # share
            child_name, child_key = keys[1], keys[2]
            part = sum(
                c.counts.get(child_key, 0)
                for i in picked
                for c in children.get(i, ())
                if c.name == child_name
            )
            value = part / counted
        out[metric] = (value, unit)
    return out
