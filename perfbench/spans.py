"""Span arithmetic and summary statistics for the benchmark.

A span is [name, start, end, parent, counts] as `tracer.py` writes it.
"""

from __future__ import annotations

import math
import statistics


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Spans recorded through one stack nest, so a span's children are
    disjoint intervals inside it and their durations subtract.
    """
    out = [end - start for _, start, end, _, _ in spans]
    for _, start, end, parent, _ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


class Layers:
    """Totals per span name: self time, calls, per-call durations and
    summed counts."""

    def __init__(self, spans):
        own = self_times(spans)
        self.self_s: dict[str, float] = {}
        self.durations: dict[str, list[float]] = {}
        self.counts: dict[str, dict[str, float]] = {}
        for (name, start, end, _, counts), t in zip(spans, own):
            self.self_s[name] = self.self_s.get(name, 0.0) + t
            self.durations.setdefault(name, []).append(end - start)
            summed = self.counts.setdefault(name, {})
            for key, value in (counts or {}).items():
                summed[key] = summed.get(key, 0) + value
        self.total_self_s = sum(own)

    def self_time(self, name) -> float:
        return self.self_s.get(name, 0.0)

    def inclusive(self, name) -> float:
        return sum(self.durations.get(name, ()))

    def calls(self, name) -> int:
        return len(self.durations.get(name, ()))

    def count(self, name, key) -> float:
        return self.counts.get(name, {}).get(key, 0)


def ratio(num, den) -> float:
    return num / den if den else 0.0


def tail_percentile(samples, levels=(99.9, 99.0, 90.0)):
    """(level, value, beyond) for the highest level with at least ten
    samples beyond it, by the nearest-rank rule; None if no level has."""
    ordered = sorted(samples)
    n = len(ordered)
    for level in levels:
        rank = math.ceil(round(level * n / 100.0, 6))   # 99.9% of 10000 is 9990
        if rank >= 1 and n - rank >= 10:
            return level, ordered[rank - 1], n - rank
    return None


def describe(samples, unit, scale=1.0) -> str:
    """Median, quartiles and tail percentile of samples, as one line."""
    vals = [v * scale for v in samples]
    text = f"median {statistics.median(vals):.6g} {unit} over {len(vals)}"
    if len(vals) >= 2:
        q1, _, q3 = statistics.quantiles(vals, n=4)
        text += f", quartiles {q1:.6g}..{q3:.6g}"
    tail = tail_percentile(vals)
    if tail is None:
        text += ", no percentile has 10 samples beyond it"
    else:
        level, value, beyond = tail
        text += f", p{level:g} {value:.6g} ({beyond} beyond)"
    return text
