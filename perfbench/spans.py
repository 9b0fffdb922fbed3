"""Span records and the self-time arithmetic of the traced run.

A span is ``(span_id, parent_id, name, start, end, work)``: a wrapped call,
the span that was open when it started (``None`` at the top), its
``time.perf_counter`` interval, and a work count computed from the call's
arguments (0 when the wrapper counts nothing).  The traced process keeps
spans in memory and writes them out once, when the command has returned.
"""

from __future__ import annotations

from collections import defaultdict


def covered(interval: tuple[float, float], parts: list[tuple[float, float]]) -> float:
    """Length of the union of ``parts`` clipped to ``interval``."""
    lo, hi = interval
    total, reach = 0.0, lo
    for start, end in sorted(parts):
        start, end = max(start, reach), min(end, hi)
        if end > start:
            total += end - start
            reach = end
    return total


def self_times(spans) -> dict[int, float]:
    """Span id -> its duration minus the part its direct children cover."""
    children = defaultdict(list)
    for _, parent, _, start, end, _ in spans:
        if parent is not None:
            children[parent].append((start, end))
    return {sid: (end - start) - covered((start, end), children[sid])
            for sid, _, _, start, end, _ in spans}


def layer_totals(spans) -> dict[str, dict[str, float]]:
    """Span name -> summed self time, call count and work count."""
    own = self_times(spans)
    out: dict[str, dict[str, float]] = defaultdict(lambda: {"self_s": 0.0, "calls": 0, "work": 0})
    for sid, _, name, _, _, work in spans:
        agg = out[name]
        agg["self_s"] += own[sid]
        agg["calls"] += 1
        agg["work"] += work
    return dict(out)
