"""Metric math of the zkperf benchmark: medians, the tail rule, span
self time and explained fractions. Pure functions, tested by
test_metrics.py."""

import math
import statistics

# Percentiles tried for the tail, highest first.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0, 50.0)
TAIL_BEYOND = 10


def median(values):
    """Median of a non-empty sequence."""
    if not values:
        raise ValueError("median of no samples")
    return statistics.median(values)


def rank(n, p):
    """Nearest rank (1-based): the smallest rank covering p percent."""
    return max(1, math.ceil(p * n / 100 - 1e-9))


def percentile(values, p):
    """Nearest-rank percentile of a non-empty sequence."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values)
    return ordered[rank(len(ordered), p) - 1]


def tail(values):
    """The highest percentile of TAIL_LADDER that has at least
    TAIL_BEYOND samples strictly beyond its nearest-rank position.

    Returns (percentile, value, beyond) or None when even the median
    has fewer than TAIL_BEYOND samples beyond it.
    """
    ordered = sorted(values)
    n = len(ordered)
    for p in TAIL_LADDER:
        beyond = n - rank(n, p)
        if beyond >= TAIL_BEYOND:
            return p, ordered[rank(n, p) - 1], beyond
    return None


def nest(spans):
    """Attach each span to its innermost enclosing span.

    spans: iterable of (name, segment, lane, start_ns, dur_ns, arg).
    Spans nest only within one (segment, lane): one thread of one
    tracing session. Returns a list of dicts with keys name, dur,
    child (summed duration of direct children) and parent (index or
    None), in input order of the sorted walk.
    """
    out = []
    by_track = {}
    for s in spans:
        by_track.setdefault((s[1], s[2]), []).append(s)
    for track in by_track.values():
        # Parents before children: earlier start first, longer first.
        track.sort(key=lambda s: (s[3], -s[4]))
        stack = []  # indices into out, innermost last
        for name, _seg, _lane, start, dur, _arg in track:
            end = start + dur
            while stack and out[stack[-1]]["end"] <= start:
                stack.pop()
            parent = None
            if stack and out[stack[-1]]["end"] >= end:
                parent = stack[-1]
            node = {"name": name, "start": start, "end": end,
                    "dur": dur, "child": 0, "parent": parent}
            out.append(node)
            if parent is not None:
                out[parent]["child"] += dur
            stack.append(len(out) - 1)
    return out


def self_time(node):
    """A span's duration minus the part its direct children cover."""
    return max(0, node["dur"] - node["child"])


def explained(spans):
    """Per parent span name: how much of its time its children explain.

    Returns {name: {"count", "total_ns", "self_ns", "explained"}} for
    every name that has at least one child span; "explained" is
    1 - self/total, the gap is self/total.
    """
    nodes = nest(spans)
    agg = {}
    for node in nodes:
        if node["child"] == 0:
            continue
        a = agg.setdefault(node["name"],
                           {"count": 0, "total_ns": 0, "self_ns": 0})
        a["count"] += 1
        a["total_ns"] += node["dur"]
        a["self_ns"] += self_time(node)
    for a in agg.values():
        total = a["total_ns"]
        a["explained"] = 1.0 - a["self_ns"] / total if total else 0.0
    return agg


def rate(rows_by_label, prove_samples_by_label):
    """Sum of rows over sum of median prove seconds (rows per second)."""
    rows = sum(rows_by_label[k] for k in prove_samples_by_label)
    secs = sum(median(v) for v in prove_samples_by_label.values())
    return rows / secs


def overhead(traced, untraced):
    """(traced - untraced) / untraced, from the two medians."""
    base = median(untraced)
    return (median(traced) - base) / base
