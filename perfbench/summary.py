"""Timing summaries and metric-name rules shared by the benchmark's outputs."""

import math
import re

NAME_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")

# A percentile is reported only when at least this many samples lie beyond it.
TAIL_SAMPLES = 10


def valid_name(name: str) -> bool:
    """True iff name is usable as a metric name: [A-Za-z0-9_.-]+, at most 64 long."""
    return NAME_RE.fullmatch(name) is not None


def median(values):
    vals = sorted(values)
    if not vals:
        raise ValueError("median of no values")
    mid = len(vals) // 2
    return vals[mid] if len(vals) % 2 else (vals[mid - 1] + vals[mid]) / 2.0


def tail_percentile(n: int):
    """Highest of p90, p99, p99.9 with at least TAIL_SAMPLES samples beyond it, or None."""
    best = None
    for p in (90.0, 99.0, 99.9):
        if n * (1.0 - p / 100.0) >= TAIL_SAMPLES - 1e-9:
            best = p
    return best


def percentile(values, p: float):
    """Nearest-rank percentile: the smallest value with at least p% of samples at or below it."""
    vals = sorted(values)
    if not vals:
        raise ValueError("percentile of no values")
    rank = max(1, math.ceil(round(p / 100.0 * len(vals), 9)))
    return vals[rank - 1]


def summarize(values) -> dict:
    """Median, sample count and the highest percentile that has ten samples beyond it."""
    vals = list(values)
    out = {"median": median(vals), "n": len(vals)}
    p = tail_percentile(len(vals))
    if p is not None:
        out[f"p{p:g}"] = percentile(vals, p)
    return out


def describe(summary: dict) -> str:
    """One-line rendering of a summarize() result, e.g. 'p50 1.2 (p90 1.9), n=120'."""
    tails = [f"{k} {v:.6g}" for k, v in summary.items() if k not in ("median", "n")]
    tail = f" ({', '.join(tails)})" if tails else ""
    return f"p50 {summary['median']:.6g}{tail}, n={summary['n']}"
