"""Order statistics shared by the benchmark runner and the compare mode."""

from __future__ import annotations

import statistics

#: Tail percentiles tried from the highest down; a tail is only reported
#: where at least ten samples lie beyond it.
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)
MIN_BEYOND = 10


def percentile(values, pct: float) -> float:
    """Linearly interpolated percentile of ``values`` (0 <= pct <= 100)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    pos = (len(ordered) - 1) * pct / 100.0
    low = int(pos)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (pos - low)


def tail(values) -> tuple[str, float]:
    """The highest percentile with at least ten samples beyond it.

    Returns ``(label, value)``.  The lowest rung of ``TAIL_LADDER`` is
    p75, so with fewer than forty samples (``MIN_BEYOND / 0.25``) no rung
    qualifies and the maximum is reported under the label ``"max"``.
    """
    n = len(values)
    for pct in TAIL_LADDER:
        if n * (1.0 - pct / 100.0) >= MIN_BEYOND:
            label = f"p{pct:g}".replace(".", "_")
            return label, percentile(values, pct)
    return "max", max(values)


def summary(values, scale: float) -> dict:
    """Median, named tail and sample count of ``values`` times ``scale``."""
    label, value = tail(values)
    return {
        "p50": percentile(values, 50.0) * scale,
        "tail": value * scale,
        "tail_label": label,
        "n": len(values),
    }


def quartile_spread(values) -> float:
    """Interquartile distance as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, median, q3 = statistics.quantiles(values, n=4)
    return abs(q3 - q1) / abs(median) if median else float("inf")
