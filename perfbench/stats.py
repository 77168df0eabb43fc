"""Arithmetic shared by the benchmark: quartiles, spreads, rates."""

from __future__ import annotations

import statistics


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile, as statistics.quantiles(n=4)
    gives them; a single value is its own quartiles."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile, as a share of the median."""
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2


def fail_rate(attempted: int, failed: int) -> float:
    if attempted < 1:
        raise ValueError("fail_rate needs at least one attempted job")
    if not 0 <= failed <= attempted:
        raise ValueError(f"failed jobs ({failed}) must lie within 0..{attempted}")
    return failed / attempted


def ratio(numerator: float, denominator: float) -> float:
    """numerator / denominator, or 0 when there was nothing to divide by."""
    return numerator / denominator if denominator else 0.0
