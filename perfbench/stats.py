"""Percentiles, spreads and the regression comparison."""

from __future__ import annotations

import math
import statistics
from typing import NamedTuple, Sequence

#: A tail percentile is reported only with this many samples beyond it.
TAIL_SAMPLES = 10

#: The tail percentile reported when there are enough samples.
TAIL_TARGET = 0.99


class Tail(NamedTuple):
    """A nearest-rank percentile with the samples it was taken from."""

    value: float
    percentile: float
    samples: int


def nearest_rank(sorted_values: Sequence[float], fraction: float) -> float:
    """The nearest-rank *fraction* quantile of an ascending sequence."""
    rank = max(1, math.ceil(fraction * len(sorted_values)))
    return sorted_values[rank - 1]


def tail(values: Sequence[float]) -> Tail:
    """The :data:`TAIL_TARGET` percentile, or the highest percentile
    below it that has at least :data:`TAIL_SAMPLES` samples beyond it.

    With nearest rank, the value at rank *k* (1-based) of *n* sorted
    samples has ``n - k`` samples beyond it.  Fewer than
    ``TAIL_SAMPLES + 1`` samples have no such percentile; the median is
    reported instead, labelled as the 50th.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n == 0:
        raise ValueError("no samples")
    rank = max(1, math.ceil(TAIL_TARGET * n))
    if n - rank < TAIL_SAMPLES:
        rank = n - TAIL_SAMPLES
    if rank < 1:
        return Tail(nearest_rank(ordered, 0.5), 50.0, n)
    return Tail(ordered[rank - 1], 100.0 * rank / n, n)


def worse_by(parent: float, change: float, better: str) -> float:
    """How much worse *change* is than *parent*, as a share of *parent*
    (negative when it is better)."""
    if better == "higher":
        return (parent - change) / parent
    return (change - parent) / parent


def regressions(
    parent: dict[str, list[float]],
    change: dict[str, list[float]],
    metrics: Sequence[dict],
) -> dict[str, float]:
    """Metrics whose median got worse by more than their bound.

    *parent* and *change* map metric names to the values of several
    runs; *metrics* are ``BENCHMARK.json`` end-to-end entries.  Returns
    ``{name: share worse}`` for every metric over its bound.
    """
    flagged = {}
    for metric in metrics:
        name = metric["name"]
        if name not in parent or name not in change:
            continue
        share = worse_by(
            statistics.median(parent[name]),
            statistics.median(change[name]),
            metric["better"],
        )
        if share > metric["bound"]:
            flagged[name] = share
    return flagged

