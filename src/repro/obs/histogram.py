"""Fixed-bucket latency histograms for the flight recorder.

The bucket ladder is a 1-2-5 geometric series over virtual-time units.
Percentiles are reported as the upper edge of the smallest bucket whose
cumulative count reaches the requested rank — a pure function of the
bucket counts, so the same run always reports the same p50/p95/p99 no
matter the platform or insertion order.  That determinism is the whole
point: replaying a seed must produce byte-identical exports.
"""

from __future__ import annotations

from bisect import bisect_left
from typing import Dict, List, Mapping, Optional, Sequence, Tuple


def _ladder() -> Tuple[float, ...]:
    """1-2-5 series from 0.1 to 100000 virtual-time units."""
    edges: List[float] = []
    scale = 0.1
    while scale <= 10000.0:
        for mult in (1.0, 2.0, 5.0):
            edges.append(scale * mult)
        scale *= 10.0
    edges.append(100000.0)
    return tuple(edges)


BUCKET_EDGES: Tuple[float, ...] = _ladder()   # upper edges; +1 overflow bucket


class Histogram:
    """Counts of observations per fixed bucket, plus running aggregates."""

    __slots__ = ("counts", "count", "total", "min", "max")
    # Extrema are not counts: a window (repro.net.stats.delta) leaves them
    # None.
    not_counts = ("min", "max")

    def __init__(self):
        self.counts: List[int] = [0] * (len(BUCKET_EDGES) + 1)
        self.count = 0
        self.total = 0.0
        self.min: Optional[float] = None
        self.max: Optional[float] = None

    def observe(self, value: float) -> None:
        idx = bisect_left(BUCKET_EDGES, value)
        self.counts[idx] += 1
        self.count += 1
        self.total += value
        if self.min is None or value < self.min:
            self.min = value
        if self.max is None or value > self.max:
            self.max = value

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, p: float) -> float:
        """Upper edge of the bucket holding the p-th percentile (0 < p <= 100).

        The overflow bucket reports the top finite edge — observations past
        the ladder are already pathological enough to flag at that value.
        """
        return percentile_of(self.counts, self.count, p)

    def to_dict(self) -> Dict:
        return {
            "count": self.count,
            "total": round(self.total, 6),
            "mean": round(self.mean, 6),
            "min": self.min,
            "max": self.max,
            "p50": self.percentile(50),
            "p95": self.percentile(95),
            "p99": self.percentile(99),
        }


def percentile_of(counts: Sequence[int], count: int, p: float) -> float:
    if count <= 0:
        return 0.0
    rank = max(1, -(-int(p * count) // 100))   # ceil(p*count/100), >= 1
    seen = 0
    for idx, n in enumerate(counts):
        seen += n
        if seen >= rank:
            return BUCKET_EDGES[min(idx, len(BUCKET_EDGES) - 1)]
    return BUCKET_EDGES[-1]


def merge_windows(windows: Sequence[Mapping[str, Histogram]],
                  prefix: str = "") -> Dict[str, Dict]:
    """Cluster-wide windowed percentile merge: the public form of what the
    benchmark harness does around every measured block.

    ``windows`` is one mapping per site of metric name → windowed
    :class:`Histogram` (typically ``StatsWindow(site.metrics).close().hists``);
    the result maps each name matching ``prefix`` to the summed buckets'
    count, mean and p50/p95/p99.  Sites missing a metric contribute nothing
    for it (an empty site list or all-empty windows merge to ``{}``);
    histograms whose bucket ladders disagree (e.g. built against another
    ladder) are rejected rather than silently zipped short.
    """
    names = sorted({name for w in windows for name in w
                    if name.startswith(prefix)})
    out: Dict[str, Dict] = {}
    for name in names:
        counts = [0] * (len(BUCKET_EDGES) + 1)
        count = 0
        total = 0.0
        for hist in (w[name] for w in windows if name in w):
            if len(hist.counts) != len(counts):
                raise ValueError(
                    f"mismatched bucket ladder: histogram has "
                    f"{len(hist.counts)} buckets, expected {len(counts)}")
            for i, n in enumerate(hist.counts):
                counts[i] += n
            count += hist.count
            total += hist.total
        if count:
            out[name] = {
                "count": count,
                "mean": round(total / count, 6),
                "p50": percentile_of(counts, count, 50),
                "p95": percentile_of(counts, count, 95),
                "p99": percentile_of(counts, count, 99),
            }
    return out
