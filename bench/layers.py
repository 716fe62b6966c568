"""Host self-time per layer, from a ``cProfile`` of one measured window.

A layer is a ``repro`` package.  ``tottime`` of every profiled function is
charged to the layer whose source file defines it; a function defined
outside ``src/repro`` — a C builtin (``dict.get``, ``len``, ``heappush``)
or a stdlib helper — is charged to the layers that *called* it, in
proportion to the time the ``pstats`` callers table records per caller, so
there is no "other" bucket hiding a third of the profile.  What cannot be
traced back to a caller in ``src/repro``, and the benchmark's own driver
code, is ``bench``.

The named call counts (``payload_size``, ``VersionVector`` constructions,
block reads...) come from the same profile.  They are matched by source
file and function name: if a later change removes or renames the function,
its count reads 0, which is the honest answer.
"""

from __future__ import annotations

import os
import pstats
from collections import Counter

LAYERS = ("sim", "net", "core", "fs", "storage", "proc", "tx", "recovery",
          "reconfig", "faults", "fuzz", "obs", "tools")

_BENCH_DIR = os.path.dirname(os.path.abspath(__file__)) + os.sep
_PKG_MARK = os.sep + "repro" + os.sep

# call-count metric -> (source file under src/repro, function names)
NAMED_CALLS = {
    "fs.directory.from_record.calls": ("fs/directory.py", ("from_record",)),
    "storage.block_reads": ("storage/pack.py", ("read_block",)),
    "storage.block_writes": ("storage/pack.py", ("write_block",)),
    "storage.vv_constructs": ("storage/version_vector.py",
                              ("__init__", "copy")),
    "obs.tracer.begin.calls": ("obs/tracer.py", ("begin",)),
    "obs.histogram.observe.calls": ("obs/histogram.py", ("observe",)),
}
PAYLOAD_SIZE = ("net/message.py", ("payload_size", "_payload_size_slow"))


def _home_layer(filename: str):
    """The layer that defines ``filename``, or None for foreign code."""
    at = filename.rfind(_PKG_MARK)
    if at >= 0:
        head = filename[at + len(_PKG_MARK):].split(os.sep)[0]
        # Top-level modules (config.py, errors.py) and packages outside
        # the layer list count as core.
        return head if head in LAYERS else "core"
    if filename.startswith(_BENCH_DIR):
        return "bench"
    return None


class _Attribution:
    """Resolves every profiled function to a {layer: share} split."""

    def __init__(self, stats: dict):
        self.stats = stats
        self.memo = {}
        self.active = set()

    def shares(self, func) -> dict:
        known = self.memo.get(func)
        if known is not None:
            return known
        home = _home_layer(func[0])
        if home is not None:
            split = {home: 1.0}
        else:
            split = self._from_callers(func)
        self.memo[func] = split
        return split

    def _from_callers(self, func) -> dict:
        callers = self.stats[func][4] if func in self.stats else {}
        total = sum(rec[2] for rec in callers.values())
        if func in self.active or not callers or total <= 0.0:
            return {"bench": 1.0}       # recursion or no recorded caller
        self.active.add(func)
        split = Counter()
        for caller, rec in callers.items():
            for layer, share in self.shares(caller).items():
                split[layer] += share * rec[2] / total
        self.active.discard(func)
        return dict(split)


def layer_table(profile, window_s: float, messages: int) -> dict:
    """Per-layer metrics of one profiled window.

    ``window_s`` is the traced wall time of the window (the self times sum
    to nearly all of it; the rest is the profiler's own bookkeeping);
    ``messages`` is the window's message count, for calls-per-message.
    """
    stats = pstats.Stats(profile).stats
    attribution = _Attribution(stats)
    self_s = Counter({layer: 0.0 for layer in LAYERS + ("bench",)})
    calls = Counter({layer: 0 for layer in LAYERS})
    for func, (__, ncalls, tottime, __, __) in stats.items():
        for layer, share in attribution.shares(func).items():
            self_s[layer] += tottime * share
        home = _home_layer(func[0])
        if home in calls:
            calls[home] += ncalls
    out = {f"{layer}.self_s": self_s[layer] for layer in self_s}
    out.update({f"{layer}.calls": calls[layer] for layer in calls})
    out["profile.attributed_share"] = sum(self_s.values()) / window_s

    def named(source, names):
        """(calls, tottime) summed over the named functions of a file."""
        suffix = _PKG_MARK + source.replace("/", os.sep)
        hits = [rec for func, rec in stats.items()
                if func[0].endswith(suffix) and func[2] in names]
        return sum(rec[1] for rec in hits), sum(rec[2] for rec in hits)

    for metric, where in NAMED_CALLS.items():
        out[metric] = named(*where)[0]
    n, tottime = named(*PAYLOAD_SIZE)
    out["net.payload_size.self_s"] = tottime
    out["net.payload_size.calls_per_msg"] = n / messages if messages else 0.0
    return out
