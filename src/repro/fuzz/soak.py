"""The soak loop: run seeds until a count or wall-clock budget runs out.

Each iteration is generate → run → judge; a failing iteration is
shrunk (when enabled) and both the original and the minimal plan are
written to the output directory, named by seed, so a CI job can upload
them as artifacts and a developer can replay them byte-for-byte::

    python -m repro.cli fuzz --seed 20260808 --soak 10 --shrink --out x/

Seeds advance ``base_seed, base_seed+1, ...`` so a calendar-date base
seed gives every nightly run a fresh, disjoint, reproducible slice of
scenario space.
"""

from __future__ import annotations

import os
import time
from dataclasses import dataclass, field
from typing import Callable, List, Optional

from repro.fuzz.generate import generate_plan
from repro.fuzz.runner import run_plan
from repro.fuzz.shrink import shrink_failing_result


@dataclass
class SoakStats:
    runs: int = 0
    ops_executed: int = 0
    fault_events: int = 0
    failed_seeds: List[int] = field(default_factory=list)
    artifacts: List[str] = field(default_factory=list)
    elapsed: float = 0.0

    @property
    def ok(self) -> bool:
        return not self.failed_seeds

    def report(self) -> str:
        verdict = "clean" if self.ok else \
            f"FAILURES on seeds {self.failed_seeds}"
        lines = [f"soak: {self.runs} runs, {self.ops_executed} ops, "
                 f"{self.fault_events} fault events in "
                 f"{self.elapsed:.1f}s — {verdict}"]
        lines += [f"  wrote {path}" for path in self.artifacts]
        return "\n".join(lines)


def soak(base_seed: int, runs: Optional[int] = None,
         minutes: Optional[float] = None, n_ops: int = 60,
         n_faults: int = 8, n_sites: int = 3, shrink: bool = True,
         out_dir: Optional[str] = None, oracle=None,
         log: Callable[[str], None] = lambda line: None) -> SoakStats:
    """Run fuzz iterations until ``runs`` or ``minutes`` is exhausted
    (whichever comes first; at least one iteration always runs)."""
    stats = SoakStats()
    started = time.monotonic()
    deadline = None if minutes is None else started + minutes * 60.0
    seed = base_seed
    while True:
        plan = generate_plan(seed, n_ops=n_ops, n_faults=n_faults,
                             n_sites=n_sites)
        result = run_plan(plan, oracle=oracle)
        stats.runs += 1
        stats.ops_executed += len(result.run.oplog)
        stats.fault_events += len(result.run.injector.trace)
        if result.ok:
            log(f"seed {seed}: ok ({len(result.run.oplog)} ops)")
            for death in result.deaths:
                log(f"  DIED {death}")
        else:
            stats.failed_seeds.append(seed)
            log(f"seed {seed}: {len(result.violations)} violations")
            for line in result.report().splitlines():
                log(f"  {line}")
            if out_dir is not None:
                stats.artifacts.append(
                    _dump(out_dir, f"fuzz-{seed}.json", plan.to_json()))
            if shrink:
                outcome = shrink_failing_result(result, oracle=oracle)
                log(outcome.report())
                if out_dir is not None:
                    stats.artifacts.append(_dump(
                        out_dir, f"fuzz-{seed}-shrunk.json",
                        outcome.plan.to_json()))
        seed += 1
        if runs is not None and stats.runs >= runs:
            break
        if deadline is not None and time.monotonic() >= deadline:
            break
        if runs is None and deadline is None:
            break
    stats.elapsed = time.monotonic() - started
    return stats


def _dump(out_dir: str, name: str, text: str) -> str:
    os.makedirs(out_dir, exist_ok=True)
    path = os.path.join(out_dir, name)
    with open(path, "w") as fh:
        fh.write(text)
    return path
