"""Chaos fuzzing: randomized workload+fault scenarios, auto-shrinking.

The loop (``python -m repro.cli fuzz``):

1. :func:`~repro.fuzz.generate.generate_plan` turns a seed into a
   :class:`~repro.fuzz.plan.FuzzPlan` — a replayable JSON scenario
   combining a Zipf-weighted workload schedule with a randomized fault
   schedule;
2. :func:`~repro.fuzz.runner.run_plan` executes it deterministically and
   the :class:`~repro.fuzz.oracle.FuzzOracle` judges the merged end
   state (invariant audit, session guarantees, model read-back,
   liveness);
3. on failure, :func:`~repro.fuzz.shrink.shrink_plan` minimizes the
   scenario splintercat-style and the survivor is committed under
   ``tests/regressions/`` as a permanent ratchet.
"""

from repro.fuzz.generate import generate_plan
from repro.fuzz.oracle import FuzzOracle, FuzzResult, SyntheticOracle
from repro.fuzz.plan import FuzzPlan, WorkloadOp, payload
from repro.fuzz.runner import NamespaceModel, PlanRunner, run_plan
from repro.fuzz.shrink import (ShrinkOutcome, Shrinker, shrink_failing_result,
                               shrink_plan)
from repro.fuzz.soak import SoakStats, soak

__all__ = [
    "FuzzOracle", "FuzzPlan", "FuzzResult", "NamespaceModel",
    "PlanRunner", "ShrinkOutcome", "Shrinker", "SoakStats",
    "SyntheticOracle", "WorkloadOp", "generate_plan", "payload",
    "run_plan", "shrink_failing_result", "shrink_plan", "soak",
]
