"""Tier-1 replay of the committed fuzz-regression corpus.

Every ``tests/regressions/*.json`` file is a shrunk :class:`FuzzPlan`
that once reproduced a real bug.  Replaying them must now produce zero
violations — the corpus is a permanent ratchet: a fix that regresses
re-fails the exact minimal scenario that found the bug.

Each plan is also checked for byte-stable serialization (the committed
file must equal its own decode→encode round trip) and deterministic
execution (same plan ⇒ identical run digest).

``tests/findings/*.json`` holds the opposite: shrunk plans of bugs that
are still open.  Each must still fail, on its pinned interleaving; once
its bug is fixed the plan moves to ``tests/regressions/``.
"""

from __future__ import annotations

import glob
import os

import pytest

from repro.fuzz import FuzzPlan, run_plan
from repro.fuzz.runner import PlanRunner

CORPUS_DIR = os.path.join(os.path.dirname(__file__), "regressions")
CORPUS = sorted(glob.glob(os.path.join(CORPUS_DIR, "*.json")))
FINDINGS = sorted(glob.glob(os.path.join(os.path.dirname(__file__),
                                         "findings", "*.json")))


def _load(path: str) -> FuzzPlan:
    with open(path) as fh:
        return FuzzPlan.from_json(fh.read())


def test_corpus_is_seeded():
    """The ISSUE's floor: the corpus ships with at least two shrunk
    reproductions of fixed bugs."""
    assert len(CORPUS) >= 2, f"regression corpus missing in {CORPUS_DIR}"


@pytest.mark.parametrize("path", CORPUS,
                         ids=[os.path.basename(p) for p in CORPUS])
def test_regression_plan_round_trips(path):
    with open(path) as fh:
        text = fh.read()
    plan = FuzzPlan.from_json(text)
    assert plan.to_json() == text, \
        f"{path} is not canonical JSON; rewrite it with plan.to_json()"


@pytest.mark.parametrize("path", CORPUS,
                         ids=[os.path.basename(p) for p in CORPUS])
def test_regression_plan_replays_clean(path):
    plan = _load(path)
    result = run_plan(plan)
    assert result.ok, (
        f"{os.path.basename(path)} regressed:\n" + result.report())
    if plan.expect_digest is not None:
        # The pinned digest guards the plan's *regression value*: if the
        # interleaving drifts, the replay may pass without exercising the
        # bug it was minimised for.  Re-shrink and re-pin when this fires.
        assert result.digest() == plan.expect_digest, (
            f"{os.path.basename(path)} no longer reproduces its recorded "
            f"interleaving (digest {result.digest()} != pinned "
            f"{plan.expect_digest})")


def test_regression_replay_is_deterministic():
    """Byte-identical reproduction: two executions of the same committed
    plan must produce identical run digests (oplog + fault trace)."""
    plan_path = CORPUS[0]
    digests = {PlanRunner(_load(plan_path)).run().digest()
               for __ in range(2)}
    assert len(digests) == 1


@pytest.mark.parametrize("path", FINDINGS,
                         ids=[os.path.basename(p) for p in FINDINGS])
def test_open_finding_still_fails(path):
    with open(path) as fh:
        text = fh.read()
    plan = FuzzPlan.from_json(text)
    assert plan.to_json() == text and plan.expect_digest is not None
    result = run_plan(plan)
    assert not result.ok, f"{os.path.basename(path)} is fixed: move it " \
        f"to tests/regressions/"
    assert result.digest() == plan.expect_digest
