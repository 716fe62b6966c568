"""Unit coverage for the fuzz plan format and the seeded generator (T19).

Everything here is structural — no cluster is spun up — so these tests
pin the *contract* the soak loop and the regression corpus rely on:
plans are canonical JSON, generation is a pure function of the seed, and
generated storms always end with the cluster whole.
"""

import pytest

from repro.fuzz.generate import generate_plan
from repro.fuzz.plan import OPS, FuzzPlan, WorkloadOp, payload


# -- plan format -----------------------------------------------------------

def test_unknown_op_rejected():
    with pytest.raises(ValueError):
        WorkloadOp(at=0.0, site=0, op="truncate", path="/w/x")


def test_payload_is_deterministic():
    assert payload(12, 9, 64) == payload(12, 9, 64)
    assert len(payload(12, 9, 2048)) == 2048
    assert payload(12, 9, 64) != payload(12, 10, 64)
    assert payload(12, 9, 64) != payload(13, 9, 64)


def test_payload_matches_its_defining_expression():
    """The tiled 256-byte cycle is byte-identical to the per-byte
    generator it replaced (committed plans carry content digests)."""
    for seed, tag in ((0, 0), (12, 9), (977, 40), (2**31, 2**20), (5, 131)):
        base = (seed * 1000003 + tag * 8191) & 0xFFFFFFFF
        for size in (0, 1, 255, 256, 257, 8192):
            assert payload(seed, tag, size) == bytes(
                (base + i * 131) % 256 for i in range(size))


def test_plan_round_trips_canonically():
    plan = generate_plan(42, n_ops=12, n_faults=4)
    text = plan.to_json()
    assert FuzzPlan.from_json(text).to_json() == text


def test_replace_does_not_alias_event_lists():
    plan = generate_plan(42, n_ops=12, n_faults=4)
    clone = plan.replace()
    clone.ops[0].path = "/w/elsewhere"
    del clone.faults[0]
    assert plan.ops[0].path != "/w/elsewhere"
    assert len(plan.faults) == 4 or plan.faults is not clone.faults


def test_span_and_event_count():
    plan = FuzzPlan(ops=[WorkloadOp(at=5.0, site=0, op="read",
                                    path="/w/d0/f0")])
    assert plan.span() == 5.0
    assert plan.event_count() == 1
    assert FuzzPlan().span() == 0.0


# -- generator -------------------------------------------------------------

def test_generation_is_a_pure_function_of_the_seed():
    first = generate_plan(7, n_ops=30, n_faults=6).to_json()
    second = generate_plan(7, n_ops=30, n_faults=6).to_json()
    assert first == second
    assert generate_plan(8, n_ops=30, n_faults=6).to_json() != first


def test_requested_op_count_is_honored():
    plan = generate_plan(7, n_ops=30, n_faults=6)
    assert len(plan.ops) == 30
    assert all(op.op in OPS for op in plan.ops)
    assert len(plan.faults) >= 6


@pytest.mark.parametrize("seed", range(40, 60))
def test_storms_always_end_whole(seed):
    """Crash/restart and partition/heal come in pairs with the down
    window strictly inside the schedule, so the end-of-run audit always
    judges a merged store (the paper's section 4 claim)."""
    plan = generate_plan(seed, n_ops=20, n_faults=8)
    crashes = [e for e in plan.faults if e.kind == "crash"]
    restarts = {e.site: e for e in plan.faults if e.kind == "restart"}
    for crash in crashes:
        assert crash.site in restarts
        assert restarts[crash.site].at > crash.at
        assert restarts[crash.site].merge
    splits = [e for e in plan.faults if e.kind == "partition"]
    heals = [e for e in plan.faults if e.kind == "heal"]
    assert len(splits) <= 1
    assert len(heals) == len(splits)
    for split, heal in zip(splits, heals):
        assert heal.at > split.at
        flat = sorted(s for group in split.groups for s in group)
        assert flat == list(range(plan.n_sites))


@pytest.mark.parametrize("seed", range(40, 60))
def test_clients_never_crash(seed):
    """Workload ops only issue from sites the fault schedule never takes
    down — the drivers must survive the storm they are measuring."""
    plan = generate_plan(seed, n_ops=20, n_faults=8)
    crashed = {e.site for e in plan.faults if e.kind == "crash"}
    assert not ({op.site for op in plan.ops} & crashed)
