"""Fuzz plans: one replayable JSON artifact = workload + faults + topology.

A :class:`FuzzPlan` extends the idea of :class:`repro.faults.FaultPlan`
from "scripted faults" to "scripted *scenario*": it carries the cluster
shape, the initial file tree, a timed schedule of workload operations and
a timed schedule of fault events.  Everything needed to re-run the exact
scenario fits in one JSON document, so a shrunk failing plan committed
under ``tests/regressions/`` is a complete, byte-reproducible bug report.

All times are offsets from ``t0`` — the virtual time at which setup
(tree build + settle) finished — so a plan replays identically even if a
code change shifts how long setup takes.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from typing import List, Optional

from repro.faults.plan import FaultEvent

# Workload operation kinds the runner knows how to execute.
OPS = ("read", "write", "mkdir", "rename", "unlink", "link",
       "readdir", "stat")


# Content byte i of a payload is (base + 131 * i) % 256: one fixed cycle
# of period 256 (131 is odd), entered at the offset where it reads base.
_CYCLE = bytes(131 * i % 256 for i in range(256)) * 2
_ENTRY = pow(131, -1, 256)          # _CYCLE[base * _ENTRY % 256] == base


def payload(seed: int, tag: int, size: int) -> bytes:
    """Deterministic file content derived from plan fields alone (no RNG
    state needed), so replaying from JSON reproduces every byte."""
    base = (seed * 1000003 + tag * 8191) & 0xFFFFFFFF
    entry = base * _ENTRY % 256
    return (_CYCLE[entry:entry + 256] * (size // 256 + 1))[:size]


@dataclass
class WorkloadOp:
    """One scheduled syscall.  ``at`` is the offset from t0; ``site`` is
    the issuing (client) site; ``dest`` is the second path for rename and
    link; ``tag``/``size`` derive the write payload."""

    at: float
    site: int
    op: str
    path: str
    dest: Optional[str] = None
    size: int = 0
    tag: int = 0

    def __post_init__(self) -> None:
        if self.op not in OPS:
            raise ValueError(f"unknown workload op {self.op!r}")

    def to_dict(self) -> dict:
        out = {k: v for k, v in asdict(self).items() if v is not None}
        if self.op != "write":
            out.pop("size", None)
            out.pop("tag", None)
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "WorkloadOp":
        return cls(**data)


@dataclass
class FuzzPlan:
    """A complete randomized scenario, serialisable to one JSON document.

    ``tree_dirs``/``tree_files``/``file_size`` describe the initial tree
    built under ``/w`` before the clock starts; ``ops`` and ``faults``
    fire at their offsets from t0.  ``crashable`` lists the sites fault
    events may take down — client sites (every ``op.site``) must stay
    out of it so the workload drivers survive the storm.
    """

    seed: int = 0
    name: str = "fuzz"
    n_sites: int = 3
    root_pack_sites: Optional[List[int]] = None
    copies: int = 2
    tree_dirs: int = 2
    tree_files: int = 2
    file_size: int = 512
    check_after_heal: bool = True
    # Pinned run digest for committed regression plans: replay compares
    # the run's actual digest against this and fails on any drift (the
    # fault interleaving no longer reproduces what the plan was minimised
    # for).  Optional so legacy plans round-trip unchanged.
    expect_digest: Optional[str] = None
    ops: List[WorkloadOp] = field(default_factory=list)
    faults: List[FaultEvent] = field(default_factory=list)

    # -- derived ---------------------------------------------------------

    def tree_paths(self) -> List[str]:
        return [f"/w/d{d}/f{f}"
                for d in range(self.tree_dirs)
                for f in range(self.tree_files)]

    def span(self) -> float:
        """Last scheduled offset (0.0 for an empty plan)."""
        times = [op.at for op in self.ops] + \
                [ev.at for ev in self.faults if ev.at is not None]
        return max(times) if times else 0.0

    def event_count(self) -> int:
        return len(self.ops) + len(self.faults)

    # -- serialisation ---------------------------------------------------

    def to_dict(self) -> dict:
        out = {"seed": self.seed, "name": self.name,
               "n_sites": self.n_sites, "copies": self.copies,
               "tree_dirs": self.tree_dirs, "tree_files": self.tree_files,
               "file_size": self.file_size,
               "check_after_heal": self.check_after_heal,
               "ops": [op.to_dict() for op in self.ops],
               "faults": [ev.to_dict() for ev in self.faults]}
        if self.root_pack_sites is not None:
            out["root_pack_sites"] = list(self.root_pack_sites)
        if self.expect_digest is not None:
            out["expect_digest"] = self.expect_digest
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "FuzzPlan":
        return cls(
            seed=data.get("seed", 0), name=data.get("name", "fuzz"),
            n_sites=data.get("n_sites", 3),
            root_pack_sites=data.get("root_pack_sites"),
            copies=data.get("copies", 2),
            tree_dirs=data.get("tree_dirs", 2),
            tree_files=data.get("tree_files", 2),
            file_size=data.get("file_size", 512),
            check_after_heal=data.get("check_after_heal", True),
            expect_digest=data.get("expect_digest"),
            ops=[WorkloadOp.from_dict(o) for o in data.get("ops", [])],
            faults=[FaultEvent.from_dict(e)
                    for e in data.get("faults", [])])

    def to_json(self) -> str:
        return json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FuzzPlan":
        return cls.from_dict(json.loads(text))

    def replace(self, **kwargs) -> "FuzzPlan":
        """A copy with fields swapped (shrinker candidates); event lists
        are shallow-copied so candidates never alias each other."""
        clone = FuzzPlan.from_dict(self.to_dict())
        for key, value in kwargs.items():
            setattr(clone, key, value)
        return clone

    def __repr__(self) -> str:
        return (f"<FuzzPlan {self.name!r} seed={self.seed} "
                f"ops={len(self.ops)} faults={len(self.faults)} "
                f"span={self.span():.0f}>")
