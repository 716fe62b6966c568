"""Cost model and tunables for the simulated LOCUS network.

All costs are in abstract microsecond-like time units charged to the virtual
clock.  The default calibration reproduces the comparative claims of the
paper rather than absolute VAX-11/750 timings:

* Local page access (buffer miss) costs ``cpu_syscall + disk_read``.
* Remote page access adds two message sends and two receives, calibrated so
  the total *CPU* overhead is about twice the local case (paper section
  2.2.1, footnote: "the cpu overhead of accessing a remote page is twice
  local access").  Packet disassembly/reassembly being the dominant software
  cost is explicitly called out in section 6.
* A remote open costs significantly more than a local one because it runs the
  four-message US/CSS/SS protocol of Figure 2.

The rule for what is a field here: ``CostModel`` holds the calibration (what
a unit of work costs — the paper's ratios are stated through it) and the
protocol arms an experiment, benchmark or CI leg selects.  A timer or budget
that nothing varies is a module constant beside the one protocol that reads
it (``fs/scrub.py``, ``reconfig/topology.py``, ``fs/name_cache.py``,
``fs/ledger.py``); the supervision policy below is shared by ``core`` and
``fs``, so it lives here.  ``tests/test_workloads_config.py`` keeps the rule:
a non-calibration field that no test, benchmark or CI leg sets fails it.
Observation is not a field either: the flight recorder always records
(:mod:`repro.obs.tracer`).
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# -- Supervision policy ---------------------------------------------------
# Timers and budgets of supervised remote calls (``Site.supervised_rpc``,
# the one client retry loop: its callers pick the budget), in force when
# ``CostModel.supervise_remote_ops`` is on.
RPC_TIMEOUT = 400.0     # per-op backstop for supervised RPCs
RPC_RETRIES = 3         # bounded retry / failover attempts
RPC_BACKOFF = 8.0       # base of the exponential retry backoff
# Attempt budget where replay, re-home or a refusal that precedes any state
# change makes a retry safe (conflict-window wait, writer page operations,
# commit): enough to ride out a whole loss burst or a post-heal merge sweep.
PATIENT_RETRIES = 8


def patient_backoff(waited: int) -> float:
    """Wait before retry ``waited`` (from 0): exponential, capped so the
    patient budget never becomes an unbounded sleep (the plain budget,
    ``RPC_RETRIES``, ends below the cap)."""
    return RPC_BACKOFF * (2 ** min(waited, 4))


@dataclass
class CostModel:
    """Virtual-time costs charged by the kernel and network layers."""

    # CPU costs (charged to the executing site's clock and cpu accounting)
    cpu_syscall: float = 1.0        # base cost of syscall entry/processing
    cpu_msg: float = 2.5            # packet (dis)assembly per message send/recv
    cpu_page_copy: float = 0.2      # copying one page kernel<->user space
    cpu_dir_entry: float = 0.02     # scanning one directory entry
    cpu_process_page: float = 0.5   # copying one image page during fork/exec

    # Disk costs (charged at the storage site)
    disk_read: float = 10.0         # read one block from the storage medium
    disk_write: float = 10.0        # write one block to the storage medium
    buffer_hit: float = 0.1         # buffer-cache hit

    # Network costs (elapsed wire time; not CPU)
    net_latency: float = 2.0        # per-message propagation delay
    net_per_byte: float = 0.002     # serialization delay per payload byte

    # Geometry
    page_size: int = 1024           # bytes per logical page / disk block
    buffer_pages: int = 256         # per-site buffer cache capacity (pages)

    # Protocol behaviour
    delta_propagation: bool = True  # pull only changed pages when sound
    # Hot-path optimizations, each one a measurable ablation.  All default
    # to the paper's exact per-message protocols (like pathname_shipping)
    # except adaptive readahead: readahead_max=8 pipelines a sequential
    # remote scan, readahead_max=1 restores the paper's one-page readahead
    # (T3 and T4 select it to reproduce their recorded tables) and
    # readahead_max=0 turns readahead off (ablation A1).
    # name_cache: cache decoded directory entries keyed by committed version
    # vector so repeat pathname components skip the open/read/decode/close
    # cycle.
    name_cache: bool = False
    # Batched page transfer, the one rule for every page on the wire:
    # reads, readahead, write-behind flushes and propagation pulls move up
    # to this many pages per message, and a one-page chunk travels in the
    # paper's per-page message (1 = the paper's protocol).  The known
    # exception is recovery's read_copy, which still sends one
    # fs.pull_read per page whatever this is set to.  A remote write
    # stages its page and flushes once this many are staged or at an
    # ordering point (commit, truncate, attribute change, close).  Message
    # size stays the sum of payload bytes, so the wire model keeps charging
    # honestly for the data moved.
    batch_pages: int = 1
    # Adaptive readahead cap: the window is the observed sequential run
    # length of each open file (1, 2, 3, ... pages ahead) up to this many
    # pages, and collapses back to one page on any non-sequential access.
    # Random workloads therefore never over-fetch while long scans
    # converge to full-window prefetch.
    readahead_max: int = 8
    pull_pipeline: int = 1          # concurrent propagation-pull requests
    # Manifest-based heal pull: the propagation process drains the queue
    # behind each request it takes.  A batch of several requests (a
    # recovery sweep notifies once per behind file) asks each source for
    # all of its files' attributes in one fs.pull_manifest RPC instead of
    # one fs.pull_open round trip per file, then runs up to pull_pipeline
    # per-file pulls concurrently.  Files the manifest cannot vouch for
    # fall back to the paper's per-file protocol.
    pull_manifest: bool = False
    merge_sequential_poll: bool = False  # ablation: poll sites one by one
    # Ablation: disable the CSS single-open-for-modification policy; with
    # replication and no global synchronization, concurrent writers diverge
    # (why the CSS exists, section 2.2.1).
    enforce_single_writer: bool = True
    # Extension the paper was investigating (section 2.3.4): "ship partial
    # pathnames to foreign sites so they can do the expansion locally,
    # avoiding remote directory opens and network transmission of directory
    # pages" — resuming at each site-change, since "the SS for each
    # intermediate directory could be different".
    pathname_shipping: bool = False
    msg_header_bytes: int = 64      # wire overhead per message

    # Remote-operation supervision: one switch, two arms.  Off is the paper:
    # bare remote calls (section 2.3.2), any mid-call failure surfaces to
    # the caller, and cleanup applies the section 5.6 failure-action table
    # as written (T16's unsupervised arm measures this).  On, the default,
    # is supervised and exactly-once: remote calls get the RPC_TIMEOUT
    # backstop and bounded deterministic exponential backoff; the US read
    # path fails over to another pack copy when its SS dies mid-call ("the
    # system will substitute a different copy"); and every mutating RPC
    # (commit, create, css_open/close) carries a ``(client_id, op_seq)``
    # stamp the CSS and SS deduplicate against a per-client idempotency
    # ledger, so a retry whose first attempt already applied replays the
    # recorded reply.  That makes the write path safe to retry, lets an
    # open-for-write re-home to a surviving replica (the pages staged on
    # the handle are re-staged there), and retires the merge conflict
    # window: the CSS refuses writer opens with EWOULDCONFLICT while a file
    # is queued for reconciliation.  Fault-free runs are byte-identical
    # either way: no retry, replay or refusal fires, timeouts are cancelled
    # without advancing the clock, and stamps ride header slots excluded
    # from the wire-size model.
    supervise_remote_ops: bool = True

    # Anti-entropy scrub (ISSUE 9).  After a partition merge or recovery
    # sweep, each CSS sweeps the filegroups it synchronizes: every pack
    # holder returns a batched (version vector, content digest) summary
    # over one fs.scrub_digest RPC, and mismatches are classified and
    # repaired — a dominated copy is pulled up to date through the normal
    # propagation machinery, equal-vv digest skew is flagged as a conflict
    # (or re-merged, for directories), and a copy a pack stores without
    # advertising is retired.  The scrub only ever runs after a heal or
    # merge, never in fault-free steady state, so flag-off runs are
    # byte-identical when no fault fires.
    scrub_enabled: bool = True

    def message_delay(self, nbytes: int) -> float:
        """Wire time for a message carrying ``nbytes`` of payload."""
        return self.net_latency + (nbytes + self.msg_header_bytes) * self.net_per_byte

    def with_overrides(self, **kw) -> "CostModel":
        """Return a copy with the given fields replaced."""
        return replace(self, **kw)

    @classmethod
    def parse_flags(cls, spec: str) -> dict:
        """Field overrides from a ``name=value,...`` string, the syntax of
        the CI matrix's ``LOCUS_COST_FLAGS``.  A bare name means on; an
        unknown name fails loudly."""
        defaults = cls()
        out = {}
        for part in spec.split(","):
            key, __, val = part.strip().partition("=")
            if not key:
                continue
            key, val = key.strip(), (val.strip() or "1")
            current = getattr(defaults, key)
            if isinstance(current, bool):
                out[key] = val.lower() in ("1", "true", "yes", "on")
            elif isinstance(current, int):
                out[key] = int(val)
            else:
                out[key] = float(val)
        return out


@dataclass
class ClusterConfig:
    """Static configuration for building a :class:`~repro.core.cluster.LocusCluster`."""

    n_sites: int = 3
    seed: int = 0
    cost: CostModel = field(default_factory=CostModel)
    # Event-loop scheduler: "fast" (sim/simulator.py: a heap of tuples plus
    # a ready deque, the default) or "reference" (sim/legacy.py: the original
    # heap of event objects, which the kernel tests and T18 compare against).
    # Both produce the identical event schedule; they differ only in
    # wall-clock throughput.
    sim_kernel: str = "fast"
    # Sites holding a physical container (pack) of the root filegroup.
    # ``None`` means every site stores a pack, the fully replicated default.
    root_pack_sites: "list[int] | None" = None

    def resolved_root_packs(self) -> "list[int]":
        if self.root_pack_sites is None:
            return list(range(self.n_sites))
        return list(self.root_pack_sites)
