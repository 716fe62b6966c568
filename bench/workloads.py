"""The four benchmark workloads: inputs, drivers, correctness checks.

Every workload is a class with the same four steps, called by
``bench/round.py`` in this order:

* ``__init__(seed, scale)`` — generate every input from the seed (op lists,
  think times, targets); the program only ever sees generated inputs;
* ``setup()`` — build the cluster with untouched ``CostModel()`` /
  ``ClusterConfig()`` defaults, populate it, settle;
* ``window()`` — the measured part, nothing else runs inside it;
* ``verify()`` — count outputs that are wrong (must be 0).

``window()`` fills ``self.lat`` (virtual-time latency of every client op),
``self.errors`` (ops that raised ``LocusError``), ``self.failed`` (those of
them the inputs did not call for: all, except under injected faults) and
``self.wrong``, and sums the deterministic per-layer counters that
``counters.py`` reads from the program's public stats.

Sizes are chosen so one round takes 4-11 s of host time at the commit that
added the benchmark (see README.md); ``scale`` divides every count
(``--quick`` uses 10).
"""

from __future__ import annotations

import hashlib
import json
import random
import time
from bisect import bisect
from contextlib import contextmanager
from itertools import accumulate

from repro import LocusCluster
from repro.errors import EBUSY, LocusError
from repro.fs.scrub import committed_digest
from repro.fs.types import ROOT_GFS
from repro.fuzz import FuzzPlan, run_plan
from repro.tools.fsck import fsck

import counters
from freeze_corpus import CORPUS

PAGE = 1024


def content(seed: int, tag: int, size: int) -> bytes:
    """File content as a pure function of (seed, tag): every page differs,
    so a misplaced page or a stale replica cannot compare equal."""
    out = bytearray()
    block = 0
    while len(out) < size:
        out += hashlib.sha256(b"%d:%d:%d" % (seed, tag, block)).digest()
        block += 1
    return bytes(out[:size])


class Zipf:
    """Zipf(s) sampler over ``items``; ranks are assigned by a seeded
    shuffle so the hot set is spread over directories."""

    def __init__(self, rng: random.Random, items, s: float = 1.1):
        self.items = list(items)
        rng.shuffle(self.items)
        self.cum = list(accumulate(1.0 / rank ** s
                                   for rank in range(1, len(self.items) + 1)))

    def pick(self, rng: random.Random):
        return self.items[bisect(self.cum, rng.random() * self.cum[-1])]


def exact_mix(rng: random.Random, mix, n: int) -> list:
    """``n`` kinds in shuffled order, in exactly the proportions of
    ``((kind, weight), ...)`` (largest remainder).  Drawing each kind at
    random instead would move a run's cost by several percent from seed to
    seed with nothing to learn from it."""
    total = sum(w for __, w in mix)
    counts = [n * w // total for __, w in mix]
    by_remainder = sorted(range(len(mix)),
                          key=lambda i: -(n * mix[i][1] % total))
    for i in by_remainder[:n - sum(counts)]:
        counts[i] += 1
    kinds = [kind for (kind, __), c in zip(mix, counts) for __ in range(c)]
    rng.shuffle(kinds)
    return kinds


class Workload:
    """Shared bookkeeping; see the module docstring for the protocol."""

    name = ""
    op = ""     # what one "op" is; copied into the result file

    def __init__(self, seed: int, scale: int = 1, layers: bool = False,
                 profile=None):
        self.seed = seed
        self.scale = scale
        self.layers = layers    # also run the blame table + space census
        self.profile = profile  # cProfile.Profile enabled inside the window
        self.planned_ops = 0    # ops one round will attempt
        self.lat = []           # virtual-time latency per attempted op
        self.errors = 0         # ops that raised LocusError
        self.failed = 0         # ... that the inputs did not call for
        self.wrong = 0          # outputs that failed the correctness check
        self.window_s = 0.0     # host seconds inside the window
        self.window_vt = 0.0    # virtual time inside the window
        self.fingerprint = ""   # must repeat exactly, like the counters
        self.counts = counters.Counts()

    def scaled(self, n: int) -> int:
        return max(1, n // self.scale)

    def setup(self) -> None:
        raise NotImplementedError

    def window(self) -> None:
        raise NotImplementedError

    def verify(self) -> None:
        pass

    @contextmanager
    def measured(self):
        """The measured window: host clock (and profiler, on a traced
        round) run only inside it."""
        if self.profile is not None:
            self.profile.enable()
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.window_s += time.perf_counter() - t0
            if self.profile is not None:
                self.profile.disable()

    def collect(self, cluster, before=None, first_span: int = 0) -> None:
        """Add one cluster's counter delta since ``before``."""
        self.counts.add(counters.read(cluster), before)
        if self.layers:
            self.counts.add(counters.blame(cluster, first_span))
            self.counts.add(counters.space(cluster))

    # -- helpers for the closed-loop workloads ---------------------------

    def _run_closed_loop(self, cluster, clients) -> None:
        """Spawn one kernel task per client, run to quiescence, and take
        the counter delta of exactly that window."""
        before = counters.read(cluster)
        first_span = len(cluster.tracer.spans)
        vt0 = cluster.sim.now
        with self.measured():
            for site_id, gen in clients:
                cluster.spawn(site_id, gen, name=f"bench-client@{site_id}")
            cluster.settle(max_time=10_000_000.0)
        self.window_vt = cluster.sim.now - vt0
        self.collect(cluster, before, first_span)

    def _client(self, cluster, api, ops, execute):
        """One closed-loop client: think, issue, wait for completion."""
        sim = cluster.sim
        lat = self.lat
        for think, op in ops:
            yield think
            start = sim.now
            try:
                ok = yield from execute(api, op)
                if not ok:
                    self.wrong += 1
            except LocusError:
                self.errors += 1
                self.failed += 1
            lat.append(sim.now - start)


# ----------------------------------------------------------------------
# fs_read_zipf
# ----------------------------------------------------------------------

class FsReadZipf(Workload):
    name = "fs_read_zipf"
    op = "one client operation (read_file, stat, readdir or open+pread+close)"

    N_SITES = 5
    PACK_SITES = [0, 1]
    CLIENTS_PER_SITE = 2
    DIRS = 12
    FILES_PER_DIR = 40
    FILE_PAGES = 3
    OPS_PER_CLIENT = 300
    MIX = (("read_file", 50), ("stat", 30), ("readdir", 10), ("pread", 10))

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        self.dirs = [f"/w/d{d}/sub" for d in range(self.DIRS)]
        n_files = self.scaled(self.FILES_PER_DIR)
        self.names = [f"f{f:03d}" for f in range(n_files)]
        self.files = {f"{d}/{n}": content(seed, i, self.FILE_PAGES * PAGE)
                      for i, (d, n) in enumerate(
                          (d, n) for d in self.dirs for n in self.names)}
        self.client_ops = []
        n_ops = self.scaled(self.OPS_PER_CLIENT)
        zipf = Zipf(random.Random(f"{seed}:{self.name}:rank"),
                    sorted(self.files))
        for site in range(self.N_SITES):
            for lane in range(self.CLIENTS_PER_SITE):
                rng = random.Random(f"{seed}:{self.name}:{site}:{lane}")
                ops = []
                for kind in exact_mix(rng, self.MIX, n_ops):
                    if kind == "readdir":
                        target = rng.choice(self.dirs)
                    else:
                        target = zipf.pick(rng)
                    page = rng.randrange(self.FILE_PAGES)
                    ops.append((rng.uniform(0.0, 10.0),
                                (kind, target, page)))
                self.client_ops.append((site, ops))
        self.planned_ops = sum(len(ops) for __, ops in self.client_ops)

    def setup(self):
        self.cluster = cluster = LocusCluster(
            n_sites=self.N_SITES, seed=self.seed,
            root_pack_sites=self.PACK_SITES)
        sh = cluster.shell(0)
        sh.mkdir("/w")
        for d in self.dirs:
            sh.mkdir(d.rsplit("/", 1)[0])
            sh.mkdir(d)
        for path, data in self.files.items():
            sh.write_file(path, data)
        cluster.settle()

    def _execute(self, api, op):
        kind, target, page = op
        if kind == "read_file":
            data = yield from api.read_file(target)
            return data == self.files[target]
        if kind == "stat":
            attrs = yield from api.stat(target)
            return attrs["size"] == self.FILE_PAGES * PAGE
        if kind == "readdir":
            names = yield from api.readdir(target)
            return sorted(n for n in names
                          if n not in (".", "..")) == self.names
        fd = yield from api.open(target, "r")
        try:
            data = yield from api.pread(fd, page * PAGE, PAGE)
        finally:
            yield from api.close(fd)
        return data == self.files[target][page * PAGE:(page + 1) * PAGE]

    def window(self):
        cluster = self.cluster
        clients = [(site, self._client(cluster, cluster.shell(site).api, ops,
                                       self._execute))
                   for site, ops in self.client_ops]
        self._run_closed_loop(cluster, clients)

    def verify(self):
        if not fsck(self.cluster).clean:
            self.wrong += 1


# ----------------------------------------------------------------------
# fs_write_replicated
# ----------------------------------------------------------------------

class FsWriteReplicated(Workload):
    name = "fs_write_replicated"
    op = ("one client operation (create+write_file, in-place pwrite, "
          "create+rename or read_file)")

    N_SITES = 5
    PACK_SITES = [0, 1, 2]
    COPIES = 3
    CLIENTS_PER_SITE = 2
    SHARED_DIRS = 8
    SHARED_PER_DIR = 20
    SHARED_PAGES = 2
    OPS_PER_CLIENT = 200
    # No unlink: a freed inode number is reused with a version vector that
    # restarts at the same value, so replicas still holding the deleted
    # file's pages skip the pull and keep stale bytes (README, "Excluded").
    MIX = (("create", 45), ("inplace", 30), ("rename", 12), ("read", 13))
    SIZES = (512, 2048, 8192)
    SUBDIRS = 6                 # per client, so no directory grows long
    PATCH = 256                 # bytes written by one in-place update
    BUSY_RETRIES = 20
    BUSY_BACKOFF = 25.0         # virtual time, times the attempt number

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        per_dir = self.scaled(self.SHARED_PER_DIR)
        self.shared = {f"/s/d{d}/f{f:02d}":
                       content(seed, d * 1000 + f, self.SHARED_PAGES * PAGE)
                       for d in range(self.SHARED_DIRS)
                       for f in range(per_dir)}
        self.shared_paths = sorted(self.shared)
        self.client_ops = []
        n_ops = self.scaled(self.OPS_PER_CLIENT)
        zipf = Zipf(random.Random(f"{seed}:{self.name}:rank"),
                    self.shared_paths)
        tag = 1_000_000
        for site in range(self.N_SITES):
            for lane in range(self.CLIENTS_PER_SITE):
                rng = random.Random(f"{seed}:{self.name}:{site}:{lane}")
                home = f"/p/c{site}{lane}"
                sizes = exact_mix(rng, [(size, 1) for size in self.SIZES],
                                  n_ops)
                ops = []
                for i, kind in enumerate(exact_mix(rng, self.MIX, n_ops)):
                    tag += 1
                    if kind == "inplace":
                        off = rng.randrange(
                            self.SHARED_PAGES * PAGE - self.PATCH)
                        op = (kind, zipf.pick(rng), off,
                              content(seed, tag, self.PATCH))
                    elif kind == "read":
                        op = (kind, rng.random())
                    else:
                        op = (kind, f"{home}/k{i % self.SUBDIRS}/n{i:04d}",
                              content(seed, tag, sizes[i]))
                    ops.append((rng.uniform(0.0, 10.0), op))
                self.client_ops.append((site, home, ops))
        self.planned_ops = sum(len(ops) for __, __, ops in self.client_ops)
        # Expected state.  ``private`` maps path -> content for files only
        # one client touches; ``patches`` logs successful in-place updates
        # of shared files in CSS order; ``unsure`` holds paths whose op
        # failed half-way, so the model cannot vouch for them.
        self.private = {}
        self.patches = {path: [] for path in self.shared}
        self.unsure = set()

    def setup(self):
        self.cluster = cluster = LocusCluster(
            n_sites=self.N_SITES, seed=self.seed,
            root_pack_sites=self.PACK_SITES)
        sh = cluster.shell(0)
        sh.setcopies(self.COPIES)
        sh.mkdir("/s")
        sh.mkdir("/p")
        for d in range(self.SHARED_DIRS):
            sh.mkdir(f"/s/d{d}")
        for __, home, __ in self.client_ops:
            sh.mkdir(home)
            for k in range(self.SUBDIRS):
                sh.mkdir(f"{home}/k{k}")
        for path, data in self.shared.items():
            sh.write_file(path, data)
        cluster.settle()

    def _execute(self, api, op, owned):
        kind = op[0]
        if kind == "read":
            # Read back one of this client's own files: the newest commit
            # must be visible at once, from whichever replica serves it.
            if not owned:       # nothing written yet: any shared file
                path = self.shared_paths[int(op[1] * len(self.shared))]
                data = yield from api.read_file(path)
                return len(data) == self.SHARED_PAGES * PAGE
            path = owned[int(op[1] * len(owned))]
            data = yield from api.read_file(path)
            return data == self.private[path]
        if kind == "inplace":
            __, path, off, patch = op
            fd = yield from self._open_for_write(api, path)
            # The CSS admits one writer at a time, so the order in which
            # opens return is the order in which the updates commit.
            self.patches[path].append((off, patch))
            try:
                try:
                    yield from api.pwrite(fd, off, patch)
                finally:
                    yield from api.close(fd)
            except LocusError:
                self.unsure.add(path)
                raise
            return True
        __, path, data = op
        try:
            yield from api.write_file(path, data)
            if kind == "rename":
                final = path + ".r"
                yield from api.rename(path, final)
                path = final
        except LocusError:
            self.unsure.update((path, path + ".r"))
            raise
        self.private[path] = data
        owned.append(path)
        return True

    def _open_for_write(self, api, path):
        """The CSS refuses a second writer with EBUSY; like a program
        waiting on a lock file, the client backs off and asks again, so
        contention shows as latency and no op fails."""
        for attempt in range(1, self.BUSY_RETRIES + 1):
            try:
                fd = yield from api.open(path, "w")
                return fd
            except EBUSY:
                self.counts.raw["fs.writer_refusals"] += 1
                yield self.BUSY_BACKOFF * attempt
        fd = yield from api.open(path, "w")
        return fd

    def window(self):
        cluster = self.cluster
        clients = []
        for site, __, ops in self.client_ops:
            api = cluster.shell(site).api
            api.setcopies(self.COPIES)
            owned = []
            clients.append((site, self._client(
                cluster, api, ops,
                lambda api, op, owned=owned: self._execute(api, op, owned))))
        # The window closes at quiescence, so every propagation pull the
        # writes caused is inside it.
        self._run_closed_loop(cluster, clients)

    def verify(self):
        cluster = self.cluster
        if not fsck(cluster).clean:
            self.wrong += 1
        # Every replica of every live file is byte-identical.
        packs = [cluster.site(s).packs[ROOT_GFS] for s in self.PACK_SITES]
        for ino in sorted({i for p in packs for i in p.inodes}):
            copies = [(p.inodes[ino].version, committed_digest(p, ino))
                      for p in packs
                      if ino in p.inodes and p.stores(ino)]
            if any(c != copies[0] for c in copies[1:]):
                self.wrong += 1
        # Every file the model can vouch for reads back as expected, from
        # a site that stores nothing.
        sh = cluster.shell(self.N_SITES - 1)
        expected = dict(self.private)
        for path, data in self.shared.items():
            buf = bytearray(data)
            for off, patch in self.patches[path]:
                buf[off:off + len(patch)] = patch
            expected[path] = bytes(buf)
        for path in sorted(set(expected) - self.unsure):
            if sh.read_file(path) != expected[path]:
                self.wrong += 1


# ----------------------------------------------------------------------
# rpc_storm
# ----------------------------------------------------------------------

class RpcStorm(Workload):
    name = "rpc_storm"
    op = "one bench.ping RPC round trip"

    N_SITES = 12
    PACK_SITES = [0, 1]
    TASKS_PER_SITE = 250
    ROUNDS = 20
    HEARTBEATS = 200
    MAX_PAD = 256               # a ping carries 0..MAX_PAD bytes, echoed

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        self.tasks = self.scaled(self.TASKS_PER_SITE)
        rng = random.Random(f"{seed}:{self.name}")
        # (think time, payload bytes, handler cpu) of each ping, per site /
        # lane / round.
        self.pings = [[[(50.0 + rng.random() * 25.0,
                         rng.randrange(self.MAX_PAD + 1),
                         0.2 + rng.random() * 0.2)
                        for __ in range(self.ROUNDS)]
                       for __ in range(self.tasks)]
                      for __ in range(self.N_SITES)]
        self.planned_ops = self.N_SITES * self.tasks * self.ROUNDS
        self.pad = content(seed, -1, self.MAX_PAD)
        self.marker = {s: content(seed, s, 64) for s in range(self.N_SITES)}

    def setup(self):
        self.cluster = cluster = LocusCluster(
            n_sites=self.N_SITES, seed=self.seed,
            root_pack_sites=self.PACK_SITES)
        sites = cluster.sites

        def ping(src, payload):
            yield from sites[payload["dst"]].cpu(payload["work"])
            return {"n": payload["n"], "from": payload["dst"],
                    "pad": payload["pad"]}

        for site in sites:
            site.register_handler("bench.ping", ping)
            # One file per site, so the post-storm read-back means something.
            cluster.shell(site.site_id).write_file(
                f"/storm-{site.site_id}", self.marker[site.site_id])
        cluster.settle()

    def _chatter(self, site, lane, pings):
        sim = self.cluster.sim
        me, n = site.site_id, self.N_SITES
        lat = self.lat
        for i, (pause, pad, work) in enumerate(pings):
            yield pause
            peer = (me + lane + i) % n
            if peer == me:
                peer = (peer + 1) % n
            pad = self.pad[:pad]
            start = sim.now
            try:
                reply = yield from site.rpc(
                    peer, "bench.ping",
                    {"n": i, "dst": peer, "pad": pad, "work": work})
                if reply != {"n": i, "from": peer, "pad": pad}:
                    self.wrong += 1
            except LocusError:
                self.errors += 1
                self.failed += 1
            lat.append(sim.now - start)

    def _heartbeat(self, site):
        for __ in range(self.HEARTBEATS):
            yield 7.0
            site.cpu_used += 0.01

    def window(self):
        clients = []
        for site in self.cluster.sites:
            for lane in range(self.tasks):
                clients.append((site.site_id, self._chatter(
                    site, lane, self.pings[site.site_id][lane])))
            clients.append((site.site_id, self._heartbeat(site)))
        self._run_closed_loop(self.cluster, clients)

    def verify(self):
        for site_id, data in self.marker.items():
            if self.cluster.shell(site_id).read_file(
                    f"/storm-{site_id}") != data:
                self.wrong += 1


# ----------------------------------------------------------------------
# chaos_fuzz
# ----------------------------------------------------------------------

class ChaosFuzz(Workload):
    name = "chaos_fuzz"
    op = "one client operation of a fuzz plan (40 per plan)"

    STRATUM = 6     # the seed leaves out one plan of every STRATUM

    def __init__(self, seed, **kw):
        super().__init__(seed, **kw)
        with open(CORPUS) as fh:
            corpus = json.load(fh)["plans"]
        # Plans differ 8x in cost, and the heaviest few move a third of all
        # bytes, so a plain random subset would move every metric by 5-10%
        # from seed to seed.  Sort by cost at the freeze and leave out one
        # plan of every STRATUM neighbours, except among the heaviest, which
        # all run: each seed gets a different but equally heavy batch.
        corpus.sort(key=lambda e: (e["events_at_freeze"], e["source_seed"]))
        rng = random.Random(f"{seed}:{self.name}")
        picked = corpus[-self.STRATUM:]
        for i in range(0, len(corpus) - self.STRATUM, self.STRATUM):
            stratum = corpus[i:i + self.STRATUM]
            stratum.pop(rng.randrange(len(stratum)))
            picked += stratum
        rng.shuffle(picked)
        picked = picked[:self.scaled(len(picked))]
        self.plans = [FuzzPlan.from_dict(e["plan"]) for e in picked]
        self.planned_ops = sum(len(plan.ops) for plan in self.plans)
        self.digest = hashlib.sha1()

    def setup(self):
        pass    # a fuzz user pays cluster construction per scenario

    def window(self):
        for plan in self.plans:
            with self.measured():
                result = run_plan(plan)
            run = result.run
            self.lat += [rec.end - rec.start for rec in run.oplog]
            # An op refused while a fault is in force is a specified
            # outcome, which the oracle judges; it lowers ok_share.  An op
            # of a plan the oracle rejects has failed.
            self.errors += sum(1 for rec in run.oplog if not rec.ok)
            if not result.ok or len(run.oplog) != len(plan.ops):
                self.wrong += 1
                self.failed += len(plan.ops)
            self.digest.update(result.digest().encode())
            self.window_vt += run.cluster.sim.now
            self.collect(run.cluster)
        self.fingerprint = self.digest.hexdigest()


WORKLOADS = {w.name: w for w in (FsReadZipf, FsWriteReplicated, RpcStorm,
                                 ChaosFuzz)}
