"""Concurrent fuzzing: many in-flight kernel tasks, random operations,
no per-op quiesce — then global invariants once the dust settles.

Unlike the sequential model suite (exact output matching), this harness
lets operations overlap, so individual outcomes are timing-dependent; the
assertions are the system invariants: nothing wedges, nothing corrupts,
every copy converges, and fsck comes back clean.
"""

import random

import pytest

from repro import LocusCluster, Mode
from repro.errors import LocusError
from repro.storage.version_vector import latest
from repro.tools import fsck


def _op_stream(cluster, rng, site_id, n_ops, log):
    """One site's random operation stream as a single kernel task."""
    fs = cluster.site(site_id).fs

    def stream():
        for step in range(n_ops):
            name = f"/arena/f{rng.randrange(6)}"
            kind = rng.random()
            try:
                if kind < 0.45:
                    gfile, __ = yield from fs.resolve_gfile(None, name)
                    handle = yield from fs.open_gfile(gfile, Mode.READ)
                    yield from fs.read(handle, 0, 256)
                    yield from fs.close(handle)
                    log.append("read")
                elif kind < 0.85:
                    gfile, __ = yield from fs.create_file(None, name)
                    handle = yield from fs.open_gfile(gfile, Mode.WRITE)
                    yield from fs.write(
                        handle, 0,
                        f"s{site_id} step{step}".encode().ljust(64, b"."))
                    yield from fs.close(handle)
                    log.append("write")
                else:
                    yield from fs.unlink(None, name)
                    log.append("unlink")
            except LocusError:
                log.append("error")
            yield rng.random() * 3.0

    return stream()


def _converged(cluster, gfs=0):
    """Every live file's stored copies carry a single version vector."""
    mount = cluster.sites[0].fs.mount
    all_inos = set()
    packs = {}
    for s in mount.pack_sites(gfs):
        pack = cluster.site(s).packs.get(gfs)
        if pack is not None:
            packs[s] = pack
            all_inos |= set(pack.inodes)
    for ino in all_inos:
        copies = [(s, p.get_inode(ino).version) for s, p in packs.items()
                  if p.stores(ino)]
        if len(copies) < 2:
            continue
        __, __, conflict = latest(copies)
        assert not conflict, (ino, copies)
        assert len({vv for __, vv in copies}) == 1, (ino, copies)


@pytest.mark.parametrize("seed", [31, 32, 33])
def test_concurrent_fuzz_invariants(seed):
    cluster = LocusCluster(n_sites=3, seed=seed)
    rng = random.Random(seed)
    sh = cluster.shell(0)
    sh.setcopies(3)
    sh.mkdir("/arena")
    cluster.settle()

    log = []
    for s in range(3):
        cluster.spawn(s, _op_stream(cluster, random.Random(seed + s),
                                    s, 25, log))
    cluster.settle()
    assert len(log) == 75                       # nothing wedged
    assert log.count("error") < len(log)        # and work actually happened
    report = fsck(cluster)
    assert report.clean, report.summary()
    _converged(cluster)


def test_concurrent_fuzz_with_partition_mid_stream():
    cluster = LocusCluster(n_sites=3, seed=44)
    sh = cluster.shell(0)
    sh.setcopies(3)
    sh.mkdir("/arena")
    cluster.settle()
    log = []
    for s in range(3):
        cluster.spawn(s, _op_stream(cluster, random.Random(90 + s),
                                    s, 20, log))
    cluster.sim.run(until=cluster.sim.now + 40)
    cluster.partition({0, 1}, {2}, settle=False)
    cluster.sim.run(until=cluster.sim.now + 120)
    cluster.heal()
    cluster.settle()
    assert len(log) == 60
    # Create/unlink churn spanning the merge: recovery and the scrub must
    # leave no dangling entry, link-count skew, conflict or orphan.
    report = fsck(cluster)
    assert not report.dangling_entries, report.summary()
    assert not report.nlink_errors
    assert not report.unflagged_conflicts
    assert not report.orphan_inodes