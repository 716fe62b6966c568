"""Ablations of the design choices DESIGN.md calls out.

A1  Readahead on sequential network reads (section 2.3.3) on/off.
A2  Delta propagation ("which explicit logical pages were modified",
    section 2.3.6) vs whole-file pulls.
A3  Asynchronous vs sequential merge polling (section 5.5: "sequential
    polling results in a large additive delay").
"""

import pytest

from repro import CostModel, LocusCluster
from _harness import Measure, print_table, run_experiment


def _sequential_read_time(cost: CostModel, think: float = 25.0):
    """A scanning application: read a page, compute on it (think time),
    read the next — the pattern readahead exists for."""
    cluster = LocusCluster(n_sites=2, seed=150, cost=cost)
    psz = cluster.config.cost.page_size
    sh1 = cluster.shell(1)
    sh1.write_file("/stream", b"s" * (16 * psz))
    cluster.settle()
    sh0 = cluster.shell(0)
    site0 = cluster.site(0)
    t0 = cluster.sim.now
    fd = sh0.open("/stream")
    for __ in range(16):
        sh0.read(fd, psz)
        cluster.call(0, site0.cpu(think))   # process the page
    sh0.close(fd)
    return cluster.sim.now - t0


def _propagation_traffic(delta: bool):
    cluster = LocusCluster(n_sites=3, seed=151,
                           cost=CostModel(delta_propagation=delta))
    psz = cluster.config.cost.page_size
    sh = cluster.shell(0)
    sh.setcopies(3)
    sh.write_file("/big", b"0" * (32 * psz))
    cluster.settle()
    m = Measure(cluster)
    fd = sh.open("/big", "w")
    sh.pwrite(fd, 0, b"x" * 32)    # one page of 32 touched
    sh.close(fd)
    cluster.settle()
    return m.done()["by_type"].get("fs.pull_read", 0)


def _merge_time(sequential: bool, n_sites: int = 8, far_latency: float = 30.0):
    """Virtual time of the merge run the heal starts at site 0, from the
    heal until it concludes.  The later merges a heal may start (a site
    left out re-merged, bounded) are the same in both arms and not timed."""
    cluster = LocusCluster(
        n_sites=n_sites, seed=152, root_pack_sites=[0, 1],
        cost=CostModel(merge_sequential_poll=sequential))
    # A spread-out network: every pair separated by a slow link.
    for a in range(n_sites):
        for b in range(n_sites):
            if a != b:
                cluster.net.extra_latency[(a, b)] = far_latency
    cluster.partition({0}, set(range(1, n_sites)))
    topo = cluster.site(0).topology
    run_merge, ends = topo._run_merge, []

    def timed():
        result = yield from run_merge()
        ends.append(cluster.sim.now)
        return result

    topo._run_merge = timed
    t0 = cluster.sim.now
    cluster.heal(merge_from=0)
    return ends[0] - t0


def _divergence_after_concurrent_writers(enforce: bool):
    """Two sites open the same replicated file for modification at once;
    count the divergent (mutually inconsistent) files afterwards."""
    from repro.errors import EBUSY
    from repro.tools import fsck
    cluster = LocusCluster(n_sites=2, seed=153,
                           cost=CostModel(enforce_single_writer=enforce))
    sh0, sh1 = cluster.shell(0), cluster.shell(1)
    sh0.setcopies(2)
    sh0.write_file("/hot", b"base")
    cluster.settle()
    refused = 0
    fd0 = sh0.open("/hot", "w")
    sh0.pwrite(fd0, 0, b"writer-zero")
    try:
        fd1 = sh1.open("/hot", "w")
        sh1.pwrite(fd1, 0, b"writer-one!")
        sh1.close(fd1)
    except EBUSY:
        refused = 1
    sh0.close(fd0)
    cluster.settle()
    conflicts = len(fsck(cluster).version_conflicts)
    return conflicts, refused


def _pathname_messages(shipping: bool, depth: int = 6):
    """Messages to resolve a deep path whose directories all live remotely."""
    cluster = LocusCluster(n_sites=2, seed=154, root_pack_sites=[1],
                           cost=CostModel(pathname_shipping=shipping))
    sh1 = cluster.shell(1)
    path = ""
    for i in range(depth):
        path += f"/s{i}"
        sh1.mkdir(path)
    sh1.write_file(path + "/leaf", b"x")
    cluster.settle()
    fs0 = cluster.site(0).fs
    m = Measure(cluster)
    cluster.call(0, fs0.resolve_gfile(None, path + "/leaf"))
    return m.done()["messages"]


def _experiment():
    ra_on = _sequential_read_time(CostModel())
    ra_off = _sequential_read_time(CostModel(readahead_max=0))
    pulls_delta = _propagation_traffic(True)
    pulls_full = _propagation_traffic(False)
    merge_async = _merge_time(False)
    merge_seq = _merge_time(True)
    conflicts_on, refused_on = _divergence_after_concurrent_writers(True)
    conflicts_off, __ = _divergence_after_concurrent_writers(False)
    ship_on = _pathname_messages(True)
    ship_off = _pathname_messages(False)
    return {
        "ra_on": ra_on, "ra_off": ra_off,
        "pulls_delta": pulls_delta, "pulls_full": pulls_full,
        "merge_async": merge_async, "merge_seq": merge_seq,
        "conflicts_on": conflicts_on, "refused_on": refused_on,
        "conflicts_off": conflicts_off,
        "ship_on": ship_on, "ship_off": ship_off,
    }


@pytest.mark.benchmark(group="ablations")
def test_ablations(benchmark):
    out = run_experiment(benchmark, _experiment)
    print_table(
        "Ablations",
        ["design choice", "as designed", "ablated", "ablated/designed"],
        [
            ["A1 readahead (16-page remote scan, vtime)",
             out["ra_on"], out["ra_off"], out["ra_off"] / out["ra_on"]],
            ["A2 delta propagation (pages pulled, 1/32 dirty)",
             out["pulls_delta"], out["pulls_full"],
             out["pulls_full"] / max(1, out["pulls_delta"])],
            ["A3 async merge polling (8 slow sites, vtime)",
             out["merge_async"], out["merge_seq"],
             out["merge_seq"] / out["merge_async"]],
            ["A4 CSS single-writer policy (divergent files)",
             out["conflicts_on"], out["conflicts_off"],
             float(out["conflicts_off"] - out["conflicts_on"])],
            ["A5 pathname shipping (msgs, 7-deep remote path)",
             out["ship_on"], out["ship_off"],
             out["ship_off"] / max(1, out["ship_on"])],
        ])
    # Readahead overlaps wire time with processing on sequential scans.
    assert out["ra_off"] > 1.2 * out["ra_on"]
    # Delta propagation pulls 2 pages (one per lagging copy) instead of 64.
    assert out["pulls_delta"] == 2
    assert out["pulls_full"] == 64
    # Asynchronous polling dominates on spread-out networks.
    assert out["merge_seq"] > 2 * out["merge_async"]
    # With the CSS policy: second writer refused, no divergence.  Without
    # it: concurrent writers leave mutually inconsistent copies *within*
    # one partition — the complexity the CSS exists to prevent.
    assert out["conflicts_on"] == 0 and out["refused_on"] == 1
    assert out["conflicts_off"] >= 1
    # Pathname shipping (the extension section 2.3.4 was investigating)
    # avoids the per-component directory page traffic.
    assert out["ship_on"] < out["ship_off"] / 2
