"""Pathname shipping (the section 2.3.4 extension).

"Another strategy for pathname searching is to ship partial pathnames to
foreign sites so they can do the expansion locally, avoiding remote
directory opens and network transmission of directory pages ... more
complex in the general case because the SS for each intermediate directory
could be different."
"""

import pytest

from repro import CostModel, LocusCluster
from repro.errors import ENOENT, ENOTDIR
from repro.net.stats import StatsWindow

DEPTH = 5


def build_cluster(shipping: bool, root_packs=None):
    cluster = LocusCluster(n_sites=3, seed=107,
                           root_pack_sites=root_packs,
                           cost=CostModel(pathname_shipping=shipping))
    return cluster


def deep_tree(shell, cluster):
    path = ""
    for i in range(DEPTH):
        path += f"/d{i}"
        shell.mkdir(path)
    shell.write_file(path + "/leaf", b"the payload")
    cluster.settle()
    return path + "/leaf"


class TestShippedResolution:
    def test_same_results_as_interrogation(self):
        plain = build_cluster(False)
        shipped = build_cluster(True)
        for cluster in (plain, shipped):
            sh = cluster.shell(1)     # dirs will live at site 1
            leaf = deep_tree(sh, cluster)
            reader = cluster.shell(0)
            assert reader.read_file(leaf) == b"the payload"
            assert reader.readdir("/d0/d1") == ["d2"]
            with pytest.raises(ENOENT):
                reader.read_file("/d0/missing")
            with pytest.raises(ENOTDIR):
                reader.read_file(leaf + "/below-a-file")
        # Error inputs, resolved at a diskless site so that with shipping
        # on every lookup error is raised at the serving site and travels
        # back as the RPC's error.
        outcomes = {}
        for shipping in (False, True):
            cluster = build_cluster(shipping, root_packs=[1])
            admin = cluster.shell(1)
            leaf = deep_tree(admin, cluster)
            admin.mkdir("/cmd", hidden=True)
            admin.set_hidden_visible(True)
            admin.write_file("/cmd/pdp11", b"pdp module")
            cluster.settle()
            fs0 = cluster.site(0).fs
            vax = cluster.shell(0).proc   # site 0 is a vax: no context match
            got = []
            for path in ("/d0/missing/d2/leaf",        # missing middle
                         leaf + "/below-a-file",       # file as directory
                         "/cmd/file",                  # hidden, no match
                         "/d0/d1/new-name",            # missing leaf
                         leaf):
                try:
                    got.append(cluster.call(0, fs0.walk(vax, path)))
                except (ENOENT, ENOTDIR) as exc:
                    got.append(type(exc))
            outcomes[shipping] = got
        assert outcomes[True] == outcomes[False]
        assert outcomes[False][:3] == [ENOENT, ENOTDIR, ENOENT]
        parent, name, found = outcomes[False][3]
        assert (name, found) == ("new-name", None) and parent is not None

    def test_shipping_sends_fewer_messages_on_deep_remote_paths(self):
        """The whole point: one shipped request replaces per-component
        directory page traffic."""
        results = {}
        for shipping in (False, True):
            cluster = build_cluster(shipping, root_packs=[1])
            sh1 = cluster.shell(1)
            leaf = deep_tree(sh1, cluster)
            reader = cluster.site(0).fs
            win = StatsWindow(cluster.stats)
            gfile, __ = cluster.call(0, reader.resolve_gfile(None, leaf))
            results[shipping] = win.close().total_messages
        assert results[True] < results[False] / 2, results

    def test_shipped_hidden_directory_uses_callers_context(self):
        """The shipped expansion must match against the *caller's* context,
        not the serving site's machine type."""
        cluster = build_cluster(True)
        cluster.set_cpu_type(1, "pdp11")
        admin = cluster.shell(1)       # dirs stored at site 1 (pdp11)
        admin.mkdir("/cmd", hidden=True)
        admin.set_hidden_visible(True)
        admin.write_file("/cmd/vax", b"vax module")
        admin.write_file("/cmd/pdp11", b"pdp module")
        admin.set_hidden_visible(False)
        cluster.settle()
        vax_user = cluster.shell(0)    # site 0 is a vax
        assert vax_user.read_file("/cmd") == b"vax module"

    def test_shipping_across_filegroup_mounts(self):
        cluster = build_cluster(True)
        sh = cluster.shell(0)
        sh.mkdir("/usr")
        cluster.add_filegroup("usr", pack_sites=[1, 2], mount_at="/usr")
        cluster.settle()
        sh.mkdir("/usr/deep")
        sh.write_file("/usr/deep/file", b"crossed")
        cluster.settle()
        assert cluster.shell(2).read_file("/usr/deep/file") == b"crossed"

    def test_dotdot_through_shipping(self):
        cluster = build_cluster(True, root_packs=[1])
        sh1 = cluster.shell(1)
        sh1.mkdir("/a")
        sh1.mkdir("/a/b")
        sh1.write_file("/marker", b"up here")
        cluster.settle()
        assert cluster.shell(0).read_file("/a/b/../../marker") == b"up here"


def test_model_equivalence_under_shipping(monkeypatch):
    """The model-based random sequences also pass with shipping enabled."""
    import os
    import sys
    sys.path.insert(0, os.path.dirname(__file__))
    import test_model_based as M
    from repro import LocusCluster as RealCluster

    def shipped_cluster(n_sites, seed):
        return RealCluster(n_sites=n_sites, seed=seed,
                           cost=CostModel(pathname_shipping=True))

    monkeypatch.setattr(M, "LocusCluster", shipped_cluster)
    assert M._run_sequence(seed=11, n_ops=80) == 80
