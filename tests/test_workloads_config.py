"""Workload generators and configuration objects."""

import dataclasses
import pathlib
import random
import re

import pytest

from repro import ClusterConfig, CostModel, LocusCluster, Shell
from repro.errors import EINVAL
from repro.proc.api import _TRACED_SYSCALLS
from repro.workloads.generators import (build_tree, deterministic_bytes,
                                        read_write_mix, sample_paths,
                                        zipf_weights)


class TestCostModel:
    def test_message_delay_scales_with_bytes(self):
        cost = CostModel()
        assert cost.message_delay(0) < cost.message_delay(10_000)
        assert cost.message_delay(0) == pytest.approx(
            cost.net_latency + cost.msg_header_bytes * cost.net_per_byte)

    def test_with_overrides_copies(self):
        base = CostModel()
        tweaked = base.with_overrides(readahead_max=0, disk_read=99.0)
        assert tweaked.readahead_max == 0
        assert tweaked.disk_read == 99.0
        assert base.readahead_max == 8         # original untouched
        assert base.disk_read != 99.0

    def test_defaults_calibrated_for_t2(self):
        """The 2x remote-page claim depends on this relation; lock it in."""
        cost = CostModel()
        local = cost.cpu_syscall + cost.disk_read
        remote = local + 4 * cost.cpu_msg
        assert remote / local == pytest.approx(2.0, abs=0.15)


    def test_unknown_flag_fails_loudly(self):
        """Timers and budgets that moved beside their protocol are not
        flags any more; like any unknown name they must not parse."""
        for spec in ("rpc_retries=5", "scrub_rounds=2", "no_such_knob"):
            with pytest.raises(AttributeError):
                CostModel.parse_flags(spec)


# What a unit of work costs: the paper's ratios are stated through these
# and bench/ reads them, so they are fields whether or not a test moves them.
_CALIBRATION = re.compile(
    r"cpu_|disk_|net_|(buffer_hit|page_size|buffer_pages|msg_header_bytes)$")


def test_every_setting_is_set_by_something():
    """The rule of ``config.py``: a non-calibration field exists only if a
    test, a benchmark or a CI leg sets it.  One that nothing sets is a
    constant beside the protocol that reads it, not a configuration axis
    nobody covers."""
    root = pathlib.Path(__file__).resolve().parent.parent
    corpus = "\n".join(
        path.read_text()
        for top, pattern in (("tests", "*.py"), ("benchmarks", "*.py"),
                             (".github", "*.yml"))
        for path in sorted((root / top).rglob(pattern)))
    names = [f.name for cls in (CostModel, ClusterConfig)
             for f in dataclasses.fields(cls)
             if not _CALIBRATION.match(f.name)]
    unset = [name for name in names if not re.search(
        rf"(?<![\w.]){name}\s*=(?!=)|[\"']{name}[\"']\s*:", corpus)]
    assert unset == []


def test_shell_is_derived_from_procapi():
    """``Shell`` declares no syscall of its own: its public surface is the
    traced syscall table, the three conveniences and the six plain
    per-process calls."""
    public = {name for name, attr in vars(Shell).items()
              if callable(attr) and not name.startswith("_")}
    assert public == set(_TRACED_SYSCALLS) | {
        "write_file", "read_file", "install_program",
        "getpid", "errinfo", "setcopies", "set_advice",
        "set_hidden_context", "set_hidden_visible"}


class TestClusterConfig:
    def test_resolved_root_packs_default_all(self):
        config = ClusterConfig(n_sites=4)
        assert config.resolved_root_packs() == [0, 1, 2, 3]

    def test_resolved_root_packs_explicit(self):
        config = ClusterConfig(n_sites=4, root_pack_sites=[1, 3])
        assert config.resolved_root_packs() == [1, 3]

    def test_out_of_range_pack_sites_rejected_at_build(self):
        with pytest.raises(EINVAL):
            LocusCluster(config=ClusterConfig(n_sites=2,
                                              root_pack_sites=[5]))


class TestGenerators:
    def test_deterministic_bytes_reproducible(self):
        a = deterministic_bytes(random.Random(3), 100)
        b = deterministic_bytes(random.Random(3), 100)
        assert a == b and len(a) == 100

    def test_zipf_weights_decreasing(self):
        weights = zipf_weights(10)
        assert all(x > y for x, y in zip(weights, weights[1:]))

    def test_sample_paths_favours_head(self):
        rng = random.Random(5)
        paths = [f"/p{i}" for i in range(20)]
        draws = sample_paths(rng, paths, 500)
        assert draws.count("/p0") > draws.count("/p19")

    def test_build_tree_creates_everything(self):
        cluster = LocusCluster(n_sites=2, seed=9)
        sh = cluster.shell(0)
        paths = build_tree(sh, n_dirs=2, files_per_dir=3, file_size=64)
        assert len(paths) == 6
        for path in paths:
            assert sh.stat(path)["size"] == 64

    def test_read_write_mix_counts(self):
        cluster = LocusCluster(n_sites=2, seed=9)
        sh = cluster.shell(0)
        paths = build_tree(sh, n_dirs=1, files_per_dir=4, file_size=64)
        counts = read_write_mix(sh, paths, ops=40, write_frac=0.5,
                                rng=random.Random(1))
        assert counts["reads"] + counts["writes"] == 40
        assert counts["writes"] > 5     # the mix really mixes
