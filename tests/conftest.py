"""Shared fixtures for the LOCUS reproduction test suite.

``LOCUS_COST_FLAGS`` (used by the CI matrix) applies CostModel overrides
to every cluster a test builds with the *default* cost, so the
consistency suites re-run under the optimisation flags without editing
any test.  Clusters built with an explicit CostModel keep it — tests
that pin exact message counts stay pinned.  Example::

    LOCUS_COST_FLAGS="pull_manifest=1,batch_pages=4" \
        pytest tests/
"""

import os

import pytest

from repro import LocusCluster
from repro.config import CostModel


_OVERRIDES = CostModel.parse_flags(os.environ.get("LOCUS_COST_FLAGS", ""))
if _OVERRIDES:
    _orig_init = LocusCluster.__init__

    def _flagged_init(self, n_sites=3, seed=0, cost=None, config=None,
                      root_pack_sites=None):
        if cost is None and config is None:
            cost = CostModel().with_overrides(**_OVERRIDES)
        _orig_init(self, n_sites=n_sites, seed=seed, cost=cost,
                   config=config, root_pack_sites=root_pack_sites)

    LocusCluster.__init__ = _flagged_init


@pytest.fixture
def cluster():
    """Three sites, root filegroup replicated everywhere."""
    return LocusCluster(n_sites=3, seed=7)


@pytest.fixture
def sh(cluster):
    """A shell on site 0."""
    return cluster.shell(0)


@pytest.fixture
def cluster5():
    """Five sites; root packs only on sites 0-2 (3 and 4 are diskless for
    the root filegroup, i.e. pure using sites)."""
    return LocusCluster(n_sites=5, seed=7, root_pack_sites=[0, 1, 2])
