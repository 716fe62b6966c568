"""Unit and property-based tests for version vectors [PARK83]."""

import pathlib
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.storage.version_vector import Ordering, VersionVector, latest


def vv(**kw):
    return VersionVector({int(k[1:]): v for k, v in kw.items()})


class TestBasics:
    def test_empty_vectors_equal(self):
        assert VersionVector().compare(VersionVector()) is Ordering.EQUAL

    def test_bump_dominates_original(self):
        a = VersionVector()
        b = a.bump(1)
        assert b.compare(a) is Ordering.DOMINATES
        assert a.compare(b) is Ordering.DOMINATED

    def test_concurrent_bumps_conflict(self):
        base = VersionVector({1: 1})
        left = base.bump(1)
        right = base.bump(2)
        assert left.compare(right) is Ordering.CONFLICT
        assert left.conflicts(right)

    def test_merge_covers_both(self):
        left = vv(s1=3, s2=1)
        right = vv(s2=4, s3=2)
        merged = left.merge(right)
        assert merged.dominates(left)
        assert merged.dominates(right)
        assert merged.to_dict() == {1: 3, 2: 4, 3: 2}

    def test_zero_entries_are_normalized_away(self):
        assert VersionVector({1: 0, 2: 3}) == vv(s2=3)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            VersionVector({1: -1})

    def test_hash_consistent_with_eq(self):
        assert hash(vv(s1=2, s2=3)) == hash(vv(s2=3, s1=2))

    def test_total(self):
        assert vv(s1=2, s5=3).total() == 5

    def test_bump_does_not_mutate(self):
        a = vv(s1=1)
        a.bump(1)
        assert a == vv(s1=1)


class TestImmutability:
    """Vectors are shared, never copied (ISSUE 14): that is only sound
    while nothing can change one after construction."""

    @given(st.dictionaries(st.integers(0, 5), st.integers(0, 8), max_size=6),
           st.dictionaries(st.integers(0, 5), st.integers(0, 8), max_size=6),
           st.integers(0, 5))
    def test_bump_and_merge_never_touch_the_receiver(self, da, db, site):
        a, b = VersionVector(da), VersionVector(db)
        before_a, before_b = a.to_dict(), b.to_dict()
        hash_a = hash(a)
        bumped, merged = a.bump(site), a.merge(b)
        assert a.to_dict() == before_a and b.to_dict() == before_b
        assert hash(a) == hash_a                       # cached, and still right
        assert hash(a) == hash(VersionVector(before_a))
        # Derived vectors are as canonical as validated ones.
        assert bumped == VersionVector(bumped.to_dict())
        assert merged == VersionVector(merged.to_dict())
        assert hash(merged) == hash(VersionVector(merged.to_dict()))
        assert bumped is not a and bumped != a

    def test_caller_keeps_its_dict(self):
        counts = {1: 2}
        a = VersionVector(counts)
        counts[1] = 99
        assert a.get(1) == 2
        a.to_dict()[1] = 99
        assert a.get(1) == 2

    def test_no_code_outside_the_module_reaches_counts(self):
        """``vv._counts`` anywhere else could mutate a shared vector; a
        class's own ``self._counts`` (obs/load.py has one) is unrelated."""
        src = pathlib.Path(__file__).resolve().parents[1] / "src" / "repro"
        offenders = [
            f"{path.relative_to(src)}:{n}"
            for path in sorted(src.rglob("*.py"))
            if path.name != "version_vector.py"
            for n, line in enumerate(path.read_text().splitlines(), 1)
            if re.search(r"(?<!\bself)\._counts\b", line)
        ]
        assert offenders == []
        assert not hasattr(VersionVector, "copy")


class TestLatest:
    def test_single_copy(self):
        sites, best, conflict = latest([(0, vv(s0=1))])
        assert sites == [0] and best == vv(s0=1) and not conflict

    def test_dominant_copy_found(self):
        newer = vv(s0=2)
        sites, best, conflict = latest([(0, vv(s0=1)), (1, newer), (2, newer)])
        assert sorted(sites) == [1, 2]
        assert best == newer
        assert not conflict

    def test_conflict_detected(self):
        __, __, conflict = latest([(0, vv(s0=1)), (1, vv(s1=1))])
        assert conflict


# -- property-based tests ---------------------------------------------------

sites_st = st.integers(min_value=0, max_value=5)
vv_st = st.dictionaries(sites_st, st.integers(min_value=0, max_value=8),
                        max_size=6).map(VersionVector)


class TestProperties:
    @given(vv_st)
    def test_reflexive_equality(self, a):
        assert a.compare(a) is Ordering.EQUAL
        assert a.dominates(a)

    @given(vv_st, vv_st)
    def test_comparison_antisymmetry(self, a, b):
        order_ab = a.compare(b)
        order_ba = b.compare(a)
        expected = {
            Ordering.EQUAL: Ordering.EQUAL,
            Ordering.DOMINATES: Ordering.DOMINATED,
            Ordering.DOMINATED: Ordering.DOMINATES,
            Ordering.CONFLICT: Ordering.CONFLICT,
        }
        assert order_ba is expected[order_ab]
        # dominates() answers without building the full comparison.
        assert a.dominates(b) is (order_ab in (Ordering.EQUAL,
                                               Ordering.DOMINATES))

    @given(vv_st, vv_st)
    def test_merge_is_upper_bound(self, a, b):
        merged = a.merge(b)
        assert merged.dominates(a)
        assert merged.dominates(b)

    @given(vv_st, vv_st)
    def test_merge_commutative(self, a, b):
        assert a.merge(b) == b.merge(a)

    @given(vv_st, vv_st, vv_st)
    def test_merge_associative(self, a, b, c):
        assert a.merge(b).merge(c) == a.merge(b.merge(c))

    @given(vv_st)
    def test_merge_idempotent(self, a):
        assert a.merge(a) == a

    @given(vv_st, sites_st)
    def test_bump_strictly_dominates(self, a, site):
        assert a.bump(site).compare(a) is Ordering.DOMINATES

    @given(vv_st, sites_st, sites_st)
    def test_divergent_bumps_conflict_or_order(self, a, s1, s2):
        """Bumps at different sites from a common ancestor conflict; bumps
        at the same site produce identical vectors (convergent histories)."""
        left = a.bump(s1)
        right = a.bump(s2)
        if s1 == s2:
            assert left == right
        else:
            assert left.conflicts(right)

    @given(vv_st, vv_st, vv_st)
    def test_dominance_transitive(self, a, b, c):
        if a.dominates(b) and b.dominates(c):
            assert a.dominates(c)

    @given(st.lists(st.tuples(sites_st, vv_st), min_size=1, max_size=6))
    def test_latest_returns_maximal(self, copies):
        sites, best, conflict = latest(copies)
        assert sites
        if not conflict:
            # The winner dominates every copy when there is no conflict.
            assert all(best.dominates(v) for _, v in copies)
