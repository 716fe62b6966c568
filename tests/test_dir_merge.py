"""Unit and property-based tests for the directory merge algorithm
(paper section 4.4) and the mailbox merge (section 4.5)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fs.directory import DirEntry
from repro.recovery.dir_merge import merge_directories
from repro.recovery.mailbox import MailMessage, decode_mailbox, \
    encode_mailbox, merge_mailboxes
from repro.storage.inode import FileType
from repro.storage.version_vector import VersionVector


def vv(**kw):
    return VersionVector({int(k[1:]): v for k, v in kw.items()})


def live(name, ino):
    return DirEntry(name, ino, FileType.REGULAR)


def dead(name, ino, dvv=None):
    return DirEntry(name, ino, FileType.REGULAR, deleted=True,
                    dvv=dvv or VersionVector())


def names_of(entries, include_deleted=False):
    return sorted(e.name for e in entries
                  if include_deleted or not e.deleted)


class TestMergeRules:
    def test_rule_a_entry_in_one_propagates(self):
        merged, report = merge_directories(
            [[live("a", 1)], []], lambda ino: None)
        assert names_of(merged) == ["a"]

    def test_rule_b_delete_propagates(self):
        dvv_val = vv(s0=2)
        merged, __ = merge_directories(
            [[dead("a", 1, dvv_val)], [live("a", 1)]],
            lambda ino: dvv_val)          # unmodified since delete
        assert names_of(merged) == []
        assert names_of(merged, include_deleted=True) == ["a"]

    def test_rule_c_both_live_no_action(self):
        merged, report = merge_directories(
            [[live("a", 1)], [live("a", 1)]], lambda ino: None)
        assert names_of(merged) == ["a"]
        assert len(merged) == 1

    def test_rule_d_modified_since_delete_undoes_delete(self):
        tomb_vv = vv(s0=2)
        current = vv(s0=2, s1=1)          # strictly newer: modified after
        merged, report = merge_directories(
            [[dead("a", 1, tomb_vv)], [live("a", 1)]],
            lambda ino: current)
        assert names_of(merged) == ["a"]
        assert report.undone_deletes == 1

    def test_rule_d_unmodified_delete_wins(self):
        tomb_vv = vv(s0=3)
        merged, report = merge_directories(
            [[dead("a", 1, tomb_vv)], [live("a", 1)]],
            lambda ino: tomb_vv)          # same version: no modification
        assert names_of(merged) == []
        assert report.propagated_deletes == 1

    def test_rule_1_name_conflict_renames_both(self):
        merged, report = merge_directories(
            [[live("clash", 1)], [live("clash", 2)]], lambda ino: None)
        assert names_of(merged) == ["clash@1", "clash@2"]
        assert report.name_conflicts

    def test_three_way_name_conflict(self):
        merged, __ = merge_directories(
            [[live("x", 1)], [live("x", 2)], [live("x", 3)]],
            lambda ino: None)
        assert names_of(merged) == ["x@1", "x@2", "x@3"]

    def test_four_copies_with_pairwise_duplicates(self):
        merged, __ = merge_directories(
            [[live("x", 1)], [live("x", 2)], [live("x", 1)],
             [live("x", 2)]],
            lambda ino: None)
        assert names_of(merged) == ["x@1", "x@2"]

    def test_dot_entries_never_conflict(self):
        copies = [
            [DirEntry(".", 5, FileType.DIRECTORY),
             DirEntry("..", 1, FileType.DIRECTORY)],
            [DirEntry(".", 5, FileType.DIRECTORY),
             DirEntry("..", 1, FileType.DIRECTORY)],
        ]
        merged, report = merge_directories(copies, lambda ino: None)
        assert names_of(merged) == [".", ".."]
        assert not report.name_conflicts

    def test_two_tombstones_keep_later_version(self):
        early, late = vv(s0=1), vv(s0=5)
        merged, __ = merge_directories(
            [[dead("a", 1, early)], [dead("a", 1, late)]],
            lambda ino: None)
        assert merged[0].dvv == late

    def test_tombstone_vs_different_live_ino(self):
        """A tombstone of one file does not block a different file that
        legitimately reused the name in the other partition."""
        merged, __ = merge_directories(
            [[dead("n", 1, vv(s0=2))], [live("n", 9)]], lambda ino: None)
        assert [e.ino for e in merged if not e.deleted] == [9]

    def test_an_alias_absorbs_the_stale_spelling_of_its_binding(self):
        """A merge renamed ``f0`` of file 7 to ``f0@7``; a copy that has
        not received that merge still binds ``f0`` to 7.  Merging it in
        must not bring ``f0`` back beside the alias: two names for a file
        that counts one link, and its unlink would leave the alias
        dangling."""
        merged, report = merge_directories(
            [[live("f0@7", 7), live("f0@9", 9)], [live("f0", 7)]],
            lambda ino: None)
        assert [(e.name, e.ino) for e in merged if not e.deleted] == \
            [("f0@7", 7), ("f0@9", 9)]
        assert not report.name_conflicts

    def test_an_alias_renamed_back_keeps_its_old_name(self):
        """After a name conflict the user renames ``f0@7`` back to ``f0``:
        that copy holds the live ``f0`` and the rename's tombstone of
        ``f0@7``.  A later merge against a copy that saw the rename (and
        diverged elsewhere) keeps ``f0`` as the file's name, whether or
        not the file changed since; against a copy still holding the
        alias, the rename's delete of ``f0@7`` stands."""
        at_rename = vv(s0=3)
        renamed = [live("f0", 7), dead("f0@7", 7, at_rename),
                   live("f0@9", 9)]
        cases = [(renamed + [live("g", 4)], at_rename),
                 (renamed + [live("g", 4)], vv(s0=4)),
                 ([live("f0@7", 7), live("f0@9", 9)], at_rename)]
        for other, current in cases:
            merged, __ = merge_directories(
                [renamed, other], lambda ino: current)
            assert [(e.name, e.ino) for e in merged
                    if not e.deleted and e.ino != 4] == \
                [("f0", 7), ("f0@9", 9)]

    def test_an_aliased_entry_still_meets_its_files_delete(self):
        """``f`` was deleted for file 1 and taken by file 2, then
        conflicted with file 3; a copy still binding ``f`` to 1 is folded
        in under the alias ``f@1`` and meets the remembered delete, which
        stands (the file did not change)."""
        merged, __ = merge_directories(
            [[dead("f", 1, vv(s0=2))], [live("f", 2)], [live("f", 3)],
             [live("f", 1)]], lambda ino: None)
        assert names_of(merged) == ["f@2", "f@3"]

    def test_a_live_name_of_a_file_whose_delete_stands_is_dropped(self):
        """Rule (d) per inode: one partition unlinked ``f1`` (file 5, its
        last link) while the other renamed it to ``n26``.  The delete
        stands, so ``n26`` must not survive as a live name of a deleted
        file."""
        dvv = vv(s1=3)
        merged, __ = merge_directories(
            [[dead("f1", 5, vv(s0=2)), live("n26", 5)],
             [dead("f1", 5, vv(s0=2))]],
            lambda ino: None, lambda ino: dvv if ino == 5 else None)
        assert names_of(merged) == []
        assert [(e.name, e.dvv) for e in merged if e.name == "n26"] == \
            [("n26", dvv)]


# -- property-based ----------------------------------------------------------

ino_st = st.integers(min_value=2, max_value=6)
name_st = st.sampled_from(["a", "b", "c", "d"])
vv_st = st.dictionaries(st.integers(0, 3), st.integers(0, 4),
                        max_size=3).map(VersionVector)


@st.composite
def entry_st(draw):
    deleted = draw(st.booleans())
    return DirEntry(
        name=draw(name_st),
        ino=draw(ino_st),
        ftype=FileType.REGULAR,
        deleted=deleted,
        dvv=draw(vv_st) if deleted else None,
    )


@st.composite
def dir_copy_st(draw):
    entries = draw(st.lists(entry_st(), max_size=5))
    # One entry per name within one copy (directories are name-keyed sets).
    seen, out = set(), []
    for e in entries:
        if e.name not in seen:
            seen.add(e.name)
            out.append(e)
    return out


copies_st = st.lists(dir_copy_st(), min_size=1, max_size=4)


def _version_lookup(mapping):
    def lookup(ino):
        return mapping.get(ino)
    return lookup


class TestMergeProperties:
    @given(copies_st)
    @settings(max_examples=200)
    def test_names_unique_in_result(self, copies):
        merged, __ = merge_directories(copies, lambda ino: None)
        names = [e.name for e in merged]
        assert len(names) == len(set(names))

    @given(copies_st)
    @settings(max_examples=200)
    def test_no_lost_inodes(self, copies):
        """Every live inode from any copy survives (possibly renamed,
        possibly tombstoned by a delete, but never silently vanished)."""
        merged, __ = merge_directories(copies, lambda ino: None)
        input_inos = {e.ino for c in copies for e in c}
        output_inos = {e.ino for e in merged}
        # A live-vs-tombstone-of-other-ino collision may drop the tombstone
        # record (its delete lives in the file inode); live entries persist.
        live_inputs = {e.ino for c in copies for e in c if not e.deleted}
        assert live_inputs - output_inos == set() or all(
            any(m.ino == i for m in merged) for i in live_inputs
            if not any(e.ino == i and e.deleted for c in copies for e in c))

    @given(dir_copy_st())
    @settings(max_examples=200)
    def test_merge_with_self_is_identity_on_names(self, copy):
        merged, report = merge_directories([copy, copy], lambda ino: None)
        assert names_of(merged, include_deleted=True) == \
            sorted(e.name for e in copy)
        assert not report.name_conflicts

    @given(copies_st)
    @settings(max_examples=150)
    def test_merge_commutative_on_live_inodes(self, copies):
        """Fold order may vary tombstone residue and alias spelling, but
        the set of surviving (live) inodes is order-independent — no update
        is lost or resurrected depending on site enumeration order."""
        merged_fwd, __ = merge_directories(copies, lambda ino: None)
        merged_rev, __ = merge_directories(list(reversed(copies)),
                                           lambda ino: None)
        def live_inos(entries):
            return sorted(e.ino for e in entries if not e.deleted)
        assert live_inos(merged_fwd) == live_inos(merged_rev)

    @given(copies_st)
    @settings(max_examples=150)
    def test_merge_idempotent(self, copies):
        merged_once, __ = merge_directories(copies, lambda ino: None)
        merged_twice, __ = merge_directories([merged_once], lambda ino: None)
        assert sorted((e.name, e.ino, e.deleted) for e in merged_once) == \
            sorted((e.name, e.ino, e.deleted) for e in merged_twice)


# -- mailbox merge -----------------------------------------------------------

def msg(mid, subject="s", deleted=False, stamp=0.0):
    return MailMessage(msg_id=mid, sender="x", subject=subject,
                       body="b", stamp=stamp, deleted=deleted)


class TestMailboxMerge:
    def test_union(self):
        merged = merge_mailboxes([[msg("1")], [msg("2")]])
        assert {m.msg_id for m in merged} == {"1", "2"}

    def test_duplicates_collapse(self):
        merged = merge_mailboxes([[msg("1")], [msg("1")]])
        assert len(merged) == 1

    def test_delete_wins(self):
        merged = merge_mailboxes([[msg("1", deleted=True)], [msg("1")]])
        assert merged[0].deleted

    def test_codec_roundtrip(self):
        messages = [msg("1", stamp=2.0), msg("2", deleted=True, stamp=1.0)]
        assert decode_mailbox(encode_mailbox(messages)) == sorted(
            messages, key=lambda m: (m.stamp, m.msg_id))

    def test_empty_mailbox_roundtrip(self):
        assert decode_mailbox(encode_mailbox([])) == []
        assert decode_mailbox(b"") == []

    mailbox_st = st.lists(
        st.builds(msg,
                  mid=st.sampled_from(["a", "b", "c", "d"]),
                  deleted=st.booleans(),
                  stamp=st.floats(0, 10, allow_nan=False)),
        max_size=6)

    @given(st.lists(mailbox_st, min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_merge_never_loses_a_message_id(self, boxes):
        merged = merge_mailboxes(boxes)
        assert {m.msg_id for box in boxes for m in box} == \
            {m.msg_id for m in merged}

    @given(st.lists(mailbox_st, min_size=1, max_size=4))
    @settings(max_examples=200)
    def test_merge_ids_unique(self, boxes):
        merged = merge_mailboxes(boxes)
        ids = [m.msg_id for m in merged]
        assert len(ids) == len(set(ids))
