"""The shared decoded directory (ISSUE 19): equal to the code it replaced,
and impossible to corrupt.

* Differential: ``DirSnapshot`` answers ``lookup``, ``names``, emptiness
  and iteration exactly as the per-read ``DirView(decode_entries(data))``
  did; that pair, with the mutable entry it was built on, is kept verbatim
  below as the reference.
* Aliasing: no use of a ``DirView`` built from a snapshot, and no
  assignment, changes what a later decode of the same bytes returns.
* Memo: a torn image always raises and is never remembered, the memo is
  bounded, and it is keyed on bytes — two clusters in one process that
  commit different bytes under one ``(gfile, version)`` read their own.
"""

import json
import random
from dataclasses import dataclass
from typing import List, Optional

import pytest

from repro import LocusCluster
from repro.fs import directory
from repro.fs.directory import (SNAPSHOT_MEMO_IMAGES, DirEntry, DirView,
                                decode_entries, decode_snapshot,
                                encode_entries)
from repro.storage.inode import FileType
from repro.storage.version_vector import VersionVector


# ----------------------------------------------------------------------
# The reference: fs/directory.py's reader as of PR 18 (737ed48), verbatim
# but for the names.  Do not optimise it — it is the definition.
# ----------------------------------------------------------------------

@dataclass
class RefEntry:
    name: str
    ino: int
    ftype: FileType = FileType.REGULAR
    deleted: bool = False
    dvv: Optional[VersionVector] = None

    @classmethod
    def from_record(cls, rec: dict) -> "RefEntry":
        deleted = bool(rec.get("d"))
        dvv = None
        if deleted:
            dvv = VersionVector({int(k): v
                                 for k, v in rec.get("v", {}).items()})
        return cls(name=rec["n"], ino=rec["i"],
                   ftype=FileType(rec["t"]), deleted=deleted, dvv=dvv)


def ref_decode_entries(data: bytes) -> List[RefEntry]:
    if not data:
        return []
    text = data.rstrip(b"\x00").decode()
    if not text:
        return []
    return [RefEntry.from_record(rec) for rec in json.loads(text)]


class RefDirView:
    def __init__(self, entries: Optional[List[RefEntry]] = None):
        self.entries: List[RefEntry] = list(entries or [])

    def _find(self, name: str) -> Optional[RefEntry]:
        found = None
        for entry in self.entries:
            if entry.name == name:
                if not entry.deleted:
                    return entry
                found = entry
        return found

    def lookup(self, name: str) -> Optional[RefEntry]:
        entry = self._find(name)
        if entry is not None and not entry.deleted:
            return entry
        return None

    def live_entries(self) -> List[RefEntry]:
        return [e for e in self.entries if not e.deleted]

    def names(self) -> List[str]:
        return sorted(e.name for e in self.live_entries()
                      if e.name not in (".", ".."))

    def is_empty(self) -> bool:
        return not self.names()


# ----------------------------------------------------------------------
# Seeded images
# ----------------------------------------------------------------------

NAMES = [".", "..", "a", "b", "c", "ctx-vax", "long" * 20]
FTYPES = [FileType.REGULAR, FileType.DIRECTORY, FileType.HIDDEN_DIR,
          FileType.MAILBOX]


def fields(entry):
    if entry is None:
        return None
    return (entry.name, entry.ino, entry.ftype, entry.deleted, entry.dvv)


def random_image(rng: random.Random) -> bytes:
    """One directory image in arbitrary record order.  The small name and
    inode pools force the shapes that matter: tombstones, a tombstone and
    a live entry under one name (a foreign file took the name over),
    several tombstones of one name, an inode deleted under one name and
    live under another (resurrected), hidden directories."""
    records = []
    for __ in range(rng.randrange(9)):
        deleted = rng.random() < 0.4
        dvv = VersionVector({s: rng.randrange(1, 4)
                             for s in range(rng.randrange(3))})
        records.append(DirEntry(rng.choice(NAMES), rng.randrange(2, 7),
                                rng.choice(FTYPES), deleted,
                                dvv if deleted else None).to_record())
    rng.shuffle(records)
    data = json.dumps(records, separators=(",", ":")).encode()
    if not records and rng.random() < 0.5:
        data = b""                       # a directory never written
    return data + b"\x00" * rng.choice([0, 0, 1, 700])


class TestDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_snapshot_answers_as_the_per_read_view_did(self, seed):
        rng = random.Random(seed)
        for __ in range(300):
            data = random_image(rng)
            snap = decode_snapshot(data)
            ref_entries = ref_decode_entries(data)
            ref = RefDirView(ref_entries)
            assert [fields(e) for e in snap] \
                == [fields(e) for e in ref_entries], data
            assert len(snap) == len(snap.entries) == len(ref_entries)
            for name in NAMES + ["absent"]:
                assert fields(snap.lookup(name)) \
                    == fields(ref.lookup(name)), (name, data)
            assert snap.names() == ref.names(), data
            assert snap.is_empty() == ref.is_empty(), data
            # The mutating path's private copy holds the same entries.
            assert [fields(e) for e in decode_entries(data)] \
                == [fields(e) for e in ref_entries]

    def test_empty_and_padded_images(self):
        for data in (b"", b"\x00" * 1024, b"[]", b"[]" + b"\x00" * 7):
            snap = decode_snapshot(data)
            assert len(snap) == 0 and snap.is_empty()
            assert snap.names() == [] and snap.lookup(".") is None
        data = encode_entries([DirEntry("x", 2), DirEntry("..", 1)])
        assert decode_snapshot(data + b"\x00" * 500) is decode_snapshot(data)

    def test_names_is_the_callers_own_list(self):
        data = encode_entries([DirEntry("x", 2), DirEntry("y", 3)])
        names = decode_snapshot(data).names()
        names.append("scribble")
        assert decode_snapshot(data).names() == ["x", "y"]


class TestAliasing:
    IMAGE = encode_entries([
        DirEntry(".", 5, FileType.DIRECTORY),
        DirEntry("..", 1, FileType.DIRECTORY),
        DirEntry("keep", 7),
        DirEntry("go", 8),
        DirEntry("gone", 9, deleted=True, dvv=VersionVector({0: 2})),
    ])

    def _picture(self):
        snap = decode_snapshot(self.IMAGE)
        return ([fields(e) for e in snap], snap.names(),
                {n: fields(snap.lookup(n)) for n in ("keep", "go", "gone")})

    @pytest.mark.parametrize("build", [
        lambda data: DirView(decode_entries(data)),
        lambda data: DirView(decode_snapshot(data).entries),
        lambda data: DirView(decode_snapshot(data)),
    ])
    def test_mutating_a_view_leaves_the_snapshot_alone(self, build):
        before = self._picture()
        view = build(self.IMAGE)
        tomb = view.remove("go", VersionVector({1: 1}))
        assert tomb.deleted and tomb.dvv == VersionVector({1: 1})
        assert view.lookup("go") is None
        view.insert("gone", 9, FileType.REGULAR)      # resurrect
        view.insert("new", 11, FileType.DIRECTORY)
        view.entries.pop(0)
        with pytest.raises(AttributeError):
            view.entries[0].ino = 99
        with pytest.raises(AttributeError):
            view.lookup("keep").deleted = True
        assert sorted(view.names()) == ["gone", "keep", "new"]
        assert self._picture() == before
        # ... and a second view starts from the committed picture again.
        assert build(self.IMAGE).lookup("go").ino == 8

    def test_snapshot_and_entries_reject_assignment(self):
        snap = decode_snapshot(self.IMAGE)
        entry = snap.lookup("keep")
        for field, value in (("name", "x"), ("ino", 1), ("deleted", True),
                             ("ftype", FileType.DIRECTORY),
                             ("dvv", VersionVector())):
            with pytest.raises(AttributeError):
                setattr(entry, field, value)
        with pytest.raises((AttributeError, TypeError)):
            entry.extra = 1                         # slotted: no __dict__
        with pytest.raises(AttributeError):
            snap.entries = ()
        with pytest.raises(TypeError):
            snap.live["keep"] = entry
        with pytest.raises(TypeError):
            snap.entries[0] = entry
        with pytest.raises(AttributeError):
            snap.live_names.append("x")


class TestMemo:
    def test_torn_image_raises_every_time_and_is_never_cached(self):
        whole = encode_entries([DirEntry(f"f{i:02d}", i + 2)
                                for i in range(40)])
        decode_snapshot(whole)
        for torn in (whole[:len(whole) // 2], whole[5:], b"\xff" + whole,
                     whole.replace(b'"regular"', b'"no-such-type"', 1)):
            size = directory._decode_image.cache_info().currsize
            for __ in range(3):
                with pytest.raises(ValueError):
                    decode_snapshot(torn)
                with pytest.raises(ValueError):
                    decode_entries(torn)
            assert directory._decode_image.cache_info().currsize == size
        assert len(decode_snapshot(whole)) == 40

    def test_memo_is_bounded(self):
        info = directory._decode_image.cache_info()
        assert info.maxsize == SNAPSHOT_MEMO_IMAGES == 128
        first = encode_entries([DirEntry("f0", 2)])
        kept = decode_snapshot(first)
        for i in range(1, SNAPSHOT_MEMO_IMAGES + 50):
            decode_snapshot(encode_entries([DirEntry(f"f{i}", 2)]))
            assert directory._decode_image.cache_info().currsize \
                <= SNAPSHOT_MEMO_IMAGES
        # Evicted and decoded afresh: equal, no longer the same object.
        again = decode_snapshot(first)
        assert again is not kept and again == kept

    def test_one_gfile_and_version_two_contents(self):
        """Same seed, same history shape, different names: the directory
        has the same low-level name and version vector in both clusters,
        over different bytes.  A memo keyed on (gfile, version) would
        serve one cluster the other's directory."""
        seen = {}
        for name in ("from-a", "from-b"):
            cluster = LocusCluster(n_sites=2, seed=3)
            sh = cluster.shell(0)
            sh.mkdir("/d")
            sh.write_file(f"/d/{name}", b"x")
            cluster.settle()
            fs = cluster.site(1).fs
            gfile, __ = cluster.call(1, fs.resolve_gfile(None, "/d"))
            snap = cluster.call(1, fs.read_dir_entries(gfile))
            seen[name] = (gfile, fs.local_inode(gfile).version, snap)
            assert cluster.shell(1).readdir("/d") == [name]
        (gfile_a, vv_a, snap_a), (gfile_b, vv_b, snap_b) = seen.values()
        assert gfile_a == gfile_b and vv_a == vv_b
        assert snap_a is not snap_b
        assert snap_a.names() == ["from-a"] and snap_b.names() == ["from-b"]
