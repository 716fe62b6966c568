"""What recording and sizing cost on the host — and that making them
cheap changed nothing anyone can observe (ISSUE 14).

* Differential sizing: ``payload_size`` with its ``__wire_size__`` closed
  forms against the recursive walk it replaced, kept verbatim below, on
  seeded random payloads and on every message of the canonical storm.
* Export pin: the storm's JSONL and Chrome exports hash to what the
  commit before the compact span log produced.
* Span budget: bytes retained per recorded span, and no aliasing between
  spans that share a name and a peer.
* Decode budget (ISSUE 19): repeated pathname walks parse each committed
  directory image once, and the walk's virtual cost does not notice.
"""

import enum
import gc
import hashlib
import random
import tracemalloc

import pytest

from repro import LocusCluster
from repro.cli import main as cli_main
from repro.errors import EBUSY
from repro.fs import directory
from repro.net.message import payload_size
from repro.net.stats import StatsWindow
from repro.obs import export_jsonl
from repro.obs.span import Span
from repro.obs.tracer import Tracer
from repro.storage.inode import DiskInode, FileType
from repro.storage.version_vector import VersionVector


# ----------------------------------------------------------------------
# The sizing reference: net/message.py's payload_size as of PR 11,
# verbatim.  Do not optimise it — it is the definition.
# ----------------------------------------------------------------------

def reference_size(payload):
    tp = type(payload)
    if payload is None:
        return 0
    if tp is str or tp is bytes:
        return len(payload)
    if tp is int or tp is float:
        return 8
    if tp is dict:
        total = payload.get("__wire_bytes__", 0)
        for k, v in payload.items():
            if type(k) is not str or not k.startswith("_"):
                total += reference_size(k) + reference_size(v)
        return total
    if tp is list or tp is tuple:
        total = 0
        for v in payload:
            total += reference_size(v)
        return total
    return _reference_size_slow(payload)


def _reference_size_slow(payload):
    if isinstance(payload, (bytes, bytearray)):
        return len(payload)
    if isinstance(payload, str):
        return len(payload)
    if isinstance(payload, bool):
        return 1
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, dict):
        extra = payload.get("__wire_bytes__", 0)
        return extra + sum(reference_size(k) + reference_size(v)
                           for k, v in payload.items()
                           if not (isinstance(k, str) and k.startswith("_")))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return sum(reference_size(v) for v in payload)
    to_dict = getattr(payload, "to_dict", None)
    if callable(to_dict):
        return reference_size(to_dict())
    return 16


class _Str(str):
    pass


class _Int(int):
    pass


class _Dict(dict):
    pass


class _List(list):
    pass


class _Tuple(tuple):
    pass


class _Level(enum.IntEnum):
    LOW = 1


def _random_attrs(rng):
    inode = DiskInode(ino=rng.randrange(1 << 20),
                      ftype=rng.choice(list(FileType)),
                      size=rng.randrange(1 << 16),
                      owner="u" * rng.randrange(9),
                      nlink=rng.randrange(4),
                      deleted=rng.random() < 0.2,
                      storage_sites=list(range(rng.randrange(5))),
                      conflict=rng.random() < 0.2,
                      mtime=rng.random() * 1e4)
    inode.version = _random_vv(rng)
    return inode.attrs()


def _random_vv(rng):
    return VersionVector({site: rng.randrange(4)
                          for site in range(rng.randrange(5))})


def _random_payload(rng, depth=0):
    leaves = [
        lambda: None,
        lambda: rng.random() < 0.5,                   # bool, not int
        lambda: rng.randrange(-5, 1 << 40),
        lambda: rng.random() * 1e6,
        lambda: "s" * rng.randrange(40),
        lambda: b"b" * rng.randrange(600),
        lambda: bytearray(rng.randrange(30)),
        lambda: _Str("sub" * rng.randrange(4)),
        lambda: _Int(rng.randrange(99)),
        lambda: _Level.LOW,
        lambda: rng.choice(list(FileType)),
        lambda: EBUSY("refused"),
        lambda: _random_vv(rng),
        lambda: _random_attrs(rng),
    ]
    if depth >= 4 or rng.random() < 0.45:
        return rng.choice(leaves)()

    def items():
        return [_random_payload(rng, depth + 1)
                for __ in range(rng.randrange(5))]

    def mapping():
        # No str-subclass key starts with "_": that is the one shape the
        # reference's own two dict paths size differently (exact dict
        # counts it, dict subclass skips it), and no payload has it.
        keys = ["k%d" % i for i in range(rng.randrange(5))]
        keys += rng.sample(["_stamp", "_ack", "__wire_bytes__", 7, _Str("q")],
                           rng.randrange(3))
        out = {k: _random_payload(rng, depth + 1) for k in keys}
        if "__wire_bytes__" in out:
            out["__wire_bytes__"] = rng.randrange(1 << 16)
        return out

    shape = rng.randrange(7)
    if shape == 0:
        return mapping()
    if shape == 1:
        return _Dict(mapping())
    if shape == 2:
        return items()
    if shape == 3:
        return tuple(items())
    if shape == 4:
        return _List(items())
    if shape == 5:
        return _Tuple(items())
    return frozenset(rng.randrange(1 << 30) for __ in range(rng.randrange(5)))


class TestDifferentialSizing:
    @pytest.mark.parametrize("seed", range(8))
    def test_random_nested_payloads(self, seed):
        rng = random.Random(seed)
        for __ in range(400):
            payload = _random_payload(rng)
            assert payload_size(payload) == reference_size(payload), payload

    def test_closed_forms(self):
        vv = VersionVector({0: 2, 3: 1, 4: 7})
        assert payload_size(vv) == reference_size(vv) == 48
        inode = DiskInode(ino=9, owner="locus", storage_sites=[0, 1, 2])
        inode.version = vv
        attrs = inode.attrs()
        assert payload_size(attrs) == reference_size(attrs) \
            == 125 + 5 + 48 + 24
        assert payload_size(True) == 1 and payload_size(1) == 8
        assert payload_size(FileType.DIRECTORY) == 16

    def test_attrs_record_is_still_a_plain_dict_to_readers(self):
        attrs = DiskInode(ino=4).attrs()
        assert attrs == dict(attrs) and isinstance(attrs, dict)
        assert type(dict(attrs)) is dict


# ----------------------------------------------------------------------
# The canonical storm: every message sized both ways, exports pinned
# ----------------------------------------------------------------------

# sha1 of `cli trace --workload storm --seed 11` exports.  The Chrome file
# was pinned from the commit before the span log went columnar (f22e8e7);
# the JSONL was re-pinned when the `load` records became derived from the
# span log (every span, instant and detection line unchanged).  Both were
# re-pinned when convergence became derived from the instants: the two
# added `repair.propagate` instants (2,134 -> 2,136 Chrome events), the
# JSONL instant `seq` numbers after them and the meta instant count are
# the only differences; every span, load and detection line is unchanged.
# Both were re-pinned when the supervised-call wrapper span went: the 228
# `srpc:*` spans are gone (2,071 -> 1,843 spans, ids renumbered), and the
# 13 backoff records (7 `retry` events on those spans, 6 `read_retry`) are
# `retry` events on the caller's span; every other span keeps its name,
# site, start, end and status, and every instant, load and detection line
# is unchanged.  Both were re-pinned when inventory replies became deltas
# against the requester's last reply: the first reply grew by its
# base/token/changed/gone keys and later ones shrank, so 29 recovery, scrub
# and pull spans start or end up to 1 vt apart, and the 6 recovery, scrub
# and repair instants and both detection lines after them move with them;
# every name, site, status and count is unchanged.  Both were re-pinned
# when a first call to a pack became a delta against a table seeded from
# another pack's reply: 14 recovery, scrub, rpc and handler spans, 3
# instants and 1 detection line move by at most 1.2 vt, and nothing else
# in the JSONL differs.  Both were re-pinned when delta replies began to
# patch single fields: 25 inventory, pull, recovery and scrub spans, 6
# instants and both detection lines move by at most 0.25 vt, and nothing
# else in the JSONL differs.  Both were re-pinned when propagation pulls
# stopped sending ``fs.pull_open`` (its 13 round trips are gone), a merge
# began to retry a site that is up and on its segment but missed its poll,
# and a circuit loss left at quiescence began to run a merge: merge polls
# go 8 -> 18 and recovery rounds 2 -> 5, which repair stale replicas the
# run used to leave for later (9 detection lines instead of 2, 38 -> 57
# instants, 1,843 -> 1,851 spans), and the last record is at 9,609.2 vt
# instead of 9,703.8.  Not a timing-only move: the schedule changed.
STORM_JSONL_SHA1 = "29a7941301fb6d19ae6a4dc999fc2960e43a96eb"
STORM_CHROME_SHA1 = "2b36f89baf7157f4307622a63ce7a990920a41db"


def _sha1(path):
    return hashlib.sha1(path.read_bytes()).hexdigest()


def test_storm_sizes_every_message_alike_and_exports_are_pinned(
        tmp_path, monkeypatch, capsys):
    sized = []

    def checked(payload):
        size = payload_size(payload)
        assert size == reference_size(payload), payload
        sized.append(size)
        return size

    monkeypatch.setattr("repro.net.network.payload_size", checked)
    assert cli_main(["trace", "--workload", "storm", "--seed", "11",
                     "--out", str(tmp_path), "--check"]) == 0
    capsys.readouterr()
    assert len(sized) > 1000
    assert _sha1(tmp_path / "trace.jsonl") == STORM_JSONL_SHA1
    assert _sha1(tmp_path / "trace.chrome.json") == STORM_CHROME_SHA1


# ----------------------------------------------------------------------
# Span budget and aliasing
# ----------------------------------------------------------------------

N_RPCS = 5000


def _retained_by_rpcs():
    """Bytes retained and spans recorded by the second N_RPCS of 2 x N_RPCS
    remote calls: the marginal cost of a round trip, warm-up excluded."""
    cluster = LocusCluster(n_sites=2, seed=1)

    def pong(src, payload):
        return payload
        yield

    cluster.sites[1].register_handler("budget.ping", pong)

    def pinger(n):
        for i in range(n):
            yield from cluster.sites[0].rpc(1, "budget.ping", {"i": i})

    cluster.call(0, pinger(50))         # op labels, histograms, circuits
    tracemalloc.start()
    try:
        marks = []
        for __ in range(2):
            cluster.call(0, pinger(N_RPCS))
            gc.collect()
            marks.append((tracemalloc.get_traced_memory()[0],
                          len(cluster.tracer.spans)))
    finally:
        tracemalloc.stop()
    (bytes_n, spans_n), (bytes_2n, spans_2n) = marks
    return bytes_2n - bytes_n, spans_2n - spans_n


def test_span_budget():
    """A round trip's rpc span and handler span retain at most 40 bytes
    each: a 22-byte row, an 8-byte end and the two buffers'
    over-allocation (640 before the columnar log, 59.9 in its eight
    columns, 32.7 packed — those three measured against a recorder
    switched off).  Recording is always on, so the bound holds the whole
    round trip's marginal retention to it."""
    retained, spans = _retained_by_rpcs()
    assert spans == 2 * N_RPCS
    assert retained / spans <= 40.0


class _Clock:
    now = 0.0
    current_task = None


class TestSpanAliasing:
    def test_annotations_stay_on_their_span(self):
        tracer = Tracer(_Clock())
        shared = {"gfile": [1, 2]}
        a, __ = tracer.begin("rpc:x", "rpc", 0, peer=3, attrs=shared)
        b, __ = tracer.begin("rpc:x", "rpc", 0, peer=3, attrs=shared)
        c, __ = tracer.begin("rpc:x", "rpc", 0, peer=3)
        tracer.annotate(a, "ss", 7)
        tracer.event(a, "retry", {"attempt": 1})
        shared["late"] = True            # the caller's dict is not ours
        tracer.finish(a, None, status="EIO")
        sa, sb, sc = tracer.spans[0:3]
        assert sa.attrs == {"gfile": [1, 2], "ss": 7, "dst": 3}
        assert [e[1] for e in sa.events] == ["retry"]
        assert sa.status == "EIO" and sa.end == 0.0
        assert sb.attrs == {"gfile": [1, 2], "dst": 3} and sb.events == []
        assert sc.attrs == {"dst": 3} and sc.events == []
        assert sb.end is None and sb.status == "ok"

    def test_records_are_snapshots(self):
        tracer = Tracer(_Clock())
        ctx, __ = tracer.begin("serve:x", "handler", 1, peer=0)
        snap = tracer.span(ctx[1])
        snap.attrs["scribble"] = 1
        snap.events.append((0.0, "scribble", {}))
        again = tracer.spans[-1]
        assert again.attrs == {"src": 0} and again.events == []

    def test_log_is_a_sequence_of_spans(self):
        tracer = Tracer(_Clock())
        for i in range(5):
            tracer.begin(f"n{i}", "fs", None, inherit=False)
        log = tracer.spans
        assert len(log) == 5 and bool(log)
        assert [s.name for s in log] == ["n0", "n1", "n2", "n3", "n4"]
        assert [s.span_id for s in log[3:]] == [4, 5]
        assert log[-1].name == "n4" and log[0].site is None
        assert log[1].parent_id is None and log[1].trace_id == 2
        with pytest.raises(IndexError):
            log[5]
        assert tracer.span(0) is None and tracer.span(6) is None
        assert isinstance(log[2], Span)
        assert [s.span_id for s in tracer.open_spans(kind="fs")] \
            == [1, 2, 3, 4, 5]


# ----------------------------------------------------------------------
# Decode budget: one parse per committed directory image
# ----------------------------------------------------------------------

WALK_PATH = "/a/b/c/leaf"
WALK_DIRS = ("/", "/a", "/a/b", "/a/b/c")


def _stat_walks(n, cold, tmp_path, monkeypatch):
    """``n`` stats of a 4-component path from a site that stores nothing;
    ``cold`` forgets every decoded image before each one.  Returns the
    ``DirEntry.from_record`` calls of the walks, what the walks cost in
    the model, and the entry count of each directory walked."""
    cluster = LocusCluster(n_sites=3, seed=5, root_pack_sites=[0])
    sh0, sh2 = cluster.shell(0), cluster.shell(2)
    for path in WALK_DIRS[1:]:
        sh0.mkdir(path)
    sh0.write_file(WALK_PATH, b"x")
    cluster.settle()

    calls = []
    real = directory.DirEntry.from_record.__func__
    with monkeypatch.context() as patch:
        patch.setattr(directory.DirEntry, "from_record", classmethod(
            lambda cls, rec: calls.append(rec["n"]) or real(cls, rec)))
        directory._decode_image.cache_clear()
        win = StatsWindow(cluster.stats)
        vt0 = cluster.sim.now
        for __ in range(n):
            if cold:
                directory._decode_image.cache_clear()
            assert sh2.stat(WALK_PATH)["size"] == 1
        messages = win.close().total_messages
        vtime = cluster.sim.now - vt0

    out = tmp_path / f"walks-{n}-{cold}.jsonl"
    export_jsonl(cluster.tracer, str(out))
    return (len(calls), (vtime, messages, _sha1(out)),
            [len(sh0.readdir(d)) + 2 for d in WALK_DIRS])   # + '.' and '..'


def test_decode_budget(tmp_path, monkeypatch):
    """N walks decode each directory image exactly once — whatever N —
    and cost the model what N memo-cold walks cost it."""
    few, cost_few, sizes = _stat_walks(3, False, tmp_path, monkeypatch)
    many, cost_many, __ = _stat_walks(12, False, tmp_path, monkeypatch)
    cold, cost_cold, __ = _stat_walks(12, True, tmp_path, monkeypatch)
    assert sizes == [3, 3, 3, 3]
    assert few == many == sum(sizes)
    assert cold == 12 * sum(sizes)
    assert cost_many == cost_cold
    assert cost_few[1] * 4 == cost_many[1]     # messages: the protocol ran
