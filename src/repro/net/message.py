"""Wire messages exchanged between LOCUS kernels."""

from __future__ import annotations

import enum
import sys
from typing import Any, Dict


class MsgKind(enum.Enum):
    REQUEST = "req"       # expects a RESPONSE with the same reqid
    RESPONSE = "resp"
    ONEWAY = "oneway"     # low-level ack only; no protocol-level response


_next_msg_id = 0

# mtype -> "mtype.resp", built lazily.  The set of protocol operations is
# small and static, so every response after the first reuses one interned
# string instead of formatting a new one per message.
_resp_keys: Dict[str, str] = {}


class Message:
    """One kernel-to-kernel message.

    ``mtype`` names the protocol operation (e.g. ``fs.open``); statistics are
    aggregated by mtype so benchmarks can assert on the paper's message
    counts (Figure 2: the general open is exactly four messages).

    A plain ``__slots__`` class rather than a dataclass: messages are the
    single most-allocated object in a storm and the dataclass ``__init__``
    (keyword plumbing plus a default_factory call) showed up in profiles.
    """

    __slots__ = ("src", "dst", "mtype", "kind", "payload", "size",
                 "reqid", "msg_id", "trace_ctx")

    def __init__(self, src: int, dst: int, mtype: str, kind: MsgKind,
                 payload: Any = None, size: int = 0, reqid: int = 0,
                 trace_ctx: Any = None):
        global _next_msg_id
        _next_msg_id += 1
        self.src = src
        self.dst = dst
        self.mtype = mtype
        self.kind = kind
        self.payload = payload
        self.size = size                  # payload bytes for wire-time model
        self.reqid = reqid                # request/response correlation
        self.msg_id = _next_msg_id
        # Flight-recorder context (trace_id, span_id) of the span this
        # message serves.  Rides the header, not the payload: excluded from
        # the wire-size model so message counts and virtual time are
        # identical with tracing on or off.
        self.trace_ctx = trace_ctx

    def stat_key(self) -> str:
        """Aggregation key: responses are counted under ``mtype.resp``."""
        if self.kind is MsgKind.RESPONSE:
            key = _resp_keys.get(self.mtype)
            if key is None:
                key = _resp_keys[self.mtype] = sys.intern(
                    self.mtype + ".resp")
            return key
        return self.mtype

    def __repr__(self) -> str:
        return (f"<Msg #{self.msg_id} {self.src}->{self.dst} {self.mtype} "
                f"{self.kind.value} {self.size}B>")


# Fixed-size scalars.  A container sizes these, and str / bytes, in its
# own loop: most leaves of a payload are scalars, and a call per leaf was
# the top self-time line of the chaos profile.
_FIXED = {int: 8, float: 8, bool: 1, type(None): 0}


def payload_size(payload: Any) -> int:
    """Rough serialized size of a payload for the wire-time model.

    Counts bytes/str content at face value, containers structurally, and
    charges a small fixed size for scalars.  This only drives wire *time*;
    protocol correctness never depends on it.

    Exact-type checks cover the overwhelmingly common payload shapes
    without an isinstance chain.  A structured wire value — a version
    vector, the inode-attributes record — states its own size through
    ``__wire_size__()``, an O(1) closed form that equals what walking its
    serialized form would count, so a reply carrying hundreds of inode
    records costs one call per record rather than one per field.
    """
    tp = type(payload)
    if tp is str or tp is bytes:
        return len(payload)
    if tp in _FIXED:
        return _FIXED[tp]
    if tp is dict:
        # "__wire_bytes__" stands in for bulk data (e.g. a process image
        # shipped by remote fork) without materializing the bytes.  Other
        # "_"-prefixed keys ("_stamp", "_ack") are header-riding metadata
        # like trace_ctx: excluded from the wire-size model so message
        # timing is identical with exactly-once stamping on or off.
        total = payload.get("__wire_bytes__", 0)
        for k, v in payload.items():
            tk = type(k)
            if tk is str:
                if k.startswith("_"):
                    continue
                total += len(k)
            elif tk is int:
                total += 8
            else:
                total += payload_size(k)
            tv = type(v)
            if tv is str or tv is bytes:
                total += len(v)
            elif tv in _FIXED:
                total += _FIXED[tv]
            else:
                total += payload_size(v)
        return total
    if tp is list or tp is tuple:
        total = 0
        for v in payload:
            tv = type(v)
            if tv is str or tv is bytes:
                total += len(v)
            elif tv in _FIXED:
                total += _FIXED[tv]
            else:
                total += payload_size(v)
        return total
    sized = getattr(tp, "__wire_size__", None)
    if sized is not None:
        return sized(payload)
    return _payload_size_slow(payload)


def _payload_size_slow(payload: Any) -> int:
    """Rare shapes: subclasses of the wire types are sized as their base
    type, anything else (an enum member, an exception in an error reply)
    as one small fixed-size object."""
    if isinstance(payload, (bytes, bytearray, str)):
        return len(payload)
    if isinstance(payload, (int, float)):
        return 8
    if isinstance(payload, dict):
        return payload_size(dict(payload))
    if isinstance(payload, (list, tuple, set, frozenset)):
        return payload_size(list(payload))
    return 16
