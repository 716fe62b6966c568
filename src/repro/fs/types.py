"""Shared filesystem types."""

from __future__ import annotations

import enum
from typing import Tuple

# A file's globally unique low-level name:
# <logical filegroup number, file descriptor (inode) number> (section 2.2.2).
Gfile = Tuple[int, int]

ROOT_GFS = 0  # the filegroup mounted at /


class Mode(enum.Enum):
    """Open modes.

    ``UNSYNC`` is the internal unsynchronized read used for pathname
    searching (section 2.3.4): no global locking is done, and a local copy
    can be used without informing the CSS.
    """

    READ = "read"
    WRITE = "write"          # read-write, open-for-modification
    UNSYNC = "unsync-read"   # internal, directory interrogation

    def __init__(self, value: str):
        # Fixed per member, so plain attributes: every open, read and
        # close tests them several times.
        self.writable: bool = value == "write"
        self.synchronized: bool = value != "unsync-read"

    def __wire_size__(self) -> int:
        # One small fixed-size object (what the slow path of
        # ``payload_size`` answers), stated here because probing an enum
        # class for a missing dunder raises inside ``EnumType.__getattr__``
        # — once per open, read and close message.
        return 16
