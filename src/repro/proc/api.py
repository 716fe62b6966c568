"""The per-process system-call interface (generator style).

This is what a program running on a LOCUS site sees: the Unix system-call
set, uniformly applicable to local and remote resources.  Every method is a
kernel procedure (use with ``yield from``); the synchronous wrapper for
interactive use is :class:`repro.core.syscalls.Shell`.
"""

from __future__ import annotations

import json
from typing import Generator, List, Optional

from repro.errors import EBADF, EINVAL, EISDIR, LocusError
from repro.fs.types import Mode
from repro.obs.tracer import traced_syscall
from repro.proc.process import Process, Signal
from repro.storage.inode import FileType


def _mode_of(spec: str) -> Mode:
    if spec in ("r", "rb"):
        return Mode.READ
    if spec in ("w", "wb", "rw", "r+", "w+"):
        return Mode.WRITE
    raise EINVAL(f"bad mode {spec!r}")


class ProcApi:
    """System calls bound to one process at its current site."""

    def __init__(self, site, proc: Process):
        self.site = site
        self.proc = proc

    @property
    def fs(self):
        return self.site.fs

    @property
    def pm(self):
        return self.site.proc

    # ------------------------------------------------------------------
    # Files
    # ------------------------------------------------------------------

    def open(self, path: str, mode: str = "r", create: bool = False,
             trunc: bool = False, excl: bool = False,
             allow_conflict: bool = False) -> Generator:
        """Open (optionally creating) a file; returns a descriptor."""
        m = _mode_of(mode)
        if create and m.writable:
            gfile, created = yield from self.fs.create_file(
                self.proc, path, exclusive=excl)
            attrs = yield from self.fs._fetch_attrs_anywhere(gfile)
            ftype = attrs["ftype"]
        else:
            gfile, ftype = yield from self.fs.resolve_gfile(self.proc, path)
            created = False
        if ftype is FileType.PIPE:
            fd = yield from self._open_fifo(gfile, m)
            return fd
        if ftype is FileType.DEVICE:
            fd = yield from self._open_device(gfile, m)
            return fd
        if ftype in (FileType.DIRECTORY, FileType.HIDDEN_DIR) and m.writable:
            raise EISDIR(path)
        handle = yield from self.fs.open_gfile(
            gfile, m, allow_conflict=allow_conflict)
        if trunc and m.writable and not created and handle.size:
            try:
                yield from self.fs.truncate(handle)
            except LocusError:
                # No descriptor will own the handle: close it, or the US
                # keeps a real open and the CSS its write token for good.
                try:
                    yield from self.fs.close(handle)
                except LocusError:
                    pass
                raise
        ofd_id = self.pm.fdtable.create("file", gfile, m, handle=handle)
        return self.proc.alloc_fd(ofd_id)

    def _open_fifo(self, gfile, m: Mode) -> Generator:
        attrs = yield from self.fs._fetch_attrs_anywhere(gfile)
        server = attrs["storage_sites"][0]
        pipe_id = ("fifo", gfile[0], gfile[1])
        role = "w" if m.writable else "r"
        yield from self.pm.pipes.open_role(server, pipe_id, role)
        ofd_id = self.pm.fdtable.create("pipe", (server, pipe_id), m)
        return self.proc.alloc_fd(ofd_id)

    def _open_device(self, gfile, m: Mode) -> Generator:
        """Open a device node: route to the hosting site (section 2.4.2)."""
        node = yield from self._read_gfile(gfile)
        spec = json.loads(node.decode())
        host, name = spec["host"], spec["device"]
        yield from self.pm.devices.open_device(host, name)
        ofd_id = self.pm.fdtable.create("dev", (host, name), m)
        return self.proc.alloc_fd(ofd_id)

    def _read_gfile(self, gfile) -> Generator:
        handle = yield from self.fs.open_gfile(gfile, Mode.READ)
        try:
            data = yield from self.fs.read_all(handle)
        finally:
            yield from self.fs.close(handle)
        return data

    def mknod_device(self, path: str, host: int, device: str,
                     character: bool = True) -> Generator:
        """Create a device node in the global naming tree."""
        spec = {"host": host, "device": device, "character": character}
        gfile, created = yield from self.fs.create_file(
            self.proc, path, ftype=FileType.DEVICE, exclusive=True)
        handle = yield from self.fs.open_gfile(gfile, Mode.WRITE)
        try:
            yield from self.fs.write(handle, 0, json.dumps(spec).encode())
        finally:
            yield from self.fs.close(handle)
        return gfile

    def _ofd(self, fd: int):
        ofd_id = self.proc.fds.get(fd)
        if ofd_id is None:
            raise EBADF(f"fd {fd} not open in pid {self.proc.pid}")
        return ofd_id

    def read(self, fd: int, nbytes: int) -> Generator:
        ofd_id = self._ofd(fd)
        rep = self.pm.fdtable.replica(ofd_id)
        if rep.kind == "pipe":
            server, pipe_id, __ = self.pm._pipe_coords(rep)
            data = yield from self.pm.pipes.read(server, pipe_id, nbytes)
            return data
        if rep.kind == "dev":
            host, name = rep.target
            data = yield from self.pm.devices.read(host, name, nbytes)
            return data
        offset = yield from self.pm.fdtable.acquire_token(ofd_id)
        handle = yield from self.pm.fdtable.file_handle(ofd_id)
        data = yield from self.fs.read(handle, offset, nbytes)
        rep.offset = offset + len(data)
        return data

    def write(self, fd: int, data: bytes) -> Generator:
        if isinstance(data, str):
            data = data.encode()
        ofd_id = self._ofd(fd)
        rep = self.pm.fdtable.replica(ofd_id)
        if rep.kind == "pipe":
            server, pipe_id, __ = self.pm._pipe_coords(rep)
            n = yield from self.pm.pipes.write(server, pipe_id, data)
            return n
        if rep.kind == "dev":
            host, name = rep.target
            n = yield from self.pm.devices.write(host, name, data)
            return n
        offset = yield from self.pm.fdtable.acquire_token(ofd_id)
        handle = yield from self.pm.fdtable.file_handle(ofd_id)
        n = yield from self.fs.write(handle, offset, data)
        rep.offset = offset + n
        return n

    def pread(self, fd: int, offset: int, nbytes: int) -> Generator:
        """Positional read: no shared-offset token traffic."""
        ofd_id = self._ofd(fd)
        handle = yield from self.pm.fdtable.file_handle(ofd_id)
        data = yield from self.fs.read(handle, offset, nbytes)
        return data

    def pwrite(self, fd: int, offset: int, data: bytes) -> Generator:
        if isinstance(data, str):
            data = data.encode()
        ofd_id = self._ofd(fd)
        handle = yield from self.pm.fdtable.file_handle(ofd_id)
        n = yield from self.fs.write(handle, offset, data)
        return n

    def lseek(self, fd: int, offset: int, whence: str = "set") -> Generator:
        ofd_id = self._ofd(fd)
        rep = self.pm.fdtable.replica(ofd_id)
        if rep.kind == "pipe":
            raise EBADF("cannot seek a pipe")
        current = yield from self.pm.fdtable.acquire_token(ofd_id)
        if whence == "set":
            new = offset
        elif whence == "cur":
            new = current + offset
        elif whence == "end":
            handle = yield from self.pm.fdtable.file_handle(ofd_id)
            new = handle.size + offset
        else:
            raise EINVAL(f"bad whence {whence!r}")
        if new < 0:
            raise EINVAL("negative file position")
        rep.offset = new
        return new

    def close(self, fd: int) -> Generator:
        self._ofd(fd)
        yield from self.pm._close_fd(self.proc, fd)
        return None

    def dup(self, fd: int) -> Generator:
        ofd_id = self._ofd(fd)
        self.pm.fdtable.dup(ofd_id)
        return self.proc.alloc_fd(ofd_id)
        yield  # pragma: no cover

    def commit(self, fd: int) -> Generator:
        """Commit the file's staged changes (section 2.3.6)."""
        handle = yield from self.pm.fdtable.file_handle(self._ofd(fd))
        vv = yield from self.fs.commit(handle)
        return vv

    def abort(self, fd: int) -> Generator:
        """Undo changes back to the previous commit point."""
        handle = yield from self.pm.fdtable.file_handle(self._ofd(fd))
        yield from self.fs.abort(handle)
        return None

    def fstat(self, fd: int) -> Generator:
        handle = yield from self.pm.fdtable.file_handle(self._ofd(fd))
        return dict(handle.attrs)

    # ------------------------------------------------------------------
    # Namespace
    # ------------------------------------------------------------------

    def mkdir(self, path: str, perms: int = 0o755,
              hidden: bool = False) -> Generator:
        gfile = yield from self.fs.mkdir(self.proc, path, perms=perms,
                                         hidden=hidden)
        return gfile

    def rmdir(self, path: str) -> Generator:
        yield from self.fs.rmdir(self.proc, path)
        return None

    def unlink(self, path: str) -> Generator:
        yield from self.fs.unlink(self.proc, path)
        return None

    def link(self, existing: str, new: str) -> Generator:
        yield from self.fs.link(self.proc, existing, new)
        return None

    def rename(self, old: str, new: str) -> Generator:
        yield from self.fs.rename(self.proc, old, new)
        return None

    def readdir(self, path: str) -> Generator:
        names = yield from self.fs.readdir(self.proc, path)
        return names

    def stat(self, path: str) -> Generator:
        attrs = yield from self.fs.stat(self.proc, path)
        return attrs

    def chmod(self, path: str, perms: int) -> Generator:
        yield from self.fs.chmod(self.proc, path, perms)
        return None

    def chown(self, path: str, owner: str) -> Generator:
        yield from self.fs.chown(self.proc, path, owner)
        return None

    def chdir(self, path: str) -> Generator:
        gfile, ftype = yield from self.fs.resolve_gfile(self.proc, path)
        if ftype not in (FileType.DIRECTORY, FileType.HIDDEN_DIR):
            raise EINVAL(f"{path} is not a directory")
        self.proc.cwd = gfile
        return None

    def add_replica(self, path: str, site: int) -> Generator:
        yield from self.fs.add_replica(self.proc, path, site)
        return None

    def drop_replica(self, path: str, site: int) -> Generator:
        yield from self.fs.drop_replica(self.proc, path, site)
        return None

    # ------------------------------------------------------------------
    # Pipes
    # ------------------------------------------------------------------

    def pipe(self) -> Generator:
        """An anonymous pipe; returns ``(read_fd, write_fd)``."""
        pipe_id = self.pm.pipes.new_anon_id()
        server = self.site.site_id
        yield from self.pm.pipes.open_role(server, pipe_id, "r")
        yield from self.pm.pipes.open_role(server, pipe_id, "w")
        r_ofd = self.pm.fdtable.create("pipe", (server, pipe_id), Mode.READ)
        w_ofd = self.pm.fdtable.create("pipe", (server, pipe_id), Mode.WRITE)
        return self.proc.alloc_fd(r_ofd), self.proc.alloc_fd(w_ofd)

    def mkfifo(self, path: str) -> Generator:
        gfile, created = yield from self.fs.create_file(
            self.proc, path, ftype=FileType.PIPE, exclusive=True)
        return gfile

    # ------------------------------------------------------------------
    # Processes
    # ------------------------------------------------------------------

    def fork(self, child_main=None, args: tuple = (),
             dest: Optional[int] = None) -> Generator:
        pid = yield from self.pm.fork(self.proc, dest=dest,
                                      child_main=child_main, args=args)
        return pid

    def run(self, path: str, args: tuple = (),
            dest: Optional[int] = None) -> Generator:
        pid = yield from self.pm.run(self.proc, path, args=args, dest=dest)
        return pid

    def exec(self, path: str, args: tuple = (),
             dest: Optional[int] = None) -> Generator:
        pid = yield from self.pm.exec(self.proc, path, args=args, dest=dest)
        return pid

    def wait(self) -> Generator:
        result = yield from self.pm.wait(self.proc)
        return result

    def exit(self, code: int = 0) -> Generator:
        yield from self.pm.exit(self.proc, code)
        return None

    def kill(self, pid: int, sig: Signal = Signal.SIGTERM) -> Generator:
        yield from self.pm.kill(pid, sig)
        return None

    def sigwait(self) -> Generator:
        sig = yield from self.pm.sigwait(self.proc)
        return sig

    def getpid(self) -> int:
        return self.proc.pid

    def errinfo(self) -> List[dict]:
        """The new system call of section 3.3: interrogate error information
        deposited when a cooperating site failed."""
        info, self.proc.err_info = self.proc.err_info, []
        return info

    # ------------------------------------------------------------------
    # Per-process environment knobs
    # ------------------------------------------------------------------

    def setcopies(self, n: int) -> None:
        """Set the inherited default replication factor (section 2.3.7)."""
        if n < 1:
            raise EINVAL("replication factor must be >= 1")
        self.proc.default_copies = n

    def getcopies(self) -> int:
        return self.proc.default_copies

    def set_advice(self, sites: List[int]) -> None:
        """Set the execution-site advice list (section 3.1)."""
        self.proc.advice = list(sites)

    def set_hidden_context(self, names: List[str]) -> None:
        self.proc.hidden_context = list(names)

    def set_hidden_visible(self, flag: bool) -> None:
        """The escape mechanism making hidden directories visible."""
        self.proc.hidden_visible = bool(flag)

    # ------------------------------------------------------------------
    # Convenience used by examples and tests
    # ------------------------------------------------------------------

    def write_file(self, path: str, data: bytes) -> Generator:
        fd = yield from self.open(path, "w", create=True, trunc=True)
        try:
            yield from self.write(fd, data)
        finally:
            yield from self.close(fd)
        return None

    def read_file(self, path: str) -> Generator:
        fd = yield from self.open(path, "r")
        try:
            attrs = yield from self.fstat(fd)
            data = yield from self.pread(fd, 0, attrs["size"])
        finally:
            yield from self.close(fd)
        return data

    def install_program(self, path: str, program: str, cpu: str = "vax",
                        code_pages: int = 16, data_pages: int = 8,
                        reentrant: bool = True) -> Generator:
        """Write a load module file naming a registered program."""
        spec = {"program": program, "cpu": cpu, "code_pages": code_pages,
                "data_pages": data_pages, "reentrant": reentrant}
        yield from self.write_file(path, json.dumps(spec).encode())
        return None

# ----------------------------------------------------------------------
# Flight recorder (repro.obs): every public system call records a
# virtual-time latency sample in the site's MetricsRegistry and, with
# tracing on, opens a causal span that nested RPCs and handlers parent
# under.  The wrapper is pure ``yield from`` delegation — no extra yield
# points, CPU charges, or messages — so syscall behaviour is unchanged.
# The conveniences (write_file, read_file, ...) stay unwrapped: they
# compose wrapped syscalls.  ``exit`` and ``sigwait`` stay unwrapped too —
# one unwinds the process, the other blocks indefinitely by design, so a
# latency sample would be noise.
# ----------------------------------------------------------------------

_TRACED_SYSCALLS = (
    "open", "read", "write", "pread", "pwrite", "lseek", "close", "dup",
    "commit", "abort", "fstat", "mkdir", "rmdir", "unlink", "link",
    "rename", "readdir", "stat", "chmod", "chown", "chdir", "add_replica",
    "drop_replica", "pipe", "mkfifo", "mknod_device", "fork", "run",
    "exec", "wait", "kill",
)

for _name in _TRACED_SYSCALLS:
    setattr(ProcApi, _name, traced_syscall(_name, getattr(ProcApi, _name)))
del _name
