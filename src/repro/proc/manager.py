"""Process management: transparent local and remote fork / exec / run.

"LOCUS permits one to execute programs at any site in the network, subject
to permission control, in a manner just as easy as executing the program
locally ...  The mechanism is entirely transparent, so that existing
software can be executed either locally or remotely, with no change to that
software" (paper section 3.1).

Simulation note: a real fork resumes the child mid-program.  Generators
cannot be cloned, so ``fork`` takes the child's main function explicitly
(``child_main``); ``run`` — the paper's fork+exec optimization — loads the
child's program from its load-module file exactly as LOCUS did.
"""

from __future__ import annotations

import itertools
import json
from types import SimpleNamespace
from typing import Dict, Generator, List, Optional, Set

from repro.errors import ECHILD, EINVAL, ESRCH, RemoteProcessError
from repro.fs.types import Mode, ROOT_GFS
from repro.proc.devices import DeviceService
from repro.proc.fdtable import FdTable
from repro.proc.pipes import PipeService
from repro.proc.process import (ChildRecord, Image, PID_SITE_FACTOR, Process,
                                ProcState, Signal, pid_origin)
from repro.storage.pack import ROOT_INO


class ProcManager:
    """Per-site process table, program execution, and remote-process RPC."""

    def __init__(self, site):
        self.site = site
        self.procs: Dict[int, Process] = {}
        self.forward: Dict[int, int] = {}      # migrated pid -> next site
        self.fdtable = FdTable(site)
        self.pipes = PipeService(site)
        self.devices = DeviceService(site)
        self._pid_seq = itertools.count(1)
        self._wait_futs: Dict[int, list] = {}  # parent pid -> futures
        self._sig_futs: Dict[int, list] = {}   # pid -> futures
        self._prog_tasks: Dict[int, object] = {}
        reg = site.register_handler
        reg("proc.create", self.h_create)
        reg("proc.run", self.h_run)
        reg("proc.exec_receive", self.h_exec_receive)
        reg("proc.signal", self.h_signal)
        reg("proc.child_exit", self.h_child_exit)

    # ------------------------------------------------------------------
    # Lifecycle plumbing
    # ------------------------------------------------------------------

    @property
    def sid(self) -> int:
        return self.site.site_id

    def reset_volatile(self) -> None:
        for proc in self.procs.values():
            proc.state = ProcState.GONE
        self.procs.clear()
        self.forward.clear()
        self._wait_futs.clear()
        self._sig_futs.clear()
        self._prog_tasks.clear()
        self.fdtable.reset_volatile()
        self.pipes.reset_volatile()

    def on_restart(self) -> None:
        pass

    # ------------------------------------------------------------------
    # Process table
    # ------------------------------------------------------------------

    def _alloc_pid(self) -> int:
        return self.sid * PID_SITE_FACTOR + next(self._pid_seq)

    def make_process(self, user: str = "root",
                     program: str = "init") -> Process:
        """An origin process (what login would create)."""
        proc = Process(pid=self._alloc_pid(), ppid=0, site_id=self.sid,
                       user=user, cwd=(ROOT_GFS, ROOT_INO),
                       image=Image(program=program, cpu=self.cpu_type))
        proc.hidden_context = [self.cpu_type]
        self.procs[proc.pid] = proc
        return proc

    @property
    def cpu_type(self) -> str:
        return getattr(self.site, "cpu_type", "vax")

    def get(self, pid: int) -> Process:
        proc = self.procs.get(pid)
        if proc is None:
            raise ESRCH(f"no process {pid} at site {self.sid}")
        return proc

    # ------------------------------------------------------------------
    # fork (section 3.1)
    # ------------------------------------------------------------------

    def fork(self, parent: Process, dest: Optional[int] = None,
             child_main=None, args: tuple = ()) -> Generator:
        """Create a child process, locally or remotely; returns its pid."""
        dest = self._pick_site(parent, dest)
        env = parent.inherit_env()
        fd_specs = self._export_fds(parent)
        image = parent.image.clone()
        # Pages shipped to the new process site: the data pages always, the
        # code too unless it is reentrant and assumed present at the dest.
        xfer_pages = image.data_pages + (
            0 if image.reentrant else image.code_pages)
        if dest == self.sid:
            yield from self.site.cpu(
                self.site.cost.cpu_process_page * xfer_pages)
            child = yield from self._install_child(parent.pid, self.sid,
                                                   env, image, fd_specs)
            pid = child.pid
            parent.children[pid] = ChildRecord(pid=pid, site=dest)
            if child_main is not None:
                self.start_program(pid, self.sid, child_main, args)
        else:
            yield from self.site.cpu(
                self.site.cost.cpu_process_page * xfer_pages)
            # The child resumes at the destination; ``child_main`` is the
            # simulation's stand-in for the duplicated program counter and
            # travels with the process image.
            pid = yield from self.site.rpc(dest, "proc.create", {
                "ppid": parent.pid,
                "parent_site": self.sid,
                "env": env,
                "image": image,
                "fds": fd_specs,
                "child_main": child_main,
                "args": args,
                "__wire_bytes__": xfer_pages * self.site.cost.page_size,
            })
            parent.children[pid] = ChildRecord(pid=pid, site=dest)
        return pid

    def h_create(self, src: int, p: dict) -> Generator:
        yield from self.site.cpu(
            self.site.cost.cpu_process_page
            * (p["__wire_bytes__"] // self.site.cost.page_size))
        child = yield from self._install_child(p["ppid"], src, p["env"],
                                               p["image"], p["fds"])
        if p.get("child_main") is not None:
            self.start_program(child.pid, self.sid, p["child_main"],
                               tuple(p.get("args") or ()))
        return child.pid

    def _install_child(self, ppid: int, parent_site: int, env: dict,
                       image: Image, fd_specs: List[dict]) -> Generator:
        child = Process(pid=self._alloc_pid(), ppid=ppid, site_id=self.sid,
                        image=image.clone())
        child.apply_env(env)
        child.parent_site = parent_site
        self.procs[child.pid] = child
        yield from self._inherit_fds(child, fd_specs)
        return child

    def _inherit_fds(self, child: Process, fd_specs: List[dict]) -> Generator:
        for spec in fd_specs:
            yield from self.fdtable.attach(spec["ofd"])
            child.fds[spec["fd"]] = spec["ofd"]["ofd_id"]
            child.next_fd = max(child.next_fd, spec["fd"] + 1)
            if spec["ofd"]["kind"] == "pipe":
                server, pipe_id, role = self._pipe_coords(spec["ofd"])
                yield from self.pipes.open_role(server, pipe_id, role)
        return None

    def _export_fds(self, proc: Process) -> List[dict]:
        specs = []
        for fd, ofd_id in sorted(proc.fds.items()):
            rep = self.fdtable.replicas.get(ofd_id)
            if rep is not None:
                specs.append({"fd": fd, "ofd": rep.export()})
        return specs

    def _pipe_coords(self, ofd_spec_or_rep) -> tuple:
        """(server, pipe_id, role) from a pipe descriptor's target tuple."""
        if isinstance(ofd_spec_or_rep, dict):
            target = ofd_spec_or_rep["target"]
            mode = ofd_spec_or_rep["mode"]
        else:
            target = ofd_spec_or_rep.target
            mode = ofd_spec_or_rep.mode
        server, pipe_id = target
        role = "w" if mode.writable else "r"
        return server, pipe_id, role

    def _pick_site(self, proc: Process, dest: Optional[int]) -> int:
        """Execution-site decision: explicit argument, then the process's
        advice list, then local (section 3.1)."""
        if dest is not None:
            return dest
        if proc.advice:
            return proc.advice[0]
        return self.sid

    # ------------------------------------------------------------------
    # exec and run
    # ------------------------------------------------------------------

    def load_image(self, proc_env, path: str) -> Generator:
        """Read a load module through the filesystem *at this site*, so
        hidden directories match this machine's cpu type (section 2.4.1)."""
        ctx = SimpleNamespace(cwd=proc_env.get("cwd"),
                              hidden_context=[self.cpu_type],
                              hidden_visible=False,
                              default_copies=1, user=proc_env.get("user"))
        fs = self.site.fs
        handle = yield from fs.open_path(ctx, path, Mode.READ)
        try:
            data = yield from fs.read_all(handle)
        finally:
            yield from fs.close(handle)
        try:
            spec = json.loads(data.decode())
        except (ValueError, UnicodeDecodeError) as exc:
            raise EINVAL(f"{path}: not a load module: {exc}")
        image = Image(program=spec["program"],
                      cpu=spec.get("cpu", self.cpu_type),
                      code_pages=spec.get("code_pages", 16),
                      data_pages=spec.get("data_pages", 8),
                      reentrant=spec.get("reentrant", True))
        if image.cpu != self.cpu_type:
            raise EINVAL(f"{path}: load module is for cpu {image.cpu!r}, "
                         f"this site runs {self.cpu_type!r}")
        return image

    def exec(self, proc: Process, path: str, args: tuple = (),
             dest: Optional[int] = None) -> Generator:
        """Install a new load module; if the advice says a remote site, the
        process is effectively moved at that time (section 3.1)."""
        dest = self._pick_site(proc, dest)
        if dest == self.sid:
            image = yield from self.load_image(proc.inherit_env(), path)
            proc.image = image
            yield from self.site.cpu(
                self.site.cost.cpu_process_page * image.code_pages)
            self.start_program(proc.pid, self.sid, None, args)
            return proc.pid
        env = proc.inherit_env()
        fd_specs = self._export_fds(proc)
        # The old image is discarded on exec, so only the environment moves.
        yield from self.site.rpc(dest, "proc.exec_receive", {
            "pid": proc.pid,
            "ppid": proc.ppid,
            "parent_site": proc.parent_site,
            "env": env,
            "fds": fd_specs,
            "path": path,
            "args": args,
        })
        # The process left this site; keep a forwarding pointer for signals.
        self.procs.pop(proc.pid, None)
        self.forward[proc.pid] = dest
        proc.site_id = dest
        return proc.pid

    def h_exec_receive(self, src: int, p: dict) -> Generator:
        image = yield from self.load_image(p["env"], p["path"])
        proc = Process(pid=p["pid"], ppid=p["ppid"], site_id=self.sid,
                       image=image)
        proc.apply_env(p["env"])
        proc.parent_site = p["parent_site"]
        self.procs[proc.pid] = proc
        yield from self._inherit_fds(proc, p["fds"])
        self.start_program(proc.pid, self.sid, None, tuple(p["args"]))
        return proc.pid

    def run(self, parent: Process, path: str, args: tuple = (),
            dest: Optional[int] = None) -> Generator:
        """The run call: "similar to the effect of a fork followed by an
        exec ... avoids the copy of the parent process image" (section 3.1).
        Transparent as to where it executes."""
        dest = self._pick_site(parent, dest)
        env = parent.inherit_env()
        fd_specs = self._export_fds(parent)
        if dest == self.sid:
            image = yield from self.load_image(env, path)
            child = yield from self._install_child(parent.pid, self.sid,
                                                   env, image, fd_specs)
            pid = child.pid
            self.start_program(pid, self.sid, None, args)
        else:
            pid = yield from self.site.rpc(dest, "proc.run", {
                "ppid": parent.pid,
                "parent_site": self.sid,
                "env": env,
                "fds": fd_specs,
                "path": path,
                "args": args,
            })
        parent.children[pid] = ChildRecord(pid=pid, site=dest)
        return pid

    def h_run(self, src: int, p: dict) -> Generator:
        image = yield from self.load_image(p["env"], p["path"])
        child = yield from self._install_child(p["ppid"], src, p["env"],
                                               image, p["fds"])
        self.start_program(child.pid, self.sid, None, tuple(p["args"]))
        return child.pid

    # ------------------------------------------------------------------
    # Program execution
    # ------------------------------------------------------------------

    def start_program(self, pid: int, site_id: int, main=None,
                      args: tuple = ()) -> None:
        """Start the process's program as a kernel-driven task.

        ``main`` overrides the program-table lookup (fork's child_main).
        """
        if site_id != self.sid:
            return  # the destination site starts it
        proc = self.procs.get(pid)
        if proc is None:
            return
        fn = main
        if fn is None:
            table = getattr(self.site, "programs", {})
            fn = table.get(proc.image.program)
        if fn is None:
            return  # no executable body registered: stays an idle process
        from repro.proc.api import ProcApi
        api = ProcApi(self.site, proc)
        task = self.site.spawn(self._program_body(proc, fn, api, args),
                               name=f"prog:{proc.image.program}:{pid}")
        self._prog_tasks[pid] = task

    def _program_body(self, proc: Process, fn, api, args) -> Generator:
        from repro.errors import TaskCancelled
        code = 0
        try:
            result = yield from fn(api, *args)
            if isinstance(result, int):
                code = result
        except TaskCancelled:
            raise   # killed: the SIGKILL path performs the exit(137)
        except Exception:  # noqa: BLE001 - a crashing program exits 1
            code = 1
        finally:
            self._prog_tasks.pop(proc.pid, None)
        if proc.state is ProcState.RUNNING:
            yield from self.exit(proc, code)
        return code

    # ------------------------------------------------------------------
    # exit / wait
    # ------------------------------------------------------------------

    def exit(self, proc: Process, code: int = 0) -> Generator:
        if proc.state is not ProcState.RUNNING:
            return None
        proc.state = ProcState.ZOMBIE
        proc.exit_code = code
        for fd in list(proc.fds):
            try:
                yield from self._close_fd(proc, fd)
            except Exception:  # noqa: BLE001 - exit never fails
                pass
        if proc.ppid and proc.parent_site is not None:
            payload = {"pid": proc.pid, "code": code, "ppid": proc.ppid}
            if proc.parent_site == self.sid:
                yield from self.h_child_exit(self.sid, payload)
            else:
                yield from self.site.oneway_quiet(
                    proc.parent_site, "proc.child_exit", payload)
        self.procs.pop(proc.pid, None)
        return None

    def _close_fd(self, proc: Process, fd: int) -> Generator:
        ofd_id = proc.fds.pop(fd, None)
        if ofd_id is None:
            return None
        rep = self.fdtable.replicas.get(ofd_id)
        last = yield from self.fdtable.deref(ofd_id)
        if last and rep is not None and rep.kind == "pipe":
            server, pipe_id, role = self._pipe_coords(rep)
            yield from self.pipes.close_role(server, pipe_id, role)
        return None

    def h_child_exit(self, src: int, p: dict) -> Generator:
        parent = self.procs.get(p["ppid"])
        if parent is None:
            return None
        rec = parent.children.get(p["pid"])
        if rec is not None and rec.status == "running":
            rec.status = "exited"
            rec.exit_code = p["code"]
        self.deliver_signal(parent, Signal.SIGCHLD)
        self._wake_waiters(parent.pid)
        return None
        yield  # pragma: no cover

    def wait(self, proc: Process) -> Generator:
        """Wait for any child to exit; returns ``(pid, exit_code)``.

        A child lost to a site failure surfaces as
        :class:`RemoteProcessError` (section 3.3)."""
        while True:
            if not proc.children:
                raise ECHILD(f"process {proc.pid} has no children")
            for pid, rec in list(proc.children.items()):
                if rec.status == "exited":
                    del proc.children[pid]
                    return pid, rec.exit_code
                if rec.status == "error":
                    del proc.children[pid]
                    raise RemoteProcessError(pid, rec.site, "child")
            fut = self.site.sim.create_future(f"wait:{proc.pid}")
            self._wait_futs.setdefault(proc.pid, []).append(fut)
            yield fut

    def _wake_waiters(self, ppid: int) -> None:
        for fut in self._wait_futs.pop(ppid, []):
            fut.resolve(None)

    # ------------------------------------------------------------------
    # Signals (section 2.4.2: network-transparent, single-machine semantics)
    # ------------------------------------------------------------------

    def kill(self, pid: int, sig: Signal) -> Generator:
        if pid in self.procs:
            self.deliver_signal(self.procs[pid], sig)
            return None
        dest = self.forward.get(pid, pid_origin(pid))
        if dest == self.sid or dest not in self.site.net.site_ids:
            raise ESRCH(f"no process {pid}")
        yield from self.site.rpc(dest, "proc.signal",
                                 {"pid": pid, "sig": sig})
        return None

    def h_signal(self, src: int, p: dict) -> Generator:
        pid, sig = p["pid"], p["sig"]
        if pid in self.procs:
            self.deliver_signal(self.procs[pid], sig)
            return None
        nxt = self.forward.get(pid)
        if nxt is None or nxt == self.sid:
            raise ESRCH(f"no process {pid} at site {self.sid}")
        # Chase the forwarding pointer of a migrated process.
        yield from self.site.rpc(nxt, "proc.signal", {"pid": pid, "sig": sig})
        return None

    def deliver_signal(self, proc: Process, sig: Signal,
                       info: Optional[dict] = None) -> None:
        if proc.state is not ProcState.RUNNING:
            return
        if info is not None:
            proc.err_info.append(info)
        proc.pending_signals.append(sig)
        for fut in self._sig_futs.pop(proc.pid, []):
            fut.resolve(None)
        if sig == Signal.SIGKILL:
            task = self._prog_tasks.pop(proc.pid, None)
            if task is not None:
                task.cancel(f"SIGKILL pid {proc.pid}")
            self.site.spawn(self.exit(proc, 137),
                            name=f"sigkill-exit:{proc.pid}")

    def sigwait(self, proc: Process) -> Generator:
        while not proc.pending_signals:
            fut = self.site.sim.create_future(f"sigwait:{proc.pid}")
            self._sig_futs.setdefault(proc.pid, []).append(fut)
            yield fut
        return proc.pending_signals.pop(0)

    # ------------------------------------------------------------------
    # Partition handling (section 3.3 and the section 5.6 cleanup table)
    # ------------------------------------------------------------------

    def on_partition_change(self, lost: Set[int]) -> None:
        for proc in list(self.procs.values()):
            for rec in proc.children.values():
                if rec.site in lost and rec.status == "running":
                    rec.status = "error"
                    rec.error = f"site {rec.site} left the partition"
                    self.deliver_signal(proc, Signal.SIGCHLD_ERR, info={
                        "kind": "child_site_failed", "pid": rec.pid,
                        "site": rec.site,
                    })
                    self._wake_waiters(proc.pid)
            if proc.parent_site in lost:
                self.deliver_signal(proc, Signal.SIGPAR_ERR, info={
                    "kind": "parent_site_failed", "pid": proc.ppid,
                    "site": proc.parent_site,
                })
        self.fdtable.on_partition_change(lost)
