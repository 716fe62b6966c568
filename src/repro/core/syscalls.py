"""Synchronous per-site syscall facade for tests, examples and benchmarks.

A :class:`Shell` owns one process at one site and exposes the system-call
set as ordinary blocking methods; each call drives the simulation until the
kernel procedure completes (background kernel work — propagation,
reconfiguration — advances alongside).  The methods are derived from
:class:`~repro.proc.api.ProcApi`, where each syscall is declared once:
parameters and docstrings are ProcApi's, and a Shell method returns what
the kernel procedure returns.
"""

from __future__ import annotations

import functools

from repro.proc.api import _TRACED_SYSCALLS, ProcApi

# ProcApi methods that are plain functions (no kernel work to drive).
_PASS_THROUGH = ("getpid", "errinfo", "setcopies", "set_advice",
                 "set_hidden_context", "set_hidden_visible")


class Shell:
    """What a logged-in user at one site looks like to the experiment."""

    def __init__(self, cluster, site, user: str = "root"):
        self.cluster = cluster
        self.site = site
        self.proc = site.proc.make_process(user=user, program="shell")
        self.api = ProcApi(site, self.proc)

    def __repr__(self) -> str:
        return (f"<Shell site={self.site.site_id} pid={self.proc.pid} "
                f"user={self.proc.user}>")


def _blocking(name: str):
    """Shell method that runs kernel procedure ``ProcApi.<name>`` to
    completion."""
    @functools.wraps(getattr(ProcApi, name))
    def method(self, *args, **kw):
        gen = getattr(self.api, name)(*args, **kw)
        return self.cluster.call(self.site, gen,
                                 name=f"{name}@{self.site.site_id}")
    return method


def _pass_through(name: str):
    """Shell method for a ProcApi call that needs no simulation time."""
    @functools.wraps(getattr(ProcApi, name))
    def method(self, *args, **kw):
        return getattr(self.api, name)(*args, **kw)
    return method


# The conveniences compose traced syscalls (write_file takes str or bytes:
# ProcApi.write encodes).
_CONVENIENCES = ("write_file", "read_file", "install_program")

for _name in _TRACED_SYSCALLS + _CONVENIENCES:
    setattr(Shell, _name, _blocking(_name))
for _name in _PASS_THROUGH:
    setattr(Shell, _name, _pass_through(_name))
del _name
