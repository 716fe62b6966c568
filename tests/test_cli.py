"""The interactive operator console."""

import pytest

from repro.cli import Console


@pytest.fixture
def console():
    return Console(n_sites=3, seed=123)


def run(console, *lines):
    outs = []
    for line in lines:
        outs.append(console.run_command(line))
    return outs


class TestFileCommands:
    def test_write_cat_roundtrip(self, console):
        assert run(console, "write /f hello world")[-1] == "ok"
        assert run(console, "cat /f")[-1] == "hello world"

    def test_mkdir_ls(self, console):
        run(console, "mkdir /d", "write /d/a one", "write /d/b two")
        assert run(console, "ls /d")[-1] == "a  b"
        assert run(console, "ls /nonexistent")[-1].startswith("error:")

    def test_append(self, console):
        run(console, "write /log first", "append /log |second")
        assert run(console, "cat /log")[-1] == "first|second"

    def test_mv_ln_rm(self, console):
        run(console, "write /a data", "ln /a /b", "mv /a /c", "rm /b")
        assert run(console, "cat /c")[-1] == "data"
        assert run(console, "cat /b")[-1].startswith("error:")

    def test_stat_shows_fields(self, console):
        run(console, "write /s abc")
        out = run(console, "stat /s")[-1]
        assert "size: 3" in out and "nlink: 1" in out

    def test_copies_and_storage(self, console):
        run(console, "copies 3", "write /r replicated")
        out = run(console, "stat /r")[-1]
        assert "storage_sites: [0, 1, 2]" in out


class TestTopologyCommands:
    def test_site_switch(self, console):
        run(console, "write /shared seen-everywhere")
        assert run(console, "site 2")[-1] == "now at site 2"
        assert run(console, "cat /shared")[-1] == "seen-everywhere"

    def test_partition_and_heal(self, console):
        run(console, "copies 3", "write /x base")
        out = run(console, "partition 0,1 2")[-1]
        assert "partitioned" in out
        run(console, "write /x left-version")
        assert "healed" in run(console, "heal")[-1]
        run(console, "site 2")
        assert run(console, "cat /x")[-1] == "left-version"

    def test_crash_and_boot(self, console):
        run(console, "copies 3", "write /y durable")
        run(console, "crash 1")
        assert run(console, "cat /y")[-1] == "durable"
        assert "rejoined" in run(console, "boot 1")[-1]

    def test_status_and_fsck(self, console):
        run(console, "write /z zz")
        status = run(console, "status")[-1]
        assert "site 0" in status and "site 2" in status
        assert "CLEAN" in run(console, "fsck")[-1]

    def test_mail_empty(self, console):
        assert run(console, "mail root")[-1] == "(no mail)"


class TestDispatch:
    def test_unknown_command(self, console):
        assert "unknown command" in console.run_command("frobnicate")

    def test_usage_error(self, console):
        # A missing argument, and an argument that is not a site number.
        for line in ("cat", "partition 0 | 1,2", "site x", "copies x",
                     "crash x", "boot x"):
            assert "usage error" in console.run_command(line), line

    def test_help_lists_commands(self, console):
        out = console.run_command("help")
        assert "partition" in out and "fsck" in out

    def test_quit_returns_none(self, console):
        assert console.run_command("quit") is None
        assert console.run_command("exit") is None

    def test_empty_line(self, console):
        assert console.run_command("") == ""

    def test_bad_quoting(self, console):
        assert "parse error" in console.run_command('write /f "unclosed')
