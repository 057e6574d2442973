"""The service CLI surface and the exit-code contract.

The contract (docs/RESILIENCE.md) must hold identically whether a
verdict comes from a one-shot ``analyze`` or from ``submit`` against a
daemon: 0 safe, 2 attack, 4 degraded, 130 interrupted.
"""

import json
import os
import subprocess
import sys

import pytest

from repro.cli import EXIT_USAGE, build_parser, main
from repro.perf import runtime
from repro.resilience import faults
from repro.resilience.faults import FaultPlan, parse_spec
from repro.service import ServiceClient
from repro.service.client import wait_for_service
from repro.service.protocol import unix_supported

SAFE_SRC = """
proc check(secret pin: int, public attempts: uint): int {
    var i: int = 0;
    while (i < attempts) { i = i + 1; }
    return i;
}
"""

LEAKY_SRC = """
proc check(secret pin: int, public attempts: uint): bool {
    if (pin == 1234) {
        var i: int = 0;
        while (i < attempts) { i = i + 1; }
        return true;
    }
    return false;
}
"""


@pytest.fixture(autouse=True)
def _no_leaked_plan():
    faults.clear()
    yield
    faults.clear()


@pytest.fixture
def sources(tmp_path):
    safe = tmp_path / "safe.rp"
    safe.write_text(SAFE_SRC)
    leaky = tmp_path / "leaky.rp"
    leaky.write_text(LEAKY_SRC)
    return {"safe": str(safe), "leaky": str(leaky)}


@pytest.fixture
def daemon(threaded_daemon):
    return threaded_daemon()


class TestVersionAndUsage:
    def test_version_flag(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--version"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("repro ")

    def test_no_subcommand_prints_help_and_exits_2(self, capsys):
        assert main([]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert "usage:" in err and "analyze" in err and "serve" in err

    @pytest.mark.parametrize("value", ["0", "-1", "two"])
    def test_serve_rejects_bad_worker_counts(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["serve", "--workers-per-shard", value])
        assert info.value.code == 2
        assert "workers-per-shard must be" in capsys.readouterr().err

    def test_table1_jobs_still_allows_zero(self):
        args = build_parser().parse_args(["table1", "--jobs", "0"])
        assert args.jobs == 0

    @pytest.mark.parametrize("value", ["-1", "many"])
    def test_table1_rejects_bad_jobs(self, value, capsys):
        with pytest.raises(SystemExit) as info:
            build_parser().parse_args(["table1", "--jobs", value])
        assert info.value.code == 2
        assert "jobs must be" in capsys.readouterr().err


def _argv(mode, sources, daemon, case):
    """Build the analyze/submit argv for one contract row."""
    argv = [mode, sources["leaky" if case == "attack" else "safe"]]
    if mode == "submit":
        argv += ["--connect", daemon.address]
    if case == "attack":
        argv += ["--observer", "threshold"]
    elif case == "degraded":
        argv += ["--max-steps", "1"]
    return argv


class TestExitCodeContract:
    @pytest.mark.parametrize("mode", ["analyze", "submit"])
    @pytest.mark.parametrize(
        "case,expected", [("safe", 0), ("attack", 2), ("degraded", 4)]
    )
    def test_verdict_exit_codes(self, mode, case, expected, sources, daemon):
        assert main(_argv(mode, sources, daemon, case)) == expected

    def test_analyze_interrupt_exits_130(self, sources):
        # Earlier tests in this class analyze the same source in-process,
        # warming the process-global shared-bound tier — a cache hit
        # would skip the engine and the injected interrupt would never
        # fire, so this fault-site test must start cold.
        runtime.clear_caches()
        faults.install(FaultPlan([parse_spec("engine.step:interrupt")]))
        assert main(["analyze", sources["safe"]]) == 130

    def test_submit_interrupt_exits_130(self, sources, monkeypatch):
        monkeypatch.setattr(ServiceClient, "connect", lambda self: self)
        monkeypatch.setattr(
            ServiceClient,
            "submit",
            lambda self, *a, **k: (_ for _ in ()).throw(KeyboardInterrupt()),
        )
        assert main(["submit", sources["safe"], "--connect", "unused.sock"]) == 130

    def test_submit_without_daemon_exits_1(self, sources, tmp_path, capsys):
        address = "unix:%s" % (tmp_path / "nothing.sock")
        assert main(["submit", sources["safe"], "--connect", address]) == 1
        assert "error:" in capsys.readouterr().err

    def test_submit_failed_job_exits_1(self, sources, daemon, capsys):
        faults.install(FaultPlan([parse_spec("worker.run:error:match=check")]))
        assert (
            main(["submit", sources["safe"], "--connect", daemon.address]) == 1
        )
        assert "failed" in capsys.readouterr().err


def _submit_job_id(sources, daemon, capsys):
    """Submit the safe source through the CLI; the job id it got."""
    argv = ["submit", sources["safe"], "--connect", daemon.address, "--json"]
    assert main(argv) == 0
    return json.loads(capsys.readouterr().out)["job"]


class TestStatusCommand:
    def test_overview_and_stats(self, sources, daemon, capsys):
        job = _submit_job_id(sources, daemon, capsys)
        assert main(["status", "--connect", daemon.address]) == 0
        out = capsys.readouterr().out
        assert "1 shard(s), thread isolation, queue depth 0" in out
        assert "%s done" % job in out
        assert main(["status", "--connect", daemon.address, "--stats"]) == 0
        assert "executed: 1" in capsys.readouterr().out

    def test_single_job_and_json(self, sources, daemon, capsys):
        job = _submit_job_id(sources, daemon, capsys)
        assert main(["status", "--connect", daemon.address, "--job", job]) == 0
        assert capsys.readouterr().out.startswith("%s done" % job)
        assert main(["status", "--connect", daemon.address, "--json"]) == 0
        assert '"ok": true' in capsys.readouterr().out

    def test_shutdown_flag(self, daemon, capsys):
        assert main(["status", "--connect", daemon.address, "--shutdown"]) == 0
        assert "stopping" in capsys.readouterr().out


@pytest.mark.service
class TestServiceSmoke:
    """Boot the real ``repro serve`` process and run the Fig. 1 login
    pair through it — the docs/SERVICE.md quick-start, verbatim."""

    def test_login_pair_round_trip(self, tmp_path):
        from repro.benchsuite.literature import LOGIN_SAFE, LOGIN_UNSAFE

        safe = tmp_path / "login_safe.rp"
        safe.write_text(LOGIN_SAFE)
        unsafe = tmp_path / "login_unsafe.rp"
        unsafe.write_text(LOGIN_UNSAFE)
        address = (
            "unix:%s" % (tmp_path / "svc.sock")
            if unix_supported()
            else "tcp:127.0.0.1:7391"
        )
        src_dir = os.path.dirname(os.path.dirname(os.path.abspath(main.__code__.co_filename)))
        env = dict(os.environ, PYTHONPATH=src_dir)
        server = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                address,
                "--workers-per-shard",
                "2",
                "--cache-dir",
                str(tmp_path / "cache"),
            ],
            env=env,
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
        )
        try:
            wait_for_service(address, timeout=15.0)
            base = ["--connect", address]
            assert main(["submit", str(safe)] + base) == 0
            assert main(["submit", str(unsafe)] + base) == 2
            # The second identical submission must be a cache hit.
            with ServiceClient(address) as client:
                reply = client.submit(
                    LOGIN_SAFE,
                    observer="degree",
                    threshold=25_000,
                    max_input=4096,
                    max_bits=4096,
                    domain="zone",
                    wait=True,
                )
                assert reply["cached"] in ("memory", "disk")
                stats = client.stats()
                assert stats["executed"] == 2
                assert stats["hits_memory"] + stats["hits_disk"] >= 1
                client.shutdown()
            server.wait(timeout=15.0)
        finally:
            if server.poll() is None:
                server.kill()
                server.wait()
