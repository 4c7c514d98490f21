"""Graceful SIGINT: interrupted CLI runs flush valid partial telemetry.

Real subprocess drills (spawn the CLI, let it stream, kill it with
SIGINT) — slow-marked; CI's fleet-smoke job runs them with ``-m slow``.
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import time

import pytest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def spawn_cli(*argv, cwd, **extra_env):
    env = dict(os.environ, PYTHONPATH=os.path.join(REPO, "src"), **extra_env)
    return subprocess.Popen(
        [sys.executable, "-m", "repro.cli", *argv],
        cwd=cwd, env=env, text=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        # The child must lead its own process group so the test's
        # SIGINT hits only it, not the pytest process.
        start_new_session=True,
    )


def wait_for_spill(path, *, min_bytes=2000, timeout=60.0):
    """Block until the run is demonstrably mid-stream (spill growing)."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if os.path.exists(path) and os.path.getsize(path) >= min_bytes:
            return
        time.sleep(0.05)
    raise AssertionError(f"spill file never reached {min_bytes} bytes")


def wait_for_workers(pid, count, *, timeout=60.0):
    """Block until process ``pid`` has ``count`` spawned fleet workers.

    Its other child, multiprocessing's resource tracker, is not counted.
    """
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        with open(f"/proc/{pid}/task/{pid}/children", encoding="ascii") as fh:
            children = fh.read().split()
        workers = 0
        for child in children:
            try:
                with open(f"/proc/{child}/cmdline", "rb") as fh:
                    workers += b"spawn_main" in fh.read()
            except FileNotFoundError:  # exited meanwhile
                pass
        if workers >= count:
            return
        time.sleep(0.01)
    raise AssertionError(f"process {pid} never had {count} fleet workers")


@pytest.mark.slow
class TestSigint:
    def test_interrupted_run_flushes_valid_jsonl(self, tmp_path):
        spill = tmp_path / "partial.jsonl"
        # A horizon far beyond what can finish before the interrupt.
        proc = spawn_cli(
            "run", "--scheduler", "GE", "--rate", "150",
            "--horizon", "600", "--seed", "1",
            "--trace-out", str(spill),
            cwd=tmp_path,
        )
        try:
            wait_for_spill(spill)
            proc.send_signal(signal.SIGINT)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "interrupted at simulated t=" in stdout
        assert "flushed" in stdout

        # Every spilled line — including the last — is complete JSON.
        lines = spill.read_text(encoding="utf-8").splitlines()
        assert len(lines) > 10
        records = [json.loads(line) for line in lines]
        # The close() path appended the meta tail, flagged interrupted.
        headers = [r for r in records if r.get("type") == "meta"]
        assert headers, "no meta records in the partial spill"
        assert (headers[-1]["meta"] or {}).get("interrupted") is True, (
            "final meta record does not flag the run as interrupted"
        )

    def test_interrupted_run_lands_in_store_when_requested(self, tmp_path):
        spill = tmp_path / "partial.jsonl"
        runs_dir = tmp_path / "runs"
        proc = spawn_cli(
            "run", "--scheduler", "GE", "--rate", "150",
            "--horizon", "600", "--seed", "2",
            "--store", "--runs-dir", str(runs_dir),
            "--trace-out", str(spill),
            cwd=tmp_path,
        )
        try:
            wait_for_spill(spill)
            proc.send_signal(signal.SIGINT)
            stdout, _ = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "stored interrupted run" in stdout

        from repro.obs.runs import RunStore

        store = RunStore(runs_dir)
        (run_id,) = store.ids()
        doc = store.load(run_id)
        assert doc["result"] is None
        assert doc["meta"]["interrupted"] is True

    def test_interrupted_fleet_leaves_ctrl_c_to_the_parent(self, tmp_path):
        proc = spawn_cli(
            "fleet", "run", "--scenarios", "ge_light", "--seeds", "1,2,3,4",
            "--scale", "0.05", "--workers", "2", "--no-store",
            cwd=tmp_path, PYTHONUNBUFFERED="1",
        )
        try:
            # Both workers are running tasks once the first one finishes.
            first = proc.stdout.readline()
            # Ctrl-C in a terminal signals the whole foreground group.
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert first.strip()
        assert proc.returncode == 130
        assert "fleet: interrupted" in stdout
        assert stderr == ""

    def test_fleet_ctrl_c_while_workers_start_up_stays_quiet(self, tmp_path):
        proc = spawn_cli(
            "fleet", "run", "--scenarios", "ge_light", "--seeds", "1,2",
            "--scale", "0.05", "--workers", "2", "--no-store",
            cwd=tmp_path, PYTHONUNBUFFERED="1",
        )
        try:
            wait_for_workers(proc.pid, 2)
            # Both workers exist and are still importing: a Ctrl-C now
            # must not reach them before they ignore it.
            time.sleep(0.15)
            os.killpg(proc.pid, signal.SIGINT)
            stdout, stderr = proc.communicate(timeout=60)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()
        assert proc.returncode == 130
        assert "fleet: interrupted" in stdout
        assert stderr == ""
