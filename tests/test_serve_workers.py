"""The process model behind ``repro serve``: every slot's simulation
runs in a long-lived worker process (`repro.serve.worker`), and the
service a client sees is the one the thread model gave it.

Same service: served bytes equal a direct run on every record path,
telemetry keeps its keys, the disk ledger reads as it did when runs
shared the server's `DiskBudget`.  Different plumbing: the server
process burns almost no CPU while a simulation runs, a killed worker
fails one job and nothing else, workers ignore the terminal's signals
and do not outlive their server.
"""

from __future__ import annotations

import multiprocessing as mp
import os
import re
import resource
import signal
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

from repro.core.study import Study, StudyConfig
from repro.pressure import du_bytes
from repro.runtime import RuntimeConfig, pool, run_study

from tests.serve_util import (
    OTHER_CONFIG,
    TINY_CONFIG,
    SseStream,
    get_json,
    post_json,
    request,
    running_server,
    wait_for_state,
)

#: A study that simulates for a few seconds (18 one-play-or-more users).
LONG_CONFIG = {
    "seed": 21, "scale": 0.03, "max_users": 12, "playlist_length": 6,
}

SETTLED = ("done", "failed", "interrupted", "cancelled")

#: For tests that patch the simulator before boot and count on the
#: forked workers inheriting the patch.
needs_fork = pytest.mark.skipif(
    "fork" not in mp.get_all_start_methods(),
    reason="workers inherit a monkeypatch only when forked",
)

#: `RunTelemetry.snapshot()`'s documented, always-present keys.
TELEMETRY_KEYS = {
    "total_plays", "done_plays", "simulated_plays", "restored_plays",
    "elapsed_s", "plays_per_second", "eta_s", "workers",
    "worker_utilization", "retries", "violation_total",
    "journal_errors", "shard_states", "finished",
}


def direct_csv(config_data: dict) -> bytes:
    """The bytes a direct, in-process `run_study` gives."""
    config = StudyConfig.from_dict(config_data)
    if "aggregation" in config_data:
        config = replace(config, aggregation=config_data["aggregation"])
    result = run_study(config, RuntimeConfig(workers=1))
    return result.dataset.to_csv_string().encode("utf-8")


def served_csv(base: str, job_id: str) -> bytes:
    status, _headers, body = request(base, f"/v1/jobs/{job_id}/study.csv")
    assert status == 200, body
    return body


def sim_workers() -> list:
    """The live simulation processes of servers in this process."""
    return [
        child for child in mp.active_children()
        if child.name == "repro-serve-sim"
    ]


def live(pid: int) -> bool:
    """Is ``pid`` a process that still runs (a zombie does not)?"""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except OSError:
        return False
    return stat.rsplit(")", 1)[1].split()[0] != "Z"


def child_pids(pid: int) -> list[int]:
    """Live children of ``pid``, read from /proc."""
    found = []
    for entry in Path("/proc").iterdir():
        if not entry.name.isdigit() or not live(int(entry.name)):
            continue
        try:
            stat = (entry / "stat").read_text()
        except OSError:
            continue  # exited while we were listing
        if int(stat.rsplit(")", 1)[1].split()[1]) == pid:
            found.append(int(entry.name))
    return sorted(found)


# -- same service ------------------------------------------------------------


class TestServedBytes:
    @pytest.mark.parametrize("extra,shard_workers", [
        ({}, 1),
        ({"aggregation": "sketch"}, 1),
        ({"scenario": "dash-abr-bbr"}, 1),
        # a worker is not a daemon: it may fork the runtime's shard pool
        ({}, 2),
        ({"aggregation": "sketch"}, 2),
    ], ids=["exact", "sketch", "dash-abr-bbr", "exact-pool", "sketch-pool"])
    def test_served_csv_equals_a_direct_run(
        self, tmp_path, extra, shard_workers
    ):
        config = {**TINY_CONFIG, **extra}
        with running_server(
            tmp_path / "c", workers=1, shard_workers=shard_workers
        ) as harness:
            _status, doc = post_json(harness.base, "/v1/studies", config)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            assert doc["state"] == "done", doc
            assert doc["study"]["source"] == "simulated"
            assert served_csv(harness.base, doc["job_id"]) == \
                direct_csv(config)
            status, figures = get_json(
                harness.base, f"/v1/jobs/{doc['job_id']}/figures"
            )
            if extra.get("aggregation") == "sketch":
                assert status == 200
                assert all(
                    set(entry) == {"title", "headline"}
                    for entry in figures["figures"].values()
                ) and len(figures["figures"]) >= 28
            else:
                assert status == 409
            # stored, so the journal (and its spill files) is gone
            assert not (tmp_path / "c" / "checkpoints"
                        / doc["study"]["config_hash"]).exists()

    def test_two_fresh_studies_at_once_both_simulate(self, tmp_path):
        with running_server(tmp_path / "c", workers=2) as harness:
            jobs = [
                post_json(harness.base, "/v1/studies", config,
                          client=f"c{index}")[1]["job_id"]
                for index, config in enumerate((TINY_CONFIG, OTHER_CONFIG))
            ]
            for job_id, config in zip(jobs, (TINY_CONFIG, OTHER_CONFIG)):
                doc = wait_for_state(harness.base, job_id, SETTLED)
                assert doc["state"] == "done", doc
                assert doc["study"]["source"] == "simulated"
                assert served_csv(harness.base, job_id) == direct_csv(config)
            _status, stats = get_json(harness.base, "/v1/stats")
            assert stats["simulated"] == 2
            assert stats["worker_restarts"] == 0

    def test_telemetry_keeps_its_keys_and_arrives_mid_run(self, tmp_path):
        with running_server(tmp_path / "c", workers=1) as harness:
            _status, doc = post_json(harness.base, "/v1/studies", LONG_CONFIG)
            events = SseStream(
                harness.base, f"/v1/jobs/{doc['job_id']}/events"
            ).collect()
        frames = [data for kind, data in events if kind == "telemetry"]
        assert events[-1][1]["state"] == "done"
        assert all(TELEMETRY_KEYS <= set(frame) for frame in frames)
        mid_run = [
            frame for frame in frames
            if not frame["finished"]
            and 0 < frame["done_plays"] < frame["total_plays"]
        ]
        assert mid_run, frames
        assert frames[-1]["finished"]
        assert frames[-1]["done_plays"] == frames[-1]["total_plays"]
        # throttled in the worker, not per play
        assert len(frames) < frames[-1]["total_plays"] + 2


class TestSpawn:
    def test_whole_lifecycle_with_spawned_workers(self, tmp_path, monkeypatch):
        """Submit, telemetry, done, CSV, cache hit on restart, drain —
        with workers that import from scratch instead of forking."""
        monkeypatch.setattr(mp, "get_all_start_methods", lambda: ["spawn"])
        with running_server(tmp_path / "c", workers=2) as harness:
            # spawned: a fresh interpreter, not a copy of this one
            assert all(
                type(child).__name__ == "SpawnProcess"
                for child in sim_workers()
            ) and len(sim_workers()) == 2
            _status, doc = post_json(harness.base, "/v1/studies", TINY_CONFIG)
            events = SseStream(
                harness.base, f"/v1/jobs/{doc['job_id']}/events"
            ).collect()
            assert any(kind == "telemetry" for kind, _data in events)
            assert events[-1][1]["state"] == "done"
            assert served_csv(harness.base, doc["job_id"]) == \
                direct_csv(TINY_CONFIG)
            # a drain with a run in flight settles it `interrupted`
            _status, doc = post_json(harness.base, "/v1/studies", LONG_CONFIG)
            stream = SseStream(
                harness.base, f"/v1/jobs/{doc['job_id']}/events"
            )
            for kind, _data in stream.events():
                if kind == "telemetry":
                    break
            harness.trigger_drain()
            final = stream.collect()[-1][1]
            assert final["state"] == "interrupted", final
            harness.join()
        assert sim_workers() == []
        with running_server(tmp_path / "c", workers=1) as harness:
            _status, doc = post_json(harness.base, "/v1/studies", TINY_CONFIG)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            assert doc["study"]["source"] == "cache"


# -- different plumbing ------------------------------------------------------


class TestServerStaysOutOfTheSimulation:
    def test_server_cpu_is_a_fraction_of_the_simulation(self, tmp_path):
        """Wall-clock-free cost guard: across a simulation of a second
        or more, the server process's own CPU (this process: the
        harness runs the server in a thread) stays under a quarter of
        the job's elapsed time.  With simulations on server threads it
        was all of it."""
        with running_server(tmp_path / "c", workers=1) as harness:
            before = resource.getrusage(resource.RUSAGE_SELF)
            _status, doc = post_json(harness.base, "/v1/studies", LONG_CONFIG)
            events = SseStream(
                harness.base, f"/v1/jobs/{doc['job_id']}/events"
            ).collect()
            after = resource.getrusage(resource.RUSAGE_SELF)
            assert events[-1][1]["state"] == "done"
            _status, doc = get_json(harness.base, f"/v1/jobs/{doc['job_id']}")
        elapsed = doc["study"]["elapsed_s"]
        own_cpu = (
            after.ru_utime + after.ru_stime
            - before.ru_utime - before.ru_stime
        )
        assert elapsed >= 1.0, elapsed
        assert own_cpu < 0.25 * elapsed, (own_cpu, elapsed)

    def test_no_play_runs_in_the_server_process(self, tmp_path, monkeypatch):
        """Patched after boot, so only this process — the server — sees
        the tripwires; the forked workers keep the real functions."""
        with running_server(
            tmp_path / "c", workers=1, shard_workers=1
        ) as harness:
            def tripwire(*_args, **_kwargs):
                raise AssertionError("a play ran in the server process")

            monkeypatch.setattr(Study, "run_users", tripwire)
            monkeypatch.setattr(pool, "simulate_shard", tripwire)
            for config in (TINY_CONFIG, {**OTHER_CONFIG,
                                         "aggregation": "sketch"}):
                _status, doc = post_json(harness.base, "/v1/studies", config)
                doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
                assert doc["state"] == "done", doc
                assert doc["study"]["source"] == "simulated"


class TestWorkerDeath:
    def test_kill_fails_one_job_and_the_slot_carries_on(self, tmp_path):
        cache = tmp_path / "c"
        with running_server(cache, workers=1) as harness:
            (worker,) = sim_workers()
            _status, victim = post_json(
                harness.base, "/v1/studies", LONG_CONFIG, client="a"
            )
            _status, queued = post_json(
                harness.base, "/v1/studies", TINY_CONFIG, client="b"
            )
            stream = SseStream(
                harness.base, f"/v1/jobs/{victim['job_id']}/events"
            )
            for kind, data in stream.events():
                if (
                    kind == "telemetry"
                    and data["shard_states"].get("done", 0) >= 2
                ):
                    break  # two shards (a user each) are journaled
            os.kill(worker.pid, signal.SIGKILL)
            final = stream.collect()[-1][1]
            assert final["state"] == "failed", final
            assert "killed by SIGKILL" in final["error"]
            config_hash = victim["study"]["config_hash"]
            assert f"checkpoints/{config_hash}" in final["error"]
            journal = cache / "checkpoints" / config_hash
            assert (journal / "manifest.json").exists()

            # the slot got a fresh worker and ran the next job
            doc = wait_for_state(harness.base, queued["job_id"], SETTLED)
            assert doc["state"] == "done", doc
            assert doc["study"]["source"] == "simulated"
            assert served_csv(harness.base, queued["job_id"]) == \
                direct_csv(TINY_CONFIG)
            (replacement,) = sim_workers()
            assert replacement.pid != worker.pid
            _status, stats = get_json(harness.base, "/v1/stats")
            assert stats["worker_restarts"] == 1
            assert stats["job_states"] == {"failed": 1, "done": 1}

        # The same study resumes from the kept journal.  Terminal jobs
        # stay terminal within one server's registry, so "again" means
        # a server restarted on the same --cache-dir.
        with running_server(cache, workers=1) as harness:
            _status, doc = post_json(harness.base, "/v1/studies", LONG_CONFIG)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            assert doc["state"] == "done", doc
            assert doc["study"]["telemetry"]["restored_plays"] >= 2
            assert served_csv(harness.base, doc["job_id"]) == \
                direct_csv(LONG_CONFIG)

    @needs_fork
    def test_exit_code_is_reported(self, tmp_path, monkeypatch):
        """A worker that exits by itself (`os._exit`) names its code."""
        def bail(*_args, **_kwargs):
            os._exit(3)

        # patched before boot: the forked worker inherits it
        monkeypatch.setattr(Study, "run_users", bail)
        with running_server(tmp_path / "c", workers=1) as harness:
            _status, doc = post_json(harness.base, "/v1/studies", TINY_CONFIG)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            assert doc["state"] == "failed"
            assert "exit code 3" in doc["error"]

    @needs_fork
    def test_a_raise_in_the_worker_fails_the_job_not_the_worker(
        self, tmp_path, monkeypatch
    ):
        real = Study.run_users

        def flaky(self, *args, **kwargs):
            if self.config.seed == TINY_CONFIG["seed"]:
                raise RuntimeError("boom")
            return real(self, *args, **kwargs)

        monkeypatch.setattr(Study, "run_users", flaky)
        with running_server(tmp_path / "c", workers=1) as harness:
            (worker,) = sim_workers()
            _status, doc = post_json(harness.base, "/v1/studies", TINY_CONFIG)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            assert doc["state"] == "failed"
            assert doc["error"] == "RuntimeError: boom"
            _status, doc = post_json(harness.base, "/v1/studies", OTHER_CONFIG)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            assert doc["state"] == "done", doc
            assert [w.pid for w in sim_workers()] == [worker.pid]
            _status, stats = get_json(harness.base, "/v1/stats")
            assert stats["worker_restarts"] == 0


class TestSignalsAndOrphans:
    def test_workers_ignore_sigint_and_sigterm(self, tmp_path):
        with running_server(tmp_path / "c", workers=1) as harness:
            (worker,) = sim_workers()
            _status, doc = post_json(harness.base, "/v1/studies", LONG_CONFIG)
            stream = SseStream(
                harness.base, f"/v1/jobs/{doc['job_id']}/events"
            )
            for kind, _data in stream.events():
                if kind == "telemetry":
                    break
            os.kill(worker.pid, signal.SIGINT)
            os.kill(worker.pid, signal.SIGTERM)
            final = stream.collect()[-1][1]
            assert final["state"] == "done", final
            assert [w.pid for w in sim_workers()] == [worker.pid]

    def test_workers_do_not_outlive_a_killed_server(self, tmp_path):
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
        server = subprocess.Popen(
            [sys.executable, "-u", "-m", "repro.cli", "serve", "--port", "0",
             "--workers", "2", "--cache-dir", str(tmp_path / "c")],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env=env,
        )
        try:
            line = server.stdout.readline()
            match = re.search(r"http://([\d.]+):(\d+)", line)
            assert match, line
            base = f"http://{match.group(1)}:{match.group(2)}"
            # the workers exist by the time the address is announced
            workers = child_pids(server.pid)
            assert len(workers) == 2, workers
            # one busy, one idle
            post_json(base, "/v1/studies", LONG_CONFIG)
            time.sleep(0.5)
            server.kill()
            server.wait(timeout=30)
            deadline = time.monotonic() + 10
            while any(map(live, workers)) and time.monotonic() < deadline:
                time.sleep(0.1)
            left = [pid for pid in workers if live(pid)]
            assert not left, f"workers {left} outlived their server"
        finally:
            if server.poll() is None:
                server.kill()
                server.wait(timeout=30)
            server.stdout.close()


# -- the disk ledger ---------------------------------------------------------


def _masked(text: str) -> str:
    return re.sub(r"\d+", "N", text)


class TestLedgerParity:
    """Pinned by running these same assertions against the commit where
    runs charged the server's own `DiskBudget` from a server thread."""

    SKETCH = {**TINY_CONFIG, "aggregation": "sketch"}

    def journal_bytes(self, tmp_path) -> int:
        run_study(
            replace(StudyConfig.from_dict(self.SKETCH), aggregation="sketch"),
            RuntimeConfig(workers=1, checkpoint_dir=tmp_path / "probe"),
        )
        return du_bytes(tmp_path / "probe")

    def test_a_budget_that_trips_mid_run_drains_the_run(self, tmp_path):
        budget = int(self.journal_bytes(tmp_path) * 0.5 / 0.95)
        cache = tmp_path / "c"
        with running_server(
            cache, workers=1, max_disk_bytes=budget
        ) as harness:
            _status, doc = post_json(harness.base, "/v1/studies", self.SKETCH)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            _status, stats = get_json(harness.base, "/v1/stats")
            _status, manifest = get_json(
                harness.base, f"/v1/jobs/{doc['job_id']}/manifest"
            )
            # new submissions are refused while the ledger reads hard
            status, _doc = post_json(harness.base, "/v1/studies", OTHER_CONFIG)
            assert status == 429
        assert doc["state"] == "interrupted"
        assert doc["error"] == (
            "drained by the disk budget's hard watermark; free space "
            "(repro cache gc) or raise the budget, then resubmit to "
            "resume from the checkpoint"
        )
        telemetry = doc["study"]["telemetry"]
        assert telemetry["finished"]
        assert telemetry["shard_states"] == {"done": 5, "pending": 1}
        assert telemetry["journal_errors"] == 2
        assert telemetry["pressure_level"] == "hard"
        assert manifest["interrupted_by"] == "disk-budget"
        assert manifest["pending_shards"] == [5]

        pressure = stats["pressure"]
        assert pressure["max_bytes"] == budget
        assert pressure["level"] == "hard"
        assert pressure["refused"] == 2
        assert pressure["store_skips"] == 0
        assert [_masked(event) for event in pressure["events"]] == [
            "refused checkpoints write: disk budget exhausted: N bytes "
            "would exceed hard watermark N of N (checkpoints charge of N)",
            "refused checkpoints write: disk budget exhausted: N bytes "
            "would exceed hard watermark N of N (checkpoints charge of N)",
            "hard watermark: refusing new shards, draining in-flight work",
        ]
        by_category = pressure["by_category"]
        assert by_category["cache"] == 0
        assert by_category["checkpoints"] > 0 and by_category["spills"] > 0
        assert pressure["used_bytes"] == sum(by_category.values())
        assert pressure["used_bytes"] >= pressure["hard_bytes"]
        # the ledger is what is on disk: the refused shards' spill
        # files, charged as they were written, are the only bytes the
        # journal does not reference
        assert pressure["used_bytes"] == du_bytes(cache)
        # and the run's own view of it made it into the run manifest
        assert manifest["pressure"]["used_bytes"] <= pressure["used_bytes"]
        assert manifest["pressure"]["refused"] == 2

    def test_a_roomy_budget_stores_and_releases_the_journal(self, tmp_path):
        cache = tmp_path / "c"
        with running_server(
            cache, workers=1, max_disk_bytes=10_000_000
        ) as harness:
            _status, doc = post_json(harness.base, "/v1/studies", self.SKETCH)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            assert doc["state"] == "done", doc
            _status, stats = get_json(harness.base, "/v1/stats")
            assert served_csv(harness.base, doc["job_id"]) == \
                direct_csv(self.SKETCH)
        pressure = stats["pressure"]
        assert pressure["level"] == "ok" and pressure["events"] == []
        assert stats["cache"]["stores"] == 1
        assert not (cache / "checkpoints"
                    / doc["study"]["config_hash"]).exists()
        by_category = pressure["by_category"]
        assert by_category["cache"] > 0
        assert pressure["used_bytes"] == sum(by_category.values())

    def test_soft_pressure_skips_the_store_and_keeps_the_journal(
        self, tmp_path
    ):
        budget = int(self.journal_bytes(tmp_path) * 1.1 / 0.95)
        cache = tmp_path / "c"
        with running_server(
            cache, workers=1, max_disk_bytes=budget
        ) as harness:
            _status, doc = post_json(harness.base, "/v1/studies", self.SKETCH)
            doc = wait_for_state(harness.base, doc["job_id"], SETTLED)
            _status, stats = get_json(harness.base, "/v1/stats")
        assert doc["state"] == "done", doc
        pressure = stats["pressure"]
        assert pressure["level"] in ("soft", "hard")
        assert pressure["store_skips"] == 1
        assert stats["cache"]["stores"] == 0
        assert _masked(pressure["events"][-1]).startswith(
            "skipped cache store of "
        )
        assert (cache / "checkpoints" / doc["study"]["config_hash"]
                / "manifest.json").exists()
        assert pressure["by_category"]["cache"] == 0
        assert pressure["used_bytes"] == du_bytes(cache)
