"""The sharded execution engine: determinism, fault tolerance, resume.

The determinism regression here is the subsystem's core contract: the
same seed must produce a byte-identical exported CSV at any worker
count (satellite of the paper-campaign parallelization), including
runs that suffered worker crashes or were resumed from a checkpoint.
"""

import hashlib
from dataclasses import replace

import pytest

from repro.chaos import Fault, FaultPlan
from repro.core.study import Study, StudyConfig
from repro.core.submission import SubmissionSink
from repro.runtime import RuntimeConfig, run_study

#: The determinism-regression slice: the paper's seed at scale 0.05
#: (users trimmed so the 1/2/4-worker sweep stays test-suite friendly).
DET_CONFIG = StudyConfig(seed=2001, scale=0.05, max_users=12)

#: A smaller slice for the fault/resume scenarios.
SMALL_CONFIG = StudyConfig(seed=7, playlist_length=8, max_users=8,
                           scale=0.1)


@pytest.fixture(scope="module")
def det_serial_csv() -> str:
    return Study(DET_CONFIG).run().to_csv_string()


@pytest.fixture(scope="module")
def small_serial_csv() -> str:
    return Study(SMALL_CONFIG).run().to_csv_string()


class TestDeterminism:
    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_exported_csv_identical_across_worker_counts(
        self, workers, det_serial_csv, tmp_path
    ):
        result = run_study(DET_CONFIG, RuntimeConfig(workers=workers))
        out = tmp_path / f"w{workers}.csv"
        result.dataset.to_csv(out)
        serial = tmp_path / f"serial_w{workers}.csv"
        serial.write_text(det_serial_csv)
        assert out.read_bytes() == serial.read_bytes()

    def test_shard_count_does_not_change_output(self, small_serial_csv):
        for shard_count in (1, 3, 8):
            result = run_study(
                SMALL_CONFIG,
                RuntimeConfig(workers=2, shard_count=shard_count),
            )
            assert result.dataset.to_csv_string() == small_serial_csv

    def test_sink_fan_in_matches_serial_sink(self, tmp_path):
        serial_sink = SubmissionSink(tmp_path / "serial.csv")
        Study(SMALL_CONFIG).run(sink=serial_sink)
        parallel_sink = SubmissionSink(tmp_path / "parallel.csv")
        run_study(
            SMALL_CONFIG,
            RuntimeConfig(workers=2, shard_count=4),
            sink=parallel_sink,
        )
        assert (
            (tmp_path / "parallel.csv").read_bytes()
            == (tmp_path / "serial.csv").read_bytes()
        )


def _csv_digest(csv_text: str) -> str:
    return hashlib.sha256(csv_text.encode()).hexdigest()


class TestDeterminismMatrix:
    """The full execution matrix collapses to one content hash.

    Same seed, any worker count, fresh or resumed from a mid-run kill:
    every cell of the matrix must export a ``study_full.csv`` with the
    same sha256 as the serial oracle.  This is the contract the golden
    suite relies on when goldens are regenerated on a parallel run.
    """

    @pytest.mark.parametrize("workers", [1, 2, 4])
    def test_fresh_and_resumed_runs_hash_identical(
        self, workers, small_serial_csv, tmp_path
    ):
        expected = _csv_digest(small_serial_csv)

        fresh = run_study(
            SMALL_CONFIG, RuntimeConfig(workers=workers, shard_count=4)
        )
        assert _csv_digest(fresh.dataset.to_csv_string()) == expected

        # Kill a checkpointed run after its first shard lands, then
        # resume at this worker count: still the same digest.
        ckpt = tmp_path / f"ckpt_w{workers}"

        def kill_after_one_shard(telemetry) -> None:
            if any(
                s.status == "done" for s in telemetry.shards.values()
            ):
                raise KillRun

        with pytest.raises(KillRun):
            run_study(
                SMALL_CONFIG,
                RuntimeConfig(
                    workers=1,
                    shard_count=4,
                    checkpoint_dir=ckpt,
                    progress=kill_after_one_shard,
                ),
            )
        resumed = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=workers, shard_count=4, checkpoint_dir=ckpt,
                resume=True,
            ),
        )
        assert _csv_digest(resumed.dataset.to_csv_string()) == expected
        assert any(
            s.status == "resumed"
            for s in resumed.telemetry.shards.values()
        )


class TestFaultInjection:
    @pytest.mark.parametrize("mode", ["raise", "crash"])
    def test_failed_worker_is_retried_records_exactly_once(
        self, mode, small_serial_csv
    ):
        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=2,
                shard_count=4,
                fault_plan=FaultPlan(faults=(
                    Fault("worker.play", mode, shard=1),
                )),
            ),
        )
        assert result.complete
        assert result.telemetry.shards[1].attempts == 2
        # Byte-identical to serial: the retried shard's records appear
        # exactly once, in the right place.
        assert result.dataset.to_csv_string() == small_serial_csv

    def test_exhausted_retries_fail_shard_without_sinking_run(self):
        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=2,
                shard_count=4,
                max_retries=1,
                fault_plan=FaultPlan(faults=(
                    Fault("worker.play", "raise", shard=0, attempts=99),
                )),
            ),
        )
        assert result.failed_shards == (0,)
        assert not result.complete
        failed_users = set(result.plan.shards[0].user_ids)
        users_in_dataset = {r.user_id for r in result.dataset}
        assert not (failed_users & users_in_dataset)
        ok_users = set(result.plan.user_order) - failed_users
        assert users_in_dataset == ok_users
        assert result.manifest["failed_shards"] == [0]


class KillRun(Exception):
    """Stands in for SIGKILL in the mid-run interruption test."""


class TestCheckpointResume:
    def test_killed_run_resumes_without_resimulating(
        self, small_serial_csv, tmp_path
    ):
        ckpt = tmp_path / "ckpt"

        def kill_after_two_shards(telemetry) -> None:
            done = [
                s for s in telemetry.shards.values() if s.status == "done"
            ]
            if len(done) >= 2:
                raise KillRun

        with pytest.raises(KillRun):
            run_study(
                SMALL_CONFIG,
                RuntimeConfig(
                    workers=1,
                    shard_count=4,
                    checkpoint_dir=ckpt,
                    progress=kill_after_two_shards,
                ),
            )

        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=2, shard_count=4, checkpoint_dir=ckpt, resume=True
            ),
        )
        assert result.dataset.to_csv_string() == small_serial_csv
        resumed = [
            s for s in result.telemetry.shards.values()
            if s.status == "resumed"
        ]
        assert len(resumed) == 2
        assert (
            result.telemetry.simulated_plays
            == result.telemetry.total_plays
            - sum(s.plays for s in resumed)
        )

    def test_failed_shard_rerun_on_resume(self, small_serial_csv, tmp_path):
        ckpt = tmp_path / "ckpt"
        first = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=2,
                shard_count=4,
                max_retries=0,
                checkpoint_dir=ckpt,
                fault_plan=FaultPlan(faults=(
                    Fault("worker.play", "crash", shard=2, attempts=99),
                )),
            ),
        )
        assert first.failed_shards == (2,)
        second = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=2, shard_count=4, checkpoint_dir=ckpt, resume=True
            ),
        )
        assert second.complete
        assert second.dataset.to_csv_string() == small_serial_csv
        assert (
            second.telemetry.simulated_plays
            == second.telemetry.shards[2].plays
        )


class TestRuntimeConfig:
    def test_rejects_bad_workers(self):
        with pytest.raises(ValueError):
            RuntimeConfig(workers=0)

    def test_resume_requires_checkpoint_dir(self):
        with pytest.raises(ValueError):
            RuntimeConfig(resume=True)


class TestCorruptCheckpointResume:
    @pytest.mark.parametrize(
        "damage",
        ["garbage", "truncate"],
        ids=["unparsable-cell", "clean-truncation"],
    )
    def test_corrupt_journal_entry_resimulated_not_crash(
        self, damage, small_serial_csv, tmp_path
    ):
        """A damaged shard CSV (kill mid-write on a non-atomic
        filesystem) must cause skip-and-resimulate on --resume."""
        ckpt = tmp_path / "ckpt"
        run_study(
            SMALL_CONFIG,
            RuntimeConfig(workers=2, shard_count=4, checkpoint_dir=ckpt),
        )
        victim = sorted(ckpt.glob("shard_*.csv"))[-1]
        text = victim.read_text()
        if damage == "garbage":
            victim.write_text(text[: len(text) // 2] + "\x00garbage,,,\n")
        else:
            victim.write_text(
                "".join(text.splitlines(keepends=True)[:-1])
            )

        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=2, shard_count=4, checkpoint_dir=ckpt, resume=True
            ),
        )
        assert result.complete
        assert result.dataset.to_csv_string() == small_serial_csv
        statuses = {
            s.shard_id: s.status for s in result.telemetry.shards.values()
        }
        # Three shards resumed from the journal, the damaged one re-ran.
        assert sorted(statuses.values()) == [
            "done", "resumed", "resumed", "resumed",
        ]


class TestRuntimeValidation:
    def test_parallel_validated_run_reports_checks_and_zero_violations(
        self, small_serial_csv
    ):
        from repro.validate import COUNTING

        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(workers=2, shard_count=4, validation=COUNTING),
        )
        telemetry = result.telemetry
        assert telemetry.checks_run > 0
        assert telemetry.violation_total == 0
        assert telemetry.violations == {}
        assert "validation" in result.manifest
        assert result.manifest["validation"]["violation_total"] == 0
        # Validation must not perturb the simulation itself.
        assert result.dataset.to_csv_string() == small_serial_csv

    def test_serial_validated_run_aggregates_ledger(self):
        from repro.validate import COUNTING

        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(workers=1, shard_count=2, validation=COUNTING),
        )
        assert result.telemetry.checks_run > 0
        assert result.telemetry.violation_total == 0

    def test_validation_off_keeps_manifest_clean(self):
        result = run_study(SMALL_CONFIG, RuntimeConfig(workers=1))
        assert result.telemetry.checks_run == 0
        assert "validation" not in result.manifest


#: The two executors `run_study` derives from ``workers``: the
#: in-process driver and the multiprocessing pool.  Both run the same
#: shard body and feed the same settle handler, so every lifecycle
#: case below must hold on either.
EXECUTORS = {"in-process": 1, "pool": 2}

SMALL_SKETCH = replace(SMALL_CONFIG, aggregation="sketch")

#: Manifest fields that measure the wall clock (or name the executor).
_TIMING_KEYS = {
    "elapsed_s", "plays_per_second", "eta_s", "worker_utilization",
    "workers", "memory_peak_bytes",
}


def _untimed(manifest: dict) -> dict:
    out = {k: v for k, v in manifest.items() if k not in _TIMING_KEYS}
    out["shards"] = [
        {k: v for k, v in shard.items() if k not in _TIMING_KEYS}
        for shard in manifest["shards"]
    ]
    return out


@pytest.fixture(params=list(EXECUTORS.values()), ids=list(EXECUTORS))
def executor(request) -> int:
    """The ``workers`` value selecting one executor."""
    return request.param


#: The 4-user scale-0.02 governance probe: an impossible 1-byte RSS
#: watermark shrinks every shard's spill batches at its first
#: heartbeat, under a disk ledger that only counts.
GOVERNED_CONFIG = StudyConfig(
    seed=2001, scale=0.02, max_users=4, aggregation="sketch"
)


def _governed(workers: int) -> RuntimeConfig:
    from repro.pressure import PressureConfig

    return RuntimeConfig(
        workers=workers,
        pressure=PressureConfig(
            max_disk_bytes=1 << 30, memory_soft_bytes=1, min_batch_size=256
        ),
    )


@pytest.fixture(scope="module")
def lifecycle_reference():
    """In-process reference runs the per-executor cases compare to."""
    from repro.validate import COUNTING

    return {
        "plain": run_study(
            SMALL_CONFIG, RuntimeConfig(workers=1, shard_count=4)
        ),
        "validated": run_study(
            SMALL_CONFIG,
            RuntimeConfig(workers=1, shard_count=4, validation=COUNTING),
        ),
        "governed": run_study(GOVERNED_CONFIG, _governed(1)),
    }


class TestShardLifecycle:
    """One lifecycle, two executors (after `test_transport_tcp.py`'s
    ``sender`` fixture): journal, resume, validation, governance, stop
    and the manifest behave the same in-process and on the pool."""

    @pytest.mark.parametrize(
        "config", [SMALL_CONFIG, SMALL_SKETCH], ids=["exact", "sketch"]
    )
    def test_journal_entries_load_back_with_journaled_counts(
        self, executor, config, tmp_path
    ):
        from repro.runtime import CheckpointStore

        ckpt = tmp_path / "ckpt"
        result = run_study(
            config,
            RuntimeConfig(
                workers=executor, shard_count=4, checkpoint_dir=ckpt
            ),
        )
        store = CheckpointStore(ckpt)
        assert sorted(store.open(result.plan.fingerprint, resume=True)) \
            == [0, 1, 2, 3]
        for shard_id, stats in result.telemetry.shards.items():
            if config.aggregation == "sketch":
                loaded, aggregates = store.load_shard_spill(shard_id)
                assert aggregates["records"] == stats.records
            else:
                loaded = store.load_shard(shard_id)
            assert len(loaded) == stats.records == stats.plays

    def test_kill_then_resume_resimulates_nothing_journaled(
        self, executor, small_serial_csv, tmp_path
    ):
        ckpt = tmp_path / "ckpt"

        def kill_after_one_shard(telemetry) -> None:
            if any(s.status == "done" for s in telemetry.shards.values()):
                raise KillRun

        with pytest.raises(KillRun):
            run_study(
                SMALL_CONFIG,
                RuntimeConfig(
                    workers=executor, shard_count=4, checkpoint_dir=ckpt,
                    progress=kill_after_one_shard,
                ),
            )
        resume = RuntimeConfig(
            workers=executor, shard_count=4, checkpoint_dir=ckpt,
            resume=True,
        )
        resumed = run_study(SMALL_CONFIG, resume)
        assert resumed.dataset.to_csv_string() == small_serial_csv
        restored = [
            s for s in resumed.telemetry.shards.values()
            if s.status == "resumed"
        ]
        assert restored
        assert (
            resumed.telemetry.simulated_plays
            == resumed.telemetry.total_plays
            - sum(s.plays for s in restored)
        )
        again = run_study(SMALL_CONFIG, resume)
        assert again.telemetry.simulated_plays == 0
        assert again.dataset.to_csv_string() == small_serial_csv

    def test_validated_run_reports_the_same_ledger(
        self, executor, lifecycle_reference
    ):
        from repro.validate import COUNTING

        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=executor, shard_count=4, validation=COUNTING
            ),
        )
        reference = lifecycle_reference["validated"]
        assert result.telemetry.checks_run > 0
        assert result.telemetry.checks_run == reference.telemetry.checks_run
        assert result.telemetry.violation_total == 0

    def test_governed_sketch_run_reports_the_same_pressure(
        self, executor, lifecycle_reference
    ):
        result = run_study(GOVERNED_CONFIG, _governed(executor))
        reference = lifecycle_reference["governed"]
        assert result.telemetry.batch_shrinks > 0
        assert (
            result.telemetry.batch_shrinks
            == reference.telemetry.batch_shrinks
        )
        pressure, expected = (
            result.manifest["pressure"], reference.manifest["pressure"]
        )
        assert pressure["used_bytes"] == expected["used_bytes"] > 0
        assert pressure["by_category"] == expected["by_category"]

    def test_stop_mid_shard_interrupts_with_honest_pending_shards(
        self, executor, small_serial_csv, tmp_path
    ):
        ckpt = tmp_path / "ckpt"
        seen = {"plays": 0}

        def watch(telemetry) -> None:
            seen["plays"] = telemetry.simulated_plays

        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=executor, shard_count=2, checkpoint_dir=ckpt,
                progress=watch, should_stop=lambda: seen["plays"] >= 1,
            ),
        )
        assert result.interrupted and not result.complete
        assert result.manifest["interrupted_by"] == "external"
        pending = result.manifest["pending_shards"]
        done = {
            shard_id for shard_id, s in result.telemetry.shards.items()
            if s.status == "done"
        }
        # Stopped at the first play boundary: the shard in flight was
        # abandoned, and the manifest says so.
        assert pending and sorted(done | set(pending)) == [0, 1]
        assert not done & set(pending)
        assert {r.user_id for r in result.dataset} == {
            user for shard_id in done
            for user in result.plan.shards[shard_id].user_ids
        }
        resumed = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=executor, shard_count=2, checkpoint_dir=ckpt,
                resume=True,
            ),
        )
        assert resumed.complete
        assert resumed.dataset.to_csv_string() == small_serial_csv

    def test_run_manifest_equal_once_timing_is_dropped(
        self, executor, lifecycle_reference
    ):
        result = run_study(
            SMALL_CONFIG, RuntimeConfig(workers=executor, shard_count=4)
        )
        assert _untimed(result.manifest) == _untimed(
            lifecycle_reference["plain"].manifest
        )

    def test_lifecycle_log_records_the_same_event_sequence(
        self, executor, caplog
    ):
        with caplog.at_level("INFO", logger="repro.runtime"):
            result = run_study(
                SMALL_CONFIG, RuntimeConfig(workers=executor, shard_count=3)
            )
        by_shard: dict[int, list[str]] = {}
        for record in caplog.records:
            if record.name != "repro.runtime":
                continue
            assert record.fingerprint == result.plan.fingerprint
            assert record.attempt == 1
            by_shard.setdefault(record.shard, []).append(record.event)
            if record.event == "finished":
                stats = result.telemetry.shards[record.shard]
                assert record.records == stats.records
                assert record.elapsed_s == stats.elapsed_s
        assert by_shard == {
            shard_id: ["started", "finished"] for shard_id in range(3)
        }


class TestWorkerFaultsNeedAPool:
    """`worker.play` faults hit a worker process; in-process there is
    none, and the fault used to be dropped silently (so `repro chaos
    --workers 1` reported recoveries from faults that never fired)."""

    PERMANENT_RAISE = FaultPlan(faults=(
        Fault("worker.play", "raise", attempts=999),
    ))

    def test_in_process_rejects_the_plan(self):
        with pytest.raises(ValueError, match="needs workers >= 2") as err:
            RuntimeConfig(workers=1, fault_plan=self.PERMANENT_RAISE)
        assert self.PERMANENT_RAISE.faults[0].label in str(err.value)

    def test_pool_still_quarantines(self):
        result = run_study(
            SMALL_CONFIG,
            RuntimeConfig(
                workers=2, shard_count=2, max_retries=0,
                fault_plan=self.PERMANENT_RAISE,
            ),
        )
        assert result.failed_shards == (0, 1)
        assert len(result.dataset) == 0

    def test_other_sites_stay_legal_in_process(self):
        plan = FaultPlan(faults=(
            Fault("pressure.disk", "shrink", budget_bytes=1 << 20),
            Fault("checkpoint.shard", "enospc"),
        ))
        assert RuntimeConfig(workers=1, fault_plan=plan).fault_plan is plan


class TestStudyCsvPins:
    """sha256 of the seed-2001 scale-0.02 study CSV, generated at the
    commit before the executors were merged: every executor x record
    path exports these exact bytes."""

    SHA256 = (
        "13076c9497edfc4682896ae2f2ee20b972578c71478eacf24a7b920a856a0730"
    )

    @pytest.mark.parametrize("aggregation", ["exact", "sketch"])
    def test_seed_2001_scale_002_csv_pinned(
        self, executor, aggregation, tmp_path
    ):
        result = run_study(
            StudyConfig(seed=2001, scale=0.02, aggregation=aggregation),
            RuntimeConfig(workers=executor, checkpoint_dir=tmp_path / "c"),
        )
        assert len(result.dataset) == 67
        assert _csv_digest(result.dataset.to_csv_string()) == self.SHA256
