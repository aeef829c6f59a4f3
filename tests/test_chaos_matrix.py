"""The chaos matrix's guarantees, held on a tiny study.

Every fault family in the default plan must leave the runtime
complete (byte-identical to the serial golden), honestly degraded
(journal writes lost, or quarantine named in the manifest) or honestly
refused (interrupted, resume converges), and never a corrupt artifact.
The watchdog case runs at ``--workers 4``, the acceptance bar for hang
detection.  :class:`TestJudge` holds the verdict rule itself to
hand-built facts, without simulating anything.
"""

import pytest

from repro.chaos import Fault, FaultPlan, default_plan
from repro.chaos.matrix import (
    CellRun,
    ChaosReport,
    judge,
    run_chaos_matrix,
)
from repro.core.study import Study, StudyConfig
from repro.runtime import RuntimeConfig, run_study
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.pool import BackoffPolicy

#: Small enough that the full matrix (two study runs per fault) stays
#: test-suite friendly.
TINY = StudyConfig(seed=11, scale=0.02, max_users=10, playlist_length=6)

FAST_BACKOFF = BackoffPolicy(base_s=0.01, cap_s=0.1)


def verify_artifacts(ckpt) -> list[str]:
    return CheckpointStore(ckpt).verify()


@pytest.fixture(scope="module")
def tiny_serial_csv() -> str:
    return Study(TINY).run().to_csv_string()


class TestWatchdog:
    def test_hung_worker_rescheduled_byte_identical_at_4_workers(
        self, tiny_serial_csv, tmp_path
    ):
        plan = FaultPlan(faults=(
            Fault(site="worker.play", action="hang", shard=1,
                  hang_s=3600.0),
        ))
        result = run_study(
            TINY,
            RuntimeConfig(
                workers=4,
                shard_count=4,
                checkpoint_dir=tmp_path / "ckpt",
                fault_plan=plan,
                backoff=FAST_BACKOFF,
                watchdog_deadline_s=1.5,
            ),
        )
        assert result.complete
        # The watchdog killed the hung attempt and the retry ran clean.
        assert result.telemetry.shards[1].attempts == 2
        assert "watchdog" in result.telemetry.shards[1].error
        assert result.dataset.to_csv_string() == tiny_serial_csv
        assert verify_artifacts(tmp_path / "ckpt") == []


class TestQuarantine:
    def test_exhausted_shard_quarantined_honestly(self, tmp_path):
        plan = FaultPlan(faults=(
            Fault(site="worker.play", action="raise", shard=2,
                  attempts=999),
        ))
        result = run_study(
            TINY,
            RuntimeConfig(
                workers=2,
                shard_count=4,
                max_retries=2,
                checkpoint_dir=tmp_path / "ckpt",
                fault_plan=plan,
                backoff=FAST_BACKOFF,
            ),
        )
        assert result.failed_shards == (2,)
        assert not result.complete
        assert 0.0 < result.quarantined_fraction < 1.0
        quarantined = result.manifest["quarantined"]
        assert quarantined["shards"] == [2]
        assert quarantined["plays"] == result.plan.shards[2].plays
        assert quarantined["fraction"] == pytest.approx(
            result.quarantined_fraction
        )
        assert result.telemetry.shards[2].status == "quarantined"
        lost = set(result.plan.shards[2].user_ids)
        assert not (lost & {r.user_id for r in result.dataset})

    def test_quarantined_run_resumes_to_full_dataset(
        self, tiny_serial_csv, tmp_path
    ):
        plan = FaultPlan(faults=(
            Fault(site="worker.play", action="raise", shard=0,
                  attempts=999),
        ))
        first = run_study(
            TINY,
            RuntimeConfig(
                workers=2, shard_count=4, max_retries=1,
                checkpoint_dir=tmp_path / "ckpt", fault_plan=plan,
                backoff=FAST_BACKOFF,
            ),
        )
        assert first.failed_shards == (0,)
        resumed = run_study(
            TINY,
            RuntimeConfig(
                workers=2, shard_count=4,
                checkpoint_dir=tmp_path / "ckpt", resume=True,
            ),
        )
        assert resumed.complete
        assert resumed.dataset.to_csv_string() == tiny_serial_csv


class TestWriteFaults:
    def test_enospc_on_journal_degrades_without_losing_the_run(
        self, tiny_serial_csv, tmp_path
    ):
        plan = FaultPlan(faults=(
            Fault(site="checkpoint.shard", action="enospc", times=99),
        ))
        result = run_study(
            TINY,
            RuntimeConfig(
                workers=2, shard_count=4,
                checkpoint_dir=tmp_path / "ckpt", fault_plan=plan,
            ),
        )
        assert result.complete
        assert result.dataset.to_csv_string() == tiny_serial_csv
        assert result.telemetry.journal_errors
        assert "journal_errors" in result.manifest
        # Failed writes left no torn files behind.
        assert list((tmp_path / "ckpt").glob("*.tmp.*")) == []

    def test_truncated_journal_entry_healed_on_resume(
        self, tiny_serial_csv, tmp_path
    ):
        plan = FaultPlan(faults=(
            Fault(site="checkpoint.shard", action="truncate",
                  keep_bytes=20),
        ))
        run_study(
            TINY,
            RuntimeConfig(
                workers=2, shard_count=4,
                checkpoint_dir=tmp_path / "ckpt", fault_plan=plan,
            ),
        )
        # The fault deliberately corrupted one journaled shard on disk.
        assert verify_artifacts(tmp_path / "ckpt") != []
        resumed = run_study(
            TINY,
            RuntimeConfig(
                workers=2, shard_count=4,
                checkpoint_dir=tmp_path / "ckpt", resume=True,
            ),
        )
        assert resumed.complete
        assert resumed.dataset.to_csv_string() == tiny_serial_csv
        assert verify_artifacts(tmp_path / "ckpt") == []


class TestVerifyArtifacts:
    def test_flags_orphans_corruption_and_bad_manifests(self, tmp_path):
        ckpt = tmp_path / "ckpt"
        run_study(
            TINY, RuntimeConfig(workers=1, shard_count=2,
                                checkpoint_dir=ckpt),
        )
        assert verify_artifacts(ckpt) == []
        (ckpt / "shard_0000.csv.tmp.999").write_text("torn")
        victim = sorted(ckpt.glob("shard_*.csv"))[0]
        victim.write_text(victim.read_text()[:10])
        problems = verify_artifacts(ckpt)
        assert any("orphaned temp file" in p for p in problems)
        assert any("shard 0" in p for p in problems)
        (ckpt / "manifest.json").write_text("{broken")
        assert any(
            "unreadable manifest" in p for p in verify_artifacts(ckpt)
        )


class TestFullMatrix:
    def test_default_plan_holds_every_guarantee(self):
        report = run_chaos_matrix(
            default_plan(),
            TINY,
            workers=2,
            shard_count=4,
            max_retries=2,
            watchdog_deadline_s=2.0,
        )
        assert report.ok, report.format()
        statuses = {o.cell: o.status for o in report.outcomes}
        assert len(statuses) == len(default_plan().faults)
        # The never-succeeding crash is the quarantine case, and the
        # disk-full journal write loses one journal entry; both are
        # honest degradations.
        assert statuses.pop(
            "worker.play:crash+shard=2@play1+attempts<=999"
        ) == "degraded"
        assert statuses.pop("checkpoint.shard:enospc") == "degraded"
        # Both signal rows were refused or finished before delivery;
        # everything else is byte-identical.
        assert statuses.pop("worker.play:hang+shard=1@play1") == "complete"
        assert set(statuses.values()) <= {"complete", "refused"}
        text = report.format()
        assert "all guarantees held" in text
        payload = report.payload()
        assert payload["ok"] is True
        assert len(payload["outcomes"]) == len(report.outcomes)


#: A three-record golden CSV for the judge's unit tests.
GOLDEN = "user_id,fps\nu1,10\nu2,12\nu3,9\n"


def facts(**overrides) -> CellRun:
    """The facts of a cell that finished whole and byte-identical."""
    return CellRun(
        **{"label": "cell", "csv": GOLDEN, "resumed_csv": GOLDEN,
           **overrides}
    )


class TestJudge:
    def test_byte_identical_run_is_complete_even_after_retries(self):
        outcome = judge(facts(retries=3), GOLDEN)
        assert (outcome.status, outcome.detail) == (
            "complete", "byte-identical"
        )
        assert outcome.ok and outcome.retries == 3

    def test_lost_journal_writes_degrade(self):
        outcome = judge(facts(journal_errors=1), GOLDEN)
        assert outcome.status == "degraded"
        assert "1 journal write(s) lost" in outcome.detail

    @pytest.mark.parametrize("pressure", [
        {"level": "soft"}, {"level": "ok", "batch_shrinks": 2},
        {"level": "ok", "pressure_events": 1},
    ])
    def test_budget_pressure_degrades(self, pressure):
        outcome = judge(facts(**pressure), GOLDEN)
        assert outcome.status == "degraded"
        assert "under pressure" in outcome.detail

    def test_honest_quarantine_degrades(self):
        outcome = judge(facts(
            quarantined=(2,), named_quarantine=(2,), csv=None,
            users=frozenset({"u1", "u3"}),
            kept_users=frozenset({"u1", "u3"}),
        ), GOLDEN)
        assert outcome.status == "degraded"
        assert outcome.quarantined == (2,)

    @pytest.mark.parametrize("cause", ["disk-budget", "SIGTERM"])
    def test_interrupt_by_the_cells_own_cause_is_refused(self, cause):
        outcome = judge(facts(
            cause=cause, interrupted=True, interrupted_by=cause, csv=None,
        ), GOLDEN)
        assert outcome.status == "refused"
        assert outcome.interrupted_by == cause
        assert "resume converged" in outcome.detail

    def test_byte_difference_fails_naming_the_line(self):
        changed = GOLDEN.replace("u2,12", "u2,13")
        outcome = judge(facts(csv=changed), GOLDEN)
        assert outcome.status == "FAILED"
        assert not outcome.ok
        assert outcome.detail == (
            "run CSV diverges from the golden at line 3"
        )

    def test_truncated_resume_fails_naming_the_line(self):
        outcome = judge(facts(resumed_csv=GOLDEN[:-len("u3,9\n")]), GOLDEN)
        assert outcome.status == "FAILED"
        assert "resumed CSV diverges from the golden at line 4" in (
            outcome.detail
        )

    def test_manifest_that_misnames_the_quarantine_fails(self):
        outcome = judge(facts(
            quarantined=(2,), named_quarantine=(), csv=None,
        ), GOLDEN)
        assert outcome.status == "FAILED"
        assert "manifest names quarantined shards [], run lost [2]" in (
            outcome.detail
        )

    @pytest.mark.parametrize("users,kept,problem", [
        ({"u1", "u2"}, {"u1"}, "holds records of quarantined shards"),
        ({"u1"}, {"u1", "u3"}, "missing non-quarantined users: ['u3']"),
    ])
    def test_partial_dataset_must_hold_exactly_the_kept_users(
        self, users, kept, problem
    ):
        outcome = judge(facts(
            quarantined=(2,), named_quarantine=(2,), csv=None,
            users=frozenset(users), kept_users=frozenset(kept),
        ), GOLDEN)
        assert outcome.status == "FAILED"
        assert problem in outcome.detail

    def test_budget_cell_interrupted_by_anything_else_fails(self):
        outcome = judge(facts(
            cause="disk-budget", interrupted=True, interrupted_by="SIGINT",
            csv=None,
        ), GOLDEN)
        assert outcome.status == "FAILED"
        assert outcome.detail == (
            "interrupted by 'SIGINT', not by 'disk-budget'"
        )

    def test_cell_without_a_cause_must_not_be_interrupted(self):
        outcome = judge(facts(
            interrupted=True, interrupted_by="external", csv=None,
        ), GOLDEN)
        assert outcome.status == "FAILED"
        assert "which this cell cannot cause" in outcome.detail

    def test_resume_that_does_not_converge_fails(self):
        outcome = judge(facts(
            cause="SIGINT", interrupted=True, interrupted_by="SIGINT",
            csv=None, resumed_csv=None,
        ), GOLDEN)
        assert outcome.status == "FAILED"
        assert "fault-free resume did not complete" in outcome.detail

    def test_dirty_artifacts_fail(self):
        outcome = judge(facts(
            artifact_problems=("orphaned temp file manifest.json.tmp.7",),
        ), GOLDEN)
        assert outcome.status == "FAILED"
        assert "orphaned temp file" in outcome.detail

    def test_one_failed_cell_fails_the_report(self):
        report = ChaosReport(
            plan="unit",
            golden_sha256="ab" * 32,
            outcomes=(
                judge(facts(label="fine"), GOLDEN),
                judge(facts(label="broken", resumed_csv=None), GOLDEN),
            ),
        )
        assert not report.ok
        assert "FAILED" in report.format()
        assert "GUARANTEES VIOLATED" in report.format()
        assert report.payload()["ok"] is False
