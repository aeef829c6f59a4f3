"""Pool hardening: deterministic backoff, sentinel drain, retry
telemetry.

The two shutdown-correctness regressions pinned here are satellites of
the chaos PR: retries must back off (not re-queue at zero delay), and
a cleanly-finished worker whose result is still in the queue's feeder
buffer must never be misread as a crash (the ``bye`` sentinel drain).
"""

import pytest

from repro.chaos import Fault, FaultPlan
from repro.core.study import Study, StudyConfig
from repro.runtime import RuntimeConfig, run_study
from repro.runtime.pool import BackoffPolicy, run_shards
from repro.runtime.scheduler import plan_shards

TINY = StudyConfig(seed=11, scale=0.02, max_users=10, playlist_length=6)


class TestBackoffPolicy:
    def test_delay_is_a_pure_function(self):
        policy = BackoffPolicy()
        for shard_id in (0, 3):
            for attempt in (1, 2, 5):
                assert policy.delay_s(shard_id, attempt) == pytest.approx(
                    policy.delay_s(shard_id, attempt)
                )

    def test_exponential_growth_capped(self):
        policy = BackoffPolicy(base_s=0.1, cap_s=5.0, jitter=0.0)
        assert policy.delay_s(0, 1) == pytest.approx(0.1)
        assert policy.delay_s(0, 2) == pytest.approx(0.2)
        assert policy.delay_s(0, 3) == pytest.approx(0.4)
        assert policy.delay_s(0, 20) == pytest.approx(5.0)

    def test_jitter_bounded_and_decorrelated(self):
        policy = BackoffPolicy(base_s=1.0, cap_s=1.0, jitter=0.25)
        delays = [policy.delay_s(shard, 1) for shard in range(20)]
        assert all(0.75 <= d <= 1.25 for d in delays)
        assert len(set(delays)) > 1  # shards don't thunder in herd

    def test_key_salts_the_schedule(self):
        a = BackoffPolicy(key=1).delay_s(0, 1)
        b = BackoffPolicy(key=2).delay_s(0, 1)
        assert a != b


class TestRetryBackoffIntegration:
    def test_retry_waits_and_telemetry_records_backoff(self):
        events = []
        result = run_study(
            TINY,
            RuntimeConfig(
                workers=2,
                shard_count=4,
                fault_plan=FaultPlan(faults=(
                    Fault("worker.play", "raise", shard=1),
                )),
                backoff=BackoffPolicy(base_s=0.05, cap_s=0.5),
            ),
        )
        assert result.complete
        stats = result.telemetry.shards[1]
        assert stats.attempts == 2
        assert stats.backoff_s > 0.0
        assert result.telemetry.retries == 1
        assert result.manifest["retries"] == 1
        assert result.manifest["shards"][1]["backoff_s"] == pytest.approx(
            stats.backoff_s, abs=1e-3
        )
        del events

    def test_attempt_counts_surface_per_shard(self):
        result = run_study(
            TINY,
            RuntimeConfig(
                workers=2,
                shard_count=4,
                fault_plan=FaultPlan(faults=(
                    Fault("worker.play", "raise", shard=0, attempts=2),
                )),
                backoff=BackoffPolicy(base_s=0.01, cap_s=0.1),
            ),
        )
        assert result.telemetry.shards[0].attempts == 3
        assert result.manifest["shards"][0]["attempts"] == 3
        unfaulted = [
            s.attempts
            for sid, s in result.telemetry.shards.items()
            if sid != 0
        ]
        assert set(unfaulted) == {1}


class TestSentinelDrain:
    def test_no_event_lost_across_many_short_lived_workers(self):
        """Regression for the shutdown race: shards finish almost
        instantly, so workers are usually dead before the parent polls
        — every result must still arrive via the sentinel drain, never
        be misread as a crash and re-run."""
        study = Study(TINY)
        plan = plan_shards(study, shard_count=8)
        events = []
        results = run_shards(
            TINY,
            plan.shards,
            workers=4,
            on_event=lambda kind, sid, info: events.append((kind, sid)),
        )
        assert sorted(results) == [s.shard_id for s in plan.shards]
        assert all(r.ok and r.attempts == 1 for r in results.values())
        # No shard was spuriously retried.
        assert not [e for e in events if e[0] == "failed_attempt"]
        finished = [sid for kind, sid in events if kind == "finished"]
        assert sorted(finished) == sorted(results)

    def test_crashed_worker_still_detected_as_dead(self):
        study = Study(TINY)
        plan = plan_shards(study, shard_count=4)
        results = run_shards(
            TINY,
            plan.shards,
            workers=2,
            max_retries=1,
            plan=FaultPlan(faults=(
                Fault("worker.play", "crash", shard=2),
            )),
            backoff=BackoffPolicy(base_s=0.01, cap_s=0.1),
        )
        assert results[2].ok
        assert results[2].attempts == 2

    def test_should_stop_returns_partial_results(self):
        study = Study(TINY)
        plan = plan_shards(study, shard_count=4)
        calls = {"n": 0}

        def stop_soon() -> bool:
            calls["n"] += 1
            return calls["n"] > 3

        results = run_shards(
            TINY, plan.shards, workers=1, should_stop=stop_soon,
        )
        # Stopped early: not every shard ran, and whatever was reported
        # before the stop is intact.
        assert len(results) < len(plan.shards)
        assert all(r.ok for r in results.values())
