"""Sharded study execution: parallel workers, checkpoint/resume,
live telemetry.

The campaign's per-playback RNG streams are keyed by
``(seed, user_id, position)``, which makes playbacks embarrassingly
parallel per user.  This package turns that property into a runtime:

- `repro.runtime.scheduler` — deterministic user-atomic shard plans,
- `repro.runtime.pool` — the shard body (:func:`simulate_shard`) and a
  multiprocessing pool with bounded retries that runs it,
- `repro.runtime.checkpoint` — an atomic shard journal for resume,
- `repro.runtime.telemetry` — plays/sec, ETA, worker utilization,
- `repro.runtime.engine` — :func:`run_study`, the entry point.

Guarantee: for a given seed the merged dataset is byte-identical to
the serial ``Study(config).run()`` for any worker count.
"""

from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import RunResult, RuntimeConfig, run_study
from repro.runtime.pool import (
    BackoffPolicy,
    ShardResult,
    run_shards,
    simulate_shard,
)
from repro.runtime.scheduler import ShardPlan, ShardSpec, plan_shards
from repro.runtime.telemetry import RunTelemetry, ThrottledProgressPrinter

__all__ = [
    "BackoffPolicy",
    "CheckpointStore",
    "RunResult",
    "RunTelemetry",
    "RuntimeConfig",
    "ShardPlan",
    "ShardResult",
    "ShardSpec",
    "ThrottledProgressPrinter",
    "plan_shards",
    "run_shards",
    "run_study",
    "simulate_shard",
]
