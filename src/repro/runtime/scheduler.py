"""Deterministic sharding of a study's playback schedule.

The campaign is embarrassingly parallel *per user*: every playback's
RNG stream is keyed by ``(seed, user_id, position)`` and the only
sequential state — the per-user rating budget — never crosses user
boundaries.  A shard is therefore a set of whole users.  The plan is a
pure function of the :class:`~repro.core.study.StudyConfig` and the
requested shard count, so two processes (or two runs, for
checkpoint/resume) always agree on it; the plan's ``fingerprint``
makes that agreement checkable.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass

from repro.core.study import Study, StudyConfig

#: Default shard-count cap: fine enough for progress/steal balance on
#: any realistic worker count, coarse enough that per-shard process
#: startup (the seed's users, ~5 ms at 65 and ~10 ms at 130; the clip
#: catalogue is inherited from the forking parent, or ~22 ms more in a
#: spawned worker) stays negligible.
DEFAULT_MAX_SHARDS = 16


@dataclass(frozen=True)
class ShardSpec:
    """One shard: a set of whole users and their scheduled play count."""

    shard_id: int
    user_ids: tuple[str, ...]
    plays: int


@dataclass(frozen=True)
class ShardPlan:
    """The full sharded schedule for one study configuration."""

    shards: tuple[ShardSpec, ...]
    #: Every user id in population order — the merge order.
    user_order: tuple[str, ...]
    total_plays: int
    #: Stable digest of (config, shard assignment); checkpoint
    #: compatibility is decided by comparing fingerprints.
    fingerprint: str

    @property
    def shard_count(self) -> int:
        return len(self.shards)


def plan_shards(
    study: Study, shard_count: int | None = None
) -> ShardPlan:
    """Split the study's schedule into a deterministic shard plan.

    Users are distributed longest-processing-time first: sorted by
    descending play count (ties broken by population order), each user
    goes to the currently lightest shard.  Within a shard users keep
    population order, so a shard's dataset is a contiguous-per-user
    slice of the serial run.
    """
    schedule = study.schedule()
    n_users = len(schedule)
    if shard_count is None:
        shard_count = min(n_users, DEFAULT_MAX_SHARDS)
    if shard_count < 1:
        raise ValueError(f"shard_count must be >= 1, got {shard_count}")
    shard_count = min(shard_count, n_users)

    loads = [0] * shard_count
    assigned: list[list[int]] = [[] for _ in range(shard_count)]
    by_weight = sorted(
        range(n_users), key=lambda i: (-schedule[i][1], i)
    )
    for index in by_weight:
        lightest = min(range(shard_count), key=lambda s: (loads[s], s))
        loads[lightest] += schedule[index][1]
        assigned[lightest].append(index)

    shards = tuple(
        ShardSpec(
            shard_id=shard_id,
            user_ids=tuple(schedule[i][0] for i in sorted(indices)),
            plays=loads[shard_id],
        )
        for shard_id, indices in enumerate(assigned)
    )
    user_order = tuple(user_id for user_id, _plays in schedule)
    return ShardPlan(
        shards=shards,
        user_order=user_order,
        total_plays=sum(plays for _uid, plays in schedule),
        fingerprint=plan_fingerprint(study.config, shards),
    )


def plan_fingerprint(
    config: StudyConfig, shards: tuple[ShardSpec, ...]
) -> str:
    """A stable digest of the configuration and shard assignment.

    Built on ``StudyConfig.to_canonical_dict()``, so every knob that
    shapes results — scenario, tracer tree, scale — participates, and
    ``validation`` (which never changes results) does not: an audited
    run can resume an unaudited journal.
    """
    payload = json.dumps(
        {
            "config": config.to_canonical_dict(),
            "shards": [list(shard.user_ids) for shard in shards],
        },
        sort_keys=True,
    )
    return hashlib.sha256(payload.encode("utf-8")).hexdigest()[:16]
