"""The chaos matrix: run a study under each fault, assert the guarantees.

For every fault of a :class:`~repro.chaos.plan.FaultPlan` the matrix
runs one checkpointed study with only that fault injected, then a
fault-free ``resume=True`` run on the same journal, and holds the
outcome to the standing guarantees:

1. **Recovered** — the chaos run (or its resume) produced a dataset
   byte-identical to the fault-free golden.
2. **Quarantined honestly** — if shards exhausted their retries, the
   run manifest names every one of them, the partial dataset contains
   exactly the non-quarantined users, and the fault-free resume still
   converges to the golden.
3. **No corrupt artifacts** — after recovery the checkpoint directory
   is fully consistent: manifest parses, every journaled shard loads
   with its journaled record count, no orphaned temp files.

Any violation is a failed :class:`ChaosOutcome`; ``repro chaos``
exits non-zero on the first one.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.chaos.plan import Fault, FaultPlan
from repro.core.records import StudyDataset
from repro.core.study import StudyConfig
from repro.errors import CheckpointError
from repro.pressure import PressureConfig
from repro.runtime.checkpoint import (
    MANIFEST_NAME,
    SPILL_DIR_NAME,
    CheckpointStore,
)
from repro.runtime.engine import RunResult, RuntimeConfig, run_study
from repro.runtime.pool import BackoffPolicy


def verify_artifacts(checkpoint_dir: str | Path) -> list[str]:
    """Integrity problems in a checkpoint directory (empty = clean).

    Checks the post-recovery contract: the manifest parses, every
    shard journaled ``done`` loads with its journaled record count,
    and no temp files were orphaned.
    """
    directory = Path(checkpoint_dir)
    problems: list[str] = []
    for orphan in sorted(directory.glob("*.tmp.*")):
        problems.append(f"orphaned temp file {orphan.name}")
    manifest_path = directory / MANIFEST_NAME
    try:
        manifest = json.loads(manifest_path.read_text())
    except (OSError, ValueError) as exc:
        problems.append(f"unreadable manifest: {exc}")
        return problems
    store = CheckpointStore(directory)
    store._manifest = manifest
    for shard_id, entry in sorted(manifest.get("shards", {}).items()):
        if entry.get("status") != "done":
            continue
        try:
            if entry.get("format") == "spill":
                store.load_shard_spill(int(shard_id))
            else:
                store.load_shard(int(shard_id))
        except CheckpointError as exc:
            problems.append(f"shard {shard_id}: {exc}")
    spill_dir = directory / SPILL_DIR_NAME
    if spill_dir.is_dir():
        for orphan in sorted(spill_dir.glob("*.tmp.*")):
            problems.append(f"orphaned temp file spill/{orphan.name}")
    return problems


@dataclass(frozen=True)
class ChaosOutcome:
    """One fault's verdict against the guarantees."""

    fault: Fault
    #: "recovered" (byte-identical, possibly via resume),
    #: "quarantined" (honest partial + resume converged), or "FAILED".
    status: str
    #: The chaos run was interrupted by the injected signal.
    interrupted: bool
    #: Shards quarantined by the chaos run.
    quarantined: tuple[int, ...]
    #: Retries the chaos run burned (watchdog kills included).
    retries: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "FAILED"


@dataclass(frozen=True)
class ChaosReport:
    """The whole matrix: one golden digest, one outcome per fault."""

    plan: str
    golden_sha256: str
    outcomes: tuple[ChaosOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def format(self) -> str:
        """Aligned plain-text verdict table."""
        width = max(
            (len(o.fault.label) for o in self.outcomes), default=5
        )
        width = max(width, len("fault"))
        lines = [
            f"chaos matrix {self.plan!r} — golden "
            f"{self.golden_sha256[:12]}",
            f"{'fault'.ljust(width)}  {'status':<12} "
            f"{'intr':<5} {'retries':>7}  detail",
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.fault.label.ljust(width)}  {o.status:<12} "
                f"{'yes' if o.interrupted else '-':<5} "
                f"{o.retries:>7d}  {o.detail}"
            )
        verdict = "all guarantees held" if self.ok else "GUARANTEES VIOLATED"
        lines.append(verdict)
        return "\n".join(lines)

    def payload(self) -> dict:
        """JSON-ready record of the matrix run."""
        return {
            "plan": self.plan,
            "golden_sha256": self.golden_sha256,
            "ok": self.ok,
            "outcomes": [
                {
                    "fault": outcome.fault.label,
                    "site": outcome.fault.site,
                    "action": outcome.fault.action,
                    "status": outcome.status,
                    "interrupted": outcome.interrupted,
                    "quarantined": list(outcome.quarantined),
                    "retries": outcome.retries,
                    "detail": outcome.detail,
                }
                for outcome in self.outcomes
            ],
        }


def _sha(dataset: StudyDataset) -> str:
    return hashlib.sha256(dataset.to_csv_string().encode()).hexdigest()


def _check_quarantine_honesty(
    result: RunResult, golden_users_by_shard: dict[int, tuple[str, ...]]
) -> str:
    """'' if the partial manifest tells the truth, else the lie."""
    manifest = result.manifest
    named = manifest.get("quarantined", {}).get("shards")
    if named != sorted(result.failed_shards):
        return (
            f"manifest names quarantined shards {named!r}, run lost "
            f"{sorted(result.failed_shards)!r}"
        )
    lost_users = {
        user_id
        for shard_id in result.failed_shards
        for user_id in golden_users_by_shard[shard_id]
    }
    dataset_users = {record.user_id for record in result.dataset}
    if dataset_users & lost_users:
        return "dataset contains records from quarantined shards"
    kept = set(result.plan.user_order) - lost_users
    if dataset_users != kept:
        return (
            f"dataset is missing non-quarantined users: "
            f"{sorted(kept - dataset_users)[:5]}"
        )
    return ""


def run_chaos_matrix(
    plan: FaultPlan,
    config: StudyConfig | None = None,
    workers: int = 2,
    shard_count: int | None = 8,
    base_dir: str | Path | None = None,
    max_retries: int = 2,
    watchdog_deadline_s: float = 2.0,
    backoff: BackoffPolicy | None = None,
    progress: Callable[[str], None] | None = None,
) -> ChaosReport:
    """Run the study under each of the plan's faults; judge the outcomes.

    ``base_dir`` holds one checkpoint directory per fault (a temp
    directory when omitted).  Signal faults are delivered in-process on
    their schedule, so the matrix must run on the main thread.
    ``worker.play`` faults need a worker process to hit: `RuntimeConfig`
    rejects them with ``ValueError`` at ``workers=1``.
    """
    import tempfile

    config = config if config is not None else StudyConfig()
    if backoff is None:
        backoff = BackoffPolicy(base_s=0.05, cap_s=1.0, key=plan.seed)

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as fallback:
        base = Path(base_dir) if base_dir is not None else Path(fallback)
        base.mkdir(parents=True, exist_ok=True)

        note(f"golden run (no faults, workers={workers})...")
        golden = run_study(
            config, RuntimeConfig(workers=workers, shard_count=shard_count)
        )
        golden_sha = _sha(golden.dataset)
        users_by_shard = {
            s.shard_id: s.user_ids for s in golden.plan.shards
        }
        note(f"golden: {len(golden.dataset)} records, "
             f"sha256 {golden_sha[:12]}")

        outcomes = []
        for index, case in enumerate(plan.singletons()):
            fault = case.faults[0]
            ckpt = base / f"fault_{index:02d}"
            note(f"[{index + 1}/{len(plan.faults)}] {fault.label}...")
            chaos = run_study(
                config,
                RuntimeConfig(
                    workers=workers,
                    shard_count=shard_count,
                    checkpoint_dir=ckpt,
                    max_retries=max_retries,
                    fault_plan=case,
                    backoff=backoff,
                    watchdog_deadline_s=watchdog_deadline_s,
                    handle_signals=fault.site == "signal",
                ),
            )
            outcomes.append(
                _judge(
                    fault, chaos, config, workers, shard_count, ckpt,
                    golden_sha, users_by_shard,
                )
            )
            note(f"  -> {outcomes[-1].status}: {outcomes[-1].detail}")
        return ChaosReport(
            plan=plan.name,
            golden_sha256=golden_sha,
            outcomes=tuple(outcomes),
        )


def _judge(
    fault, chaos, config, workers, shard_count, ckpt, golden_sha,
    users_by_shard,
) -> ChaosOutcome:
    """Hold one fault's chaos run (+ fault-free resume) to the rules."""
    quarantined = chaos.failed_shards
    retries = chaos.telemetry.retries
    problems: list[str] = []
    status = "recovered"
    detail = ""

    if quarantined:
        status = "quarantined"
        lie = _check_quarantine_honesty(chaos, users_by_shard)
        if lie:
            problems.append(lie)
        detail = (
            f"shards {list(quarantined)} quarantined "
            f"({chaos.quarantined_fraction:.1%} of plays)"
        )
    elif not chaos.interrupted and _sha(chaos.dataset) != golden_sha:
        problems.append("fault-tolerant run diverged from the golden")

    # The recovery path every fault must converge through: a fault-free
    # resume of the same journal must complete byte-identical.
    resumed = run_study(
        config,
        RuntimeConfig(
            workers=workers,
            shard_count=shard_count,
            checkpoint_dir=ckpt,
            resume=True,
        ),
    )
    if resumed.failed_shards or resumed.interrupted:
        problems.append(
            f"fault-free resume did not complete "
            f"(failed={list(resumed.failed_shards)})"
        )
    elif _sha(resumed.dataset) != golden_sha:
        problems.append("resumed dataset diverged from the golden")

    artifact_problems = verify_artifacts(ckpt)
    problems.extend(artifact_problems)

    if chaos.interrupted and not detail:
        detail = (
            f"interrupted by {chaos.manifest.get('interrupted_by', '?')}, "
            f"resume converged"
        )
    elif not detail:
        detail = "byte-identical"
    if problems:
        status = "FAILED"
        detail = "; ".join(problems)
    return ChaosOutcome(
        fault=fault,
        status=status,
        interrupted=chaos.interrupted,
        quarantined=quarantined,
        retries=retries,
        detail=detail,
    )


# -- resource-pressure matrix -----------------------------------------------


@dataclass(frozen=True)
class PressureOutcome:
    """One budget cell's verdict.

    Under any disk budget a run must end in exactly one of three honest
    states — never a torn artifact, never silent data loss:

    ``complete``
        Finished with the budget never leaving the ``ok`` level.
    ``degraded``
        Finished under pressure — smaller spill batches, thinned
        manifest flushes, skipped cache stores — with a dataset still
        byte-identical to the unbudgeted golden.
    ``refused``
        The hard watermark tripped: the run drained in-flight shards,
        flushed a consistent checkpoint, and reported
        ``interrupted_by: "disk-budget"``; an unbudgeted resume of the
        same journal converges to the golden.
    """

    #: The cell's ``max_disk_bytes`` (None: unbudgeted control).
    budget_bytes: int | None
    #: "complete", "degraded", "refused", or "FAILED".
    status: str
    #: Final budget level ("ok"/"soft"/"hard"; "" when unbudgeted).
    level: str
    #: Spill-batch shrinks the run performed under pressure.
    batch_shrinks: int
    #: Mid-run quota shrink injected via a ``pressure.disk`` fault.
    shrunk_mid_run: bool = False
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "FAILED"

    @property
    def label(self) -> str:
        if self.budget_bytes is None:
            name = "unbudgeted"
        else:
            name = f"{self.budget_bytes}B"
        return f"{name}+shrink" if self.shrunk_mid_run else name


@dataclass(frozen=True)
class PressureReport:
    """The whole pressure matrix: one golden digest, one row per budget."""

    golden_sha256: str
    outcomes: tuple[PressureOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def format(self) -> str:
        """Aligned plain-text verdict table."""
        width = max((len(o.label) for o in self.outcomes), default=6)
        width = max(width, len("budget"))
        lines = [
            f"pressure matrix — golden {self.golden_sha256[:12]}",
            f"{'budget'.ljust(width)}  {'status':<10} {'level':<5} "
            f"{'shrinks':>7}  detail",
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.label.ljust(width)}  {o.status:<10} "
                f"{o.level or '-':<5} {o.batch_shrinks:>7d}  {o.detail}"
            )
        verdict = "all budgets honest" if self.ok else "GUARANTEES VIOLATED"
        lines.append(verdict)
        return "\n".join(lines)

    def payload(self) -> dict:
        """JSON-ready record of the matrix run."""
        return {
            "golden_sha256": self.golden_sha256,
            "ok": self.ok,
            "outcomes": [
                {
                    "budget_bytes": o.budget_bytes,
                    "status": o.status,
                    "level": o.level,
                    "batch_shrinks": o.batch_shrinks,
                    "shrunk_mid_run": o.shrunk_mid_run,
                    "detail": o.detail,
                }
                for o in self.outcomes
            ],
        }


def run_pressure_matrix(
    config: StudyConfig | None = None,
    budgets: tuple[int | None, ...] = (None,),
    shrink_to: int | None = None,
    shrink_after_writes: int = 4,
    workers: int = 1,
    shard_count: int | None = 4,
    base_dir: str | Path | None = None,
    progress: Callable[[str], None] | None = None,
) -> PressureReport:
    """Run a sketch study under each disk budget; judge the outcomes.

    Every cell must settle in exactly one of {complete, degraded,
    refused} with clean artifacts; complete/degraded cells must be
    byte-identical to the unbudgeted golden, and refused cells must
    resume (unbudgeted) to it.  ``shrink_to`` adds one chaos cell whose
    quota starts unlimited-ish and is cut to that many bytes after
    ``shrink_after_writes`` journal writes — the ``pressure.disk``
    fault site.
    """
    import dataclasses
    import tempfile

    config = config if config is not None else StudyConfig()
    if config.aggregation != "sketch":
        # Spill-batch degradation only exists on the streaming path.
        config = dataclasses.replace(config, aggregation="sketch")

    def note(message: str) -> None:
        if progress is not None:
            progress(message)

    cells: list[tuple[int | None, Fault | None]] = [
        (budget, None) for budget in budgets
    ]
    if shrink_to is not None:
        cells.append(
            (
                1 << 40,
                Fault(
                    site="pressure.disk",
                    action="shrink",
                    budget_bytes=shrink_to,
                    after_writes=shrink_after_writes,
                ),
            )
        )

    with tempfile.TemporaryDirectory(prefix="repro-pressure-") as fallback:
        base = Path(base_dir) if base_dir is not None else Path(fallback)
        base.mkdir(parents=True, exist_ok=True)

        note(f"golden run (no budget, workers={workers})...")
        golden = run_study(
            config, RuntimeConfig(workers=workers, shard_count=shard_count)
        )
        golden_sha = _sha_any(golden.dataset)
        note(f"golden: {len(golden.dataset)} records, "
             f"sha256 {golden_sha[:12]}")

        outcomes = []
        for index, (budget_bytes, fault) in enumerate(cells):
            ckpt = base / f"budget_{index:02d}"
            pressure = (
                PressureConfig(max_disk_bytes=budget_bytes)
                if budget_bytes is not None
                else None
            )
            plan = (
                FaultPlan(name="pressure", faults=(fault,))
                if fault is not None
                else None
            )
            label = (
                f"{budget_bytes}B" if budget_bytes is not None
                else "unbudgeted"
            )
            if fault is not None:
                label += f" shrink->{fault.budget_bytes}B"
            note(f"[{index + 1}/{len(cells)}] {label}...")
            run = run_study(
                config,
                RuntimeConfig(
                    workers=workers,
                    shard_count=shard_count,
                    checkpoint_dir=ckpt,
                    pressure=pressure,
                    fault_plan=plan,
                ),
            )
            outcomes.append(
                _judge_pressure(
                    run, config, workers, shard_count, ckpt, golden_sha,
                    budget_bytes, fault,
                )
            )
            note(f"  -> {outcomes[-1].status}: {outcomes[-1].detail}")
        return PressureReport(
            golden_sha256=golden_sha, outcomes=tuple(outcomes)
        )


def _sha_any(dataset) -> str:
    """Digest exact and spilled datasets alike (both emit CSV)."""
    return hashlib.sha256(dataset.to_csv_string().encode()).hexdigest()


def _judge_pressure(
    run, config, workers, shard_count, ckpt, golden_sha, budget_bytes,
    fault,
) -> PressureOutcome:
    """Hold one budget cell to the honesty contract."""
    problems: list[str] = []
    snapshot = run.telemetry.pressure or {}
    level = snapshot.get("level", "")
    shrinks = run.telemetry.batch_shrinks
    detail = ""

    if run.failed_shards:
        problems.append(
            f"budget run quarantined shards {list(run.failed_shards)}"
        )

    if run.interrupted:
        status = "refused"
        blamed = run.manifest.get("interrupted_by")
        if blamed != "disk-budget":
            problems.append(
                f"interrupted by {blamed!r}, not the disk budget"
            )
        # An unbudgeted resume of the refused journal must converge.
        resumed = run_study(
            config,
            RuntimeConfig(
                workers=workers,
                shard_count=shard_count,
                checkpoint_dir=ckpt,
                resume=True,
            ),
        )
        if not resumed.complete:
            problems.append("unbudgeted resume did not complete")
        elif _sha_any(resumed.dataset) != golden_sha:
            problems.append("resumed dataset diverged from the golden")
        else:
            detail = "hard watermark refused, resume converged"
    else:
        degraded = bool(
            shrinks
            or (level and level != "ok")
            or snapshot.get("events")
        )
        status = "degraded" if degraded else "complete"
        if _sha_any(run.dataset) != golden_sha:
            problems.append(
                f"{status} run diverged from the unbudgeted golden"
            )
        elif degraded:
            detail = (
                f"byte-identical under pressure "
                f"(level={level}, batch shrinks={shrinks})"
            )
        else:
            detail = "byte-identical"

    problems.extend(verify_artifacts(ckpt))
    if problems:
        status = "FAILED"
        detail = "; ".join(problems)
    return PressureOutcome(
        budget_bytes=budget_bytes,
        status=status,
        level=level,
        batch_shrinks=shrinks,
        shrunk_mid_run=fault is not None,
        detail=detail,
    )
