"""The chaos matrix: one golden, one list of cells, one judge.

The golden is the serial reference ``Study(config).run()``.  By the
determinism contract its CSV is the same in exact and sketch mode and
at any worker count, so one golden serves every cell.  The cells:

- an optional fault-free **control** cell (the ``None`` budget), run
  like a fault cell with nothing injected — alone, it is ``repro
  validate``'s serial-vs-parallel oracle;
- one cell per **fault** of a :class:`~repro.chaos.plan.FaultPlan`,
  at ``workers`` on the given config;
- one cell per **disk budget**, on the in-process sketch path;
- the **shrink** cell: a budget cut mid-run through the
  ``pressure.disk`` fault site.

Every cell's run is then resumed fault-free from its journal, the
journal is checked (:meth:`CheckpointStore.verify`), and the CSVs are
compared byte for byte against the golden.  :func:`judge` turns those
facts into exactly one status; a ``FAILED`` cell fails the report and
``repro chaos`` exits 1.
"""

from __future__ import annotations

import dataclasses
import hashlib
import tempfile
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

from repro.chaos.plan import Fault, FaultPlan
from repro.core.study import Study, StudyConfig
from repro.pressure import PressureConfig
from repro.runtime.checkpoint import CheckpointStore
from repro.runtime.engine import RunResult, RuntimeConfig, run_study
from repro.runtime.pool import BackoffPolicy


@dataclass(frozen=True)
class ChaosOutcome:
    """One cell's verdict."""

    cell: str
    #: "complete", "degraded", "refused", or "FAILED" (see :func:`judge`).
    status: str
    #: What interrupted the run ("" when nothing did).
    interrupted_by: str
    #: Shards the run quarantined.
    quarantined: tuple[int, ...]
    #: Retries the run burned (watchdog kills included).
    retries: int
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status != "FAILED"


@dataclass(frozen=True)
class ChaosReport:
    """The whole matrix: one golden digest, one outcome per cell."""

    plan: str
    golden_sha256: str
    outcomes: tuple[ChaosOutcome, ...]

    @property
    def ok(self) -> bool:
        return all(outcome.ok for outcome in self.outcomes)

    def format(self) -> str:
        """Aligned plain-text verdict table."""
        width = max([len("cell")] + [len(o.cell) for o in self.outcomes])
        lines = [
            f"chaos matrix {self.plan!r} — golden "
            f"{self.golden_sha256[:12]}",
            f"{'cell'.ljust(width)}  {'status':<9} {'interrupted':<12} "
            f"{'retries':>7}  detail",
        ]
        for o in self.outcomes:
            lines.append(
                f"{o.cell.ljust(width)}  {o.status:<9} "
                f"{o.interrupted_by or '-':<12} {o.retries:>7d}  {o.detail}"
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
                dataclasses.asdict(outcome) for outcome in self.outcomes
            ],
        }


@dataclass(frozen=True)
class CellRun:
    """What one cell's run left behind: everything the judge reads."""

    label: str
    #: The one interrupt this cell may cause: a signal fault's signal
    #: name, ``"disk-budget"`` for a budget cell, "" for none.
    cause: str = ""
    interrupted: bool = False
    #: The run manifest's ``interrupted_by`` ("" when absent).
    interrupted_by: str = ""
    #: Shards the run quarantined, and the shards its manifest names.
    quarantined: tuple[int, ...] = ()
    named_quarantine: tuple[int, ...] = ()
    #: For a finished run with quarantined shards: the users its
    #: partial dataset holds, and the users it should hold.
    users: frozenset[str] = frozenset()
    kept_users: frozenset[str] = frozenset()
    retries: int = 0
    journal_errors: int = 0
    #: Final disk-budget level ("" when unbudgeted), spill-batch
    #: shrinks, and degradation events the budget logged.
    level: str = ""
    batch_shrinks: int = 0
    pressure_events: int = 0
    #: The run's CSV when it finished whole, else None.
    csv: str | None = None
    #: The fault-free resume's CSV, None when the resume did not complete.
    resumed_csv: str | None = None
    #: What :meth:`CheckpointStore.verify` found after the resume.
    artifact_problems: tuple[str, ...] = ()


def judge(run: CellRun, golden: str) -> ChaosOutcome:
    """The one verdict rule for every cell of the matrix.

    ``complete``
        Byte-identical to the golden.  Retries are allowed.
    ``degraded``
        Byte-identical, but journal writes were lost or the disk budget
        pressed (level above ``ok``, spill batches shrunk, events
        logged); or shards were quarantined honestly — the manifest
        names every one and the partial dataset holds exactly the
        other users.
    ``refused``
        The run was interrupted, its ``interrupted_by`` names the
        cell's own cause (a signal fault's signal, ``disk-budget`` for
        a budget cell), and the resume converged.
    ``FAILED``
        Anything else: a CSV that differs from the golden (the detail
        names the first line), a manifest that misnames the quarantined
        shards, an interrupt by anything but the cell's cause, a resume
        that did not complete, or a dirty journal.
    """
    problems: list[str] = []
    if run.interrupted:
        status = "refused"
        detail = f"interrupted by {run.interrupted_by}, resume converged"
        if not run.cause or run.interrupted_by != run.cause:
            problems.append(
                f"interrupted by {run.interrupted_by!r}, "
                + (f"not by {run.cause!r}" if run.cause
                   else "which this cell cannot cause")
            )
    elif run.quarantined:
        status = "degraded"
        detail = f"shards {list(run.quarantined)} quarantined honestly"
        missing = sorted(run.kept_users - run.users)
        if run.users - run.kept_users:
            problems.append("dataset holds records of quarantined shards")
        if missing:
            problems.append(
                f"dataset is missing non-quarantined users: {missing[:5]}"
            )
    else:
        reasons = []
        if run.journal_errors:
            reasons.append(f"{run.journal_errors} journal write(s) lost")
        if (
            run.level not in ("", "ok")
            or run.batch_shrinks
            or run.pressure_events
        ):
            reasons.append(
                f"under pressure (level={run.level}, "
                f"batch shrinks={run.batch_shrinks})"
            )
        status = "degraded" if reasons else "complete"
        detail = "; ".join(["byte-identical", *reasons])
    if run.named_quarantine != run.quarantined:
        problems.append(
            f"manifest names quarantined shards "
            f"{list(run.named_quarantine)}, run lost {list(run.quarantined)}"
        )
    if run.resumed_csv is None:
        problems.append("fault-free resume did not complete")
    problems.extend(run.artifact_problems)
    for what, csv in (("run", run.csv), ("resumed", run.resumed_csv)):
        line = _first_divergence(golden, csv) if csv is not None else None
        if line is not None:
            problems.append(
                f"{what} CSV diverges from the golden at line {line}"
            )
    if problems:
        status, detail = "FAILED", "; ".join(problems)
    return ChaosOutcome(
        cell=run.label,
        status=status,
        interrupted_by=run.interrupted_by,
        quarantined=run.quarantined,
        retries=run.retries,
        detail=detail,
    )


def _first_divergence(golden: str, csv: str) -> int | None:
    """1-based number of the first line where ``csv`` leaves the
    golden (None when the two are byte-identical)."""
    if csv == golden:
        return None
    want, got = golden.splitlines(), csv.splitlines()
    for number, (left, right) in enumerate(zip(want, got), start=1):
        if left != right:
            return number
    return min(len(want), len(got)) + 1


@dataclass(frozen=True)
class _Cell:
    label: str
    config: StudyConfig
    workers: int
    plan: FaultPlan | None = None
    #: See :attr:`CellRun.cause`.
    cause: str = ""
    pressure: PressureConfig | None = None


def _cells(
    plan, config, workers, budgets, shrink_to, shrink_after_writes
) -> list[_Cell]:
    cells = [_Cell("control", config, workers)] if None in budgets else []
    for case in plan.singletons() if plan is not None else ():
        fault = case.faults[0]
        cause = fault.action.upper() if fault.site == "signal" else ""
        cells.append(_Cell(fault.label, config, workers, case, cause))
    # Spill-batch degradation only exists on the streaming path.
    sketch = dataclasses.replace(config, aggregation="sketch")
    for budget in budgets:
        if budget is not None:
            cells.append(_Cell(
                f"budget={budget}B", sketch, 1, None, "disk-budget",
                PressureConfig(max_disk_bytes=budget),
            ))
    if shrink_to is not None:
        # The quota starts effectively unlimited and is cut to
        # ``shrink_to`` bytes after ``shrink_after_writes`` journal writes.
        shrink = Fault(
            site="pressure.disk", action="shrink", budget_bytes=shrink_to,
            after_writes=shrink_after_writes,
        )
        cells.append(_Cell(
            shrink.label, sketch, 1,
            FaultPlan(name="pressure", faults=(shrink,)), "disk-budget",
            PressureConfig(max_disk_bytes=1 << 40),
        ))
    return cells


def run_chaos_matrix(
    plan: FaultPlan | None = None,
    config: StudyConfig | None = None,
    workers: int = 2,
    shard_count: int | None = 8,
    base_dir: str | Path | None = None,
    max_retries: int = 2,
    watchdog_deadline_s: float = 2.0,
    backoff: BackoffPolicy | None = None,
    progress: Callable[[str], None] | None = None,
    budgets: tuple[int | None, ...] = (),
    shrink_to: int | None = None,
    shrink_after_writes: int = 4,
) -> ChaosReport:
    """Compute the golden, run every cell, judge each one.

    ``budgets`` adds one cell per disk budget (``None``: the control
    cell) and ``shrink_to`` the shrink cell.  ``base_dir`` holds one
    checkpoint directory per cell (a temp directory when omitted).
    Signal faults are delivered in-process on their schedule, so the
    matrix must run on the main thread.  ``worker.play`` faults need a
    worker process to hit: `RuntimeConfig` rejects them with
    ``ValueError`` at ``workers=1``.
    """
    config = config if config is not None else StudyConfig()
    if backoff is None:
        backoff = BackoffPolicy(
            base_s=0.05, cap_s=1.0, key=plan.seed if plan is not None else 0
        )
    cells = _cells(
        plan, config, workers, budgets, shrink_to, shrink_after_writes
    )
    note = progress if progress is not None else (lambda message: None)

    with tempfile.TemporaryDirectory(prefix="repro-chaos-") as fallback:
        base = Path(base_dir) if base_dir is not None else Path(fallback)
        base.mkdir(parents=True, exist_ok=True)

        note("golden run (serial, no faults)...")
        golden = Study(config).run().to_csv_string()
        golden_sha = hashlib.sha256(golden.encode()).hexdigest()
        note(f"golden: sha256 {golden_sha[:12]}")

        outcomes = []
        for index, cell in enumerate(cells):
            note(f"[{index + 1}/{len(cells)}] {cell.label}...")
            ckpt = base / f"cell_{index:02d}"
            run = run_study(
                cell.config,
                RuntimeConfig(
                    workers=cell.workers,
                    shard_count=shard_count,
                    checkpoint_dir=ckpt,
                    max_retries=max_retries,
                    fault_plan=cell.plan,
                    backoff=backoff,
                    watchdog_deadline_s=watchdog_deadline_s,
                    handle_signals=bool(
                        cell.plan and cell.plan.for_site("signal")
                    ),
                    pressure=cell.pressure,
                ),
            )
            facts = _observe(cell, run, ckpt, shard_count)
            outcomes.append(judge(facts, golden))
            note(f"  -> {outcomes[-1].status}: {outcomes[-1].detail}")
        return ChaosReport(
            plan=plan.name if plan is not None else "no faults",
            golden_sha256=golden_sha,
            outcomes=tuple(outcomes),
        )


def _observe(
    cell: _Cell, run: RunResult, ckpt: Path, shard_count: int | None
) -> CellRun:
    """Gather the judge's facts: the run's CSV, a fault-free resume of
    its journal, and the journal check after it."""
    users = kept = frozenset()
    if run.failed_shards and not run.interrupted:
        lost = {
            user_id
            for shard in run.plan.shards
            if shard.shard_id in run.failed_shards
            for user_id in shard.user_ids
        }
        users = frozenset(record.user_id for record in run.dataset)
        kept = frozenset(run.plan.user_order) - lost
    # Read before the resume, which may sweep this run's spill files.
    csv = run.dataset.to_csv_string() if run.complete else None
    resumed = run_study(
        cell.config,
        RuntimeConfig(
            workers=cell.workers,
            shard_count=shard_count,
            checkpoint_dir=ckpt,
            resume=True,
        ),
    )
    pressure = run.telemetry.pressure or {}
    return CellRun(
        label=cell.label,
        cause=cell.cause,
        interrupted=run.interrupted,
        interrupted_by=run.manifest.get("interrupted_by", ""),
        quarantined=run.failed_shards,
        named_quarantine=tuple(
            run.manifest.get("quarantined", {}).get("shards", ())
        ),
        users=users,
        kept_users=kept,
        retries=run.telemetry.retries,
        journal_errors=len(run.telemetry.journal_errors),
        level=pressure.get("level", ""),
        batch_shrinks=run.telemetry.batch_shrinks,
        pressure_events=len(pressure.get("events", ())),
        csv=csv,
        resumed_csv=(
            resumed.dataset.to_csv_string() if resumed.complete else None
        ),
        artifact_problems=tuple(CheckpointStore(ckpt).verify()),
    )
