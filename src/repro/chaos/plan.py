"""Declarative fault plans: which fault fires where, deterministically.

A :class:`FaultPlan` is a seeded list of :class:`Fault` entries, each
naming an injection *site* in the execution stack and an *action* to
take there.  Sites are stable strings compiled into the production
code's IO/clock seam (`repro.chaos.seam`) and worker loop — faults are
matched by site, never by monkeypatching.

Sites
-----

``worker.play``
    Inside a pool worker, after the ``after_plays``-th play of the
    matched shard finishes.  Actions: ``hang`` (sleep ``hang_s``, the
    watchdog's prey), ``crash`` (``os._exit``), ``raise``.
``checkpoint.shard`` / ``checkpoint.manifest`` / ``checkpoint.run_manifest``
    The checkpoint journal's durable writes.  Actions: ``enospc`` /
    ``eio`` (raise mid-write, before rename), ``truncate`` (damage the
    file *after* the rename — a non-atomic-filesystem stand-in),
    ``pause`` (sleep between write and rename).
``cache.csv`` / ``cache.manifest``
    The sweep study-cache's durable writes; same actions.
``signal``
    Deliver a real signal to the running process at ``after_s``
    seconds into the run.  Actions: ``sigint``, ``sigterm``.
``serve.request``
    The `repro.serve` HTTP front end, fired per accepted request
    (first ``times`` matching requests).  Actions: ``drop`` (close the
    connection before any response bytes — the client sees a reset and
    must retry; dedup guarantees the retry attaches instead of
    re-simulating), ``stall`` (sleep ``pause_s`` before handling — a
    slow-loris stand-in that must not block other clients).
``pressure.disk``
    The run's :class:`repro.pressure.DiskBudget` ledger.  Action:
    ``shrink`` — at the ``after_writes``-th charged write the quota
    drops to ``budget_bytes``, modelling an operator (or another
    tenant) shrinking the quota mid-run.  The run must settle in
    exactly one of {complete, honestly-degraded, honestly-refused} —
    never a torn artifact.

Plans load from TOML or JSON (:func:`load_plan`) and
:func:`default_plan` is the standing chaos matrix: one fault per
failure family, each of which the runtime must either recover from
byte-identically or degrade from honestly.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field, fields, replace
from pathlib import Path

from repro.errors import ChaosError

try:
    import tomllib
except ModuleNotFoundError:  # Python 3.10: stdlib tomllib is 3.11+
    tomllib = None  # type: ignore[assignment]

#: Write-seam sites (three hook points each: pre, mid, post).
WRITE_SITES = (
    "checkpoint.shard",
    "checkpoint.manifest",
    "checkpoint.run_manifest",
    "cache.csv",
    "cache.manifest",
)
#: Every valid fault site.
SITES = WRITE_SITES + (
    "worker.play", "signal", "serve.request", "pressure.disk",
)

#: action -> the sites it may target.
ACTIONS = {
    "hang": ("worker.play",),
    "crash": ("worker.play",),
    "raise": ("worker.play",),
    "enospc": WRITE_SITES,
    "eio": WRITE_SITES,
    "truncate": WRITE_SITES,
    "pause": WRITE_SITES,
    "sigint": ("signal",),
    "sigterm": ("signal",),
    "drop": ("serve.request",),
    "stall": ("serve.request",),
    "shrink": ("pressure.disk",),
}


@dataclass(frozen=True)
class Fault:
    """One injected fault: a site, an action, and its trigger."""

    site: str
    action: str
    #: Worker faults: shard to hit (None: any shard).
    shard: int | None = None
    #: Worker faults: fire after this many plays have finished.
    after_plays: int = 1
    #: Worker faults: keep firing while the shard's attempt number is
    #: <= this, so attempt ``attempts + 1`` succeeds (999 = never stop
    #: firing: the quarantine path).
    attempts: int = 1
    #: Write faults: fire for the first ``times`` matching writes.
    times: int = 1
    #: Write faults: which hook point ("pre" | "mid" | "post"); the
    #: default "mid" is after the payload is written, before the rename.
    point: str = "mid"
    #: Signal faults: deliver this many wall-clock seconds into the run.
    after_s: float = 0.5
    #: ``hang``: how long the worker sleeps (>> any watchdog deadline).
    hang_s: float = 3600.0
    #: ``pause``: how long a write stalls between write and rename.
    pause_s: float = 0.2
    #: ``truncate``: how many bytes of the renamed file survive.
    keep_bytes: int = 32
    #: ``shrink``: the quota (bytes) the budget drops to mid-run.
    budget_bytes: int = 1 << 20
    #: ``shrink``: fire at this many charged writes into the run.
    after_writes: int = 1

    def __post_init__(self) -> None:
        if self.site not in SITES:
            raise ChaosError(
                f"unknown fault site {self.site!r} (sites: {list(SITES)})"
            )
        if self.action not in ACTIONS:
            raise ChaosError(
                f"unknown fault action {self.action!r} "
                f"(actions: {sorted(ACTIONS)})"
            )
        if self.site not in ACTIONS[self.action]:
            raise ChaosError(
                f"action {self.action!r} cannot target site {self.site!r}"
            )
        if self.point not in ("pre", "mid", "post"):
            raise ChaosError(
                f"fault point must be pre/mid/post, got {self.point!r}"
            )
        if self.action == "truncate" and self.point != "post":
            # Truncation models damage after a successful rename.
            object.__setattr__(self, "point", "post")
        if self.action == "shrink":
            if self.budget_bytes <= 0:
                raise ChaosError(
                    "pressure.disk shrink faults need a positive "
                    f"budget_bytes, got {self.budget_bytes!r}"
                )
            if self.after_writes < 1:
                raise ChaosError(
                    f"after_writes must be >= 1, got {self.after_writes!r}"
                )

    @property
    def label(self) -> str:
        """Stable human-readable identity (matrix rows, reports)."""
        parts = [f"{self.site}:{self.action}"]
        if self.site == "worker.play":
            target = "*" if self.shard is None else str(self.shard)
            parts.append(f"shard={target}@play{self.after_plays}")
            if self.attempts != 1:
                parts.append(f"attempts<={self.attempts}")
        elif self.site == "signal":
            parts.append(f"after={self.after_s:g}s")
        elif self.site == "serve.request":
            if self.times != 1:
                parts.append(f"times={self.times}")
        elif self.site == "pressure.disk":
            parts.append(
                f"to={self.budget_bytes}B@write{self.after_writes}"
            )
        elif self.point != "mid":
            parts.append(self.point)
        return "+".join(parts)


@dataclass(frozen=True)
class FaultPlan:
    """A named, seeded set of faults to run a study under."""

    name: str = "chaos"
    #: Keys any future randomized choice; today it only salts the
    #: retry-backoff jitter so two plans never share a backoff schedule.
    seed: int = 0
    faults: tuple[Fault, ...] = ()

    def for_site(self, *sites: str) -> tuple[Fault, ...]:
        """The plan's faults targeting any of ``sites``, in order."""
        return tuple(f for f in self.faults if f.site in sites)

    def singletons(self) -> tuple["FaultPlan", ...]:
        """One single-fault plan per fault — the chaos matrix's cases."""
        return tuple(
            replace(self, name=f"{self.name}/{fault.label}", faults=(fault,))
            for fault in self.faults
        )

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        """Build a plan from a parsed TOML/JSON document."""
        data = dict(data)
        unknown = set(data) - {"name", "seed", "faults"}
        if unknown:
            raise ChaosError(f"unknown plan keys {sorted(unknown)!r}")
        raw_faults = data.get("faults", ())
        if not isinstance(raw_faults, (list, tuple)):
            raise ChaosError("faults must be an array of tables/objects")
        known = {f.name for f in fields(Fault)}
        parsed = []
        for index, raw in enumerate(raw_faults):
            if not isinstance(raw, dict):
                raise ChaosError(f"faults[{index}] must be a table/object")
            extra = set(raw) - known
            if extra:
                raise ChaosError(
                    f"faults[{index}]: unknown keys {sorted(extra)!r}"
                )
            if "site" not in raw or "action" not in raw:
                raise ChaosError(
                    f"faults[{index}] needs at least 'site' and 'action'"
                )
            parsed.append(Fault(**raw))
        return cls(
            name=str(data.get("name", "chaos")),
            seed=int(data.get("seed", 0)),
            faults=tuple(parsed),
        )


def load_plan(path: str | Path) -> FaultPlan:
    """Load a fault plan from a ``.toml`` or ``.json`` file."""
    path = Path(path)
    try:
        raw = path.read_bytes()
    except OSError as exc:
        raise ChaosError(f"cannot read fault plan {path}: {exc}") from exc
    if path.suffix.lower() == ".toml":
        if tomllib is None:
            raise ChaosError(
                f"TOML plans need Python 3.11+ (stdlib tomllib); rewrite "
                f"{path.name} as JSON or upgrade"
            )
        try:
            data = tomllib.loads(raw.decode("utf-8"))
        except (tomllib.TOMLDecodeError, UnicodeDecodeError) as exc:
            raise ChaosError(f"malformed TOML plan {path}: {exc}") from exc
    elif path.suffix.lower() == ".json":
        try:
            data = json.loads(raw)
        except ValueError as exc:
            raise ChaosError(f"malformed JSON plan {path}: {exc}") from exc
    else:
        raise ChaosError(f"fault plan {path} must be .toml or .json")
    if not isinstance(data, dict):
        raise ChaosError(f"fault plan {path} must be a table/object")
    return FaultPlan.from_dict(data)


def default_plan() -> FaultPlan:
    """The standing chaos matrix: one fault per failure family.

    Every entry must end *complete* (byte-identical to the fault-free
    golden), honestly *degraded* (journal writes lost, or a partial
    manifest naming each quarantined shard) or honestly *refused*
    (interrupted, and the resume converges) — and never leave a
    corrupt artifact.  Pinned by ``tests/test_chaos_matrix.py`` and the
    CI chaos smoke stage.
    """
    return FaultPlan(
        name="default",
        seed=2001,
        faults=(
            # A worker that stops making progress: watchdog kills and
            # reschedules; the retry (attempt 2) runs clean.
            Fault(site="worker.play", action="hang", shard=1, hang_s=3600.0),
            # A worker that dies outright: dead-process detection + retry.
            Fault(site="worker.play", action="crash", shard=0),
            # A deterministically failing shard: exhausts retries and is
            # quarantined; the study completes partially and honestly.
            Fault(site="worker.play", action="crash", shard=2, attempts=999),
            # The journal write fails mid-write (disk full): the run
            # degrades to unjournaled-but-correct; no torn files remain.
            Fault(site="checkpoint.shard", action="enospc"),
            # The renamed journal entry is damaged on disk (non-atomic
            # filesystem): resume detects it and re-simulates.
            Fault(site="checkpoint.shard", action="truncate"),
            # Operator interrupts: both signals must flush a consistent
            # checkpoint and leave a resumable journal.
            Fault(site="signal", action="sigint", after_s=0.4),
            Fault(site="signal", action="sigterm", after_s=0.4),
        ),
    )
