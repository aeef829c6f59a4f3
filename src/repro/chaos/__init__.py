"""Deterministic fault injection and the runtime's chaos matrix.

The subsystem that keeps the execution stack honest about failure:

- `repro.chaos.plan` — :class:`FaultPlan`/:class:`Fault`: seeded,
  declarative fault plans (TOML/JSON) naming injection sites across
  the runtime — worker hang/crash/raise, checkpoint and cache write
  faults (ENOSPC, EIO, truncation-after-rename, pauses), scheduled
  SIGINT/SIGTERM delivery;
- `repro.chaos.seam` — :class:`IoSeam`: the injectable IO layer
  production writes go through (fsync-before-rename durability,
  crash-atomic temp files, named fault hooks — no monkeypatching);
- `repro.chaos.matrix` — :func:`~repro.chaos.matrix.run_chaos_matrix`:
  runs a study once per cell (each fault of a plan, each disk budget)
  and judges every cell against one serial golden: complete, degraded,
  refused, or FAILED.

``repro chaos --plan …`` drives the matrix from the CLI, and ``repro
validate`` runs it with only the fault-free control cell.

`repro.chaos.matrix` imports `repro.runtime` (which itself uses the
seam), so it is intentionally **not** re-exported here — import it as
``from repro.chaos.matrix import run_chaos_matrix``.
"""

from repro.chaos.plan import (
    ACTIONS,
    SITES,
    WRITE_SITES,
    Fault,
    FaultPlan,
    default_plan,
    load_plan,
)
from repro.chaos.seam import IoSeam, WorkerFaults, default_seam

__all__ = [
    "ACTIONS",
    "Fault",
    "FaultPlan",
    "IoSeam",
    "SITES",
    "WRITE_SITES",
    "WorkerFaults",
    "default_plan",
    "default_seam",
    "load_plan",
]
