"""repro.validate — cross-layer simulation invariant checking.

Debug-mode conservation ledgers, engine strict mode, and record/stat
cross-checks threaded through the whole stack.  Off by default; enable
via :class:`ValidationConfig` on ``StudyConfig``/``RuntimeConfig`` or
the ``repro validate`` CLI subcommand.
"""

from repro.validate.config import COUNTING, STRICT, ValidationConfig
from repro.validate.invariants import (
    NOMINAL_FPS_CAP,
    audit_link,
    audit_path,
    audit_playback,
    audit_player,
    audit_session,
    audit_tcp,
    audit_udp,
    validate_record,
)
from repro.validate.ledger import ValidationLedger, Violation

__all__ = [
    "COUNTING",
    "NOMINAL_FPS_CAP",
    "STRICT",
    "ValidationConfig",
    "ValidationLedger",
    "Violation",
    "audit_link",
    "audit_path",
    "audit_playback",
    "audit_player",
    "audit_session",
    "audit_tcp",
    "audit_udp",
    "validate_record",
]
