"""The chaos matrix's budget cells: every budget ends in an honest state.

Under any disk budget a sketch run settles in exactly one of
{complete, honestly-degraded, honestly-refused} with clean artifacts
and byte-identical (or resume-convergent) data, judged against the same
serial golden as every fault cell.
"""

from __future__ import annotations

import pytest

from repro.chaos.matrix import ChaosReport, run_chaos_matrix
from repro.core.study import StudyConfig
from repro.pressure import du_bytes
from repro.runtime import RuntimeConfig, run_study

CONFIG = StudyConfig(seed=7, playlist_length=8, max_users=8, scale=0.1)


@pytest.fixture(scope="module")
def footprint(tmp_path_factory) -> int:
    """On-disk bytes of this config's finished sketch journal, used to
    calibrate a budget that lands in the soft band."""
    import dataclasses

    ckpt = tmp_path_factory.mktemp("calibration")
    run_study(
        dataclasses.replace(CONFIG, aggregation="sketch"),
        RuntimeConfig(shard_count=4, checkpoint_dir=ckpt),
    )
    return du_bytes(ckpt)


@pytest.fixture(scope="module")
def report(footprint, tmp_path_factory) -> ChaosReport:
    """One matrix covering all three verdicts plus the chaos shrink."""
    soft_budget = int(footprint / 0.85)
    return run_chaos_matrix(
        None,
        CONFIG,
        budgets=(None, soft_budget, 3000),
        shrink_to=3000,
        shrink_after_writes=4,
        shard_count=4,
        base_dir=tmp_path_factory.mktemp("pressure"),
    )


class TestPressureMatrix:
    def test_every_cell_is_honest(self, report):
        assert report.ok, report.format()
        assert len(report.outcomes) == 4
        statuses = [outcome.status for outcome in report.outcomes]
        assert statuses == ["complete", "degraded", "refused", "refused"]

    def test_unbudgeted_control_never_leaves_ok(self, report):
        control = report.outcomes[0]
        assert control.cell == "control"
        assert control.interrupted_by == ""
        assert control.detail == "byte-identical"

    def test_degraded_cell_felt_pressure(self, report):
        degraded = report.outcomes[1]
        assert degraded.cell.startswith("budget=")
        assert "level=soft" in degraded.detail or (
            "level=hard" in degraded.detail
        )

    def test_refused_cell_blames_the_budget(self, report):
        refused = report.outcomes[2]
        assert refused.status == "refused"
        assert refused.interrupted_by == "disk-budget"
        assert "resume" in refused.detail

    def test_shrink_cell_is_flagged(self, report):
        shrink = report.outcomes[3]
        assert shrink.cell == "pressure.disk:shrink+to=3000B@write4"
        assert shrink.interrupted_by == "disk-budget"

    def test_report_renders_and_serializes(self, report):
        text = report.format()
        assert "control" in text
        assert "budget=3000B" in text
        payload = report.payload()
        assert payload["ok"] is True
        assert payload["golden_sha256"] == report.golden_sha256
        assert len(payload["outcomes"]) == 4
        assert {o["status"] for o in payload["outcomes"]} == {
            "complete", "degraded", "refused",
        }
