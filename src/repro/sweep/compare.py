"""Claim-sensitivity comparison of sweep cells against the baseline.

For every cell the layer computes (a) Kolmogorov-Smirnov distances
between the cell's and the baseline's figure CDFs — frame rate,
bandwidth, jitter, the paper's three workhorse distributions — and (b)
the C1-C8 claim verdicts of `repro.experiments.claims`, flagging every
claim whose verdict *flipped* relative to the baseline cell.  The
result is the sweep's answer to "which knob moves which claim".

Everything here is a pure function of the cell datasets, so a fully
cached rerun reproduces the comparison byte for byte.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.analysis.cdf import Cdf
from repro.core.records import StudyDataset
from repro.experiments.claims import ClaimVerdict, evaluate_claims
from repro.experiments.source import DatasetSource
from repro.sweep.runner import SweepResult

#: The distributions KS distances are computed over: report name ->
#: figure metric.
KS_METRICS = {
    "fps": "frame_rate_fps",
    "bandwidth_kbps": "bandwidth_kbps",
    "jitter_ms": "jitter_ms",
}


def ks_distance(a: Cdf, b: Cdf) -> float:
    """The Kolmogorov-Smirnov statistic between two empirical CDFs.

    ``sup_x |F_a(x) - F_b(x)|`` evaluated on the union of both
    samples — exact for step CDFs, no gridding or interpolation.
    """
    grid = np.union1d(np.asarray(a.values), np.asarray(b.values))
    fa = np.searchsorted(np.asarray(a.values), grid, side="right") / len(a)
    fb = np.searchsorted(np.asarray(b.values), grid, side="right") / len(b)
    return float(np.max(np.abs(fa - fb)))


def _metric_cdfs(dataset: StudyDataset) -> dict[str, Cdf]:
    """The KS metrics' CDFs, as the figures see them; a metric with no
    eligible records is absent."""
    source = DatasetSource(dataset, None)
    cdfs = {
        name: source.metric_cdf(metric) for name, metric in KS_METRICS.items()
    }
    return {name: cdf for name, cdf in cdfs.items() if cdf is not None}


@dataclass(frozen=True)
class CellComparison:
    """One cell's distances and claim verdicts vs the baseline."""

    cell_id: str
    config_hash: str
    records: int
    is_baseline: bool
    #: KS distance per metric; a metric missing from either side is
    #: absent (e.g. no jitter samples at tiny scales).
    ks: dict[str, float]
    claims: tuple[ClaimVerdict, ...]
    #: Claim ids whose verdict differs from the baseline cell's.
    flipped_claims: tuple[str, ...]
    #: Share of the cell's scheduled plays lost to quarantined shards;
    #: when it exceeds the sweep's threshold the claims above are all
    #: NOT_APPLICABLE (the dataset is too partial to judge).
    quarantined_fraction: float = 0.0

    def claim(self, claim_id: str) -> ClaimVerdict:
        for verdict in self.claims:
            if verdict.claim_id == claim_id:
                return verdict
        raise KeyError(claim_id)


@dataclass(frozen=True)
class SweepComparison:
    """The whole sweep's sensitivity picture."""

    sweep: str
    baseline_id: str
    cells: tuple[CellComparison, ...]

    def __getitem__(self, cell_id: str) -> CellComparison:
        for cell in self.cells:
            if cell.cell_id == cell_id:
                return cell
        raise KeyError(cell_id)

    def sensitivity(self) -> dict[str, tuple[str, ...]]:
        """claim id -> ids of the cells that flipped it."""
        moved: dict[str, list[str]] = {}
        for cell in self.cells:
            for claim_id in cell.flipped_claims:
                moved.setdefault(claim_id, []).append(cell.cell_id)
        return {
            claim_id: tuple(cells)
            for claim_id, cells in sorted(moved.items())
        }


def compare_sweep(result: SweepResult) -> SweepComparison:
    """Compare every cell of a sweep run against its baseline cell.

    Each cell's quarantined fraction is passed through to
    :func:`~repro.experiments.claims.evaluate_claims`, so a cell that
    lost too many plays gets NOT_APPLICABLE verdicts rather than
    verdicts judged on a silently partial dataset.
    """
    baseline = result.baseline
    baseline_cdfs = _metric_cdfs(baseline.dataset)
    baseline_claims = evaluate_claims(
        baseline.dataset,
        quarantined_fraction=baseline.quarantined_fraction,
    )
    baseline_by_id = {v.claim_id: v.verdict for v in baseline_claims}

    cells = []
    for run in result.runs:
        if run.cell_id == baseline.cell_id:
            claims = baseline_claims
            ks = {metric: 0.0 for metric in KS_METRICS
                  if metric in baseline_cdfs}
        else:
            claims = evaluate_claims(
                run.dataset,
                quarantined_fraction=run.quarantined_fraction,
            )
            cell_cdfs = _metric_cdfs(run.dataset)
            ks = {
                metric: ks_distance(
                    baseline_cdfs[metric], cell_cdfs[metric]
                )
                for metric in KS_METRICS
                if metric in baseline_cdfs and metric in cell_cdfs
            }
        flipped = tuple(
            verdict.claim_id
            for verdict in claims
            if verdict.verdict != baseline_by_id[verdict.claim_id]
        )
        cells.append(
            CellComparison(
                cell_id=run.cell_id,
                config_hash=run.config_hash,
                records=run.records,
                is_baseline=run.cell_id == baseline.cell_id,
                ks=ks,
                claims=claims,
                flipped_claims=flipped,
                quarantined_fraction=run.quarantined_fraction,
            )
        )
    return SweepComparison(
        sweep=result.spec.name,
        baseline_id=baseline.cell_id,
        cells=tuple(cells),
    )
