"""Machine-checkable verdicts for the paper's headline claims C1-C8.

DESIGN.md lists eight claims the reproduction must preserve; the
EXPERIMENTS.md verdict table checks them by hand.  This module makes
each claim an executable predicate over a study dataset so scenario
sweeps (`repro.sweep`) can report *which knob moves which claim* —
e.g. shrinking the playout buffer flips C5 (jitter), removing
SureStream flips C1 (frame rate), upgrading every modem voids C2.
Each claim is read off the headlines of the figures it summarizes
(fig10-fig26), rendered from the dataset, so a claim and its figure
cannot disagree.

Thresholds are deliberately shape-level, mirroring how EXPERIMENTS.md
judges "reproduced": who wins, by roughly what factor, where the
thresholds fall — not the simulator's exact decimals.  A claim whose
prerequisites are missing from the dataset (no rated clips, no modem
users...) is NOT_APPLICABLE rather than failed.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.core.records import StudyDataset
from repro.experiments.base import ExperimentContext, FigureResult
from repro.experiments.figures import FIGURES, OLD_CLASSES

PASS = "pass"
FAIL = "fail"
NOT_APPLICABLE = "n/a"

#: The figures the claims are read off, rendered by id.
Figures = dict[str, FigureResult]


@dataclass(frozen=True)
class ClaimVerdict:
    """One claim's outcome on one dataset."""

    claim_id: str
    title: str
    verdict: str  # PASS, FAIL, or NOT_APPLICABLE
    #: The numbers the verdict was decided on.
    metrics: dict[str, float] = field(default_factory=dict)
    #: Why a claim was NOT_APPLICABLE ("" otherwise).
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.verdict == PASS


@dataclass(frozen=True)
class Claim:
    """A registered headline claim, decided from rendered figures."""

    claim_id: str
    title: str
    check: Callable[[Figures], ClaimVerdict]


def _verdict(claim_id, title, passed, metrics) -> ClaimVerdict:
    metrics = {key: float(value) for key, value in metrics.items()}
    return ClaimVerdict(claim_id, title, PASS if passed else FAIL, metrics)


def _not_applicable(claim_id, title, reason) -> ClaimVerdict:
    return ClaimVerdict(claim_id, title, NOT_APPLICABLE, note=reason)


def _check_c1(figures: Figures) -> ClaimVerdict:
    title = "frame rate: mean ~10 fps, ~25% < 3, ~25% >= 15, <1% >= 24"
    fps = figures["fig11"].headline
    if "mean_fps" not in fps:
        return _not_applicable("C1", title, "no played records")
    metrics = {
        "mean_fps": fps["mean_fps"],
        "below_3fps": fps["fraction_below_3fps"],
        "at_least_15fps": fps["fraction_at_least_15fps"],
        "at_least_24fps": fps["fraction_at_least_24fps"],
    }
    passed = (
        6.0 <= metrics["mean_fps"] <= 14.0
        and 0.10 <= metrics["below_3fps"] <= 0.40
        and 0.10 <= metrics["at_least_15fps"] <= 0.45
        and metrics["at_least_24fps"] <= 0.05
    )
    return _verdict("C1", title, passed, metrics)


def _check_c2(figures: Figures) -> ClaimVerdict:
    title = "access classes: modem far worst, DSL/Cable ~ T1/LAN"
    below = figures["fig12"].headline
    if any(f"{key}_below_3fps" not in below for key in ("56k", "dsl", "t1")):
        return _not_applicable("C2", title, "an access class is missing")
    modem = below["56k_below_3fps"]
    dsl = below["dsl_below_3fps"]
    t1 = below["t1_below_3fps"]
    metrics = {
        "modem_below_3fps": modem,
        "dsl_below_3fps": dsl,
        "t1_below_3fps": t1,
    }
    passed = (
        modem >= dsl + 0.10 and modem >= t1 + 0.10 and abs(dsl - t1) <= 0.15
    )
    return _verdict("C2", title, passed, metrics)


def _check_c3(figures: Figures) -> ClaimVerdict:
    title = "geography: server region matters little, user region a lot"
    servers, users = figures["fig14"], figures["fig15"]
    if len(servers.series) < 2 or len(users.series) < 2:
        return _not_applicable("C3", title, "fewer than two regions")
    user_below = [
        value for key, value in users.headline.items()
        if key.endswith("_below_3fps")
    ]
    metrics = {
        "server_region_mean_spread_fps": servers.headline["mean_spread"],
        "user_region_below_3fps_spread": max(user_below) - min(user_below),
    }
    passed = (
        metrics["server_region_mean_spread_fps"] <= 4.0
        and metrics["user_region_below_3fps_spread"] >= 0.15
    )
    return _verdict("C3", title, passed, metrics)


def _check_c4(figures: Figures) -> ClaimVerdict:
    title = "protocols: ~56% UDP / ~44% TCP, near-identical performance"
    fps = figures["fig17"].headline
    if "tcp_below_3fps" not in fps:
        return _not_applicable("C4", title, "a protocol is missing")
    metrics = {
        "udp_share": figures["fig16"].headline["udp_share"],
        "below_3fps_gap": abs(fps["udp_below_3fps"] - fps["tcp_below_3fps"]),
    }
    passed = (
        0.40 <= metrics["udp_share"] <= 0.70
        and metrics["below_3fps_gap"] <= 0.12
    )
    return _verdict("C4", title, passed, metrics)


def _check_c5(figures: Figures) -> ClaimVerdict:
    title = "jitter: ~half the clips <= 50 ms, ~15% >= 300 ms"
    jitter = figures["fig20"].headline
    if "fraction_imperceptible" not in jitter:
        return _not_applicable("C5", title, "no jitter samples")
    metrics = {
        "imperceptible_50ms": jitter["fraction_imperceptible"],
        "unacceptable_300ms": jitter["fraction_unacceptable"],
    }
    passed = (
        0.35 <= metrics["imperceptible_50ms"] <= 0.85
        and 0.04 <= metrics["unacceptable_300ms"] <= 0.30
    )
    return _verdict("C5", title, passed, metrics)


def _check_c6(figures: Figures) -> ClaimVerdict:
    title = "ratings: roughly uniform, mean ~5"
    ratings = figures["fig26"].headline
    if ratings.get("rated_count", 0.0) < 10:
        return _not_applicable("C6", title, "too few rated clips")
    metrics = {
        "mean_rating": ratings["mean_rating"],
        "uniformity_deviation": ratings["uniformity_deviation"],
    }
    passed = (
        3.5 <= metrics["mean_rating"] <= 6.5
        and metrics["uniformity_deviation"] <= 0.35
    )
    return _verdict("C6", title, passed, metrics)


def _check_c7(figures: Figures) -> ClaimVerdict:
    title = "PCs: only old, underpowered machines bottleneck playback"
    by_pc = figures["fig19"]
    old = [name for name in by_pc.series if name in OLD_CLASSES]
    if not old or len(old) == len(by_pc.series):
        return _not_applicable("C7", title, "a PC class side is missing")
    metrics = {
        "old_pc_above_3fps": by_pc.headline["old_pc_above_3fps"],
        "new_pc_above_3fps": by_pc.headline["new_pc_above_3fps"],
    }
    passed = metrics["new_pc_above_3fps"] >= metrics["old_pc_above_3fps"] + 0.20
    return _verdict("C7", title, passed, metrics)


def _check_c8(figures: Figures) -> ClaimVerdict:
    title = "availability: ~10% of requests find the clip unavailable"
    availability = figures["fig10"].headline
    if "overall_unavailable" not in availability:
        return _not_applicable("C8", title, "no request attempts")
    fraction = availability["overall_unavailable"]
    metrics = {"unavailable_fraction": fraction}
    passed = 0.04 <= fraction <= 0.17
    return _verdict("C8", title, passed, metrics)


#: The paper's eight headline claims, in DESIGN.md order.
ALL_CLAIMS: tuple[Claim, ...] = (
    Claim("C1", "frame rate distribution", _check_c1),
    Claim("C2", "access classes", _check_c2),
    Claim("C3", "geography", _check_c3),
    Claim("C4", "protocol mix and parity", _check_c4),
    Claim("C5", "jitter", _check_c5),
    Claim("C6", "ratings", _check_c6),
    Claim("C7", "PC classes", _check_c7),
    Claim("C8", "availability", _check_c8),
)


#: The figures C1-C8 are decided from.
_READS = {
    "fig10", "fig11", "fig12", "fig14", "fig15", "fig16", "fig17", "fig19",
    "fig20", "fig26",
}

#: Above this fraction of quarantined plays a dataset is too partial
#: to judge the paper's claims against: the lost users could move any
#: distributional threshold, so every verdict becomes NOT_APPLICABLE.
DEFAULT_QUARANTINE_THRESHOLD = 0.05


def evaluate_claims(
    dataset: StudyDataset,
    *,
    quarantined_fraction: float = 0.0,
    quarantine_threshold: float = DEFAULT_QUARANTINE_THRESHOLD,
) -> tuple[ClaimVerdict, ...]:
    """Every claim's verdict on one dataset, in C1..C8 order.

    ``quarantined_fraction`` is the share of scheduled plays lost to
    quarantined shards (``RunResult.quarantined_fraction``).  Above
    ``quarantine_threshold`` the claims refuse to judge: every verdict
    comes back NOT_APPLICABLE with the fraction in its note, so a
    degraded run can never masquerade as a reproduction.
    """
    if quarantined_fraction > quarantine_threshold:
        reason = (
            f"{quarantined_fraction:.1%} of plays quarantined exceeds "
            f"the {quarantine_threshold:.1%} threshold; dataset too "
            "partial to judge"
        )
        return tuple(
            _not_applicable(claim.claim_id, claim.title, reason)
            for claim in ALL_CLAIMS
        )
    ctx = ExperimentContext(dataset=dataset)
    figures = {
        figure.figure_id: figure.run(ctx)
        for figure in FIGURES
        if figure.figure_id in _READS
    }
    return tuple(claim.check(figures) for claim in ALL_CLAIMS)
