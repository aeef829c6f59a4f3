"""Backend-agnostic figure data access.

Every figure pulls its inputs through a *source* — either a
:class:`DatasetSource` wrapping an in-memory
:class:`~repro.core.records.StudyDataset` (exact mode) or an
:class:`AggregatesSource` wrapping streamed
:class:`~repro.analysis.streaming.StudyAggregates` (sketch mode, no
record list ever materialized).  This module alone decides which
records count toward a metric and what unit its values are in; the
claims (through the figures) and the sweep's KS distances ask it too.
The two sources answer the same queries:

* :class:`DatasetSource` builds each CDF from the eligible subset's
  ``values`` column with element-wise unit conversion, the
  expressions the golden suite pins byte for byte.
* :class:`AggregatesSource` answers from sketches, tallies, and
  histograms.  While every sketch is still in its exact regime the
  answers are bit-identical (same multisets through the same
  `Cdf`/`WeightedCdf` rank arithmetic, group order restored from
  serial first-occurrence ranks); past the exact budget, quantiles
  carry the sketch's pinned relative-accuracy tolerance instead.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass

import numpy as np

from repro.analysis.breakdowns import bandwidth_bin, counts_by, group_by
from repro.analysis.cdf import Cdf, WeightedCdf
from repro.analysis.stats import correlation, per_user_correlations
from repro.analysis.streaming import SCATTER_MIN_POINTS, StudyAggregates
from repro.analysis.tcp_friendly import (
    FriendlinessReport,
    compare_protocols,
)
from repro.core.records import StudyDataset
from repro.errors import AnalysisError
from repro.units import kbps
from repro.world.population import StudyPopulation

#: Figure metric -> (eligibility rule, aggregate metric name, record
#: column).
_METRICS = {
    "frame_rate_fps": ("played", "frame_rate_fps", "measured_frame_rate"),
    "bandwidth_kbps": ("played", "bandwidth_bps", "measured_bandwidth_bps"),
    "jitter_ms": ("jitter", "jitter_ms", "jitter_s"),
    "rating": ("rated", "rating", "rating"),
    # ABR QoE metrics (DASH-style playbacks only).
    "stall_count": ("abr", "stall_count", "stall_count"),
    "stall_seconds": ("abr", "stall_seconds", "stall_seconds"),
    "switch_count": ("abr", "switch_count", "switch_count"),
    "mean_level": ("abr", "mean_level", "mean_level"),
}

#: kbps metrics divide the stored bps values by this at CDF build time.
_DIVIDE_BY = {"bandwidth_kbps": 1000.0}

#: Group name -> record key function (the dataset path's groupings).
_GROUP_KEYS = {
    "connection": lambda r: r.connection,
    "protocol": lambda r: r.protocol,
    "server_region": lambda r: r.server_region,
    "user_region": lambda r: r.user_region,
    "pc_class": lambda r: r.pc_class,
    "bandwidth_bin": bandwidth_bin,
}


@dataclass(frozen=True)
class ScatterSummary:
    """fig28's rating-vs-bandwidth scatter, backend-agnostically.

    In sketch mode past the exact budget, ``points`` holds one point
    per occupied (rating, bandwidth-bin) cell rather than one per
    rated clip.
    """

    n: int
    points: list[tuple[float, float]]
    global_correlation: float
    min_rating_above_300k: int
    per_user_count: int
    mean_per_user_correlation: float


class DatasetSource:
    """Figure queries answered from an in-memory record list."""

    backend = "exact"

    def __init__(
        self, dataset: StudyDataset, population: StudyPopulation
    ) -> None:
        self._dataset = dataset
        self._population = population
        self._subsets: dict[str, StudyDataset] = {}

    # -- subsets ------------------------------------------------------------

    def _subset(self, rule: str) -> StudyDataset:
        subset = self._subsets.get(rule)
        if subset is None:
            if rule == "played":
                subset = self._dataset.played()
            elif rule == "jitter":
                subset = self._dataset.with_jitter()
            elif rule == "rated":
                subset = self._dataset.rated()
            elif rule == "abr":
                subset = self._dataset.filter(lambda r: r.is_abr)
            else:
                raise KeyError(f"unknown eligibility rule {rule!r}")
            self._subsets[rule] = subset
        return subset

    @staticmethod
    def _cdf_of(metric: str, subset: StudyDataset) -> Cdf:
        values = subset.values(_METRICS[metric][2])
        # Units convert element-wise, before the sort: the goldens pin
        # exactly these expressions.
        if metric == "bandwidth_kbps":
            values = [b / 1000.0 for b in values]
        elif metric == "jitter_ms":
            values = [j * 1000.0 for j in values]
        return Cdf(values)

    # -- distributions ------------------------------------------------------

    def metric_cdf(self, metric: str) -> Cdf | None:
        subset = self._subset(_METRICS[metric][0])
        if not len(subset):
            return None
        return self._cdf_of(metric, subset)

    def metric_cdfs(self, metric: str, group: str) -> dict[str, Cdf]:
        subset = self._subset(_METRICS[metric][0])
        return {
            name: self._cdf_of(metric, members)
            for name, members in group_by(
                subset, _GROUP_KEYS[group]
            ).items()
        }

    # -- per-user histograms ------------------------------------------------

    def clips_per_user(self) -> Cdf | None:
        plays = Counter(r.user_id for r in self._dataset)
        if not plays:
            return None
        return Cdf(plays.values())

    def rated_per_user(self) -> Cdf:
        rated = Counter()
        for user in self._population.users:
            rated[user.user_id] = 0
        for record in self._subset("rated"):
            rated[record.user_id] += 1
        return Cdf(rated.values())

    # -- tallies ------------------------------------------------------------

    def plays_by_country(self) -> dict[str, int]:
        return counts_by(self._dataset, lambda r: r.user_country)

    def served_by_country(self) -> dict[str, int]:
        return counts_by(self._dataset, lambda r: r.server_country)

    def us_plays_by_state(self) -> dict[str, int]:
        us_records = self._dataset.filter(lambda r: r.user_country == "US")
        return counts_by(us_records, lambda r: r.user_state)

    def availability(self) -> tuple[dict[str, float], float] | None:
        reachable = self._dataset.filter(
            lambda r: r.outcome != "control_failed"
        )
        if not len(reachable):
            return None
        by_server = group_by(reachable, lambda r: r.server_name)
        fractions = {}
        for name in sorted(by_server):
            members = by_server[name]
            unavailable = len(
                members.filter(lambda r: r.outcome == "unavailable")
            )
            fractions[name] = unavailable / len(members)
        total_unavailable = len(
            reachable.filter(lambda r: r.outcome == "unavailable")
        )
        return fractions, total_unavailable / len(reachable)

    def played_protocol_counts(self) -> tuple[int, int]:
        played = self._subset("played")
        tcp = sum(1 for r in played if r.protocol == "TCP")
        udp = sum(1 for r in played if r.protocol == "UDP")
        return tcp, udp

    # -- protocol friendliness / scatter ------------------------------------

    def protocol_report(self) -> FriendlinessReport:
        return compare_protocols(self._dataset)

    def rating_scatter(self) -> ScatterSummary:
        rated = self._subset("rated")
        points = [
            (r.measured_bandwidth_bps / 1000.0, float(r.rating))
            for r in rated
        ]
        global_corr = (
            correlation(
                rated.values("measured_bandwidth_bps"),
                rated.values("rating"),
            )
            if len(rated) >= 2
            else 0.0
        )
        high_bw = rated.filter(
            lambda r: r.measured_bandwidth_bps > kbps(300)
        )
        min_high = min(high_bw.values("rating")) if len(high_bw) else -1
        per_user = per_user_correlations(
            rated,
            "measured_bandwidth_bps",
            "rating",
            min_points=SCATTER_MIN_POINTS,
        )
        mean_per_user = (
            sum(per_user.values()) / len(per_user) if per_user else 0.0
        )
        return ScatterSummary(
            n=len(rated),
            points=points,
            global_correlation=global_corr,
            min_rating_above_300k=min_high,
            per_user_count=len(per_user),
            mean_per_user_correlation=mean_per_user,
        )


class AggregatesSource:
    """Figure queries answered from streamed study aggregates."""

    backend = "sketch"

    def __init__(
        self, aggregates: StudyAggregates, population: StudyPopulation
    ) -> None:
        aggregates.flush()
        self._aggregates = aggregates
        self._population = population

    # -- distributions ------------------------------------------------------

    def metric_cdf(self, metric: str) -> Cdf | WeightedCdf | None:
        agg_metric = _METRICS[metric][1]
        sketch = self._aggregates.sketches[agg_metric]["all"].get("all")
        if sketch is None or not sketch.count:
            return None
        return sketch.to_cdf(divide_by=_DIVIDE_BY.get(metric, 1.0))

    def metric_cdfs(
        self, metric: str, group: str
    ) -> dict[str, Cdf | WeightedCdf]:
        agg_metric = _METRICS[metric][1]
        bucket = self._aggregates.sketches[agg_metric][group]
        ranks = self._aggregates.sketch_first_rank[agg_metric][group]
        divide_by = _DIVIDE_BY.get(metric, 1.0)
        # Serial first-occurrence order — what the dataset path's
        # insertion-ordered group_by dict iterates in.
        return {
            name: bucket[name].to_cdf(divide_by=divide_by)
            for name in sorted(bucket, key=ranks.__getitem__)
        }

    # -- per-user histograms ------------------------------------------------

    def clips_per_user(self) -> WeightedCdf | None:
        histogram = self._aggregates.users_by_clips
        if not histogram:
            return None
        return WeightedCdf(
            (float(clips) for clips in histogram),
            histogram.values(),
        )

    def rated_per_user(self) -> WeightedCdf:
        histogram = dict(self._aggregates.users_by_rated)
        observed = sum(self._aggregates.users_by_clips.values())
        # Population users whose records never streamed (quarantined
        # shards) rated nothing — the dataset path seeds them as zero.
        zeros = len(self._population.users) - observed
        if zeros > 0:
            histogram[0] = histogram.get(0, 0) + zeros
        return WeightedCdf(
            (float(rated) for rated in histogram),
            histogram.values(),
        )

    # -- tallies ------------------------------------------------------------

    def _ordered_counts(
        self, counts: dict[str, int], rank_table: str
    ) -> dict[str, int]:
        # `counts_by` is a stable ascending sort by count, ties in
        # first-occurrence order; the min-merged serial first rank
        # reproduces that tie order exactly.
        first = self._aggregates.first_ranks[rank_table]
        return dict(
            sorted(
                counts.items(),
                key=lambda item: (item[1], first[item[0]]),
            )
        )

    def plays_by_country(self) -> dict[str, int]:
        return self._ordered_counts(
            self._aggregates.plays_by_country, "user_country"
        )

    def served_by_country(self) -> dict[str, int]:
        return self._ordered_counts(
            self._aggregates.served_by_country, "server_country"
        )

    def us_plays_by_state(self) -> dict[str, int]:
        return self._ordered_counts(
            self._aggregates.us_plays_by_state, "us_state"
        )

    def availability(self) -> tuple[dict[str, float], float] | None:
        outcomes_by_server = self._aggregates.outcomes_by_server
        fractions: dict[str, float] = {}
        total_reachable = 0
        total_unavailable = 0
        for name in sorted(outcomes_by_server):
            outcomes = outcomes_by_server[name]
            reachable = sum(outcomes.values()) - outcomes.get(
                "control_failed", 0
            )
            if not reachable:
                continue
            unavailable = outcomes.get("unavailable", 0)
            fractions[name] = unavailable / reachable
            total_reachable += reachable
            total_unavailable += unavailable
        if not total_reachable:
            return None
        return fractions, total_unavailable / total_reachable

    def played_protocol_counts(self) -> tuple[int, int]:
        counts = self._aggregates.played_by_protocol
        return counts.get("TCP", 0), counts.get("UDP", 0)

    # -- protocol friendliness / scatter ------------------------------------

    def protocol_report(self) -> FriendlinessReport:
        bucket = self._aggregates.sketches["bandwidth_bps"]["protocol"]
        tcp = bucket.get("TCP")
        udp = bucket.get("UDP")
        tcp_n = tcp.count if tcp is not None else 0
        udp_n = udp.count if udp is not None else 0
        if not tcp_n or not udp_n:
            raise AnalysisError(
                "need both protocols to compare "
                f"(TCP={tcp_n}, UDP={udp_n})"
            )
        tcp_cdf = tcp.to_cdf()
        udp_cdf = udp.to_cdf()
        total = tcp_n + udp_n

        def ratio(q: float) -> float:
            tcp_q = tcp_cdf.percentile(q)
            udp_q = udp_cdf.percentile(q)
            if tcp_q <= 0:
                return float("inf") if udp_q > 0 else 1.0
            return udp_q / tcp_q

        return FriendlinessReport(
            tcp_count=tcp_n,
            udp_count=udp_n,
            tcp_share=tcp_n / total,
            udp_share=udp_n / total,
            tcp_mean_bps=tcp_cdf.mean,
            udp_mean_bps=udp_cdf.mean,
            ratio_p25=ratio(0.25),
            ratio_p50=ratio(0.50),
            ratio_p75=ratio(0.75),
        )

    def rating_scatter(self) -> ScatterSummary:
        scatter = self._aggregates.scatter
        if scatter.is_exact:
            triples = scatter.triples
            points = [
                (bandwidth / 1000.0, float(rating))
                for _rank, _user, bandwidth, rating in triples
            ]
            global_corr = (
                correlation(
                    [t[2] for t in triples], [t[3] for t in triples]
                )
                if len(triples) >= 2
                else 0.0
            )
            # `per_user_correlations` over the serial-ordered triples:
            # same grouping, same skips, same summation order.
            by_user: dict[str, list[tuple[float, int]]] = {}
            for _rank, user_id, bandwidth, rating in triples:
                by_user.setdefault(user_id, []).append(
                    (bandwidth, rating)
                )
            values = []
            for pairs in by_user.values():
                if len(pairs) < SCATTER_MIN_POINTS:
                    continue
                xs = [p[0] for p in pairs]
                ys = [p[1] for p in pairs]
                if np.std(xs) == 0.0 or np.std(ys) == 0.0:
                    continue
                values.append(correlation(xs, ys))
            mean_per_user = sum(values) / len(values) if values else 0.0
            return ScatterSummary(
                n=scatter.count,
                points=points,
                global_correlation=global_corr,
                min_rating_above_300k=scatter.min_rating_above_300k,
                per_user_count=len(values),
                mean_per_user_correlation=mean_per_user,
            )
        moments = scatter.per_user_moments
        return ScatterSummary(
            n=scatter.count,
            points=scatter.binned_points(),
            global_correlation=scatter.global_correlation,
            min_rating_above_300k=scatter.min_rating_above_300k,
            per_user_count=moments.count,
            mean_per_user_correlation=(
                moments.mean if moments.count else 0.0
            ),
        )
