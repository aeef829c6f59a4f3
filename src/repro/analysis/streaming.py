"""Streaming study aggregates: the sketch-mode analysis state.

A :class:`StudyAggregates` consumes :class:`ClipRecord`\\ s one at a
time and maintains everything the headline analyses *and all 29
figures* need — grouped quantile sketches for the distributional
figures, streaming moments for the means, streaming co-moments for the
jitter–bandwidth and rating correlations, outcome/protocol/geography
counts, per-user clip and rating histograms, per-server outcome
tallies, and the fig28 rating-vs-bandwidth scatter summary — in memory
bounded by the number of *groups*, never the number of plays.

Aggregates are **mergeable**: each shard worker builds its own over
its users and the engine folds them together, and the merged result is
independent of shard count and completion order (the per-record update
commutes for counts/moments and the sketches are order-independent by
construction — see `repro.analysis.sketch`).

Two details exist purely so figures rendered from aggregates can be
byte-identical to dataset-backed ones while the study still fits the
sketches' exact regime:

* **Serial ranks.**  Shards are assigned longest-processing-time
  first, so merged insertion order is *not* the serial record order
  the figures' ``dict`` iteration depends on.  Every record is
  therefore stamped with its rank in the serial stream — the user's
  base rank from :func:`user_base_ranks` plus the play ordinal — and
  each group remembers the minimum rank that created it
  (min-merged), which *is* the serial first-occurrence order.
* **User atomicity.**  Shards never split a user and a user's plays
  are produced consecutively, so per-user reductions (clip/rating
  histograms, fig28's per-user correlations) close when the next
  user's first record arrives; :meth:`StudyAggregates.flush` closes
  the last one.
"""

from __future__ import annotations

from typing import Iterable, Mapping

import numpy as np

from repro.analysis.breakdowns import bandwidth_bin
from repro.analysis.sketch import (
    DEFAULT_EXACT_LIMIT,
    DEFAULT_RELATIVE_ACCURACY,
    LogBinGrid,
    QuantileSketch,
    StreamingCorrelation,
    StreamingMoments,
)
from repro.analysis.stats import correlation
from repro.core.records import ClipRecord
from repro.errors import AnalysisError
from repro.units import kbps

#: Distributional metrics tracked per group: (name, record attribute,
#: eligibility).  Eligibility mirrors the dataset source's filters.
METRICS = (
    ("frame_rate_fps", "measured_frame_rate", "played"),
    ("bandwidth_bps", "measured_bandwidth_bps", "played"),
    ("jitter_ms", "jitter_ms", "jitter"),
    ("initial_buffering_s", "initial_buffering_s", "played"),
    ("rating", "rating", "rated"),
    # ABR QoE (DASH-style playbacks only; empty on the 2001 stack).
    ("stall_count", "stall_count", "abr"),
    ("stall_seconds", "stall_seconds", "abr"),
    ("switch_count", "switch_count", "abr"),
    ("mean_level", "mean_level", "abr"),
)

#: Grouping dimensions (record attributes); "all" is implicit.
GROUP_FIELDS = (
    "connection", "protocol", "server_region", "user_region", "pc_class",
)

#: Groupings computed from the record rather than read off it
#: (fig25's observed-bandwidth bins).
DERIVED_GROUP_FIELDS = ("bandwidth_bin",)

#: Report percentiles.
PERCENTILES = (0.10, 0.25, 0.50, 0.75, 0.90)

#: fig28's high-bandwidth threshold (strictly above).
HIGH_BANDWIDTH_BPS = kbps(300)

#: fig28's per-user correlation minimum sample size.
SCATTER_MIN_POINTS = 4

#: Bumped to 3 when the ABR QoE metrics joined METRICS: older
#: serialized aggregates lack their sketches and cannot be resumed.
AGGREGATES_FORMAT = 3


def _eligible(record: ClipRecord, rule: str) -> bool:
    if rule == "played":
        return record.played
    if rule == "jitter":
        return record.played and record.has_jitter_sample
    if rule == "rated":
        return record.rated
    if rule == "abr":
        return record.is_abr
    raise ValueError(f"unknown eligibility rule {rule!r}")


def user_base_ranks(schedule: Iterable[tuple[str, int]]) -> dict[str, int]:
    """Serial base rank per user: prefix sums over the study schedule.

    ``schedule`` is ``Study.schedule()`` — ``(user_id, plays)`` in
    population order, every play producing exactly one record — so a
    record's rank in the serial stream is the user's base rank plus
    its play ordinal, no matter which shard simulated it.
    """
    ranks: dict[str, int] = {}
    base = 0
    for user_id, plays in schedule:
        ranks[user_id] = base
        base += plays
    return ranks


def _per_user_correlation(pairs: list[tuple[float, int]]) -> float | None:
    """fig28's per-user correlation, with its eligibility rules
    (:func:`repro.analysis.stats.per_user_correlations` at
    ``min_points=4``): ``None`` when the user does not qualify."""
    if len(pairs) < SCATTER_MIN_POINTS:
        return None
    xs = [x for x, _y in pairs]
    ys = [y for _x, y in pairs]
    if np.std(xs) == 0 or np.std(ys) == 0:
        return None
    return correlation(xs, ys)


class RatedScatter:
    """Mergeable summary of the fig28 rating-vs-bandwidth scatter.

    Exact regime (count <= ``exact_limit``): keeps the raw rated
    records as rank-stamped ``(rank, user_id, bandwidth_bps, rating)``
    triples, so the accessor can reconstruct the serial point list,
    the global correlation, and the per-user correlations
    byte-identically to the dataset path.

    Collapsed regime: points become ``(rating, bandwidth-bin)`` counts
    on the shared :class:`LogBinGrid`, the global correlation comes
    from a :class:`StreamingCorrelation` (always maintained, so a late
    collapse loses nothing), per-user correlations are folded into a
    :class:`StreamingMoments` as users close, and the minimum rating
    above 300 Kbps stays exact throughout.
    """

    __slots__ = (
        "exact_limit", "relative_accuracy", "count",
        "_grid", "_triples", "_bins", "_corr", "_per_user", "_min_high",
    )

    def __init__(
        self,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
    ) -> None:
        if exact_limit < 0:
            raise AnalysisError(
                f"exact_limit must be >= 0, got {exact_limit}"
            )
        self.exact_limit = int(exact_limit)
        self._grid = LogBinGrid(relative_accuracy)
        self.relative_accuracy = self._grid.relative_accuracy
        self.count = 0
        #: Exact mode: (rank, user_id, bandwidth_bps, rating) triples.
        self._triples: list[tuple[int, str, float, int]] | None = []
        #: Collapsed mode: (rating, bandwidth bin key) -> count.
        self._bins: dict[tuple[int, int], int] | None = None
        self._corr = StreamingCorrelation()
        #: Per-user correlations of users closed while collapsed.
        self._per_user = StreamingMoments()
        self._min_high: int | None = None

    @property
    def is_exact(self) -> bool:
        return self._triples is not None

    def add(self, rank: int, user_id: str, bandwidth_bps: float,
            rating: int) -> None:
        self.count += 1
        self._corr.add(bandwidth_bps, rating)
        if bandwidth_bps > HIGH_BANDWIDTH_BPS and (
            self._min_high is None or rating < self._min_high
        ):
            self._min_high = rating
        if self._triples is not None:
            self._triples.append((rank, user_id, bandwidth_bps, rating))
            if self.count > self.exact_limit:
                self._collapse(open_user=user_id)
        else:
            assert self._bins is not None
            key = (rating, self._grid.key(bandwidth_bps))
            self._bins[key] = self._bins.get(key, 0) + 1

    def close_user(self, pairs: list[tuple[float, int]]) -> None:
        """A user's last record has streamed past; ``pairs`` is every
        rated ``(bandwidth_bps, rating)`` it produced, in play order.
        In exact mode the triples already carry them (the accessor
        recomputes exactly); collapsed, the user's correlation is
        folded into the running per-user moments now."""
        if self._triples is not None or not pairs:
            return
        value = _per_user_correlation(pairs)
        if value is not None:
            self._per_user.add(value)

    # -- merge --------------------------------------------------------------

    def merge(self, other: "RatedScatter") -> None:
        """Fold ``other`` (a *closed* scatter: every user's records
        fully streamed) into this one; ``other`` is unchanged."""
        if other.relative_accuracy != self.relative_accuracy or \
                other.exact_limit != self.exact_limit:
            raise AnalysisError(
                "cannot merge scatters with different parameters: "
                f"(limit={self.exact_limit}, "
                f"accuracy={self.relative_accuracy}) vs "
                f"(limit={other.exact_limit}, "
                f"accuracy={other.relative_accuracy})"
            )
        self.count += other.count
        self._corr.merge(other._corr)
        self._per_user.merge(other._per_user)
        if other._min_high is not None and (
            self._min_high is None or other._min_high < self._min_high
        ):
            self._min_high = other._min_high
        if self._triples is not None and other._triples is not None \
                and self.count <= self.exact_limit:
            self._triples.extend(other._triples)
            return
        if self._triples is not None:
            self._collapse(open_user=None)
        assert self._bins is not None
        if other._triples is not None:
            self._fold_triples(other._triples, open_user=None)
        else:
            assert other._bins is not None
            for key, n in other._bins.items():
                self._bins[key] = self._bins.get(key, 0) + n

    def _collapse(self, open_user: str | None) -> None:
        assert self._triples is not None
        triples, self._triples = self._triples, None
        self._bins = {}
        self._fold_triples(triples, open_user)

    def _fold_triples(
        self,
        triples: list[tuple[int, str, float, int]],
        open_user: str | None,
    ) -> None:
        """Bin exact triples; close the per-user reduction for every
        complete user run.  Sorting by rank restores serial order, and
        each user's rated records occupy a disjoint rank interval, so
        consecutive equal user ids are exactly one user's run.  The
        still-open user (collapse mid-stream) is skipped — its pairs
        live in the owning aggregator's open-user buffer and close
        through :meth:`close_user`."""
        assert self._bins is not None
        run_user: str | None = None
        run_pairs: list[tuple[float, int]] = []
        for _rank, user_id, bandwidth_bps, rating in sorted(triples):
            key = (rating, self._grid.key(bandwidth_bps))
            self._bins[key] = self._bins.get(key, 0) + 1
            if user_id != run_user:
                if run_user is not None and run_user != open_user:
                    self.close_user(run_pairs)
                run_user, run_pairs = user_id, []
            run_pairs.append((bandwidth_bps, rating))
        if run_user is not None and run_user != open_user:
            self.close_user(run_pairs)

    # -- queries ------------------------------------------------------------

    @property
    def triples(self) -> list[tuple[int, str, float, int]]:
        """The raw rated records in serial order (exact mode only)."""
        if self._triples is None:
            raise AnalysisError("collapsed scatter has no exact triples")
        return sorted(self._triples)

    @property
    def bins(self) -> dict[tuple[int, int], int]:
        if self._bins is None:
            raise AnalysisError("exact scatter has no bins")
        return self._bins

    def binned_points(self) -> list[tuple[float, float]]:
        """One ``(bandwidth_kbps, rating)`` point per occupied bin,
        ordered by bandwidth then rating (collapsed mode)."""
        assert self._bins is not None
        return [
            (self._grid.representative(key) / 1000.0, float(rating))
            for rating, key in sorted(
                self._bins, key=lambda pair: (pair[1], pair[0])
            )
        ]

    @property
    def global_correlation(self) -> float:
        """fig28's global correlation under its conventions (0.0 below
        two points)."""
        if self.count < 2:
            return 0.0
        return self._corr.correlation

    @property
    def min_rating_above_300k(self) -> int:
        """Minimum rating at > 300 Kbps, -1 when nothing qualifies."""
        return -1 if self._min_high is None else self._min_high

    @property
    def per_user_moments(self) -> StreamingMoments:
        return self._per_user

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        payload: dict = {
            "exact_limit": self.exact_limit,
            "relative_accuracy": self.relative_accuracy,
            "count": self.count,
            "corr": self._corr.to_dict(),
            "per_user": self._per_user.to_dict(),
            "min_high_rating": self._min_high,
        }
        if self._triples is not None:
            payload["triples"] = [list(t) for t in self._triples]
        else:
            assert self._bins is not None
            payload["bins"] = {
                f"{rating}:{key}": n
                for (rating, key), n in self._bins.items()
            }
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "RatedScatter":
        scatter = cls(
            exact_limit=int(data["exact_limit"]),
            relative_accuracy=float(data["relative_accuracy"]),
        )
        scatter.count = int(data["count"])
        scatter._corr = StreamingCorrelation.from_dict(data["corr"])
        scatter._per_user = StreamingMoments.from_dict(data["per_user"])
        raw_min = data.get("min_high_rating")
        scatter._min_high = None if raw_min is None else int(raw_min)
        if "triples" in data:
            scatter._triples = [
                (int(rank), str(user), float(bw), int(rating))
                for rank, user, bw, rating in data["triples"]
            ]
        else:
            scatter._triples = None
            scatter._bins = {}
            for label, n in data.get("bins", {}).items():
                rating, _, key = label.partition(":")
                scatter._bins[(int(rating), int(key))] = int(n)
        return scatter


class StudyAggregates:
    """Mergeable online summary of a study's records.

    ``user_base_rank`` (from :func:`user_base_ranks`) stamps each
    record with its serial rank so group first-occurrence order
    survives the out-of-order shard merge; without it, ranks fall back
    to arrival order (correct when records stream in serial order, as
    in direct ``add_many`` use).
    """

    def __init__(
        self,
        exact_limit: int = DEFAULT_EXACT_LIMIT,
        relative_accuracy: float = DEFAULT_RELATIVE_ACCURACY,
        user_base_rank: Mapping[str, int] | None = None,
    ) -> None:
        self.exact_limit = exact_limit
        self.relative_accuracy = relative_accuracy
        self.user_base_rank = user_base_rank
        self.records = 0
        self.by_outcome: dict[str, int] = {}
        self.by_protocol: dict[str, int] = {}
        self.plays_by_country: dict[str, int] = {}
        self.plays_by_state: dict[str, int] = {}
        #: All records by server country (fig08).
        self.served_by_country: dict[str, int] = {}
        #: US records by state, empty state included (fig09).
        self.us_plays_by_state: dict[str, int] = {}
        #: Played records by protocol (fig16's clip shares).
        self.played_by_protocol: dict[str, int] = {}
        #: server_name -> outcome -> count (fig10 availability).
        self.outcomes_by_server: dict[str, dict[str, int]] = {}
        #: clips-per-user histogram: clip count -> users (fig05).
        self.users_by_clips: dict[int, int] = {}
        #: rated-clips-per-user histogram (fig06).
        self.users_by_rated: dict[int, int] = {}
        #: Minimum serial rank per categorical key — the dataset
        #: path's first-occurrence insertion order for fig07/08/09.
        self.first_ranks: dict[str, dict[str, int]] = {
            "user_country": {}, "server_country": {}, "us_state": {},
        }
        #: metric -> group_field -> group_value -> minimum serial rank
        #: among the records that fed that sketch.
        self.sketch_first_rank: dict[str, dict[str, dict[str, int]]] = {
            metric: {
                "all": {},
                **{g: {} for g in GROUP_FIELDS + DERIVED_GROUP_FIELDS},
            }
            for metric, _attr, _rule in METRICS
        }
        #: metric -> group_field -> group_value -> sketch; group_field
        #: "all" (value "all") is the ungrouped distribution.
        self.sketches: dict[str, dict[str, dict[str, QuantileSketch]]] = {
            metric: {
                "all": {},
                **{g: {} for g in GROUP_FIELDS + DERIVED_GROUP_FIELDS},
            }
            for metric, _attr, _rule in METRICS
        }
        #: metric -> exact streaming moments over the eligible records.
        self.moments: dict[str, StreamingMoments] = {
            metric: StreamingMoments() for metric, _attr, _rule in METRICS
        }
        self.correlations: dict[str, StreamingCorrelation] = {
            "jitter_vs_bandwidth": StreamingCorrelation(),
            "rating_vs_bandwidth": StreamingCorrelation(),
            "rating_vs_frame_rate": StreamingCorrelation(),
        }
        self.scatter = RatedScatter(
            exact_limit=exact_limit, relative_accuracy=relative_accuracy
        )
        # Open-user reduction state (users stream contiguously).
        self._open_user: str | None = None
        self._open_base = 0
        self._open_records = 0
        self._open_rated = 0
        self._open_pairs: list[tuple[float, int]] = []
        self._arrival = 0

    # -- ingestion ----------------------------------------------------------

    def _sketch(self, metric: str, group_field: str, value: str
                ) -> QuantileSketch:
        bucket = self.sketches[metric][group_field]
        sketch = bucket.get(value)
        if sketch is None:
            sketch = QuantileSketch(
                exact_limit=self.exact_limit,
                relative_accuracy=self.relative_accuracy,
            )
            bucket[value] = sketch
        return sketch

    def _observe(self, metric: str, group_field: str, group_value: str,
                 value: float, rank: int) -> None:
        ranks = self.sketch_first_rank[metric][group_field]
        if group_value not in ranks:
            ranks[group_value] = rank
        self._sketch(metric, group_field, group_value).add(value)

    def _flush_open_user(self) -> None:
        if self._open_user is None:
            return
        self.users_by_clips[self._open_records] = (
            self.users_by_clips.get(self._open_records, 0) + 1
        )
        self.users_by_rated[self._open_rated] = (
            self.users_by_rated.get(self._open_rated, 0) + 1
        )
        self.scatter.close_user(self._open_pairs)
        self._open_user = None
        self._open_records = 0
        self._open_rated = 0
        self._open_pairs = []

    def flush(self) -> None:
        """Close the per-user reductions for the last streamed user.

        Idempotent; called automatically by :meth:`to_dict`,
        :meth:`merge`, and :meth:`report`.  A subsequent ``add`` for
        the same user would start a fresh per-user run, so flush only
        once the stream (or the shard's slice of it) is complete.
        """
        self._flush_open_user()

    def add(self, record: ClipRecord) -> None:
        user_id = record.user_id
        if user_id != self._open_user:
            self._flush_open_user()
            self._open_user = user_id
            if self.user_base_rank is not None:
                self._open_base = self.user_base_rank[user_id]
            else:
                self._open_base = self._arrival
        rank = self._open_base + self._open_records
        self._open_records += 1
        self._arrival += 1
        self.records += 1
        self.by_outcome[record.outcome] = (
            self.by_outcome.get(record.outcome, 0) + 1
        )
        if record.protocol:
            self.by_protocol[record.protocol] = (
                self.by_protocol.get(record.protocol, 0) + 1
            )
        country = record.user_country
        self.plays_by_country[country] = (
            self.plays_by_country.get(country, 0) + 1
        )
        if record.user_state:
            self.plays_by_state[record.user_state] = (
                self.plays_by_state.get(record.user_state, 0) + 1
            )
        self.first_ranks["user_country"].setdefault(country, rank)
        server_country = record.server_country
        self.served_by_country[server_country] = (
            self.served_by_country.get(server_country, 0) + 1
        )
        self.first_ranks["server_country"].setdefault(server_country, rank)
        if country == "US":
            state = record.user_state
            self.us_plays_by_state[state] = (
                self.us_plays_by_state.get(state, 0) + 1
            )
            self.first_ranks["us_state"].setdefault(state, rank)
        server_outcomes = self.outcomes_by_server.setdefault(
            record.server_name, {}
        )
        server_outcomes[record.outcome] = (
            server_outcomes.get(record.outcome, 0) + 1
        )
        if record.played and record.protocol:
            self.played_by_protocol[record.protocol] = (
                self.played_by_protocol.get(record.protocol, 0) + 1
            )
        derived_bin = bandwidth_bin(record)
        for metric, attr, rule in METRICS:
            if not _eligible(record, rule):
                continue
            value = float(getattr(record, attr))
            self._observe(metric, "all", "all", value, rank)
            for group_field in GROUP_FIELDS:
                group_value = getattr(record, group_field)
                if group_value:
                    self._observe(
                        metric, group_field, group_value, value, rank
                    )
            self._observe(metric, "bandwidth_bin", derived_bin, value, rank)
            self.moments[metric].add(value)
        if record.played and record.has_jitter_sample:
            self.correlations["jitter_vs_bandwidth"].add(
                record.jitter_ms, record.measured_bandwidth_bps
            )
        if record.played and record.rated:
            self.correlations["rating_vs_bandwidth"].add(
                record.rating, record.measured_bandwidth_bps
            )
            self.correlations["rating_vs_frame_rate"].add(
                record.rating, record.measured_frame_rate
            )
        if record.rated:
            bandwidth = float(record.measured_bandwidth_bps)
            rating = int(record.rating)
            self._open_rated += 1
            self._open_pairs.append((bandwidth, rating))
            self.scatter.add(rank, user_id, bandwidth, rating)

    def add_many(self, records: Iterable[ClipRecord]) -> None:
        for record in records:
            self.add(record)

    # -- merge --------------------------------------------------------------

    def merge(self, other: "StudyAggregates") -> None:
        self.flush()
        other.flush()
        self.records += other.records
        for mine, theirs in (
            (self.by_outcome, other.by_outcome),
            (self.by_protocol, other.by_protocol),
            (self.plays_by_country, other.plays_by_country),
            (self.plays_by_state, other.plays_by_state),
            (self.served_by_country, other.served_by_country),
            (self.us_plays_by_state, other.us_plays_by_state),
            (self.played_by_protocol, other.played_by_protocol),
            (self.users_by_clips, other.users_by_clips),
            (self.users_by_rated, other.users_by_rated),
        ):
            for key, count in theirs.items():
                mine[key] = mine.get(key, 0) + count
        for server, outcomes in other.outcomes_by_server.items():
            mine_outcomes = self.outcomes_by_server.setdefault(server, {})
            for outcome, count in outcomes.items():
                mine_outcomes[outcome] = (
                    mine_outcomes.get(outcome, 0) + count
                )
        for table, theirs in (
            (self.first_ranks[name], other.first_ranks[name])
            for name in self.first_ranks
        ):
            for key, rank in theirs.items():
                mine_rank = table.get(key)
                if mine_rank is None or rank < mine_rank:
                    table[key] = rank
        for metric, groups in other.sketch_first_rank.items():
            for group_field, theirs in groups.items():
                table = self.sketch_first_rank[metric][group_field]
                for key, rank in theirs.items():
                    mine_rank = table.get(key)
                    if mine_rank is None or rank < mine_rank:
                        table[key] = rank
        for metric, groups in other.sketches.items():
            for group_field, bucket in groups.items():
                for value, sketch in bucket.items():
                    self._sketch(metric, group_field, value).merge(sketch)
        for metric, moments in other.moments.items():
            self.moments[metric].merge(moments)
        for name, corr in other.correlations.items():
            self.correlations[name].merge(corr)
        self.scatter.merge(other.scatter)

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        self.flush()
        return {
            "format": AGGREGATES_FORMAT,
            "exact_limit": self.exact_limit,
            "relative_accuracy": self.relative_accuracy,
            "records": self.records,
            "by_outcome": dict(self.by_outcome),
            "by_protocol": dict(self.by_protocol),
            "plays_by_country": dict(self.plays_by_country),
            "plays_by_state": dict(self.plays_by_state),
            "served_by_country": dict(self.served_by_country),
            "us_plays_by_state": dict(self.us_plays_by_state),
            "played_by_protocol": dict(self.played_by_protocol),
            "outcomes_by_server": {
                server: dict(outcomes)
                for server, outcomes in self.outcomes_by_server.items()
            },
            "users_by_clips": {
                str(clips): count
                for clips, count in self.users_by_clips.items()
            },
            "users_by_rated": {
                str(rated): count
                for rated, count in self.users_by_rated.items()
            },
            "first_ranks": {
                name: dict(table)
                for name, table in self.first_ranks.items()
            },
            "sketch_first_rank": {
                metric: {
                    group_field: dict(table)
                    for group_field, table in groups.items()
                }
                for metric, groups in self.sketch_first_rank.items()
            },
            "sketches": {
                metric: {
                    group_field: {
                        value: sketch.to_dict()
                        for value, sketch in bucket.items()
                    }
                    for group_field, bucket in groups.items()
                }
                for metric, groups in self.sketches.items()
            },
            "moments": {
                metric: moments.to_dict()
                for metric, moments in self.moments.items()
            },
            "correlations": {
                name: corr.to_dict()
                for name, corr in self.correlations.items()
            },
            "scatter": self.scatter.to_dict(),
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StudyAggregates":
        found = data.get("format")
        if found != AGGREGATES_FORMAT:
            raise AnalysisError(
                f"unsupported aggregates format {found!r} "
                f"(expected {AGGREGATES_FORMAT})"
            )
        aggregates = cls(
            exact_limit=int(data["exact_limit"]),
            relative_accuracy=float(data["relative_accuracy"]),
        )
        aggregates.records = int(data["records"])
        for name in (
            "by_outcome", "by_protocol", "plays_by_country",
            "plays_by_state", "served_by_country", "us_plays_by_state",
            "played_by_protocol",
        ):
            setattr(aggregates, name, {
                str(k): int(v) for k, v in data[name].items()
            })
        aggregates.outcomes_by_server = {
            str(server): {str(k): int(v) for k, v in outcomes.items()}
            for server, outcomes in data["outcomes_by_server"].items()
        }
        aggregates.users_by_clips = {
            int(k): int(v) for k, v in data["users_by_clips"].items()
        }
        aggregates.users_by_rated = {
            int(k): int(v) for k, v in data["users_by_rated"].items()
        }
        aggregates.first_ranks = {
            str(name): {str(k): int(v) for k, v in table.items()}
            for name, table in data["first_ranks"].items()
        }
        for metric, groups in data["sketch_first_rank"].items():
            for group_field, table in groups.items():
                aggregates.sketch_first_rank[metric][group_field] = {
                    str(k): int(v) for k, v in table.items()
                }
        for metric, groups in data["sketches"].items():
            for group_field, bucket in groups.items():
                for value, payload in bucket.items():
                    aggregates.sketches[metric][group_field][value] = (
                        QuantileSketch.from_dict(payload)
                    )
        for metric, payload in data["moments"].items():
            aggregates.moments[metric] = StreamingMoments.from_dict(payload)
        for name, payload in data["correlations"].items():
            aggregates.correlations[name] = (
                StreamingCorrelation.from_dict(payload)
            )
        aggregates.scatter = RatedScatter.from_dict(data["scatter"])
        return aggregates

    # -- reporting ----------------------------------------------------------

    def report(self) -> dict:
        """The JSON report written next to ``study.csv`` in sketch mode
        (`aggregates.json`): counts, grouped distribution summaries,
        and the streaming correlations."""
        self.flush()
        distributions: dict = {}
        for metric, _attr, _rule in METRICS:
            groups_out: dict = {}
            for group_field, bucket in self.sketches[metric].items():
                entries = {}
                for value in sorted(bucket):
                    sketch = bucket[value]
                    cdf = sketch.to_cdf()
                    entries[value] = {
                        "n": sketch.count,
                        "exact": sketch.is_exact,
                        "min": sketch.minimum,
                        "max": sketch.maximum,
                        "mean": cdf.mean,
                        "percentiles": {
                            f"p{int(q * 100):02d}": cdf.percentile(q)
                            for q in PERCENTILES
                        },
                    }
                if entries:
                    groups_out[group_field] = entries
            moments = self.moments[metric]
            distributions[metric] = {
                "n": moments.count,
                **(
                    {"mean": moments.mean, "std": moments.std}
                    if moments.count
                    else {}
                ),
                "groups": groups_out,
            }
        correlations = {
            name: (corr.correlation if corr.count >= 2 else None)
            for name, corr in self.correlations.items()
        }
        return {
            "records": self.records,
            "by_outcome": dict(sorted(self.by_outcome.items())),
            "by_protocol": dict(sorted(self.by_protocol.items())),
            "plays_by_country": dict(sorted(self.plays_by_country.items())),
            "plays_by_state": dict(sorted(self.plays_by_state.items())),
            "distributions": distributions,
            "correlations": correlations,
        }
