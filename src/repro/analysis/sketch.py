"""Mergeable online sketches for streaming aggregation.

The million-user record path cannot afford to retain raw samples, so
the distributional figures are fed by :class:`QuantileSketch` — a
hybrid exact/fixed-grid sketch — and the moment analyses by
:class:`StreamingMoments` / :class:`StreamingCorrelation`.

Design constraints, in order:

1. **Order independence.**  Shards finish in arbitrary order and the
   resumed half of a study merges with the freshly simulated half, so
   a sketch's queryable state must be a pure function of the observed
   *multiset*, never of arrival or merge order.  The fixed-grid form
   guarantees this structurally: a value's bin key depends only on the
   value (``floor(log_gamma |x|)``), so bin counts commute; the exact
   form keeps the raw multiset and sorts at query time.
2. **Exactness until it matters.**  Below ``exact_limit`` observations
   the sketch *is* the sample — paper-scale studies (2,855 plays)
   reproduce the golden figures bit-for-bit through the sketch path.
   The grid only takes over when a population outgrows memory, and the
   collapse threshold is itself order-independent: a sketch is binned
   if and only if its total count exceeds ``exact_limit``.
3. **Bounded relative error.**  In binned form every stored value is a
   bin representative within ``relative_accuracy`` of the original
   (the DDSketch guarantee), so quantiles are wrong by at most that
   relative factor and CDF evaluations by the mass within one bin of
   the query point.

All three sketches serialize to plain JSON dicts (``to_dict`` /
``from_dict``) so shard workers can ship them over the event queue and
the checkpoint journal can resume them.
"""

from __future__ import annotations

import math
from typing import Iterable

import numpy as np

from repro.analysis.cdf import Cdf, WeightedCdf
from repro.errors import AnalysisError

#: Default per-sketch exact-sample budget before collapsing to bins.
DEFAULT_EXACT_LIMIT = 4096

#: Default relative accuracy of binned quantiles (0.1%).
DEFAULT_RELATIVE_ACCURACY = 0.001

#: Magnitudes below this collapse into the zero bin (bin key 0);
#: studies measure fps/bps/ms, where 1e-9 is far below resolution.
MIN_MAGNITUDE = 1e-9


class LogBinGrid:
    """The DDSketch-style fixed log grid: value -> signed bin key.

    A value's key depends only on the value and the configured
    relative accuracy, so bin counts commute under any merge order.
    Shared by :class:`QuantileSketch` and the fig28 rated-scatter
    summary (`repro.analysis.streaming.RatedScatter`), which bins
    bandwidth on the same grid once its exact budget is exhausted.
    """

    __slots__ = ("relative_accuracy", "gamma", "_log_gamma", "_key_offset")

    def __init__(self, relative_accuracy: float) -> None:
        if not 0.0 < relative_accuracy < 1.0:
            raise AnalysisError(
                "relative_accuracy must be in (0, 1), "
                f"got {relative_accuracy}"
            )
        self.relative_accuracy = float(relative_accuracy)
        self.gamma = (1.0 + relative_accuracy) / (1.0 - relative_accuracy)
        self._log_gamma = math.log(self.gamma)
        # Shift the raw log-bin index so every magnitude above
        # MIN_MAGNITUDE lands on |key| >= 1: key 0 can then mean "zero"
        # unambiguously, and a negative value's key is the negation of
        # its magnitude's key without colliding with sub-unit positive
        # magnitudes (whose raw log index is <= 0).
        self._key_offset = (
            int(math.ceil(math.log(MIN_MAGNITUDE) / self._log_gamma)) - 1
        )

    def key(self, value: float) -> int:
        magnitude = abs(value)
        if magnitude <= MIN_MAGNITUDE:
            return 0
        key = (
            int(math.ceil(math.log(magnitude) / self._log_gamma))
            - self._key_offset
        )
        if key < 1:  # fp rounding right at MIN_MAGNITUDE
            key = 1
        return key if value > 0.0 else -key

    def representative(self, key: int) -> float:
        """The value every member of bin ``key`` is reported as: the
        geometric midpoint, within ``relative_accuracy`` of anything
        the bin covers."""
        if key == 0:
            return 0.0
        magnitude = 2.0 * math.exp(
            (abs(key) + self._key_offset) * self._log_gamma
        ) / (self.gamma + 1.0)
        return magnitude if key > 0 else -magnitude


class QuantileSketch:
    """Hybrid exact / fixed-log-grid quantile sketch.

    ``add``/``add_many`` stream observations in; ``merge`` folds
    another sketch into this one; ``to_cdf`` produces either an exact
    :class:`~repro.analysis.cdf.Cdf` (while the sample still fits the
    exact budget) or a :class:`~repro.analysis.cdf.WeightedCdf` over
    bin representatives.
    """

    __slots__ = (
        "exact_limit", "relative_accuracy", "_grid",
        "_count", "_values", "_bins", "_min", "_max",
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
        self._count = 0
        #: Exact mode: the raw observations (unsorted multiset).
        self._values: list[float] | None = []
        #: Binned mode: signed bin key -> count.  Key 0 is the zero
        #: bin; key k > 0 covers positive magnitudes, k < 0 negative.
        self._bins: dict[int, int] | None = None
        self._min = math.inf
        self._max = -math.inf

    # -- observation --------------------------------------------------------

    def __len__(self) -> int:
        return self._count

    @property
    def count(self) -> int:
        return self._count

    @property
    def is_exact(self) -> bool:
        """The sketch still holds the raw sample (no binning error)."""
        return self._values is not None

    def add(self, value: float) -> None:
        value = float(value)
        self._count += 1
        if value < self._min:
            self._min = value
        if value > self._max:
            self._max = value
        if self._values is not None:
            self._values.append(value)
            if self._count > self.exact_limit:
                self._collapse()
        else:
            assert self._bins is not None
            key = self._key(value)
            self._bins[key] = self._bins.get(key, 0) + 1

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    # -- merge --------------------------------------------------------------

    def merge(self, other: "QuantileSketch") -> None:
        """Fold ``other`` into this sketch (``other`` is unchanged).

        The result is identical — including whether it is exact or
        binned — no matter how a set of sketches is paired up or
        ordered while merging, because binned-ness depends only on the
        combined count and bin keys depend only on values.
        """
        if other.relative_accuracy != self.relative_accuracy or \
                other.exact_limit != self.exact_limit:
            raise AnalysisError(
                "cannot merge sketches with different parameters: "
                f"(limit={self.exact_limit}, "
                f"accuracy={self.relative_accuracy}) vs "
                f"(limit={other.exact_limit}, "
                f"accuracy={other.relative_accuracy})"
            )
        self._count += other._count
        self._min = min(self._min, other._min)
        self._max = max(self._max, other._max)
        if self._values is not None and other._values is not None \
                and self._count <= self.exact_limit:
            self._values.extend(other._values)
            return
        if self._values is not None:
            self._collapse()
        assert self._bins is not None
        if other._values is not None:
            for value in other._values:
                key = self._key(value)
                self._bins[key] = self._bins.get(key, 0) + 1
        else:
            assert other._bins is not None
            for key, count in other._bins.items():
                self._bins[key] = self._bins.get(key, 0) + count

    # -- queries ------------------------------------------------------------

    def to_cdf(self, divide_by: float = 1.0) -> Cdf | WeightedCdf:
        """The sketch as a CDF object the figures understand.

        ``divide_by`` applies a unit change (e.g. bps -> kbps) to every
        value.  In exact mode the division happens element-wise before
        the sort, exactly matching the dataset source's
        ``[v / 1000.0 for v in values]`` list comprehensions — the
        resulting `Cdf` is bit-identical to the dataset-backed one.
        """
        if self._count == 0:
            raise AnalysisError("cannot build a CDF from an empty sketch")
        if self._values is not None:
            array = np.asarray(self._values, dtype=np.float64)
            if divide_by != 1.0:
                array = array / divide_by
            return Cdf(array)
        assert self._bins is not None
        keys = sorted(self._bins)
        return WeightedCdf(
            (self._representative(key) / divide_by for key in keys),
            (self._bins[key] for key in keys),
        )

    def percentile(self, q: float) -> float:
        return self.to_cdf().percentile(q)

    @property
    def minimum(self) -> float:
        if self._count == 0:
            raise AnalysisError("empty sketch has no minimum")
        return self._min

    @property
    def maximum(self) -> float:
        if self._count == 0:
            raise AnalysisError("empty sketch has no maximum")
        return self._max

    # -- serialization ------------------------------------------------------

    def to_dict(self) -> dict:
        """JSON-safe snapshot (round-trips through :meth:`from_dict`)."""
        payload: dict = {
            "exact_limit": self.exact_limit,
            "relative_accuracy": self.relative_accuracy,
            "count": self._count,
        }
        if self._count:
            payload["min"] = self._min
            payload["max"] = self._max
        if self._values is not None:
            payload["values"] = list(self._values)
        else:
            assert self._bins is not None
            payload["bins"] = {
                str(key): count for key, count in self._bins.items()
            }
        return payload

    @classmethod
    def from_dict(cls, data: dict) -> "QuantileSketch":
        sketch = cls(
            exact_limit=int(data["exact_limit"]),
            relative_accuracy=float(data["relative_accuracy"]),
        )
        sketch._count = int(data["count"])
        if sketch._count:
            sketch._min = float(data["min"])
            sketch._max = float(data["max"])
        if "values" in data:
            sketch._values = [float(v) for v in data["values"]]
        else:
            sketch._values = None
            sketch._bins = {
                int(key): int(count)
                for key, count in data.get("bins", {}).items()
            }
        return sketch

    # -- internals ----------------------------------------------------------

    def _key(self, value: float) -> int:
        return self._grid.key(value)

    def _representative(self, key: int) -> float:
        return self._grid.representative(key)

    def _collapse(self) -> None:
        assert self._values is not None
        bins: dict[int, int] = {}
        for value in self._values:
            key = self._key(value)
            bins[key] = bins.get(key, 0) + 1
        self._values = None
        self._bins = bins


class StreamingMoments:
    """Mergeable count/mean/variance (Welford + Chan et al. merge)."""

    __slots__ = ("count", "_mean", "_m2")

    def __init__(self) -> None:
        self.count = 0
        self._mean = 0.0
        self._m2 = 0.0

    def __len__(self) -> int:
        return self.count

    def add(self, value: float) -> None:
        value = float(value)
        self.count += 1
        delta = value - self._mean
        self._mean += delta / self.count
        self._m2 += delta * (value - self._mean)

    def add_many(self, values: Iterable[float]) -> None:
        for value in values:
            self.add(value)

    def merge(self, other: "StreamingMoments") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            self.count = other.count
            self._mean = other._mean
            self._m2 = other._m2
            return
        total = self.count + other.count
        delta = other._mean - self._mean
        self._mean += delta * other.count / total
        self._m2 += other._m2 + delta * delta * (
            self.count * other.count / total
        )
        self.count = total

    @property
    def mean(self) -> float:
        if self.count == 0:
            raise AnalysisError("empty moment accumulator has no mean")
        return self._mean

    @property
    def variance(self) -> float:
        """Population variance (matches ``numpy.std(...)**2``)."""
        if self.count == 0:
            raise AnalysisError("empty moment accumulator has no variance")
        return self._m2 / self.count

    @property
    def std(self) -> float:
        return math.sqrt(max(0.0, self.variance))

    def to_dict(self) -> dict:
        return {"count": self.count, "mean": self._mean, "m2": self._m2}

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingMoments":
        moments = cls()
        moments.count = int(data["count"])
        moments._mean = float(data["mean"])
        moments._m2 = float(data["m2"])
        return moments


class StreamingCorrelation:
    """Mergeable Pearson correlation over (x, y) pairs.

    Matches :func:`repro.analysis.stats.correlation`'s conventions:
    0.0 on zero variance, :class:`AnalysisError` below two points.
    """

    __slots__ = ("count", "_mean_x", "_mean_y", "_m2_x", "_m2_y", "_cxy")

    def __init__(self) -> None:
        self.count = 0
        self._mean_x = 0.0
        self._mean_y = 0.0
        self._m2_x = 0.0
        self._m2_y = 0.0
        self._cxy = 0.0

    def __len__(self) -> int:
        return self.count

    def add(self, x: float, y: float) -> None:
        x, y = float(x), float(y)
        self.count += 1
        dx = x - self._mean_x
        self._mean_x += dx / self.count
        self._m2_x += dx * (x - self._mean_x)
        dy = y - self._mean_y
        self._mean_y += dy / self.count
        self._m2_y += dy * (y - self._mean_y)
        # Co-moment uses the pre-update x delta and post-update y mean.
        self._cxy += dx * (y - self._mean_y)

    def merge(self, other: "StreamingCorrelation") -> None:
        if other.count == 0:
            return
        if self.count == 0:
            for slot in self.__slots__:
                setattr(self, slot, getattr(other, slot))
            return
        total = self.count + other.count
        dx = other._mean_x - self._mean_x
        dy = other._mean_y - self._mean_y
        ratio = self.count * other.count / total
        self._m2_x += other._m2_x + dx * dx * ratio
        self._m2_y += other._m2_y + dy * dy * ratio
        self._cxy += other._cxy + dx * dy * ratio
        self._mean_x += dx * other.count / total
        self._mean_y += dy * other.count / total
        self.count = total

    @property
    def correlation(self) -> float:
        if self.count < 2:
            raise AnalysisError("correlation needs at least two points")
        if self._m2_x <= 0.0 or self._m2_y <= 0.0:
            return 0.0
        value = self._cxy / math.sqrt(self._m2_x * self._m2_y)
        # Rounding in the co-moment updates can push the ratio a hair
        # outside the mathematically guaranteed [-1, 1].
        return max(-1.0, min(1.0, value))

    def to_dict(self) -> dict:
        return {
            "count": self.count,
            "mean_x": self._mean_x,
            "mean_y": self._mean_y,
            "m2_x": self._m2_x,
            "m2_y": self._m2_y,
            "cxy": self._cxy,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "StreamingCorrelation":
        corr = cls()
        corr.count = int(data["count"])
        corr._mean_x = float(data["mean_x"])
        corr._mean_y = float(data["mean_y"])
        corr._m2_x = float(data["m2_x"])
        corr._m2_y = float(data["m2_y"])
        corr._cxy = float(data["cxy"])
        return corr
