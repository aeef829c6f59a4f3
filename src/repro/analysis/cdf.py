"""Cumulative density functions, the paper's workhorse plot.

The sample is held as a sorted ``numpy`` array and every lookup is a
``searchsorted`` — the figures evaluate thousands of grid points
against thousands of samples, and the vectorized form beats per-point
``bisect`` while staying bit-identical: ``searchsorted`` on doubles has
exactly ``bisect_right``/``bisect_left``'s semantics, and the
cumulative fractions remain the same rank-over-size divisions.
"""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.errors import AnalysisError


class Cdf:
    """An empirical CDF over a sample."""

    def __init__(self, values: Iterable[float]) -> None:
        if isinstance(values, np.ndarray):
            # Column fast path (StudyDataset.column): no per-element
            # Python float round-trip.
            data = np.sort(values.astype(np.float64))
        else:
            data = np.sort(
                np.asarray([float(v) for v in values], dtype=np.float64)
            )
        if data.size == 0:
            raise AnalysisError("cannot build a CDF from an empty sample")
        self._array = data
        self._n = int(data.size)

    def __len__(self) -> int:
        return self._n

    @property
    def values(self) -> list[float]:
        """The sorted sample."""
        return self._array.tolist()

    def at(self, x: float) -> float:
        """P(X <= x)."""
        return int(np.searchsorted(self._array, x, side="right")) / self._n

    def fraction_below(self, x: float) -> float:
        """P(X < x) — e.g. the fraction of clips under 3 fps."""
        return int(np.searchsorted(self._array, x, side="left")) / self._n

    def fraction_at_least(self, x: float) -> float:
        """P(X >= x) — e.g. the fraction of clips at 15+ fps."""
        return 1.0 - self.fraction_below(x)

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1].

        Uses the inverted-CDF estimator, so the result is always a
        member of the sample and consistent with :meth:`at`
        (``at(percentile(q)) >= q``).  The default linear interpolation
        would invent values between samples — for discrete observables
        like frame counts that means reporting fractional frames the
        study never measured.
        """
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0, 1], got {q}")
        return float(np.quantile(self._array, q, method="inverted_cdf"))

    @property
    def median(self) -> float:
        return self.percentile(0.5)

    @property
    def mean(self) -> float:
        return float(np.mean(self._array))

    def points(self) -> list[tuple[float, float]]:
        """The (value, cumulative fraction) step points of the CDF."""
        n = self._n
        fractions = np.arange(1, n + 1, dtype=np.float64) / n
        return list(zip(self._array.tolist(), fractions.tolist()))

    def series(self, xs: Sequence[float]) -> list[tuple[float, float]]:
        """Sample the CDF at the given x positions (for figure rows)."""
        grid = [float(x) for x in xs]
        ranks = np.searchsorted(self._array, np.asarray(grid, dtype=np.float64),
                                side="right")
        return [(x, int(r) / self._n) for x, r in zip(grid, ranks)]


class WeightedCdf:
    """An empirical CDF over (value, count) pairs.

    This is the sketch-mode counterpart of :class:`Cdf`: a
    :class:`~repro.analysis.sketch.QuantileSketch` collapsed to binned
    form holds millions of observations as a few thousand weighted bin
    representatives, and this class answers the same queries as `Cdf`
    without ever expanding the weights back into per-observation
    arrays.  All rank arithmetic matches `Cdf` exactly: building a
    `WeightedCdf` from the multiset expansion's unique values and
    counts gives bit-identical ``at``/``percentile``/``mean`` answers.
    """

    def __init__(
        self, values: Iterable[float], counts: Iterable[int]
    ) -> None:
        pairs = sorted(
            (float(v), int(c))
            for v, c in zip(values, counts)
            if int(c) > 0
        )
        if not pairs:
            raise AnalysisError("cannot build a CDF from an empty sample")
        # Merge duplicate values so searchsorted ranks are unambiguous.
        merged_values: list[float] = []
        merged_counts: list[int] = []
        for value, count in pairs:
            if merged_values and merged_values[-1] == value:
                merged_counts[-1] += count
            else:
                merged_values.append(value)
                merged_counts.append(count)
        self._values = np.asarray(merged_values, dtype=np.float64)
        self._cum = np.cumsum(
            np.asarray(merged_counts, dtype=np.int64)
        )
        self._n = int(self._cum[-1])

    def __len__(self) -> int:
        return self._n

    @property
    def values(self) -> list[float]:
        """The sorted distinct sample values (weights elided)."""
        return self._values.tolist()

    def _rank_at(self, x: float, side: str) -> int:
        index = int(np.searchsorted(self._values, x, side=side))
        return 0 if index == 0 else int(self._cum[index - 1])

    def at(self, x: float) -> float:
        """P(X <= x)."""
        return self._rank_at(x, "right") / self._n

    def fraction_below(self, x: float) -> float:
        """P(X < x)."""
        return self._rank_at(x, "left") / self._n

    def fraction_at_least(self, x: float) -> float:
        """P(X >= x)."""
        return 1.0 - self.fraction_below(x)

    def percentile(self, q: float) -> float:
        """Value at quantile ``q`` in [0, 1] (inverted-CDF estimator:
        the smallest sample value whose cumulative rank covers ``q``,
        exactly `Cdf.percentile`'s semantics on the expanded sample)."""
        if not 0.0 <= q <= 1.0:
            raise AnalysisError(f"quantile must be in [0, 1], got {q}")
        target = max(1, int(np.ceil(q * self._n)))
        index = int(np.searchsorted(self._cum, target, side="left"))
        return float(self._values[min(index, len(self._values) - 1)])

    @property
    def median(self) -> float:
        return self.percentile(0.5)

    @property
    def mean(self) -> float:
        weights = np.diff(self._cum, prepend=0)
        return float(np.sum(self._values * weights) / self._n)

    def points(self) -> list[tuple[float, float]]:
        """The (value, cumulative fraction) step points — one per
        distinct value, not per observation."""
        fractions = self._cum.astype(np.float64) / self._n
        return list(zip(self._values.tolist(), fractions.tolist()))

    def series(self, xs: Sequence[float]) -> list[tuple[float, float]]:
        """Sample the CDF at the given x positions (for figure rows)."""
        grid = [float(x) for x in xs]
        return [(x, self.at(x)) for x in grid]
