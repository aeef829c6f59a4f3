"""What a figure is, and the context it is rendered from."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from repro.analysis.streaming import StudyAggregates
from repro.core.records import StudyDataset
from repro.core.study import Study, StudyConfig
from repro.experiments.source import AggregatesSource, DatasetSource
from repro.world.population import StudyPopulation


@dataclass
class ExperimentContext:
    """Everything a figure needs, and how it was made.

    Dual-backed: exactly one record backend is expected — an in-memory
    ``dataset`` (exact mode) or streamed ``aggregates`` (sketch mode).
    Figures read through :attr:`source`, which answers the same
    queries from either; when both are supplied the dataset wins (and
    the aggregates are ignored).
    """

    dataset: StudyDataset | None = None
    population: StudyPopulation | None = None
    seed: int = 2001
    scale: float = 1.0
    aggregates: StudyAggregates | None = None
    _source: DatasetSource | AggregatesSource | None = field(
        default=None, init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        if self.dataset is None and self.aggregates is None:
            raise ValueError(
                "ExperimentContext needs a dataset or aggregates backend"
            )

    @property
    def backend(self) -> str:
        """``"exact"`` (dataset-backed) or ``"sketch"``."""
        return "exact" if self.dataset is not None else "sketch"

    @property
    def source(self) -> DatasetSource | AggregatesSource:
        """The backend-agnostic accessor the figures query."""
        if self._source is None:
            if self.dataset is not None:
                self._source = DatasetSource(self.dataset, self.population)
            else:
                self._source = AggregatesSource(
                    self.aggregates, self.population
                )
        return self._source


@dataclass
class FigureResult:
    """A regenerated figure: named series plus headline numbers."""

    figure_id: str
    title: str
    #: Named series of (x, y) points (CDF samples, bars, scatter...).
    series: dict[str, list[tuple[float, float]]] = field(default_factory=dict)
    #: Headline scalars compared against the paper in EXPERIMENTS.md.
    headline: dict[str, float] = field(default_factory=dict)
    #: Printable rendering (what the bench prints).
    text: str = ""


@dataclass(frozen=True)
class Figure:
    """A registered figure generator."""

    figure_id: str
    title: str
    run: Callable[[ExperimentContext], FigureResult]


def all_figures() -> list[Figure]:
    """All registered figures, in paper order."""
    from repro.experiments.figures import FIGURES

    return list(FIGURES)


def make_context(
    seed: int = 2001,
    scale: float = 1.0,
    playlist_length: int | None = None,
    max_users: int | None = None,
) -> ExperimentContext:
    """Run the study once and wrap it for the figures."""
    study = Study(
        StudyConfig(
            seed=seed,
            scale=scale,
            playlist_length=playlist_length,
            max_users=max_users,
        )
    )
    dataset = study.run()
    return ExperimentContext(
        dataset=dataset,
        population=study.population,
        seed=seed,
        scale=scale,
    )
