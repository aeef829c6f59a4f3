"""Experiment harness (S13): the paper's figures as one table.

``repro.experiments.figures.FIGURES`` holds one
:class:`~repro.experiments.base.Figure` per paper figure, whose
``run(ctx)`` regenerates its series/rows and headline numbers from a
study dataset or its streamed aggregates.  The claims C1-C8
(``claims``) are read off those headlines; ``runner`` executes every
figure and writes the results; ``benchmarks/test_bench_figures.py``
asserts the paper's shapes.
"""

from repro.experiments.base import (
    ExperimentContext,
    Figure,
    FigureResult,
    all_figures,
    make_context,
)

__all__ = [
    "ExperimentContext",
    "Figure",
    "FigureResult",
    "all_figures",
    "make_context",
]
