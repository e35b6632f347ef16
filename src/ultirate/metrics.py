"""Retrodictive accuracy metrics: MAD, MSE, and the ranking-violation rate.

All three read one PredictionSet: build_predictions alone looks ratings up
and decides each game's favourite. Errors are signed relative to the
higher-rated team, so an upset penalizes both the margin and the direction
of the miss. Sums use math.fsum, making results independent of
accumulation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Division, Method, RatingTable, SeasonSlice
from .predict import PredictionSet


@dataclass(frozen=True)
class MetricReport:
    season: int
    division: Division
    method: Method
    games_predicted: int
    mad: float
    mse: float
    violation_rate: float

    def __post_init__(self):
        if self.games_predicted < 0 or self.mad < 0 or self.mse < 0:
            raise ValueError("metric values must be non-negative")
        if not 0.0 <= self.violation_rate <= 1.0:
            raise ValueError(f"violation rate {self.violation_rate} outside [0, 1]")


def _signed_errors(predictions: PredictionSet) -> np.ndarray:
    actual = np.where(predictions.higher_rated_won, predictions.actual_diff,
                      -predictions.actual_diff)
    return actual - predictions.predicted_diff


def mad(predictions: PredictionSet) -> float:
    """Mean absolute deviation of predicted margins from signed outcomes."""
    errors = _signed_errors(predictions)
    return math.fsum(np.abs(errors).tolist()) / len(errors)


def mse(predictions: PredictionSet) -> float:
    """Mean squared error of predicted margins from signed outcomes."""
    errors = _signed_errors(predictions)
    return math.fsum((errors * errors).tolist()) / len(errors)


def violation_rate(predictions: PredictionSet) -> float:
    """Fraction of predicted games won by the lower-rated team.

    Exact rating ties favour the actual winner, so they never count. The
    rate depends only on the rating order, never on magnitudes.
    """
    return np.count_nonzero(~predictions.higher_rated_won) / predictions.season_slice.n_games


def build_report(
    table: RatingTable, season_slice: SeasonSlice, predictions: PredictionSet
) -> MetricReport:
    """Assemble the per-(season, division, method) metric row.

    The row's key comes from the table and the slice; predictions built
    for another method or from another slice object are rejected.
    """
    if predictions.method is not table.method or predictions.season_slice is not season_slice:
        raise ValueError("predictions for another method or slice cannot fill this row")
    return MetricReport(
        season=season_slice.season,
        division=season_slice.division,
        method=table.method,
        games_predicted=season_slice.n_games,
        mad=mad(predictions),
        mse=mse(predictions),
        violation_rate=violation_rate(predictions),
    )
