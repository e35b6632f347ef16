"""Retrodictive accuracy metrics: MAD, MSE, and ranking violations.

Errors are signed relative to the higher-rated team, so an upset penalizes
both the margin and the direction of the miss. Sums use math.fsum, making
results independent of accumulation order.
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


@dataclass(frozen=True)
class ViolationSummary:
    """Ranking-violation count over a slice under one rating table.

    A violation is a game won by the strictly lower-rated team; exact rating
    ties never count and are reported separately. total excludes games with
    an unrated team. defined is False when no games were countable (rate 0).
    """

    violations: int
    ties: int
    total: int
    rate: float
    defined: bool = True


def _signed_errors(predictions: PredictionSet) -> np.ndarray:
    if not len(predictions.game_id):
        raise ValueError("cannot compute metrics over an empty prediction set")
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


def violation_rate(table: RatingTable, season_slice: SeasonSlice) -> ViolationSummary:
    """Fraction of games won by the lower-rated team.

    Depends only on the rating order, never on magnitudes.
    """
    s = season_slice
    rating, rated = table.lookup(s.teams)
    counted = rated[s.winner] & rated[s.loser]
    rw, rl = rating[s.winner[counted]], rating[s.loser[counted]]
    total = len(rw)
    if total == 0:
        return ViolationSummary(0, 0, 0, 0.0, defined=False)
    violations = int(np.count_nonzero(rl > rw))
    return ViolationSummary(violations, int(np.count_nonzero(rl == rw)), total,
                            violations / total)


def build_report(
    table: RatingTable, season_slice: SeasonSlice, predictions: PredictionSet
) -> MetricReport:
    """Assemble the per-(season, division, method) metric row."""
    summary = violation_rate(table, season_slice)
    n_predicted = len(predictions.game_id)
    if summary.total != n_predicted:
        raise ValueError(
            "violation count covers a different game set than the predictions"
        )
    return MetricReport(
        season=season_slice.season,
        division=season_slice.division,
        method=table.method,
        games_predicted=n_predicted,
        mad=mad(predictions),
        mse=mse(predictions),
        violation_rate=summary.rate,
    )
