"""Score-differential predictions from a rating table.

For the power rating, the per-game differential formula is solved for the
losing score given the winning score, turning a rating gap back into a
predicted margin. For least squares, the rating difference is rescaled from
the common 15-goal cap to the game's actual cap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import Division, Method, RatingTable, SeasonSlice
from .leastsq import LsParams
from .usau import BASE_DIFF, DIFF_SPAN, MAX_DIFF, SINE_PHASE

_SIN_PHASE = math.sin(SINE_PHASE)


class PredictionEntry(NamedTuple):
    """Predicted vs. actual margin for one game, seen from the favorite.

    predicted_diff is the non-negative margin predicted for the higher-rated
    team; actual_diff is the game's true (positive) margin; higher_rated_won
    records whether the favorite actually won. Ties in rating are broken
    toward the actual winner, which leaves the error magnitude unchanged.
    """

    game_id: int
    favorite: str
    underdog: str
    predicted_diff: float
    actual_diff: int
    higher_rated_won: bool


@dataclass(frozen=True, eq=False)
class PredictionSet:
    """Predictions for one (season, division, method) as columns.

    Row k is the k-th predicted game in slice order, with the fields of
    PredictionEntry: game_id (the slice index), favorite and underdog
    (names), predicted_diff, actual_diff and higher_rated_won. Games with an
    unrated team have no row; n_skipped counts them.
    """

    method: Method
    season: int
    division: Division
    game_id: np.ndarray
    favorite: np.ndarray
    underdog: np.ndarray
    predicted_diff: np.ndarray
    actual_diff: np.ndarray
    higher_rated_won: np.ndarray
    n_skipped: int = 0

    @property
    def entries(self) -> tuple[PredictionEntry, ...]:
        """The rows as PredictionEntry tuples."""
        return tuple(map(
            PredictionEntry, self.game_id.tolist(), self.favorite.tolist(),
            self.underdog.tolist(), self.predicted_diff.tolist(), self.actual_diff.tolist(),
            self.higher_rated_won.tolist(),
        ))


def invert_usau_diff(rating_gap, w):
    """Predicted margin for a rating gap, inverting the per-game differential.

    For gaps in [125, 600] this is the exact inverse of game_diff at winning
    score w: w - (w-1)*(1 - arcsin((gap-125)*sin(0.4pi)/475)/(0.8pi)). Gaps
    below 125 ramp linearly from 0 to the one-point margin; gaps above 600
    return the smallest margin that saturates the differential, w - (w-1)/2.
    Continuous and non-decreasing on [0, inf); margins are real-valued.
    Works elementwise on arrays of gaps and winning scores.
    """
    gap = np.asarray(rating_gap, np.float64)
    w = np.asarray(w)
    if np.any(gap < 0):
        raise ValueError(f"rating gap must be >= 0, got {gap[gap < 0].min()}")
    if np.any(w < 2):
        raise ValueError(f"winning score must be >= 2, got {w[w < 2].min()}")
    mid = (gap >= BASE_DIFF) & (gap <= MAX_DIFF)
    # math.asin, not np.arcsin: the two differ in the last bit on some inputs.
    angle = np.zeros(gap.shape)
    angle[mid] = list(map(math.asin, ((gap[mid] - BASE_DIFF) * _SIN_PHASE / DIFF_SPAN).tolist()))
    losing = (w - 1) * (1.0 - angle / (2.0 * SINE_PHASE))
    margin = np.where(
        gap < BASE_DIFF, gap / BASE_DIFF,
        np.where(gap > MAX_DIFF, w - (w - 1) / 2.0, w - losing),
    )
    return margin[()]


def predict_ls_diff(rating_i, rating_j, w, params: LsParams | None = None):
    """Rating difference scaled back from the reference cap to the game's cap.

    Works elementwise on arrays of ratings and winning scores.
    """
    params = params or LsParams()
    if np.any(np.asarray(w) < 2):
        raise ValueError(f"winning score must be >= 2, got {w}")
    return abs(rating_i - rating_j) * w / params.reference_cap


def build_predictions(
    table: RatingTable,
    season_slice: SeasonSlice,
    params: LsParams | None = None,
) -> PredictionSet:
    """One row per slice game whose teams both appear in the table.

    Games with an unrated team are skipped and counted in n_skipped. The
    prediction uses the game's actual winning score, so the evaluation is
    retrodictive.
    """
    s = season_slice
    if (table.season, table.division) != (s.season, s.division):
        raise ValueError("table and slice must share season and division")

    rating, rated = table.lookup(s.teams)
    game_id = np.flatnonzero(rated[s.winner] & rated[s.loser])
    winner, loser = s.winner[game_id], s.loser[game_id]
    rw, rl = rating[winner], rating[loser]
    w = s.winning_score[game_id]
    if table.method is Method.USAU:
        predicted = invert_usau_diff(np.abs(rw - rl), w)
    else:
        predicted = predict_ls_diff(rw, rl, w, params)
    higher_rated_won = rw >= rl
    names = np.array(s.teams, dtype=object)

    return PredictionSet(
        method=table.method,
        season=s.season,
        division=s.division,
        game_id=game_id,
        favorite=names[np.where(higher_rated_won, winner, loser)],
        underdog=names[np.where(higher_rated_won, loser, winner)],
        predicted_diff=predicted,
        actual_diff=w - s.losing_score[game_id],
        higher_rated_won=higher_rated_won,
        n_skipped=s.n_games - len(game_id),
    )
