"""Score-differential predictions from a rating table.

For the power rating, the per-game differential formula is solved for the
losing score given the winning score, turning a rating gap back into a
predicted margin. For least squares, the rating difference is rescaled from
the common 15-goal cap to the game's actual cap. Each inverse lives next to
its forward formula: invert_usau_diff in usau, predict_ls_diff in leastsq.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .domain import Method, RatingTable, SeasonSlice
from .leastsq import LsParams, predict_ls_diff
from .usau import invert_usau_diff


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
    """One method's predictions for a slice: the slice plus three columns.

    Row k predicts slice game k: predicted_diff, actual_diff and
    higher_rated_won each hold one entry per slice game.
    """

    method: Method
    season_slice: SeasonSlice
    predicted_diff: np.ndarray
    actual_diff: np.ndarray
    higher_rated_won: np.ndarray

    def __post_init__(self):
        m = self.season_slice.n_games
        if any(len(c) != m for c in (self.predicted_diff, self.actual_diff, self.higher_rated_won)):
            raise ValueError("a prediction set needs one entry per slice game in each column")

    @property
    def n_skipped(self) -> int:
        """Always 0, as every slice game is predicted; e2ebench/traced.py still reads it."""
        return 0

    @property
    def entries(self) -> tuple[PredictionEntry, ...]:
        """The rows as PredictionEntry tuples, the teams named from the slice."""
        s, won = self.season_slice, self.higher_rated_won
        name = s.teams.__getitem__
        return tuple(map(
            PredictionEntry, range(s.n_games),
            map(name, np.where(won, s.winner, s.loser).tolist()),
            map(name, np.where(won, s.loser, s.winner).tolist()),
            self.predicted_diff.tolist(), self.actual_diff.tolist(), won.tolist(),
        ))


def build_predictions(
    table: RatingTable,
    season_slice: SeasonSlice,
    params: LsParams | None = None,
) -> PredictionSet:
    """One row per slice game, from a table of the slice's season and division.

    The table must rate every team of the slice. The prediction uses the
    game's actual winning score, so the evaluation is retrodictive. This is
    the only place evaluation looks ratings up and decides each game's
    favourite; every metric reads the returned set.

    For a least-squares table, params must be the LsParams the table was
    rated with: a table rated at LsParams(30) and predicted with the default
    gives margins twice too large.
    """
    s = season_slice
    same_key = (table.season, table.division) == (s.season, s.division)
    if not (same_key and table.ratings.keys() >= set(s.teams)):
        raise ValueError("the table must rate every team of a slice of its season and division")

    rating = np.array([table.ratings[t] for t in s.teams], np.float64)
    rw, rl = rating[s.winner], rating[s.loser]
    w = s.winning_score
    if table.method is Method.USAU:
        predicted = invert_usau_diff(np.abs(rw - rl), w)
    else:
        predicted = predict_ls_diff(rw, rl, w, params)

    return PredictionSet(
        method=table.method,
        season_slice=s,
        predicted_diff=predicted,
        actual_diff=w - s.losing_score,
        higher_rated_won=rw >= rl,
    )
