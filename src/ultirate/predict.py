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

from .domain import Division, Method, RatingTable, SeasonSlice
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
