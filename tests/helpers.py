"""Shared builders for test fixtures, Game (the row-object view of the game columns),
and recovery_error for synthetic seasons."""

from __future__ import annotations

import csv
from dataclasses import dataclass, fields
from datetime import date, timedelta
from itertools import repeat
from pathlib import Path

import numpy as np

from ultirate.domain import (
    DIVISIONS,
    GAME_FIELDS,
    STAGES,
    Division,
    GameTable,
    Method,
    RatingTable,
    SeasonSlice,
    Stage,
    partition_seasons,
)
from ultirate.ingest import METRIC_COLUMNS, RATING_COLUMNS, IngestError, write_csv
from ultirate.metrics import MetricReport
from ultirate.predict import PredictionSet


@dataclass(frozen=True)
class Game:
    """One recorded result, oriented winner-first: a GameTable or SeasonSlice row."""

    season: int
    division: Division
    stage: Stage
    date: date
    winner: str
    loser: str
    winning_score: int
    losing_score: int


def game(
    winner: str,
    loser: str,
    w: int,
    l: int,
    season: int = 2019,
    division: Division = Division.MENS,
    stage: Stage = Stage.REGULAR,
    day: int = 0,
) -> Game:
    return Game(
        season=season,
        division=division,
        stage=stage,
        date=date(season, 6, 1) + timedelta(days=day),
        winner=winner,
        loser=loser,
        winning_score=w,
        losing_score=l,
    )


def games_of(columns: GameTable | SeasonSlice) -> tuple[Game, ...]:
    """The rows of a table or a slice as Game objects."""
    names = np.array(columns.teams, dtype=object)
    if isinstance(columns, SeasonSlice):
        seasons, divisions, stages = (repeat(columns.season), repeat(columns.division),
                                      repeat(columns.stage))
    else:
        seasons = columns.season.tolist()
        divisions = map(DIVISIONS.__getitem__, columns.division.tolist())
        stages = map(STAGES.__getitem__, columns.stage.tolist())
    return tuple(map(
        Game, seasons, divisions, stages,
        map(date.fromordinal, columns.day.tolist()),
        names[columns.winner].tolist(),
        names[columns.loser].tolist(),
        columns.winning_score.tolist(),
        columns.losing_score.tolist(),
    ))


def table_of(games: list[Game]) -> GameTable:
    """The table of Game objects, in the given order."""
    teams: dict[str, int] = {}
    rows = [(g.season, DIVISIONS.index(g.division), STAGES.index(g.stage),
             g.date.toordinal(), teams.setdefault(g.winner, len(teams)),
             teams.setdefault(g.loser, len(teams)), g.winning_score, g.losing_score)
            for g in games]
    columns = list(zip(*rows)) or [()] * (len(fields(GameTable)) - 1)
    return GameTable(tuple(teams), *(np.array(c, np.int64) for c in columns))


def slice_of(games: list[Game]) -> SeasonSlice:
    """The slice of Game objects that all share one (season, division, stage)."""
    (season_slice,) = partition_seasons(table_of(games))
    return season_slice


def write_game_csv(games: list[Game], path: str | Path) -> None:
    """Write Game objects in the ingest schema, winner as team_a, of any mix of keys.

    The tournament cell of every row reads "Invite".
    """
    write_csv(path, GAME_FIELDS, (
        [g.season, g.division.value, g.stage.value, g.date.isoformat(), "Invite",
         g.winner, g.loser, g.winning_score, g.losing_score]
        for g in games
    ))


def row(
    team_a: str = "A",
    team_b: str = "B",
    score_a: str = "15",
    score_b: str = "10",
    season: str = "2019",
    division: str = "mens",
    stage: str = "regular",
    date_str: str = "2019-06-01",
    tournament: str = "Invite",
) -> list[str]:
    """The cells of one game CSV row, in GAME_FIELDS order."""
    return [season, division, stage, date_str, tournament, team_a, team_b, score_a, score_b]


def prediction_set_of(pairs, method: Method = Method.LEASTSQ) -> PredictionSet:
    """A PredictionSet with one row per (predicted_diff, signed_actual) pair.

    Each row is a game of favourite F against underdog U. signed_actual is
    F's margin, negative when U won; the winner scores max(|signed_actual|,
    15) and wins by |signed_actual|.
    """
    predicted, signed = np.array(pairs, np.float64).T
    actual, won = np.abs(signed).astype(np.int64), signed >= 0
    games = [game(*(("F", "U") if v else ("U", "F")), max(a, 15), max(a, 15) - a)
             for a, v in zip(actual.tolist(), won.tolist())]
    return PredictionSet(method, slice_of(games), predicted, actual, won)


class TieRng:
    """A stand-in for np.random.default_rng(seed) whose noise is always -gap."""

    def __init__(self, gap):
        self.gap = gap

    def normal(self, loc, scale):
        return -self.gap


def read_ratings(path: str | Path) -> list[tuple[int, str, float, bool]]:
    """Parse a rating CSV back into (rank, team, rating, ranked) tuples."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != RATING_COLUMNS:
            raise IngestError(f"{path}: bad rating header {header!r}")
        for row in reader:
            out.append((int(row[0]), row[1], float(row[2]), row[3] == "true"))
    return out


def read_metrics(path: str | Path) -> list[MetricReport]:
    """Parse a metric CSV back into MetricReport values."""
    out = []
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if tuple(header) != METRIC_COLUMNS:
            raise IngestError(f"{path}: bad metric header {header!r}")
        for row in reader:
            out.append(
                MetricReport(
                    season=int(row[0]),
                    division=Division(row[1]),
                    method=Method(row[2]),
                    games_predicted=int(row[3]),
                    mad=float(row[4]),
                    mse=float(row[5]),
                    violation_rate=float(row[6]),
                )
            )
    return out


def recovery_error(true_ratings: dict[str, float], estimated: RatingTable) -> float:
    """RMS gap between true and estimated ratings after centering both to zero.

    Both vectors are shifted to mean zero over the shared team set, removing
    the arbitrary additive constant before comparison.
    """
    if set(true_ratings) != set(estimated.ratings):
        raise ValueError("true and estimated ratings cover different team sets")
    teams = sorted(true_ratings)
    t = np.array([true_ratings[x] for x in teams])
    e = np.array([estimated.ratings[x] for x in teams])
    t = t - t.mean()
    e = e - e.mean()
    return float(np.sqrt(np.mean((e - t) ** 2)))
