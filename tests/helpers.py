"""Shared builders for test fixtures."""

from __future__ import annotations

import csv
from datetime import date, timedelta
from pathlib import Path

import numpy as np

from ultirate.domain import Division, Game, Method, SeasonSlice, Stage, build_slice
from ultirate.ingest import METRIC_COLUMNS, RATING_COLUMNS, IngestError
from ultirate.metrics import MetricReport
from ultirate.predict import PredictionEntry, PredictionSet


def game(
    winner: str,
    loser: str,
    w: int,
    l: int,
    season: int = 2019,
    division: Division = Division.MENS,
    stage: Stage = Stage.REGULAR,
    day: int = 0,
    tournament: str = "Invite",
) -> Game:
    return Game(
        season=season,
        division=division,
        stage=stage,
        date=date(season, 6, 1) + timedelta(days=day),
        tournament=tournament,
        winner=winner,
        loser=loser,
        winning_score=w,
        losing_score=l,
    )


def slice_of(games: list[Game]) -> SeasonSlice:
    first = games[0]
    return build_slice(first.season, first.division, first.stage, games)


def record(
    team_a: str = "A",
    team_b: str = "B",
    score_a: str = "15",
    score_b: str = "10",
    season: str = "2019",
    division: str = "mens",
    stage: str = "regular",
    date_str: str = "2019-06-01",
    tournament: str = "Invite",
) -> dict[str, str]:
    return {
        "season": season,
        "division": division,
        "stage": stage,
        "date": date_str,
        "tournament": tournament,
        "team_a": team_a,
        "team_b": team_b,
        "score_a": score_a,
        "score_b": score_b,
    }


def prediction_set_of(
    entries, method: Method = Method.LEASTSQ, season: int = 2019,
    division: Division = Division.MENS,
) -> PredictionSet:
    """A PredictionSet whose rows are the given PredictionEntry values."""
    columns = list(zip(*entries)) or [()] * len(PredictionEntry._fields)
    dtypes = (np.int64, object, object, np.float64, np.int64, np.bool_)
    return PredictionSet(
        method, season, division,
        *(np.array(c, dtype) for c, dtype in zip(columns, dtypes)),
    )


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
