"""Core data types: validated games, season slices, and rating tables."""

from __future__ import annotations

from dataclasses import dataclass, field
from datetime import date, timedelta
from enum import Enum
from typing import Iterable, Mapping

import numpy as np


class Division(Enum):
    MENS = "mens"
    MIXED = "mixed"
    WOMENS = "womens"


class Stage(Enum):
    REGULAR = "regular"
    POST = "post"


class Method(Enum):
    USAU = "usau"
    LEASTSQ = "leastsq"


GAME_FIELDS = (
    "season",
    "division",
    "stage",
    "date",
    "tournament",
    "team_a",
    "team_b",
    "score_a",
    "score_b",
)


class GameValidationError(ValueError):
    """A raw record cannot become a valid Game; carries a short reason code."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason} ({detail})" if detail else reason)
        self.reason = reason
        self.detail = detail


def normalize_team_name(raw: str) -> str:
    """Trim and collapse internal whitespace; case is preserved."""
    return " ".join(raw.split())


@dataclass(frozen=True)
class Game:
    """One recorded result, oriented winner-first.

    Scores satisfy losing_score < winning_score and winning_score >= 2
    (ultimate has no ties; a tied hard-cap game ends on a sudden-death point).
    """

    season: int
    division: Division
    stage: Stage
    date: date
    tournament: str
    winner: str
    loser: str
    winning_score: int
    losing_score: int


def validate_game(record: Mapping[str, str]) -> Game:
    """Build a Game from a raw field map, orienting winner/loser by score.

    Raises GameValidationError with a reason code on any bad record:
    "missing field", "empty team", "bad season", "bad division", "bad stage",
    "bad date", "bad score", "tie", "same team", "degenerate score".
    """
    for name in GAME_FIELDS:
        if record.get(name) is None:
            raise GameValidationError("missing field", name)

    team_a = normalize_team_name(record["team_a"])
    team_b = normalize_team_name(record["team_b"])
    if not team_a or not team_b:
        raise GameValidationError("empty team")

    try:
        season = int(str(record["season"]).strip())
    except ValueError:
        raise GameValidationError("bad season", str(record["season"])) from None

    try:
        division = Division(str(record["division"]).strip())
    except ValueError:
        raise GameValidationError("bad division", str(record["division"])) from None

    try:
        stage = Stage(str(record["stage"]).strip())
    except ValueError:
        raise GameValidationError("bad stage", str(record["stage"])) from None

    try:
        played = date.fromisoformat(str(record["date"]).strip())
    except ValueError:
        raise GameValidationError("bad date", str(record["date"])) from None

    try:
        score_a = int(str(record["score_a"]).strip())
        score_b = int(str(record["score_b"]).strip())
    except ValueError:
        raise GameValidationError(
            "bad score", f"{record['score_a']!r}, {record['score_b']!r}"
        ) from None
    if score_a < 0 or score_b < 0:
        raise GameValidationError("bad score", f"{score_a}, {score_b}")

    if score_a == score_b:
        raise GameValidationError("tie", f"{score_a}-{score_b}")

    if score_a > score_b:
        winner, loser, w, l = team_a, team_b, score_a, score_b
    else:
        winner, loser, w, l = team_b, team_a, score_b, score_a

    if winner == loser:
        raise GameValidationError("same team", winner)
    if w < 2:
        raise GameValidationError("degenerate score", f"{w}-{l}")

    return Game(
        season=season,
        division=division,
        stage=stage,
        date=played,
        tournament=normalize_team_name(record["tournament"]),
        winner=winner,
        loser=loser,
        winning_score=w,
        losing_score=l,
    )


@dataclass(frozen=True)
class SeasonSlice:
    """All games for one (season, division, stage), with calendar-week indices.

    weeks[i] is the 1-based calendar week of games[i] within the slice's own
    date span; week_count is the number of calendar weeks spanned inclusive.
    """

    season: int
    division: Division
    stage: Stage
    games: tuple[Game, ...]
    week_count: int
    weeks: tuple[int, ...]

    def __post_init__(self):
        if len(self.weeks) != len(self.games):
            raise ValueError("weeks must align with games")
        for g, t in zip(self.games, self.weeks):
            if (g.season, g.division, g.stage) != (self.season, self.division, self.stage):
                raise ValueError(f"game {g} does not match slice key")
            if not 1 <= t <= self.week_count:
                raise ValueError(f"week index {t} outside 1..{self.week_count}")

    @property
    def n_games(self) -> int:
        return len(self.games)

    def schedule_graph(self) -> tuple[list[str], np.ndarray, np.ndarray]:
        """The slice's schedule graph: teams and one winner-to-loser edge per game.

        Teams are listed in order of first appearance (each game's winner
        before its loser); the two int64 columns hold every game's winner and
        loser as indices into that list.
        """
        index: dict[str, int] = {}
        winner, loser = [], []
        for g in self.games:
            winner.append(index.setdefault(g.winner, len(index)))
            loser.append(index.setdefault(g.loser, len(index)))
        return list(index), np.array(winner, np.int64), np.array(loser, np.int64)

    def teams(self) -> list[str]:
        """Team names in order of first appearance."""
        return self.schedule_graph()[0]


def _week_start(d: date) -> date:
    """Monday of the ISO calendar week containing d."""
    return d - timedelta(days=d.isoweekday() - 1)


def build_slice(
    season: int, division: Division, stage: Stage, games: Iterable[Game]
) -> SeasonSlice:
    """Assemble a SeasonSlice, deriving week indices from the games' date span."""
    ordered = tuple(games)
    if not ordered:
        raise ValueError("cannot build a slice from zero games")
    first = min(_week_start(g.date) for g in ordered)
    last = max(_week_start(g.date) for g in ordered)
    week_count = (last - first).days // 7 + 1
    weeks = tuple((_week_start(g.date) - first).days // 7 + 1 for g in ordered)
    return SeasonSlice(
        season=season,
        division=division,
        stage=stage,
        games=ordered,
        week_count=week_count,
        weeks=weeks,
    )


def partition_seasons(games: Iterable[Game]) -> list[SeasonSlice]:
    """Split validated games into one slice per (season, division, stage).

    Every game lands in exactly one slice; input order is preserved within a
    slice, and slices are sorted by key for deterministic output.
    """
    groups: dict[tuple[int, str, str], list[Game]] = {}
    for g in games:
        groups.setdefault((g.season, g.division.value, g.stage.value), []).append(g)
    slices = []
    for (season, division, stage) in sorted(groups):
        members = groups[(season, division, stage)]
        slices.append(
            build_slice(season, Division(division), Stage(stage), members)
        )
    return slices


@dataclass(frozen=True)
class RatingTable:
    """Ratings for one method on one (season, division) of regular play.

    ranked marks eligibility for a published ranking (the iterative power
    method requires a 10-game minimum; least squares ranks everyone).
    ignored_games holds slice indices dropped by the blowout rule, and
    n_components counts connected components of the schedule graph: ratings
    are only comparable within a component.
    """

    method: Method
    season: int
    division: Division
    ratings: dict[str, float]
    ranked: dict[str, bool]
    ignored_games: frozenset[int] = field(default_factory=frozenset)
    iterations_used: int = 0
    converged: bool = True
    n_components: int = 1
