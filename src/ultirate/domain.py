"""Core data types: validated games, game tables, season slices, and rating tables."""

from __future__ import annotations

import re
from dataclasses import dataclass, field, fields
from datetime import date
from enum import Enum
from functools import cached_property
from itertools import repeat
from typing import Callable, Iterable, Mapping

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


DIVISIONS = tuple(Division)
STAGES = tuple(Stage)

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

# Seasons and scores are held in int64 columns.
INT64_MAX = 2**63 - 1


class GameValidationError(ValueError):
    """A raw record cannot become a valid Game; carries a short reason code."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason} ({detail})" if detail else reason)
        self.reason = reason
        self.detail = detail


def normalize_team_name(raw: str) -> str:
    """Trim and collapse internal whitespace; case is preserved."""
    return " ".join(raw.split())


def parse_date(raw: str) -> date:
    """A yyyy-mm-dd date of ASCII digits, after stripping whitespace.

    Other ISO 8601 forms (20190601, 2019-W22-6), which fromisoformat accepts
    from Python 3.11 on, are a ValueError like any other text.
    """
    text = raw.strip()
    if not re.fullmatch(r"[0-9]{4}-[0-9]{2}-[0-9]{2}", text):
        raise ValueError(f"expected yyyy-mm-dd, got {raw!r}")
    return date.fromisoformat(text)


def check_scores(w: int, l: int) -> None:
    """Raise ValueError unless 0 <= l < w and w >= 2, the scores of a valid game."""
    if not 0 <= l < w:
        raise ValueError(f"scores must satisfy 0 <= losing < winning, got {w}-{l}")
    if w < 2:
        raise ValueError(f"winning score must be >= 2, got {w}")


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
    "bad date", "bad score", "tie", "same team", "degenerate score". A
    season or score outside the int64 range is a bad season or bad score.
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
    if not -INT64_MAX - 1 <= season <= INT64_MAX:
        raise GameValidationError("bad season", str(record["season"]))

    try:
        division = Division(str(record["division"]).strip())
    except ValueError:
        raise GameValidationError("bad division", str(record["division"])) from None

    try:
        stage = Stage(str(record["stage"]).strip())
    except ValueError:
        raise GameValidationError("bad stage", str(record["stage"])) from None

    try:
        played = parse_date(str(record["date"]))
    except ValueError:
        raise GameValidationError("bad date", str(record["date"])) from None

    try:
        score_a = int(str(record["score_a"]).strip())
        score_b = int(str(record["score_b"]).strip())
    except ValueError:
        raise GameValidationError(
            "bad score", f"{record['score_a']!r}, {record['score_b']!r}"
        ) from None
    if not (0 <= score_a <= INT64_MAX and 0 <= score_b <= INT64_MAX):
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


def _game_view(columns, seasons, divisions, stages) -> tuple[Game, ...]:
    """Game objects rebuilt from a table's or a slice's columns."""
    names = np.array(columns.teams, dtype=object)
    return tuple(map(
        Game, seasons, divisions, stages,
        map(date.fromordinal, columns.day.tolist()),
        columns.tournament.tolist(),
        names[columns.winner].tolist(),
        names[columns.loser].tolist(),
        columns.winning_score.tolist(),
        columns.losing_score.tolist(),
    ))


@dataclass(frozen=True, eq=False)
class GameTable:
    """Validated games as columns, one row per game in input order.

    The columns mirror Game's fields. division and stage hold indices into
    DIVISIONS and STAGES, day holds date ordinals, winner and loser hold
    indices into teams, and tournament holds names. All others are int64.
    """

    teams: tuple[str, ...]
    season: np.ndarray
    division: np.ndarray
    stage: np.ndarray
    day: np.ndarray
    tournament: np.ndarray
    winner: np.ndarray
    loser: np.ndarray
    winning_score: np.ndarray
    losing_score: np.ndarray

    def __len__(self) -> int:
        return len(self.season)

    @classmethod
    def from_games(cls, games: Iterable[Game]) -> GameTable:
        """The table of hand-built or generated Game objects, in the given order."""
        teams: dict[str, int] = {}
        rows = [(g.season, DIVISIONS.index(g.division), STAGES.index(g.stage),
                 g.date.toordinal(), g.tournament, teams.setdefault(g.winner, len(teams)),
                 teams.setdefault(g.loser, len(teams)), g.winning_score, g.losing_score)
                for g in games]
        columns = list(zip(*rows)) or [()] * len(GAME_FIELDS)
        return cls(tuple(teams), *(np.array(c, object if f.name == "tournament" else np.int64)
                                   for f, c in zip(fields(cls)[1:], columns)))

    @cached_property
    def games(self) -> tuple[Game, ...]:
        """The rows as Game objects, built on first access."""
        return _game_view(
            self, self.season.tolist(),
            map(DIVISIONS.__getitem__, self.division.tolist()),
            map(STAGES.__getitem__, self.stage.tolist()),
        )


@dataclass(frozen=True, eq=False)
class SeasonSlice:
    """All games of one (season, division, stage) as columns, in input order.

    teams lists the slice's teams in order of first appearance, each game's
    winner before its loser; winner and loser hold int64 indices into it.
    winning_score, losing_score and day (the date ordinal) are int64, and
    tournament holds names.
    """

    season: int
    division: Division
    stage: Stage
    teams: tuple[str, ...]
    winner: np.ndarray
    loser: np.ndarray
    winning_score: np.ndarray
    losing_score: np.ndarray
    day: np.ndarray
    tournament: np.ndarray

    def __post_init__(self):
        m, n = len(self.winner), len(self.teams)
        columns = (self.loser, self.winning_score, self.losing_score, self.day, self.tournament)
        if m == 0 or any(len(c) != m for c in columns):
            raise ValueError("a slice needs one or more games and one entry per game in each column")
        w, l = self.winning_score, self.losing_score
        if not np.all((0 <= self.winner) & (self.winner < n) & (0 <= self.loser)
                      & (self.loser < n) & (self.winner != self.loser)):
            raise ValueError("each game needs two different teams of the slice")
        if not np.all((0 <= l) & (l < w) & (w >= 2)):
            raise ValueError("scores must satisfy 0 <= losing < winning and winning >= 2")

    @property
    def n_games(self) -> int:
        return len(self.winner)

    @cached_property
    def games(self) -> tuple[Game, ...]:
        """The slice's games as Game objects, built on first access."""
        return _game_view(self, repeat(self.season), repeat(self.division), repeat(self.stage))

    @cached_property
    def _score_pairs(self) -> tuple[list[tuple[int, int]], np.ndarray]:
        """The distinct (winning, losing) pairs in lexicographic order, and each game's pair index."""
        order = np.lexsort((self.losing_score, self.winning_score))
        w, l = self.winning_score[order], self.losing_score[order]
        starts = np.ones(len(order), np.bool_)
        starts[1:] = (w[1:] != w[:-1]) | (l[1:] != l[:-1])
        inverse = np.empty(len(order), np.int64)
        inverse[order] = np.cumsum(starts) - 1
        return list(zip(w[starts].tolist(), l[starts].tolist())), inverse

    def per_score(self, fn: Callable[[int, int], float]) -> np.ndarray:
        """fn(winning_score, losing_score) for every game, called once per distinct score pair."""
        pairs, inverse = self._score_pairs
        return np.array([fn(w, l) for w, l in pairs])[inverse]


def _slice(table: GameTable, rows: np.ndarray) -> SeasonSlice:
    """The slice of the given table rows, which share one key and are in input order."""
    ends = np.column_stack([table.winner[rows], table.loser[rows]]).ravel()
    codes, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    local = np.empty(len(codes), np.int64)
    local[appearance] = np.arange(len(codes))
    winner, loser = local[inverse.ravel()].reshape(-1, 2).T
    return SeasonSlice(
        season=int(table.season[rows[0]]),
        division=DIVISIONS[table.division[rows[0]]],
        stage=STAGES[table.stage[rows[0]]],
        teams=tuple(table.teams[c] for c in codes[appearance].tolist()),
        winner=np.ascontiguousarray(winner),
        loser=np.ascontiguousarray(loser),
        winning_score=table.winning_score[rows],
        losing_score=table.losing_score[rows],
        day=table.day[rows],
        tournament=table.tournament[rows],
    )


def partition_seasons(table: GameTable) -> list[SeasonSlice]:
    """Split a game table into one slice per (season, division, stage).

    Every game lands in exactly one slice; input order is preserved within a
    slice, and slices are sorted by key for deterministic output.
    """
    if not len(table):
        return []
    order = np.lexsort((table.stage, table.division, table.season))  # stable
    keys = np.column_stack([table.season, table.division, table.stage])[order]
    starts = np.flatnonzero(np.any(keys[1:] != keys[:-1], axis=1)) + 1
    groups = np.split(order, starts)

    def key(rows):
        i = rows[0]
        return (int(table.season[i]), DIVISIONS[table.division[i]].value,
                STAGES[table.stage[i]].value)

    return [_slice(table, rows) for rows in sorted(groups, key=key)]


def build_slice(
    season: int, division: Division, stage: Stage, games: Iterable[Game]
) -> SeasonSlice:
    """Assemble a SeasonSlice from Game objects that all share the given key."""
    slices = partition_seasons(GameTable.from_games(games))
    if [(s.season, s.division, s.stage) for s in slices] != [(season, division, stage)]:
        raise ValueError(
            f"a slice needs one or more games, all of ({season}, {division.value}, {stage.value})"
        )
    return slices[0]


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

    def ranking(self, ranked_only: bool = False) -> list[tuple[str, float]]:
        """(team, rating) by rating descending, then name; ranked_only drops unranked teams."""
        return sorted(
            ((team, rating) for team, rating in self.ratings.items()
             if not ranked_only or self.ranked.get(team, True)),
            key=lambda kv: (-kv[1], kv[0]),
        )
