"""Core data types: game tables, season slices, and rating tables."""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from datetime import date
from enum import Enum
from typing import Callable

import numpy as np


# Declared in value order, so partition_seasons' lexsort gives the published order.
class Division(Enum):
    MENS = "mens"
    MIXED = "mixed"
    WOMENS = "womens"


class Stage(Enum):
    POST = "post"
    REGULAR = "regular"


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


@dataclass(frozen=True, eq=False)
class GameTable:
    """Validated games as columns, one row per game in input order.

    Each row is oriented winner-first, with 0 <= losing_score <
    winning_score and winning_score >= 2 (ultimate has no ties). All columns
    are int64: division and stage hold indices into DIVISIONS and STAGES, day
    holds date ordinals, and winner and loser hold indices into teams.
    """

    teams: tuple[str, ...]
    season: np.ndarray
    division: np.ndarray
    stage: np.ndarray
    day: np.ndarray
    winner: np.ndarray
    loser: np.ndarray
    winning_score: np.ndarray
    losing_score: np.ndarray

    def __len__(self) -> int:
        return len(self.season)


@dataclass(frozen=True, eq=False)
class SeasonSlice:
    """All games of one (season, division, stage) as columns, in input order.

    teams lists the slice's teams in order of first appearance, each game's
    winner before its loser; winner and loser hold int64 indices into it.
    winning_score, losing_score and day (the date ordinal) are int64.
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

    def __post_init__(self):
        m, n = len(self.winner), len(self.teams)
        if m == 0 or any(len(c) != m for c in (self.loser, self.winning_score,
                                                self.losing_score, self.day)):
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


def group_rows(*keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The rows' stable lexicographic order by int64 key columns, and where each equal-key run starts."""
    order = np.lexsort(keys[::-1])
    starts = np.zeros(len(order), np.bool_)
    starts[:1] = True
    for key in (k[order] for k in keys):
        starts[1:] |= key[1:] != key[:-1]
    return order, np.flatnonzero(starts)


def per_distinct(keys: tuple[np.ndarray, ...], *rules: Callable[..., object]) -> list[np.ndarray]:
    """Each rule's value at every row's keys, called once per distinct key row in lexicographic order."""
    order, starts = group_rows(*keys)
    inverse = np.empty(len(order), np.int64)
    inverse[order] = np.repeat(np.arange(len(starts)), np.diff(starts, append=len(order)))
    distinct = list(zip(*(k[order[starts]].tolist() for k in keys)))
    return [np.array([rule(*row) for row in distinct])[inverse] for rule in rules]


def _slice(table: GameTable, rows: np.ndarray) -> SeasonSlice:
    """The slice of the given table rows, which share one key and are in input order."""
    ends = np.column_stack([table.winner[rows], table.loser[rows]]).ravel()
    codes, first, inverse = np.unique(ends, return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    local = np.empty(len(codes), np.int64)
    local[appearance] = np.arange(len(codes))
    return SeasonSlice(
        season=int(table.season[rows[0]]),
        division=DIVISIONS[table.division[rows[0]]],
        stage=STAGES[table.stage[rows[0]]],
        teams=tuple(table.teams[c] for c in codes[appearance].tolist()),
        winner=local[inverse[0::2]],
        loser=local[inverse[1::2]],
        winning_score=table.winning_score[rows],
        losing_score=table.losing_score[rows],
        day=table.day[rows],
    )


def partition_seasons(table: GameTable) -> list[SeasonSlice]:
    """Split a game table into one slice per (season, division, stage).

    Every game lands in exactly one slice; input order is preserved within a
    slice, and slices are sorted by key for deterministic output.
    """
    order, starts = group_rows(table.season, table.division, table.stage)
    return [_slice(table, rows) for rows in np.split(order, starts)[1:]]


# Published ratings and metrics carry this many decimals (ingest.format_decimal).
DECIMALS = 6


@dataclass(frozen=True)
class RatingTable:
    """Ratings for one method on one (season, division) of regular play.

    ranked marks eligibility for a published ranking (the iterative power
    method requires a 10-game minimum; least squares ranks everyone).
    ignored_games holds slice indices dropped by the blowout rule. Only least
    squares sets n_components, the connected components of the schedule graph
    (ratings are only comparable within one); power-rating tables leave it at 1.
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
        """(team, rating), best published rating first, ties by name; ranked_only drops unranked.

        The published rating is round(rating, DECIMALS), the double nearest the
        printed decimal, so ratings that print the same (-0.000000 and 0.000000
        included) tie and go by name.
        """
        return sorted(
            ((team, rating) for team, rating in self.ratings.items()
             if not ranked_only or self.ranked[team]),
            key=lambda kv: (-round(kv[1], DECIMALS), kv[0]),
        )
