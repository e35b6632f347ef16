"""Synthetic season generator for property tests and recovery studies.

Games are drawn from known true ratings: the raw differential between two
teams is their rating gap plus gaussian noise, the winner always reaches the
goal cap, and the loser's score encodes the (clamped, rounded) differential.
Identical specs generate identical seasons.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from datetime import date, timedelta

import numpy as np

from .domain import (
    DIVISIONS,
    INT64_MAX,
    STAGES,
    Division,
    GameTable,
    SeasonSlice,
    Stage,
    partition_seasons,
)

SCHEDULE_KINDS = ("round_robin", "pods", "random")


@dataclass(frozen=True)
class SynthSpec:
    """Recipe for one synthetic season.

    schedule: "round_robin" (every pair once), "pods" (round robin inside
    consecutive pods of pod_size teams, leaving the schedule graph
    disconnected), or "random" (n_games uniformly drawn pairings). Games
    are regular-season play, spread over n_weeks weeks from first_day.
    """

    true_ratings: dict[str, float]
    schedule: str = "round_robin"
    pod_size: int = 4
    n_games: int = 0
    noise_sd: float = 0.0
    cap: int = 15
    seed: int = 0
    season: int = 2000
    division: Division = Division.MENS
    n_weeks: int = 8

    @property
    def n_teams(self) -> int:
        return len(self.true_ratings)

    @property
    def first_day(self) -> date:
        """The first Monday of June, so that the slice spans exactly n_weeks calendar weeks."""
        june1 = date(self.season, 6, 1)
        return june1 + timedelta(days=(8 - june1.isoweekday()) % 7)

    def __post_init__(self):
        if self.n_teams < 2:
            raise ValueError("need at least two teams")
        if not all(map(math.isfinite, self.true_ratings.values())):
            raise ValueError("true ratings must be finite")
        if self.schedule not in SCHEDULE_KINDS:
            raise ValueError(f"unknown schedule {self.schedule!r}")
        if self.schedule == "pods" and self.pod_size < 2:
            raise ValueError("pod_size must be >= 2")
        if self.schedule == "random" and self.n_games < 1:
            raise ValueError("random schedule needs n_games >= 1")
        if not (self.noise_sd >= 0 and math.isfinite(self.noise_sd)):
            raise ValueError("noise_sd must be finite and >= 0")
        if not 2 <= self.cap <= INT64_MAX:
            raise ValueError(f"cap must be in 2..{INT64_MAX}")
        if not 1 <= self.season <= date.max.year:
            raise ValueError(f"season must be in 1..{date.max.year}")
        # The last game falls on day 7 * n_weeks - 1 after first_day.
        if not 1 <= self.n_weeks <= ((date.max - self.first_day).days + 1) // 7:
            raise ValueError(f"n_weeks must be >= 1, with the last week ending by {date.max}")


def _pairings(spec: SynthSpec, rng: np.random.Generator) -> list[tuple[int, int]]:
    n = spec.n_teams
    if spec.schedule != "random":
        # A round robin is one pod of all n teams.
        size = n if spec.schedule == "round_robin" else spec.pod_size
        pods = [range(start, min(start + size, n)) for start in range(0, n, size)]
        return [(i, j) for pod in pods for i in pod for j in pod if i < j]
    pairs = []
    while len(pairs) < spec.n_games:
        i, j = rng.integers(0, n, size=2)
        if i != j:
            pairs.append((int(i), int(j)))
    return pairs


def generate(spec: SynthSpec) -> SeasonSlice:
    """Play out the scheduled pairings and return them as a season slice.

    For a pairing (i, j): raw differential = true_i - true_j + noise; the
    higher side wins (an exact zero is a ValueError), winning score = cap,
    losing score = cap - round(clamp(|differential|, 1, cap - 1)). Dates
    spread uniformly over the spec's week span.
    """
    rng = np.random.default_rng(spec.seed)
    teams = list(spec.true_ratings)
    pairs = _pairings(spec, rng)

    start = spec.first_day.toordinal()
    span_days = 7 * spec.n_weeks - 1
    m = len(pairs)

    games = []
    for k, (i, j) in enumerate(pairs):
        # A noise_sd of 0 draws 0.0; every pairing is drawn first, so no draw moves.
        delta = spec.true_ratings[teams[i]] - spec.true_ratings[teams[j]] + rng.normal(0.0, spec.noise_sd)
        if delta == 0.0:
            raise ValueError(
                f"teams {teams[i]!r} and {teams[j]!r} tie exactly (rating gap plus "
                "noise is 0); no winner can be drawn"
            )
        winner, loser = (i, j) if delta > 0 else (j, i)
        # Clamped in integers: cap - 1.0 rounds away from cap - 1 above 2**53.
        gap = abs(delta)
        margin = spec.cap - 1 if gap >= spec.cap - 1 else 1 if gap <= 1 else round(gap)
        offset = round(k * span_days / max(m - 1, 1))
        games.append((winner, loser, spec.cap - margin, start + offset))

    winners, losers, losing, days = np.array(games, np.int64).T
    # Team codes index spec's teams; the partition keeps the teams that play,
    # in order of first appearance.
    table = GameTable(
        teams=tuple(teams), season=np.full(m, spec.season, np.int64),
        division=np.full(m, DIVISIONS.index(spec.division), np.int64),
        stage=np.full(m, STAGES.index(Stage.REGULAR), np.int64), day=days, winner=winners,
        loser=losers, winning_score=np.full(m, spec.cap, np.int64), losing_score=losing,
    )
    return partition_seasons(table)[0]

