"""Least-squares ratings on the schedule graph.

Each game contributes one equation: winner rating minus loser rating equals
the game's score differential, normalized to a common 15-goal cap. The
solver returns the minimum-norm minimizer of the squared residual, which
sums to zero on every connected component of the schedule graph.

With A the game-by-team incidence matrix, the normal matrix AᵀA is the
schedule-graph Laplacian L (Massey, 1997), so the solve works on the n×n
system L r = Aᵀb and never forms the games-by-teams matrix A.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Division, Method, RatingTable, SeasonSlice, Stage

REFERENCE_CAP = 15


@dataclass(frozen=True)
class LsParams:
    reference_cap: int = REFERENCE_CAP

    def __post_init__(self):
        if self.reference_cap < 2:
            raise ValueError("reference_cap must be >= 2")


def normalize_diff(w: int, l: int, params: LsParams | None = None) -> float:
    """Score differential rescaled so the winning score becomes the cap.

    Both scores are scaled by reference_cap / w, so a 12-8 game counts the
    same as a 15-10 game: (w - l) * reference_cap / w.
    """
    params = params or LsParams()
    if not 0 <= l < w:
        raise ValueError(f"scores must satisfy 0 <= losing < winning, got {w}-{l}")
    if w < 2:
        raise ValueError(f"winning score must be >= 2, got {w}")
    return (w - l) * params.reference_cap / w


@dataclass(frozen=True)
class ScheduleSystem:
    """Winner-oriented game equations over an indexed team set.

    components partitions the column indices into connected components of
    the undirected schedule multigraph.
    """

    season: int
    division: Division
    team_index: dict[str, int]
    winner_col: np.ndarray
    loser_col: np.ndarray
    diffs: np.ndarray
    components: tuple[tuple[int, ...], ...]

    @property
    def n_teams(self) -> int:
        return len(self.team_index)

    @property
    def n_games(self) -> int:
        return int(self.winner_col.shape[0])


def _connected_components(n: int, edges_a: np.ndarray, edges_b: np.ndarray):
    """Components of the schedule graph, each in ascending order, ordered by smallest member.

    Min-label propagation: every team starts labelled with its own index;
    each sweep lowers both ends of every edge to the smaller of their labels,
    then follows labels to their labels. A label only ever falls to a member
    of the same component, so once a sweep changes nothing every team carries
    its component's smallest index.
    """
    label = np.arange(n)
    while True:
        before = label.copy()
        np.minimum.at(label, edges_a, label[edges_b])
        np.minimum.at(label, edges_b, label[edges_a])
        label = label[label]
        if np.array_equal(label, before):
            break
    members = np.argsort(label, kind="stable")
    bounds = np.flatnonzero(np.diff(label[members])) + 1
    return tuple(tuple(part.tolist()) for part in np.split(members, bounds))


def build_system(
    season_slice: SeasonSlice, params: LsParams | None = None
) -> ScheduleSystem:
    """One equation per game; columns indexed by first appearance in game order."""
    params = params or LsParams()
    if season_slice.stage is not Stage.REGULAR:
        raise ValueError("ratings are computed from regular-season games only")

    teams = season_slice.teams
    return ScheduleSystem(
        season=season_slice.season,
        division=season_slice.division,
        team_index={team: i for i, team in enumerate(teams)},
        winner_col=season_slice.winner,
        loser_col=season_slice.loser,
        diffs=season_slice.per_score(lambda w, l: normalize_diff(w, l, params)),
        components=_connected_components(len(teams), season_slice.winner, season_slice.loser),
    )


def solve_ratings(system: ScheduleSystem) -> RatingTable:
    """Minimum-norm least-squares ratings for the schedule system.

    Solves the normal equations L r = Aᵀb. L is singular along the indicator
    1_c of each connected component c, so the solve uses L + Σ_c 1_c 1_cᵀ / n_c:
    nonsingular, with the same solution on the subspace where the ratings
    sum to zero on each component. The residual ‖L r − Aᵀb‖ must be at most
    1e-9 relative to Aᵀb, and a NaN residual fails. All teams are ranked:
    the least-squares method imposes no game minimum.
    """
    if system.n_games == 0:
        raise ValueError("cannot solve an empty system")

    n = system.n_teams
    w, l, b = system.winner_col, system.loser_col, system.diffs
    pair = np.bincount(w * n + l, minlength=n * n).reshape(n, n)
    lap = np.diag(pair.sum(axis=0) + pair.sum(axis=1)) - pair - pair.T
    atb = np.bincount(w, b, n) - np.bincount(l, b, n)

    shifted = lap.astype(np.float64)
    for comp in system.components:
        idx = np.array(comp)
        shifted[np.ix_(idx, idx)] += 1.0 / len(comp)
    ratings = np.linalg.solve(shifted, atb)
    for comp in system.components:
        idx = list(comp)
        ratings[idx] -= ratings[idx].mean()

    residual = np.linalg.norm(lap @ ratings - atb)
    if not residual <= 1e-9 * np.linalg.norm(atb) + 1e-12:
        raise ArithmeticError(
            f"normal-equation residual {residual:.3e} exceeds tolerance"
        )

    return RatingTable(
        method=Method.LEASTSQ,
        season=system.season,
        division=system.division,
        ratings={team: float(ratings[i]) for team, i in system.team_index.items()},
        ranked={team: True for team in system.team_index},
        n_components=len(system.components),
    )


def compute_leastsq(
    season_slice: SeasonSlice, params: LsParams | None = None
) -> RatingTable:
    """Convenience wrapper: build the system from a slice and solve it."""
    return solve_ratings(build_system(season_slice, params))
