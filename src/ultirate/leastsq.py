"""Least-squares ratings on the schedule graph.

Each game contributes one equation: winner rating minus loser rating equals
the game's score differential, normalized to a common 15-goal cap. The
solver returns the minimum-norm minimizer of the squared residual, which
sums to zero on every connected component of the schedule graph.

With A the game-by-team incidence matrix, the normal matrix AᵀA is the
schedule-graph Laplacian L (Massey, 1997). The solve never forms A or L: it
runs conjugate gradient (Hestenes & Stiefel, 1952) on L r = Aᵀb straight
from the game list, preconditioned by each team's game count (Jacobi). One
product L x costs two gathers and two bincounts over the games, so the
solve takes O(games) memory and calls no LAPACK routine. It starts from 0
and stops once the recurrence residual is at most 1e-14 ‖Aᵀb‖, or after one
iteration per team. A guard then checks the true residual ‖L r − Aᵀb‖
through the same product and raises ArithmeticError above 1e-9 relative.

predict_ls_diff, the inverse of normalize_diff that scales a rating
difference back to a game's own cap, lives here next to it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .domain import Method, RatingTable, SeasonSlice, Stage, check_scores, per_distinct

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
    check_scores(w, l)
    return (w - l) * params.reference_cap / w


def predict_ls_diff(rating_i, rating_j, w, params: LsParams | None = None):
    """Rating difference scaled back from the reference cap to the game's cap.

    Works elementwise on arrays of ratings and winning scores.
    """
    params = params or LsParams()
    scores = np.asarray(w)
    if np.any(scores < 2):
        raise ValueError(f"winning score must be >= 2, got {scores[scores < 2].min()}")
    return abs(rating_i - rating_j) * w / params.reference_cap


@dataclass(frozen=True)
class ScheduleSystem:
    """One equation per game of a slice: rating(winner) - rating(loser) = diffs[g].

    Team i is season_slice.teams[i]. component[i] labels team i's connected
    component of the undirected schedule multigraph; the labels run 0, 1, ...
    in order of each component's smallest team index.
    """

    season_slice: SeasonSlice
    diffs: np.ndarray
    component: np.ndarray

    @property
    def n_components(self) -> int:
        return int(self.component.max()) + 1


def _connected_components(n: int, edges_a: np.ndarray, edges_b: np.ndarray) -> np.ndarray:
    """Component label per team, numbered 0, 1, ... in order of smallest member.

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
    return np.unique(label, return_inverse=True)[1]


def build_system(
    season_slice: SeasonSlice, params: LsParams | None = None
) -> ScheduleSystem:
    """One equation per game of a regular-season slice, over the slice's team indices."""
    if season_slice.stage is not Stage.REGULAR:
        raise ValueError("ratings are computed from regular-season games only")

    s = season_slice
    return ScheduleSystem(
        season_slice=s,
        diffs=per_distinct((s.winning_score, s.losing_score),
                           lambda w, l: normalize_diff(w, l, params))[0],
        component=_connected_components(len(s.teams), s.winner, s.loser),
    )


def _laplacian_times(w: np.ndarray, l: np.ndarray, x: np.ndarray) -> np.ndarray:
    """L x for the Laplacian of the games (w[g], l[g]), without forming L."""
    d = x[w] - x[l]
    return np.bincount(w, d, len(x)) - np.bincount(l, d, len(x))


def _conjugate_gradient(w: np.ndarray, l: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """A solution of L x = rhs by CG from 0, preconditioned by the game counts.

    rhs sums to zero on every component, so the system is consistent though
    L is singular. Stops once ‖residual‖ ≤ 1e-14 ‖rhs‖ (at once when rhs is 0
    or NaN) or after len(rhs) iterations; the caller checks the result. A
    team without games keeps x = 0, its divisor raised to 1.
    """
    n = len(rhs)
    degree = np.maximum(np.bincount(w, minlength=n) + np.bincount(l, minlength=n), 1)
    x, r = np.zeros(n), rhs.copy()
    p = r / degree
    rz = r @ p
    stop = 1e-14 * np.linalg.norm(rhs)
    for _ in range(n):
        if not np.linalg.norm(r) > stop:
            break
        lp = _laplacian_times(w, l, p)
        alpha = rz / (p @ lp)
        x += alpha * p
        r -= alpha * lp
        z = r / degree
        rz, rz_old = r @ z, rz
        p = z + (rz / rz_old) * p
    return x


def solve_ratings(system: ScheduleSystem) -> RatingTable:
    """Minimum-norm least-squares ratings for the schedule system.

    Solves the normal equations L r = Aᵀb by conjugate gradient on the game
    list, preconditioned by the game counts, from r = 0. It stops once the
    recurrence residual is at most 1e-14 ‖Aᵀb‖, or after one iteration per
    team. L is singular along the indicator of each connected component, so
    CG returns one of the minimizers; subtracting each component's mean gives
    the minimum-norm one, whose ratings sum to zero on every component. The
    guard then recomputes the true residual ‖L r − Aᵀb‖: above 1e-9 relative
    to Aᵀb, or NaN, it raises ArithmeticError. All teams are ranked: the
    least-squares method imposes no game minimum.
    """
    s = system.season_slice
    n = len(s.teams)
    w, l, b = s.winner, s.loser, system.diffs
    atb = np.bincount(w, b, n) - np.bincount(l, b, n)

    c = system.component
    ratings = _conjugate_gradient(w, l, atb)
    ratings -= (np.bincount(c, ratings) / np.bincount(c))[c]

    residual = np.linalg.norm(_laplacian_times(w, l, ratings) - atb)
    if not residual <= 1e-9 * np.linalg.norm(atb) + 1e-12:
        raise ArithmeticError(
            f"normal-equation residual {residual:.3e} exceeds tolerance"
        )

    return RatingTable(
        method=Method.LEASTSQ,
        season=s.season,
        division=s.division,
        ratings=dict(zip(s.teams, ratings.tolist())),
        ranked=dict.fromkeys(s.teams, True),
        n_components=system.n_components,
    )


def compute_leastsq(
    season_slice: SeasonSlice, params: LsParams | None = None
) -> RatingTable:
    """Convenience wrapper: build the system from a slice and solve it."""
    return solve_ratings(build_system(season_slice, params))
