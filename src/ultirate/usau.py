"""Iterative power rating: per-game differentials, weights, and the fixed point.

The rating differential a game awards grows concavely with margin, from 125
for any one-point game to a 600 cap hit exactly when the winning score more
than doubles the losing score. Team ratings are the weighted mean of per-game
targets, iterated to a fixed point from a uniform 1000 start; each game's
targets straddle the pair midpoint by the differential, which keeps the
iteration convergent and anchored on every schedule graph. Lopsided games
(favorite by more than 600 beating the spread w > 2l + 1) are dropped each
round, provided the winner keeps at least five other counted results.

invert_usau_diff, the inverse of game_diff that turns a rating gap back into
a predicted margin, lives here next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Method, RatingTable, SeasonSlice, Stage, check_scores

INITIAL_RATING = 1000.0
BASE_DIFF = 125.0
DIFF_SPAN = 475.0
SINE_PHASE = 0.4 * math.pi
MAX_DIFF = 600.0
BLOWOUT_GAP = 600.0
MIN_OTHER_RESULTS = 5
MIN_GAMES_RANKED = 10
SCORE_WEIGHT_DENOMINATOR = 19

_SIN_PHASE = math.sin(SINE_PHASE)


@dataclass(frozen=True)
class UsauParams:
    """The stopping knobs for the power rating."""

    convergence_tol: float = 1e-6
    max_iterations: int = 10000

    def __post_init__(self):
        for name in ("convergence_tol", "max_iterations"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if not math.isfinite(self.convergence_tol):
            raise ValueError("convergence_tol must be finite")


def game_diff(w: int, l: int) -> float:
    """Rating differential earned by the winner of a w-l game, in [125, 600].

    125 + 475 * sin(min(1, 2*(1 - l/(w-1))) * 0.4pi) / sin(0.4pi): every
    one-point game is worth exactly 125, each extra goal is worth more in
    close games than in lopsided ones, and the 600 maximum is reached exactly
    when w > 2l.
    """
    check_scores(w, l)
    frac = min(1.0, 2.0 * (1.0 - l / (w - 1)))
    return BASE_DIFF + DIFF_SPAN * math.sin(frac * SINE_PHASE) / _SIN_PHASE


def invert_usau_diff(rating_gap, w):
    """Predicted margin for a rating gap, inverting the per-game differential.

    For gaps in [125, 600] this is the exact inverse of game_diff at winning
    score w: w - (w-1)*(1 - arcsin((gap-125)*sin(0.4pi)/475)/(0.8pi)). Gaps
    below 125 ramp linearly from 0 to the one-point margin; gaps above 600
    return the smallest margin that saturates the differential, w - (w-1)/2.
    Continuous and non-decreasing on [0, inf); margins are real-valued.
    Works elementwise on arrays of gaps and winning scores.
    """
    gap = np.asarray(rating_gap, np.float64)
    w = np.asarray(w)
    if np.any(gap < 0):
        raise ValueError(f"rating gap must be >= 0, got {gap[gap < 0].min()}")
    if np.any(w < 2):
        raise ValueError(f"winning score must be >= 2, got {w[w < 2].min()}")
    mid = (gap >= BASE_DIFF) & (gap <= MAX_DIFF)
    # math.asin, not np.arcsin: the two differ in the last bit on some inputs.
    angle = np.zeros(gap.shape)
    angle[mid] = list(map(math.asin, ((gap[mid] - BASE_DIFF) * _SIN_PHASE / DIFF_SPAN).tolist()))
    losing = (w - 1) * (1.0 - angle / (2.0 * SINE_PHASE))
    margin = np.where(
        gap < BASE_DIFF, gap / BASE_DIFF,
        np.where(gap > MAX_DIFF, w - (w - 1) / 2.0, w - losing),
    )
    return margin[()]


def calendar_weeks(day: np.ndarray) -> np.ndarray:
    """Each date ordinal's 1-based calendar week, Monday to Sunday, from day's first week.

    Ordinal 1 (0001-01-01) is a Monday. The largest index is the number of weeks spanned.
    """
    week = (day - 1) // 7
    return week - week.min() + 1


def date_weight(t: int, n: int) -> float:
    """Weight 2**((t/n) - 1) for a game in week t of an n-week season."""
    if not 1 <= t <= n:
        raise ValueError(f"week index {t} outside 1..{n}")
    return 2.0 ** (t / n - 1.0)


def score_weight(w: int, l: int) -> float:
    """Weight min(1, sqrt((w + max(l, floor((w-1)/2))) / 19)).

    Discounts games with unusually small goal caps; any game won with 13 or
    more goals carries full weight.
    """
    check_scores(w, l)
    return min(1.0, math.sqrt((w + max(l, (w - 1) // 2)) / SCORE_WEIGHT_DENOMINATOR))


def _greedy_ignore(games, winners, losers, counts):
    """The ordered blowout pass over candidate games, given as Python ints.

    Drops each candidate in game order while its winner keeps at least
    MIN_OTHER_RESULTS other counted results, decrementing counts in place.
    Returns the dropped game indices.
    """
    dropped = []
    for g, w, l in zip(games, winners, losers):
        if counts[w] - 1 >= MIN_OTHER_RESULTS:
            dropped.append(g)
            counts[w] -= 1
            counts[l] -= 1
    return dropped


def _iterate(winner, loser, diff, weight, blowout, n_teams, params: UsauParams):
    """Run the rating rounds; returns (ratings, ignored, counted, iterations, converged).

    A round does only the work that changes. Candidates come only from the
    blowout games. den, the kept weight per team, is a function of the ignored
    set alone, so it is rebuilt only when the set differs from the previous
    round's; round 1 compares against the empty set, so a slice already at
    its fixed point converges in one round. Bit identity with the loop oracle
    in the tests: anchor + (-diff) equals anchor - diff exactly, and bincount
    over ends = [winner, loser] sums in game order, winners before losers.
    """
    m = winner.shape[0]
    ratings = np.full(n_teams, INITIAL_RATING, dtype=np.float64)
    ends = np.concatenate([winner, loser])
    games_per_team = np.bincount(ends, minlength=n_teams)
    signed = np.concatenate([diff, -diff])
    kept_weight = np.concatenate([weight, weight])
    targets = np.empty(2 * m, np.float64)
    bidx = np.flatnonzero(blowout)
    bw, bl = winner[bidx], loser[bidx]
    # Only a winner with fewer than MIN_OTHER_RESULTS games besides its
    # blowouts can make the ordered loop drop less than every candidate.
    blowouts_per_team = np.bincount(bw, minlength=n_teams) + np.bincount(bl, minlength=n_teams)
    at_risk = (games_per_team - blowouts_per_team < MIN_OTHER_RESULTS)[bw]

    ignored = prev_ignored = bidx[:0]
    iterations = 0
    converged = False

    for _ in range(params.max_iterations):
        iterations += 1

        # Re-derive the ignored set from the current ratings. Single ordered
        # pass: counts only ever decrease, so no later pass can add more.
        # It drops exactly the candidates when each candidate's winner keeps
        # MIN_OTHER_RESULTS games with all candidates dropped (see
        # compute_usau); only otherwise does the ordered loop run.
        hit = ratings[bw] - ratings[bl] > BLOWOUT_GAP
        ignored = bidx[hit]
        if at_risk[hit].any():
            cw, cl = bw[hit], bl[hit]
            touched = np.bincount(cw, minlength=n_teams) + np.bincount(cl, minlength=n_teams)
            if not np.all(games_per_team[cw] - touched[cw] >= MIN_OTHER_RESULTS):
                ignored = np.array(_greedy_ignore(
                    ignored.tolist(), cw.tolist(), cl.tolist(), games_per_team.tolist()
                ), np.int64)
        same_ignored = np.array_equal(ignored, prev_ignored)
        if iterations == 1 or not same_ignored:
            kept_weight[prev_ignored] = kept_weight[prev_ignored + m] = weight[prev_ignored]
            kept_weight[ignored] = kept_weight[ignored + m] = 0.0
            den = np.bincount(ends, weights=kept_weight, minlength=n_teams)
            has_weight = den > 0.0

        # Weighted mean of per-game targets. Each game anchors at the pair
        # midpoint: winner target = anchor + diff, loser target = anchor - diff.
        # Teams with no kept weight keep their rating.
        at_ends = ratings[ends]
        anchor = 0.5 * (at_ends[:m] + at_ends[m:])
        np.add(anchor, signed[:m], out=targets[:m])
        np.add(anchor, signed[m:], out=targets[m:])
        targets *= kept_weight
        num = np.bincount(ends, weights=targets, minlength=n_teams)
        new_ratings = ratings.copy()
        np.divide(num, den, out=new_ratings, where=has_weight)

        ratings -= new_ratings
        max_change = float(np.abs(ratings, out=ratings).max())
        ratings = new_ratings
        prev_ignored = ignored
        if max_change < params.convergence_tol and same_ignored:
            converged = True
            break

    mask = np.zeros(m, np.bool_)
    mask[ignored] = True
    counted = games_per_team - np.bincount(ends[np.tile(mask, 2)], minlength=n_teams)

    return ratings, mask, counted, iterations, converged


def compute_usau(season_slice: SeasonSlice, params: UsauParams | None = None) -> RatingTable:
    """Iterate the power rating on a regular-season slice to convergence.

    All teams start at 1000. Each round re-derives the blowout-ignored set
    from the current ratings (a game is dropped only while its winner keeps
    at least MIN_OTHER_RESULTS other counted results), then recomputes every
    rating simultaneously from the previous round's values as the weighted
    mean of per-game targets, weight = date_weight * score_weight. Teams
    whose games are all ignored keep their previous rating. Convergence
    requires the maximum rating change to fall below convergence_tol with an
    unchanged ignored set; otherwise the table is returned with
    converged=False after max_iterations rounds.

    Teams with fewer than MIN_GAMES_RANKED counted games still receive
    ratings and still influence opponents, but are flagged ranked=False.

    The ignored set is the result of one pass over the candidate games in
    game order. When every candidate's winner keeps MIN_OTHER_RESULTS games
    even with all candidates dropped, the pass drops every candidate: counts
    only go down, and before any check on a winner w at most c_w - 1 other
    candidates touching w (c_w of them in all) can have been dropped. That
    case is taken without the loop; the ordered loop runs otherwise.
    """
    params = params or UsauParams()
    if season_slice.stage is not Stage.REGULAR:
        raise ValueError("power ratings are computed from regular-season games only")

    s = season_slice
    weeks, week_of_game = np.unique(calendar_weeks(s.day), return_inverse=True)
    weeks = weeks.tolist()
    week_weight = np.array([date_weight(t, weeks[-1]) for t in weeks])
    diff = s.per_score(game_diff)
    weight = week_weight[week_of_game] * s.per_score(score_weight)
    blowout = s.per_score(lambda w, l: w > 2 * l + 1)

    ratings, ignored, counted, iterations, converged = _iterate(
        s.winner, s.loser, diff, weight, blowout, len(s.teams), params
    )

    return RatingTable(
        method=Method.USAU,
        season=s.season,
        division=s.division,
        ratings=dict(zip(s.teams, ratings.tolist())),
        ranked={
            team: c >= MIN_GAMES_RANKED for team, c in zip(s.teams, counted.tolist())
        },
        ignored_games=frozenset(np.flatnonzero(ignored).tolist()),
        iterations_used=int(iterations),
        converged=bool(converged),
    )
