"""Iterative power rating: per-game differentials, weights, and the fixed point.

The rating differential a game awards grows concavely with margin, from 125
for any one-point game to a 600 cap hit exactly when the winning score more
than doubles the losing score. Team ratings are the weighted mean of per-game
targets, iterated from a uniform 1000 start; each game's targets straddle the
pair midpoint by the differential. Lopsided games (favorite by more than 600
beating the spread w > 2l + 1) are dropped each round, provided the winner
keeps at least five other counted results. The iteration reaches a fixed
point only if that ignored set settles. It can cycle instead, and then every
rating rises by one constant per period; a capped run ends such a cycle in
closed form.

The fixed point is a weighted least-squares rating. With the ignored set
fixed, a round maps r to r/2 + D^-1 (W r + 2C) / 2 (W: the kept weights k_g =
date x score weight between teams, D = diag(den), C_i: +-k_g * game_diff over
team i's kept games), a lazy Jacobi step on the kept-weight Laplacian D - W.
So it minimises the sum over kept games of k_g * (r_w - r_l - 2 * game_diff)^2,
each component of the kept games at the sum(den_i * r_i) that a round keeps.
leastsq differs in its target, its weights (1), the blowout rule (none) and
its level (zero mean per component).

invert_usau_diff, the inverse of game_diff that turns a rating gap back into
a predicted margin, lives here next to it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .domain import Method, RatingTable, SeasonSlice, Stage, check_scores, per_distinct

INITIAL_RATING = 1000.0
BASE_DIFF = 125.0
DIFF_SPAN = 475.0
SINE_PHASE = 0.4 * math.pi
MAX_DIFF = 600.0
BLOWOUT_GAP = 600.0
MIN_OTHER_RESULTS = 5
MIN_GAMES_RANKED = 10
SCORE_WEIGHT_DENOMINATOR = 19
CONVERGENCE_TOL = 1e-6
CYCLE_TOL = 1e-9

_SIN_PHASE = math.sin(SINE_PHASE)


@dataclass(frozen=True)
class UsauParams:
    """The power rating's iteration cap; the convergence tolerance is CONVERGENCE_TOL."""

    max_iterations: int = 10000

    def __post_init__(self):
        if self.max_iterations <= 0:
            raise ValueError("max_iterations must be positive")


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
    below 125 ramp linearly from 0 to the one-point margin; gaps above 600 are
    read as 600, giving w - (w-1)/2, the smallest margin that saturates it.
    Continuous and non-decreasing on [0, inf); margins are real-valued.
    Works elementwise on arrays of gaps and winning scores.
    """
    gap = np.asarray(rating_gap, np.float64)
    w = np.asarray(w)
    if np.any(gap < 0):
        raise ValueError(f"rating gap must be >= 0, got {gap[gap < 0].min()}")
    if np.any(w < 2):
        raise ValueError(f"winning score must be >= 2, got {w[w < 2].min()}")
    mid = gap >= BASE_DIFF
    # math.asin, not np.arcsin (it differs in the last bit on some inputs); exact at 600.
    sine = (np.minimum(gap[mid], MAX_DIFF) - BASE_DIFF) * _SIN_PHASE / DIFF_SPAN
    angle = np.zeros(gap.shape)
    angle[mid] = list(map(math.asin, sine.tolist()))
    losing = (w - 1) * (1.0 - angle / (2.0 * SINE_PHASE))
    return np.where(gap < BASE_DIFF, gap / BASE_DIFF, w - losing)[()]


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

    ignored holds the final round's dropped game indices, sorted, as int64.
    A round does only the work that changes. Candidates come only from the
    blowout games. den, the kept weight per team, is a function of the ignored
    set alone, so it is rebuilt only when the set differs from the previous
    round's; round 1 compares against the empty set, so a slice already at
    its fixed point converges in one round. Bit identity with the loop oracle
    in the tests: anchor + (-diff) equals anchor - diff exactly, and bincount
    over ends = [winner, loser] sums in game order, winners before losers.

    converged is the last round's test: a change below CONVERGENCE_TOL with
    the ignored set unchanged, which is the only way the loop ends early.

    Closed-form end: a round is shift-invariant, so once round k starts from
    the ratings that round j < k started from plus one constant, with the same
    ignored set and a change of set in between, every later period of k - j
    rounds adds that constant again. The one checkpoint j is refreshed at
    rounds 1, 2, 4, 8, ..., as in Brent's cycle detection. With cap - k =
    q * (k - j) + s and q >= 0, round k adds the q constants and runs as round
    k + q * (k - j); the s rounds left then run to the cap. With q = 0 the jump
    changes no bit: it adds 0, and no rating is ever -0.0 (each starts at 1000,
    then is a bincount sum begun at +0.0 over a positive den, or its old
    value, or one plus a finite shift). It needs the constant uniform to
    CYCLE_TOL, and every blowout gap since j farther than q * CYCLE_TOL from
    600, as q periods move a gap by at most that; so slices whose components
    rise at different rates never jump.
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
    den = np.bincount(ends, weights=kept_weight, minlength=n_teams)
    cap, iterations = params.max_iterations, 0
    # The checkpoint: a round j, the ratings it started from and its ignored set.
    saved_round, saved_ratings, saved_ignored = 0, ratings.copy(), ignored
    margin, changed = np.inf, False

    while iterations < cap:
        iterations += 1
        # Re-derive the ignored set from the current ratings. Single ordered
        # pass: counts only ever decrease, so no later pass can add more.
        # Without an at-risk winner among the candidates it drops them all
        # (see compute_usau); only otherwise does the ordered loop run.
        gap = ratings[bw] - ratings[bl]
        hit = gap > BLOWOUT_GAP
        ignored = bidx[hit]
        if at_risk[hit].any():
            ignored = np.array(_greedy_ignore(
                ignored.tolist(), bw[hit].tolist(), bl[hit].tolist(), games_per_team.tolist()
            ), np.int64)
        same_ignored = np.array_equal(ignored, prev_ignored)

        # The closed-form end (see above).
        here = np.abs(gap - BLOWOUT_GAP).min(initial=np.inf)
        margin = min(margin, here)
        changed = changed or not same_ignored
        if changed and np.array_equal(ignored, saved_ignored):
            period = iterations - saved_round
            q = (cap - iterations) // period
            rise = ratings - saved_ratings
            if np.ptp(rise) <= CYCLE_TOL and margin > q * CYCLE_TOL:
                ratings = ratings + q * rise.mean()
                iterations += q * period
        if iterations & (iterations - 1) == 0:
            saved_round, saved_ratings, saved_ignored = iterations, ratings.copy(), ignored
            margin, changed = here, False

        if not same_ignored:
            kept_weight[prev_ignored] = kept_weight[prev_ignored + m] = weight[prev_ignored]
            kept_weight[ignored] = kept_weight[ignored + m] = 0.0
            den = np.bincount(ends, weights=kept_weight, minlength=n_teams)

        # Weighted mean of per-game targets. Each game anchors at the pair
        # midpoint: winner target = anchor + diff, loser target = anchor - diff.
        # Teams with no kept weight keep their rating.
        at_ends = ratings[ends]
        anchor = 0.5 * (at_ends[:m] + at_ends[m:])
        np.add(anchor, signed[:m], out=targets[:m])
        np.add(anchor, signed[m:], out=targets[m:])
        targets *= kept_weight
        num = np.bincount(ends, weights=targets, minlength=n_teams)
        new_ratings = np.divide(num, den, out=ratings.copy(), where=den > 0.0)

        max_change = float(np.abs(new_ratings - ratings).max())
        ratings = new_ratings
        prev_ignored = ignored
        converged = max_change < CONVERGENCE_TOL and same_ignored
        if converged:
            break

    counted = games_per_team - np.bincount(ends[np.concatenate([ignored, ignored + m])],
                                           minlength=n_teams)
    return ratings, ignored, counted, iterations, converged


def compute_usau(season_slice: SeasonSlice, params: UsauParams | None = None) -> RatingTable:
    """Iterate the power rating on a regular-season slice to convergence.

    All teams start at 1000. Each round re-derives the blowout-ignored set
    from the current ratings (a game is dropped only while its winner keeps
    at least MIN_OTHER_RESULTS other counted results), then recomputes every
    rating simultaneously from the previous round's values as the weighted
    mean of per-game targets, weight = date_weight * score_weight. Teams
    whose games are all ignored keep their previous rating. Convergence
    requires the maximum rating change to fall below CONVERGENCE_TOL with an
    unchanged ignored set; otherwise the table is returned with
    converged=False after max_iterations rounds. When the ignored set cycles,
    confirmed at round k against checkpoint round j, with cap - k = q * (k - j)
    + s and q >= 0, round k adds q periods in closed form and the s rounds
    left then run to the cap (see _iterate): the ignored set and ranked flags
    are the round-by-round run's, and the ratings agree with it to about 1e-10
    at caps up to 10**6 (far caps lift the level, and the rounding with it).

    Teams with fewer than MIN_GAMES_RANKED counted games still receive
    ratings and still influence opponents, but are flagged ranked=False.

    The ignored set is the result of one pass over the candidate games in
    game order. It drops every candidate when no candidate's winner w has
    fewer than MIN_OTHER_RESULTS games besides the b_w blowout games it
    plays: counts only go down, and before the check on a game won by w at
    most b_w - 1 other games touching w can have been dropped. Only a round
    with such an at-risk winner runs the ordered loop.
    """
    params = params or UsauParams()
    if season_slice.stage is not Stage.REGULAR:
        raise ValueError("power ratings are computed from regular-season games only")

    s = season_slice
    diff, score_w, blowout = per_distinct((s.winning_score, s.losing_score), game_diff,
                                          score_weight, lambda w, l: w > 2 * l + 1)
    week = calendar_weeks(s.day)
    n_weeks = int(week.max())
    weight = per_distinct((week,), lambda t: date_weight(t, n_weeks))[0] * score_w

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
        ignored_games=frozenset(ignored.tolist()),
        iterations_used=int(iterations),
        converged=bool(converged),
    )
