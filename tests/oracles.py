"""Independent oracles for the test suite.

The solver oracles are written against plain numpy, without touching the
package under test, so they serve as a second route for checking the
production implementations. The power-rating oracles take each game's
differential and weight from the package's scalar formulas (game_diff,
date_weight, score_weight). The per-row loops further down are the reader,
prediction and violation code the columnar implementations replaced, kept as
they were; they build and read the Game rows of tests/helpers.py. The reader
loop checks each row with validate_game, the per-row form of the reader's
rules: it raises at the first failing check, so its reason is the one the
reader must report; it also lists the teams in the order the reader codes
them. It calls only the package's field parsers
(normalize_team_name, parse_date); the other loops call only its scalar rules
(predict_ls_diff, game_diff) and its record types.
"""

from __future__ import annotations

import csv
import math
from datetime import timedelta
from pathlib import Path

import numpy as np

from ultirate.domain import (
    GAME_FIELDS,
    INT64_MAX,
    Division,
    Method,
    Stage,
    normalize_team_name,
    parse_date,
)
from ultirate.ingest import IngestError, Rejection
from ultirate.leastsq import LsParams
from ultirate.predict import PredictionEntry, predict_ls_diff
from ultirate.usau import (
    BASE_DIFF,
    BLOWOUT_GAP,
    DIFF_SPAN,
    MAX_DIFF,
    SINE_PHASE,
    date_weight,
    game_diff,
    score_weight,
)

from helpers import Game, games_of


def components_brute(n_teams: int, edges: list[tuple[int, int]]) -> list[set[int]]:
    """Connected components by repeated sweeping (no union-find)."""
    remaining = set(range(n_teams))
    comps = []
    while remaining:
        frontier = {min(remaining)}
        comp: set[int] = set()
        while frontier:
            comp |= frontier
            nxt = set()
            for a, b in edges:
                if a in comp and b not in comp:
                    nxt.add(b)
                if b in comp and a not in comp:
                    nxt.add(a)
            frontier = nxt
        comps.append(comp)
        remaining -= comp
    return comps


def least_squares_pgd(
    edges: list[tuple[int, int]],
    diffs: list[float],
    n_teams: int,
    max_iters: int = 500_000,
    tol: float = 1e-13,
) -> np.ndarray:
    """Projected gradient descent on ||A r - b||^2 with per-component zero-sum.

    Builds the winner/loser incidence matrix directly from the edge list and
    descends from the origin with a step size set by the Gershgorin bound on
    the normal matrix; each step re-centers every schedule component to sum
    zero. Run to tight convergence, this is the reference minimizer.
    """
    m = len(edges)
    a = np.zeros((m, n_teams))
    for row, (w, l) in enumerate(edges):
        a[row, w] = 1.0
        a[row, l] = -1.0
    b = np.asarray(diffs, float)

    comps = components_brute(n_teams, edges)
    gram = a.T @ a
    step = 1.0 / (2.0 * np.abs(gram).sum(axis=1).max())

    r = np.zeros(n_teams)
    for _ in range(max_iters):
        grad = 2.0 * (a.T @ (a @ r - b))
        r_new = r - step * grad
        for comp in comps:
            idx = sorted(comp)
            r_new[idx] -= r_new[idx].mean()
        if np.max(np.abs(r_new - r)) < tol:
            return r_new
        r = r_new
    return r


def least_squares_dense(
    edges: list[tuple[int, int]], diffs: list[float], n_teams: int
) -> np.ndarray:
    """Minimum-norm least squares through the dense games-by-teams matrix.

    Builds the winner/loser incidence matrix A, takes np.linalg.lstsq's
    minimum-norm solution of A r = b (an SVD), and re-centers each schedule
    component to sum zero.
    """
    a = np.zeros((len(edges), n_teams))
    for row, (w, l) in enumerate(edges):
        a[row, w] = 1.0
        a[row, l] = -1.0
    r, *_ = np.linalg.lstsq(a, np.asarray(diffs, float), rcond=None)
    for comp in components_brute(n_teams, edges):
        idx = sorted(comp)
        r[idx] -= r[idx].mean()
    return r


def violations_brute(
    ratings: dict[str, float], results: list[tuple[str, str]]
) -> tuple[int, int, int]:
    """(violations, ties, total) by direct enumeration of (winner, loser) pairs."""
    violations = ties = total = 0
    for winner, loser in results:
        if winner not in ratings or loser not in ratings:
            continue
        total += 1
        if ratings[loser] > ratings[winner]:
            violations += 1
        elif ratings[loser] == ratings[winner]:
            ties += 1
    return violations, ties, total


def iterate_loops(
    winner, loser, diff, weight, blowout, n_teams,
    initial_rating, gap_limit, min_other, tol, max_iters, candidates_per_round=None,
    ignored_per_round=None, ratings_per_round=None,
):
    """The power-rating rounds as plain per-game loops.

    Returns (ratings, ignored, counted, iterations, converged). Contributions
    accumulate in game order, all winners before all losers, which is the
    order of the vectorized kernel's bincount over [winner, loser], so the
    two agree bit for bit. If candidates_per_round is a list, the number of
    blowout candidates of each round is appended to it; if ignored_per_round
    is a list, each round's ignored set, as a frozenset of game indices; if
    ratings_per_round is a list, a copy of each round's new ratings.
    """
    m = winner.shape[0]
    ratings = np.full(n_teams, initial_rating)
    new_ratings = np.empty(n_teams, np.float64)
    num = np.zeros(n_teams, np.float64)
    den = np.zeros(n_teams, np.float64)

    games_per_team = np.zeros(n_teams, np.int64)
    for g in range(m):
        games_per_team[winner[g]] += 1
        games_per_team[loser[g]] += 1

    prev_ignored = np.zeros(m, np.bool_)
    ignored = np.zeros(m, np.bool_)
    iterations = 0
    converged = False

    for _ in range(max_iters):
        iterations += 1

        # Re-derive the ignored set from the current ratings. Single ordered
        # pass: counts only ever decrease, so no later pass can add more.
        ignored = np.zeros(m, np.bool_)
        non_ignored = games_per_team.copy()
        candidates = 0
        for g in range(m):
            if blowout[g] and ratings[winner[g]] - ratings[loser[g]] > gap_limit:
                candidates += 1
                if non_ignored[winner[g]] - 1 >= min_other:
                    ignored[g] = True
                    non_ignored[winner[g]] -= 1
                    non_ignored[loser[g]] -= 1
        if candidates_per_round is not None:
            candidates_per_round.append(candidates)
        if ignored_per_round is not None:
            ignored_per_round.append(frozenset(np.flatnonzero(ignored).tolist()))

        # Weighted mean of per-game targets. Each game anchors at the pair
        # midpoint: winner target = anchor + diff, loser target = anchor - diff.
        for t in range(n_teams):
            num[t] = 0.0
            den[t] = 0.0
        for g in range(m):
            if not ignored[g]:
                anchor = 0.5 * (ratings[winner[g]] + ratings[loser[g]])
                num[winner[g]] += weight[g] * (anchor + diff[g])
                den[winner[g]] += weight[g]
        for g in range(m):
            if not ignored[g]:
                anchor = 0.5 * (ratings[winner[g]] + ratings[loser[g]])
                num[loser[g]] += weight[g] * (anchor - diff[g])
                den[loser[g]] += weight[g]

        max_change = 0.0
        for t in range(n_teams):
            if den[t] > 0.0:
                new_ratings[t] = num[t] / den[t]
            else:
                new_ratings[t] = ratings[t]
            change = abs(new_ratings[t] - ratings[t])
            if change > max_change:
                max_change = change

        same_ignored = True
        for g in range(m):
            if ignored[g] != prev_ignored[g]:
                same_ignored = False
                break

        ratings[:] = new_ratings
        if ratings_per_round is not None:
            ratings_per_round.append(ratings.copy())
        prev_ignored = ignored
        if max_change < tol and same_ignored:
            converged = True
            break

    counted = games_per_team.copy()
    for g in range(m):
        if ignored[g]:
            counted[winner[g]] -= 1
            counted[loser[g]] -= 1

    return ratings, ignored, counted, iterations, converged


def usau_game_inputs(games) -> tuple[np.ndarray, np.ndarray]:
    """Each game's power-rating differential and weight, from the public formulas.

    A game's calendar week runs Monday to Sunday, the slice's earliest week
    being 1; it is built here with datetime, not by the package.
    """
    mondays = [g.date - timedelta(days=g.date.weekday()) for g in games]
    weeks = [(monday - min(mondays)).days // 7 + 1 for monday in mondays]
    diff = np.array([game_diff(g.winning_score, g.losing_score) for g in games])
    weight = np.array([
        date_weight(t, max(weeks)) * score_weight(g.winning_score, g.losing_score)
        for g, t in zip(games, weeks)
    ])
    return diff, weight


def _usau_kept_system(season_slice, table):
    """The weighted Laplacian L of the table's kept games, s, and the kept edges.

    L has the kept weight w of each game on its two diagonal entries and -w
    off them; s_t sums +w d over team t's kept wins and -w d over its kept
    losses. Teams are indexed in the table's order.
    """
    index = {team: i for i, team in enumerate(table.ratings)}
    n = len(index)
    lap = np.zeros((n, n))
    s = np.zeros(n)
    edges = []
    games = games_of(season_slice)
    diff, weight = usau_game_inputs(games)
    for g, (game, d, w) in enumerate(zip(games, diff, weight)):
        if g in table.ignored_games:
            continue
        a, b = index[game.winner], index[game.loser]
        lap[a, a] += w
        lap[b, b] += w
        lap[a, b] -= w
        lap[b, a] -= w
        s[a] += w * d
        s[b] -= w * d
        edges.append((a, b))
    return lap, s, edges


def usau_fixed_point_residual(season_slice, table) -> float:
    """How far a power rating is from its fixed point, in rating points.

    With the table's ignored set held fixed, a round is affine: it maps r to
    r + (s - L r / 2) / den, where L is the weighted graph Laplacian of the
    kept games, den a team's kept weight, and s_t the sum of +w d over the
    team's kept wins and -w d over its kept losses. So a fixed point solves
    L r / 2 = s. Returns the largest |s_t - (L r)_t / 2| / den_t over teams
    with kept weight, which is the next round's change. If the previous
    round moved no rating by tol or more, this is below 2 * tol. L r is a
    dense matrix product, so unlike the loop oracle this check does not
    depend on summation order.
    """
    lap, s, _ = _usau_kept_system(season_slice, table)
    den = np.diag(lap)
    kept = den > 0
    r = np.array(list(table.ratings.values()))
    return float(np.max(np.abs(s - lap @ r / 2)[kept] / den[kept]))


def usau_weighted_solve(season_slice, table) -> dict[str, float]:
    """The power rating's fixed point for the table's ignored set, by one global solve.

    The fixed point solves L r = 2 s (see usau_fixed_point_residual): the
    weighted least-squares rating of the kept games, with target twice each
    game's differential. np.linalg.lstsq gives its minimum-norm solution.
    A round keeps sum(den * r) on every component of the kept games, so each
    component is then shifted to the table's den-weighted mean. A team with
    no kept weight never moves and keeps the table's rating.
    """
    lap, s, edges = _usau_kept_system(season_slice, table)
    den = np.diag(lap)
    published = np.array(list(table.ratings.values()))
    r = np.linalg.lstsq(lap, 2 * s, rcond=None)[0]
    for comp in components_brute(len(den), edges):
        members = sorted(comp)
        if den[members].sum() == 0:
            r[members] = published[members]
            continue
        r[members] += (den[members] @ (published[members] - r[members])) / den[members].sum()
    return dict(zip(table.ratings, r.tolist()))


def game_rating(opponent_rating: float, w: int, l: int, won: bool) -> float:
    """Single-game rating: the opponent's rating plus/minus the differential."""
    d = game_diff(w, l)
    return opponent_rating + d if won else opponent_rating - d


def blowout_ignorable(gap: float, w: int, l: int) -> bool:
    """True when a game qualifies for the blowout-ignore rule.

    The winner must be rated more than 600 points above the loser and win
    with w > 2l + 1 (strictly beyond the margin that saturates game_diff).
    """
    return gap > BLOWOUT_GAP and w > 2 * l + 1


class GameValidationError(ValueError):
    """A raw record cannot become a valid Game; carries a short reason code."""

    def __init__(self, reason: str, detail: str = ""):
        super().__init__(f"{reason} ({detail})" if detail else reason)
        self.reason = reason
        self.detail = detail


def validate_game(record) -> Game:
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
        winner=winner,
        loser=loser,
        winning_score=w,
        losing_score=l,
    )


def read_games_loop(path):
    """Read one game CSV row by row: its Games, its Rejections, and its teams.

    Every row yields a Game or a Rejection, in order. The teams are listed in
    the order the reader codes them: by first appearance among the team_a
    cells of all nine-cell rows, then among their team_b cells.
    """
    path = Path(path)
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    games = []
    rejections = []
    sides = [], []
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file, expected header row") from None
        if tuple(h.strip() for h in header) != GAME_FIELDS:
            raise IngestError(
                f"{path}: bad header {header!r}, expected {','.join(GAME_FIELDS)}"
            )
        for row_no, row in enumerate(reader, start=1):
            if not row or all(not cell.strip() for cell in row):
                continue
            if len(row) != len(GAME_FIELDS):
                rejections.append(
                    Rejection(row_no, "missing field", f"{len(row)} columns", str(path))
                )
                continue
            record = dict(zip(GAME_FIELDS, row))
            sides[0].append(record["team_a"])
            sides[1].append(record["team_b"])
            try:
                games.append(validate_game(record))
            except GameValidationError as err:
                rejections.append(Rejection(row_no, err.reason, err.detail, str(path)))
    names = (normalize_team_name(raw) for side in sides for raw in side)
    return games, rejections, list(dict.fromkeys(name for name in names if name))


_SIN_PHASE = math.sin(SINE_PHASE)


def invert_usau_diff_scalar(rating_gap: float, w: int) -> float:
    """The inverse of game_diff for one gap, with math.asin (see invert_usau_diff)."""
    if rating_gap < 0:
        raise ValueError(f"rating gap must be >= 0, got {rating_gap}")
    if w < 2:
        raise ValueError(f"winning score must be >= 2, got {w}")
    if rating_gap < BASE_DIFF:
        return rating_gap / BASE_DIFF
    if rating_gap > MAX_DIFF:
        return w - (w - 1) / 2.0
    losing = (w - 1) * (
        1.0 - math.asin((rating_gap - BASE_DIFF) * _SIN_PHASE / DIFF_SPAN)
        / (2.0 * SINE_PHASE)
    )
    return w - losing


def build_predictions_loop(table, season_slice, params: LsParams | None = None):
    """Per-game predictions: one PredictionEntry per slice game."""
    entries = []
    for i, g in enumerate(games_of(season_slice)):
        rw, rl = table.ratings[g.winner], table.ratings[g.loser]
        higher_rated_won = rw >= rl
        favorite, underdog = (g.winner, g.loser) if higher_rated_won else (g.loser, g.winner)
        gap = abs(rw - rl)
        if table.method is Method.USAU:
            predicted = invert_usau_diff_scalar(gap, g.winning_score)
        else:
            predicted = predict_ls_diff(rw, rl, g.winning_score, params)
        entries.append(
            PredictionEntry(
                game_id=i,
                favorite=favorite,
                underdog=underdog,
                predicted_diff=predicted,
                actual_diff=g.winning_score - g.losing_score,
                higher_rated_won=higher_rated_won,
            )
        )
    return entries


def violation_rate_loop(table, season_slice) -> int:
    """The number of slice games won by the lower-rated team, game by game."""
    violations = 0
    for g in games_of(season_slice):
        if table.ratings[g.loser] > table.ratings[g.winner]:
            violations += 1
    return violations
