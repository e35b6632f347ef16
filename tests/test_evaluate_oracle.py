"""`ultirate evaluate` against one run composed of the per-layer oracles.

The test-side run reads each file with read_games_loop, keeps the regular
games, groups them by (season, division) and rates each group with
iterate_loops (from usau_game_inputs) and least_squares_dense. It then
predicts every game with build_predictions_loop and counts upsets with
violation_rate_loop. So it shares no glue with the program: not the
partition, the slice order, the team coding or the metric sums.
"""

import csv
import io
import math
import random
import re
from datetime import date, timedelta
from types import SimpleNamespace

import numpy as np
import pytest

from ultirate import ingest
from ultirate.cli import EXIT_OK, main
from ultirate.domain import GAME_FIELDS, Method, Stage
from ultirate.leastsq import normalize_diff
from ultirate.usau import BLOWOUT_GAP, CONVERGENCE_TOL, INITIAL_RATING, MIN_OTHER_RESULTS

from helpers import read_metrics, table_of
from oracles import (
    build_predictions_loop,
    iterate_loops,
    least_squares_dense,
    read_games_loop,
    usau_game_inputs,
    violation_rate_loop,
)


def _index(games):
    """Each team's index, by first appearance, winner before loser."""
    index = {}
    for g in games:
        index.setdefault(g.winner, len(index))
        index.setdefault(g.loser, len(index))
    return index


def _usau_ratings(games, max_iters):
    index = _index(games)
    diff, weight = usau_game_inputs(games)
    ratings, _, _, _, converged = iterate_loops(
        np.array([index[g.winner] for g in games], np.int64),
        np.array([index[g.loser] for g in games], np.int64),
        diff,
        weight,
        np.array([g.winning_score > 2 * g.losing_score + 1 for g in games]),
        len(index),
        INITIAL_RATING,
        BLOWOUT_GAP,
        MIN_OTHER_RESULTS,
        CONVERGENCE_TOL,
        max_iters,
    )
    return {team: float(ratings[i]) for team, i in index.items()}, converged


def _ls_ratings(games):
    index = _index(games)
    ratings = least_squares_dense(
        [(index[g.winner], index[g.loser]) for g in games],
        [normalize_diff(g.winning_score, g.losing_score) for g in games],
        len(index),
    )
    return {team: float(ratings[i]) for team, i in index.items()}


def _oracle_evaluate(path, max_iters):
    """Sorted (season, division, method, games, mad, mse, violation rate) rows, and
    the (season, division) units whose power rating did not converge."""
    units = {}
    for g in read_games_loop(path)[0]:
        if g.stage is Stage.REGULAR:
            units.setdefault((g.season, g.division.value), []).append(g)
    rows, unconverged = [], []
    for (season, division), games in units.items():
        columns = table_of(games)
        usau, converged = _usau_ratings(games, max_iters)
        if not converged:
            unconverged.append((season, division))
        for method, ratings in ((Method.USAU, usau), (Method.LEASTSQ, _ls_ratings(games))):
            table = SimpleNamespace(method=method, ratings=ratings)
            entries = build_predictions_loop(table, columns)
            errors = [(e.actual_diff if e.higher_rated_won else -e.actual_diff)
                      - e.predicted_diff for e in entries]
            n = len(entries)
            rows.append((season, division, method.value, n,
                         math.fsum(abs(x) for x in errors) / n,
                         math.fsum(x * x for x in errors) / n,
                         violation_rate_loop(table, columns) / n))
    return sorted(rows), sorted(unconverged)


def _games(rng, season, division, teams, n, stage="regular", pods=1, caps=(15,), lose=None):
    """n random games among teams, which split into pods that never meet, as CSV cells.

    Each game is won at one of caps; lose draws the losing score (default:
    from half the cap up, so no game is a blowout). Dates fall over ten weeks
    from June 1, and the winner is team_a or team_b at random.
    """
    size = len(teams) // pods
    rows = []
    for _ in range(n):
        pod = rng.randrange(pods)
        a, b = rng.sample(teams[pod * size:(pod + 1) * size], 2)
        w = rng.choice(caps)
        l = lose(rng, w) if lose else rng.randrange(w // 2, w)
        day = date(season, 6, 1) + timedelta(days=rng.randrange(70))
        scores = [w, l] if rng.random() < 0.5 else [l, w]
        rows.append([season, division, stage, day.isoformat(), "Invite", a, b, *scores])
    return rows


def _names(prefix, n):
    return [f"{prefix}{i:02d}" for i in range(n)]


def _wide(rng, w):
    """Any losing score, so about half the games are blowouts."""
    return rng.randrange(w)


# One of each reason the reader rejects a row for.
MALFORMED = [
    [2019, "mens", "regular", "2019-06-03", "Invite", "M00", "M01", 15, 15],
    [2019, "mens", "regular", "2019-13-45", "Invite", "M00", "M01", 15, 9],
    [2019, "mens", "regular", "2019-06-03", "Invite", "M00", "M01", "x", 9],
    [2019, "mens", "regular", "2019-06-03", "Invite", "M00", "M01", 15],
    [2019, "mens", "regular", "2019-06-03", "Invite", "M02", "M02", 15, 9],
    [2019, "open", "regular", "2019-06-03", "Invite", "M00", "M01", 15, 9],
    [2019, "mens", "final", "2019-06-03", "Invite", "M00", "M01", 15, 9],
    [2019, "mens", "regular", "2019-06-03", "Invite", "M00", "M01", 1, 0],
    [2019, "mens", "regular", "2019-06-03", "Invite", " ", "M01", 15, 9],
]


def _two_seasons(rng):
    """Two seasons and two divisions, with post rows and a 13-goal cap mixed in.

    Only 2019 has blowouts.
    """
    rows = []
    for season, lose in ((2018, None), (2019, _wide)):
        for division, prefix in (("mens", "M"), ("womens", "W")):
            teams = _names(prefix, 8)
            rows += _games(rng, season, division, teams, 36, caps=(15, 13), lose=lose)
            rows += _games(rng, season, division, teams, 6, stage="post")
    rng.shuffle(rows)
    return rows


def _pods(rng):
    """Three pods of four teams that never meet, so least squares has three components."""
    return _games(rng, 2019, "mixed", _names("X", 12), 54, pods=3)


def _blowouts(rng):
    """Many games won by more than twice the losing score plus one; most teams play under 10."""
    return _games(rng, 2019, "mens", _names("M", 14), 40, lose=_wide)


def _malformed(rng):
    rows = _games(rng, 2019, "mens", _names("M", 10), 50)
    for bad in MALFORMED:
        rows.insert(rng.randrange(len(rows) + 1), bad)
    return rows


def _quoted(rng):
    """Team names that hold a comma and an escaped quote, for a file of quoted cells."""
    return _games(rng, 2020, "womens", [f'W{i}, "x"' for i in range(9)], 45)


def _cycling(_):
    """12 teams, 40 games won 15-l, from their own seed; the power rating's
    ignored set cycles with period 16."""
    rng = random.Random(3)
    rows = []
    for day in range(40):
        a, b = rng.sample(range(12), 2)
        played = date(2019, 6, 1) + timedelta(days=day * 2)
        rows.append([2019, "mens", "regular", played.isoformat(), "Invite",
                     f"T{a}", f"T{b}", 15, rng.randrange(0, 14)])
    return rows


# The loop oracle runs every round, so a cycling unit stops at a small cap,
# where the program ends the cycle of the cycling case in closed form.
MAX_ITERS = 300


def _csv(rows, lineterminator="\n", quoting=csv.QUOTE_MINIMAL):
    out = io.StringIO()
    writer = csv.writer(out, lineterminator=lineterminator, quoting=quoting)
    writer.writerow(GAME_FIELDS)
    writer.writerows(rows)
    return out.getvalue()


# Each case lists the units whose power rating cycles and so reaches the cap.
@pytest.mark.parametrize("rows, text, unconverged", [
    pytest.param(_two_seasons, _csv, [(2019, "mens"), (2019, "womens")],
                 id="two-seasons-two-divisions"),
    pytest.param(_pods, _csv, [], id="pods"),
    pytest.param(_blowouts, _csv, [(2019, "mens")], id="blowouts"),
    pytest.param(_malformed, _csv, [], id="malformed"),
    pytest.param(_quoted, lambda rows: _csv(rows, "\r\n", csv.QUOTE_ALL), [], id="crlf-quoted"),
    pytest.param(_cycling, _csv, [(2019, "mens")], id="cycling"),
])
def test_evaluate_matches_the_oracle_run(rows, text, unconverged, tmp_path, monkeypatch,
                                         capsys):
    path, out = tmp_path / "season.csv", tmp_path / "metrics.csv"
    path.write_bytes(text(rows(random.Random(7))).encode())
    reports = []
    write = ingest.write_metrics

    def capture(given, target):
        reports.extend(given)
        write(reports, target)

    monkeypatch.setattr(ingest, "write_metrics", capture)
    code = main(["evaluate", "--input", str(path), "--output", str(out),
                 "--max-iters", str(MAX_ITERS)])
    assert code == EXIT_OK
    warned = re.findall(r"(\d+) (\w+) usau: did not converge", capsys.readouterr().err)

    expected, oracle_unconverged = _oracle_evaluate(path, MAX_ITERS)
    assert [(int(season), division) for season, division in warned] == unconverged
    assert oracle_unconverged == unconverged
    got = sorted(reports, key=lambda r: (r.season, r.division.value, r.method.value))
    written = [(r.season, r.division.value, r.method.value, r.games_predicted)
               for r in read_metrics(out)]
    assert written == [(r.season, r.division.value, r.method.value, r.games_predicted)
                       for r in got] == [e[:4] for e in expected]
    for r, (*_, mad, mse, violation_rate) in zip(got, expected):
        assert r.mad == pytest.approx(mad, abs=1e-9)
        assert r.mse == pytest.approx(mse, abs=1e-9)
        assert r.violation_rate == violation_rate
