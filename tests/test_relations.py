"""Metamorphic relations: two runs of the program on related inputs must agree.

A relation (Chen, Cheung & Yiu, 1998, HKUST-CS98-01) names a change of the
input and how the output must follow it. It needs no oracle and no frozen
bytes, so it also catches a fault that an oracle written from the same
reading of the paper would share.

- TestExactRelations: rewrites of a file that the rules ignore (the side a
  game is listed on, whole weeks of date shift, line ends, quoting, a split
  into a directory) leave every output byte of rate, predict, evaluate and
  top unchanged, and stderr too, except where the relation moves it by
  design.
- TestLeastSquaresRelations: listing every game twice, scaling every score
  and adding a disjoint renamed copy leave the LS ratings unchanged, at
  1e-9 of the rating scale and in the same rank order.
- TestPowerRatingRelations: a disjoint renamed copy on the same dates
  leaves the power rating of every original team and game unchanged.

Not relations, so left out: moving dates by part of a week (week boundaries
move, and with them the date weights), and listing games twice for the
power rating (it changes the game counts that the blowout rule reads).
"""

import contextlib
import csv
import io
import random
import re
from dataclasses import replace
from datetime import date, timedelta
from typing import NamedTuple

import numpy as np
import pytest

from ultirate.cli import main
from ultirate.leastsq import compute_leastsq
from ultirate.metrics import build_report
from ultirate.predict import build_predictions
from ultirate.synth import SynthSpec, generate
from ultirate.usau import UsauParams, compute_usau

# `ultirate synth` flags of each season, and any extra flags of its runs.
SEASONS = {
    # A 12-team round robin, with BAD_ROWS put in.
    "malformed": ("--teams 12 --seed 7", ""),
    # Cycles: its ignored set of about 110 blowouts never settles.
    "blowouts": ("--teams 40 --schedule random --games 400 --noise-sd 3.0"
                 " --rating-min -8 --rating-max 8 --seed 3", ""),
    # Two components, so least squares warns on stderr.
    "pods": ("--teams 16 --schedule pods --pod-size 8 --noise-sd 1.0 --seed 1", ""),
    # 60 teams, 600 random games; its ignored set cycles with period 7.
    "period-7": ("--teams 60 --schedule random --games 600 --noise-sd 3.0 --seed 0"
                 " --weeks 12 --rating-min -6 --rating-max 6", "--max-iters 300"),
}

# One row for each rejection reason, a second bad score and a post-season row
# (valid, but not rated). They go in at every 6th row of the malformed season,
# the bad scores first, so that stderr's first five rejections name them.
BAD_ROWS = [
    ["2000", "mens", "regular", "2000-06-06", "synth", "T01", "T02", "15", "-3"],
    ["2000", "mens", "regular", "2000-06-06", "synth", "T01", "T02", "x", "9"],
    ["2000", "mens", "regular", "2000-06-06", "synth", "T01", "T02", "15"],
    ["2000", "mens", "regular", "2000-06-06", "synth", " ", "T02", "15", "10"],
    ["20x0", "mens", "regular", "2000-06-06", "synth", "T01", "T02", "15", "10"],
    ["2000", "open", "regular", "2000-06-06", "synth", "T01", "T02", "15", "10"],
    ["2000", "mens", "final", "2000-06-06", "synth", "T01", "T02", "15", "10"],
    ["2000", "mens", "regular", "2000-06-31", "synth", "T01", "T02", "15", "10"],
    ["2000", "mens", "regular", "2000-06-06", "synth", "T01", "T02", "12", "12"],
    ["2000", "mens", "regular", "2000-06-06", "synth", "T03", "T03", "15", "10"],
    ["2000", "mens", "regular", "2000-06-06", "synth", "T01", "T02", "1", "0"],
    ["2000", "mens", "post", "2000-07-20", "synth", "T01", "T02", "15", "11"],
]

# Each command's --output, under its own directory of the run.
COMMANDS = {"rate": "ratings", "predict": "p.csv", "evaluate": "m.csv", "top": None}


def _write(rows, **fmt):
    text = io.StringIO()
    csv.writer(text, lineterminator="\n", **fmt).writerows(rows)
    return text.getvalue().encode()


def _swap(rows):
    """Swap team_a with team_b and score_a with score_b in a seeded half of the rows."""
    rng = random.Random(7)
    out = [rows[0]]
    for r in rows[1:]:
        if len(r) == 9 and rng.random() < 0.5:
            r = r[:5] + [r[6], r[5], r[8], r[7]]
        out.append(r)
    return {"games.csv": _write(out)}


def _shift(days):
    """Move every date that parses by the given days; leave a bad date as it is."""

    def shifted(cell):
        try:
            return (date.fromisoformat(cell) + timedelta(days=days)).isoformat()
        except ValueError:
            return cell

    return lambda rows: {"games.csv": _write(
        [rows[0]] + [r[:3] + [shifted(r[3])] + r[4:] for r in rows[1:]])}


def _split(rows):
    """Four files of consecutive rows, each under the header, named in row order."""
    chunks = np.array_split(np.arange(1, len(rows)), 4)
    return {f"games/part{i}.csv": _write([rows[0]] + [rows[j] for j in chunk.tolist()])
            for i, chunk in enumerate(chunks)}


RELATIONS = {
    "plain": lambda rows: {"games.csv": _write(rows)},
    "swap": _swap,
    "shift+7": _shift(7),
    "shift-364": _shift(-364),
    "crlf": lambda rows: {"games.csv": _write(rows).replace(b"\n", b"\r\n")},
    "cr": lambda rows: {"games.csv": _write(rows).replace(b"\n", b"\r")},
    "quoted": lambda rows: {"games.csv": _write(rows, quoting=csv.QUOTE_ALL)},
    "split": _split,
}

REJECTION = re.compile(r"^(ultirate:   )(\S+ row \d+: )(.*)$", re.MULTILINE)
BAD_SCORE_DETAIL = re.compile(r"bad score \((.*), (.*)\)$", re.MULTILINE)


def _stderr_by_design(relation, stderr):
    """stderr without what the relation moves by design.

    A swap reorders a bad score's detail, which lists both score cells in
    file order; a split moves each rejection's source and row number.
    """
    if relation == "swap":
        return BAD_SCORE_DETAIL.sub(lambda m: f"bad score {sorted(m.groups())}", stderr)
    if relation == "split":
        return REJECTION.sub(r"\1\3", stderr)
    return stderr


class Run(NamedTuple):
    code: int
    stdout: str
    stderr: str
    files: dict[str, bytes]


def _run(argv, cwd, target):
    """main's run, with cwd shown as '.' on stdout and stderr, and the files under target."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {p.relative_to(target).as_posix(): p.read_bytes()
             for p in sorted(target.rglob("*")) if p.is_file()}
    return Run(code, *(s.getvalue().replace(str(cwd), ".") for s in (out, err)), files)


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """outputs(season, relation): each command's run on the season rewritten by the relation."""
    root = tmp_path_factory.mktemp("relations")
    seasons, cache = {}, {}

    def rows_of(season):
        if season not in seasons:
            path = root / f"{season}.csv"
            with contextlib.redirect_stdout(io.StringIO()):
                assert main(["synth", "--output", str(path), *SEASONS[season][0].split()]) == 0
            rows = list(csv.reader(io.StringIO(path.read_text())))
            if season == "malformed":
                for k, bad in enumerate(BAD_ROWS):
                    rows.insert(1 + 6 * k, bad)
            seasons[season] = rows
        return seasons[season]

    def run(season, relation):
        if (season, relation) not in cache:
            cwd = root / season / relation
            for name, data in RELATIONS[relation](rows_of(season)).items():
                (cwd / name).parent.mkdir(parents=True, exist_ok=True)
                (cwd / name).write_bytes(data)
            source = cwd / ("games" if relation == "split" else "games.csv")
            results = {}
            for command, output in COMMANDS.items():
                target = cwd / command
                target.mkdir()
                results[command] = _run(
                    [command, "--input", str(source), *SEASONS[season][1].split(),
                     *(["--output", str(target / output)] if output else [])], cwd, target)
            cache[season, relation] = results
        return cache[season, relation]

    return run


class TestExactRelations:
    @pytest.mark.parametrize("relation", [r for r in RELATIONS if r != "plain"])
    @pytest.mark.parametrize("season", SEASONS)
    def test_every_output_byte_holds(self, outputs, season, relation):
        plain, changed = outputs(season, "plain"), outputs(season, relation)
        for command in COMMANDS:
            before, after = plain[command], changed[command]
            assert before.code == 0, before.stderr
            assert after.code == before.code, command
            assert after.stdout == before.stdout, command
            assert after.files == before.files, command
            assert (_stderr_by_design(relation, after.stderr)
                    == _stderr_by_design(relation, before.stderr)), command

    def test_the_seasons_exercise_what_they_are_chosen_for(self, outputs):
        stderr = {s: outputs(s, "plain")["evaluate"].stderr for s in SEASONS}
        assert "did not converge" not in stderr["malformed"]
        assert "did not converge" in stderr["blowouts"]
        assert "schedule graph has 2 components" in stderr["pods"]
        assert "did not converge" in stderr["period-7"]
        assert "11 row(s) rejected" in stderr["malformed"]
        assert "bad score" in stderr["malformed"] and "... and 6 more" in stderr["malformed"]
        # The swap does move a bad score's detail, which _stderr_by_design undoes.
        assert outputs("malformed", "swap")["evaluate"].stderr != stderr["malformed"]


def _games(s, picks):
    """s with its games listed in the order of the index array picks."""
    return replace(s, winner=s.winner[picks], loser=s.loser[picks],
                   winning_score=s.winning_score[picks], losing_score=s.losing_score[picks],
                   day=s.day[picks])


def _twice(s):
    """s with every game listed twice: all of them, then all of them again."""
    return _games(s, np.tile(np.arange(s.n_games), 2))


def _with_copy(s):
    """s followed by a disjoint copy of it, every team renamed, on the same dates."""
    doubled, n = _twice(s), len(s.teams)
    copy = np.arange(doubled.n_games) >= s.n_games
    return replace(doubled, teams=s.teams + tuple(f"{t} copy" for t in s.teams),
                   winner=doubled.winner + n * copy, loser=doubled.loser + n * copy)


def _season(noise_sd, n_teams, n_games, spread, seed, schedule="random"):
    ratings = {f"T{i:02d}": spread / 2 - spread * i / (n_teams - 1) for i in range(n_teams)}
    return generate(SynthSpec(true_ratings=ratings, schedule=schedule, n_games=n_games,
                              noise_sd=noise_sd, seed=seed, n_weeks=12, pod_size=8))


LS_SEASONS = {
    "blowouts": lambda: _season(3.0, 40, 400, 16.0, 3),
    "period-7": lambda: _season(3.0, 60, 600, 12.0, 0),
    "pods": lambda: _season(1.0, 24, 0, 10.0, 1, schedule="pods"),
}


def _report(table, s):
    return build_report(table, s, build_predictions(table, s))


class TestLeastSquaresRelations:
    """At 1e-9 of the rating scale, since CG sums in another order on each input."""

    def assert_same_ratings(self, table, other, names=None):
        names = names or {t: t for t in table.ratings}
        scale = max(map(abs, table.ratings.values()))
        for team, rating in table.ratings.items():
            assert other.ratings[names[team]] == pytest.approx(rating, abs=1e-9 * scale)
        order = [t for t, _ in table.ranking()]
        assert [t for t, _ in other.ranking() if t in names.values()] == [names[t] for t in order]

    @pytest.mark.parametrize("season", LS_SEASONS)
    def test_every_game_twice(self, season):
        s = LS_SEASONS[season]()
        self.assert_same_ratings(compute_leastsq(s), compute_leastsq(_twice(s)))

    @pytest.mark.parametrize("k", [2, 3])
    @pytest.mark.parametrize("season", LS_SEASONS)
    def test_scores_times_k(self, season, k):
        s = LS_SEASONS[season]()
        scaled = replace(s, winning_score=k * s.winning_score, losing_score=k * s.losing_score)
        table, table_k = compute_leastsq(s), compute_leastsq(scaled)
        self.assert_same_ratings(table, table_k)
        report, report_k = _report(table, s), _report(table_k, scaled)
        assert report_k.mad == pytest.approx(k * report.mad, rel=1e-9)
        assert report_k.mse == pytest.approx(k * k * report.mse, rel=1e-9)
        assert report_k.violation_rate == report.violation_rate

    @pytest.mark.parametrize("season", LS_SEASONS)
    def test_disjoint_copy(self, season):
        s = LS_SEASONS[season]()
        table, both = compute_leastsq(s), compute_leastsq(_with_copy(s))
        assert both.n_components == 2 * table.n_components
        self.assert_same_ratings(table, both)
        self.assert_same_ratings(table, both, {t: f"{t} copy" for t in s.teams})


# test_usau's bound for a run that ends a cycle in closed form. The copies
# below measured bit-equal to their originals.
CLOSED_FORM_TOL = 1e-9


class TestPowerRatingRelations:
    """Convergence and the closed-form end are tested over the whole slice. A
    copy moves in step with its original, so adding one changes neither; a
    second component that is not a copy can, and is out of scope here."""

    @pytest.mark.parametrize("season, cap, converges", [
        pytest.param(lambda: _season(1.5, 40, 400, 10.0, 11), 10000, True, id="converging"),
        pytest.param(lambda: _season(3.0, 60, 600, 12.0, 0), 300, False, id="period-7-300"),
        pytest.param(lambda: _season(3.0, 60, 600, 12.0, 0), 10**6, False, id="period-7-1e6"),
    ])
    def test_disjoint_copy(self, season, cap, converges):
        s, params = season(), UsauParams(max_iterations=cap)
        table, both = compute_usau(s, params), compute_usau(_with_copy(s), params)
        assert table.converged is both.converged is converges
        assert table.ignored_games
        m = s.n_games
        assert {g for g in both.ignored_games if g < m} == table.ignored_games
        assert {g - m for g in both.ignored_games if g >= m} == table.ignored_games
        for team, rating in table.ratings.items():
            for name in (team, f"{team} copy"):
                assert both.ratings[name] == pytest.approx(rating, abs=CLOSED_FORM_TOL)
                assert both.ranked[name] is table.ranked[team]
