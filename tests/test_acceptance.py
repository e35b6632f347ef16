"""Acceptance suite: one test per release criterion, each printing a PASS line.

Run with: pytest tests/test_acceptance.py -v -s
Criterion 9 exercises the real 2014-2019 season data and is skipped unless
the CSVs are present (ULTIRATE_DATA_DIR or ./data).
"""

import math
import os
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from ultirate.domain import Division, Method, RatingTable, partition_seasons
from ultirate.ingest import read_games_many
from ultirate.leastsq import LsParams, build_system, compute_leastsq, normalize_diff, solve_ratings
from ultirate.metrics import mad, mse, violation_rate
from ultirate.predict import build_predictions, invert_usau_diff
from ultirate.synth import SynthSpec, generate
from ultirate.usau import compute_usau, game_diff, score_weight

from helpers import game, games_of, prediction_set_of, recovery_error, slice_of, write_game_csv
from oracles import least_squares_pgd, violations_brute


def _ok(n: int, text: str) -> None:
    print(f"\nPASS criterion {n}: {text}")


def test_criterion_01_worked_example_exact():
    s = slice_of([game("A", "B", 15, 10), game("A", "C", 15, 2), game("B", "C", 15, 7)])
    # warm the linear-algebra path so the timed run measures the solve alone
    solve_ratings(build_system(slice_of([game("X", "Y", 15, 10)])))

    best = math.inf
    for _ in range(5):
        t0 = time.perf_counter()
        table = solve_ratings(build_system(s))
        best = min(best, time.perf_counter() - t0)

    expected = {"A": 6.0, "B": 1.0, "C": -7.0}
    for team, value in expected.items():
        assert abs(table.ratings[team] - value) < 1e-9, (team, table.ratings[team])
    assert abs(sum(table.ratings.values())) < 1e-9
    assert best < 1e-3, f"solve took {best * 1e3:.3f} ms"
    _ok(1, f"three-game system -> {{6, 1, -7}} within 1e-9 in {best * 1e6:.0f} us")


def test_criterion_02_differential_anchors():
    for w in range(2, 31):
        assert game_diff(w, w - 1) == 125.0, w
    for w in range(2, 31):
        for l in range(w):
            d = game_diff(w, l)
            if w > 2 * l:
                assert d == 600.0, (w, l, d)
            else:
                assert d < 600.0, (w, l, d)
    _ok(2, "one-point games worth exactly 125; 600 exactly on {w > 2l}, below elsewhere")


def test_criterion_03_inversion_round_trip():
    worst = 0.0
    for w in range(2, 31):
        for l in range(w):
            if 2 * l >= w:
                margin = invert_usau_diff(game_diff(w, l), w)
                worst = max(worst, abs(margin - (w - l)))
    assert worst < 1e-9, worst
    _ok(3, f"inversion round-trip exact to {worst:.2e} over all non-saturated scores, w <= 30")


def test_criterion_04_solver_matches_independent_oracle():
    rng = random.Random(2024)
    t0 = time.perf_counter()
    worst = 0.0
    for trial in range(50):
        n_teams = rng.randrange(2, 6)
        n_games = rng.randrange(1, 13)
        edges, diffs, games = [], [], []
        for k in range(n_games):
            a, b = rng.sample(range(n_teams), 2)
            l = rng.randrange(0, 14)
            edges.append((a, b))
            diffs.append(normalize_diff(15, l))
            games.append(game(f"T{a}", f"T{b}", 15, l, day=k % 28))
        order: dict[str, int] = {}
        for a, b in edges:
            order.setdefault(f"T{a}", len(order))
            order.setdefault(f"T{b}", len(order))
        remapped = [(order[f"T{a}"], order[f"T{b}"]) for a, b in edges]

        table = compute_leastsq(slice_of(games))
        oracle = least_squares_pgd(remapped, diffs, len(order))
        for team, col in order.items():
            gap = abs(table.ratings[team] - oracle[col])
            worst = max(worst, gap)
            assert gap <= 1e-4, (trial, team, gap)
    elapsed = time.perf_counter() - t0
    assert elapsed < 10.0, f"oracle comparison took {elapsed:.1f} s"
    _ok(4, f"50 random systems match projected-gradient oracle (worst {worst:.2e}, {elapsed:.2f} s)")


def test_criterion_05_noiseless_recovery():
    # 20 teams need pairwise gaps of at least one goal, hence a 19-goal span;
    # a 30-goal cap keeps every margin unclamped and integer margins survive
    # rounding, so the schedule is exactly consistent.
    truth = {f"T{i:02d}": float(9 - i) for i in range(20)}
    assert all(-10.0 <= v <= 10.0 for v in truth.values())
    spec = SynthSpec(true_ratings=truth, cap=30, seed=77)
    season = generate(spec)
    assert all(g.winning_score - g.losing_score == int(abs(
        truth[g.winner] - truth[g.loser])) for g in games_of(season)), "clamped game present"
    table = compute_leastsq(season, LsParams(reference_cap=30))
    err = recovery_error(truth, table)
    assert err < 1e-9, err
    _ok(5, f"noiseless 20-team round robin recovered to rms {err:.2e}")


def test_criterion_06_two_team_fixed_point():
    s = slice_of([game("A", "B", 15, 14)])
    table = compute_usau(s)
    assert abs(table.ratings["A"] - 1125.0) < 1e-6
    assert abs(table.ratings["B"] - 875.0) < 1e-6
    assert table.converged
    assert table.iterations_used < 100
    _ok(6, f"15-14 game settled at {{1125, 875}} in {table.iterations_used} iterations")


def test_criterion_07_metric_oracles():
    # Ten synthetic predictions; errors enumerated by hand:
    # (predicted, signed actual): errors -1, 2, -5, 0, 0, 1, 0.5, -6, 1, -1
    # sum|e| = 17.5 -> MAD 1.75; sum e^2 = 69.25 -> MSE 6.925.
    pairs = [
        (5.0, 4), (3.0, 5), (2.0, -3), (1.0, 1), (4.0, 4),
        (6.0, 7), (2.5, 3), (3.0, -3), (5.0, 6), (2.0, 1),
    ]
    ps = prediction_set_of(pairs)
    assert mad(ps) == 1.75
    assert mse(ps) == 6.925

    # Ten games judged against fixed ratings A:3 > B:2 > C:1 > D:0; the three
    # upsets (D over A, C over B, D over C) are the only violations.
    ratings = {"A": 3.0, "B": 2.0, "C": 1.0, "D": 0.0}
    table = RatingTable(
        method=Method.LEASTSQ, season=2019, division=Division.MENS,
        ratings=ratings, ranked={t: True for t in ratings},
    )
    games = [
        game("A", "B", 15, 10), game("A", "C", 15, 2), game("B", "C", 15, 7),
        game("C", "D", 15, 13), game("D", "A", 15, 14), game("B", "D", 15, 9),
        game("C", "B", 15, 12), game("A", "D", 15, 5), game("B", "C", 14, 11),
        game("D", "C", 15, 13),
    ]
    ps = build_predictions(table, slice_of(games))
    violations, _, total = violations_brute(ratings, [(g.winner, g.loser) for g in games])
    assert (violations, total) == (3, 10)
    assert len(ps.entries) == total
    assert violation_rate(ps) == violations / total == 0.3
    _ok(7, "MAD 1.75, MSE 6.925, violation rate 0.3 all match hand enumeration exactly")


def test_criterion_08_evaluate_byte_identical(tmp_path):
    data = tmp_path / "season.csv"
    games = []
    rng = random.Random(99)
    for division in (Division.MENS, Division.WOMENS):
        teams = [f"{division.value[0].upper()}{i}" for i in range(8)]
        for day in range(40):
            a, b = rng.sample(teams, 2)
            games.append(game(a, b, 15, rng.randrange(14), day=day % 35, division=division))
    write_game_csv(games, data)

    outputs = []
    for run in (1, 2):
        out = tmp_path / f"metrics_{run}.csv"
        proc = subprocess.run(
            [sys.executable, "-m", "ultirate.cli", "evaluate",
             "--input", str(data), "--output", str(out)],
            capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        outputs.append(out.read_bytes())
    assert outputs[0] == outputs[1]
    _ok(8, "two subprocess evaluate runs produced byte-identical metric CSVs")


def _season_data_dir() -> Path | None:
    env = os.environ.get("ULTIRATE_DATA_DIR")
    candidates = [Path(env)] if env else []
    candidates.append(Path(__file__).resolve().parent.parent / "data")
    for c in candidates:
        if c.is_dir() and list(c.glob("*.csv")):
            return c
    return None


def test_criterion_09_season_data_replication():
    data_dir = _season_data_dir()
    if data_dir is None:
        pytest.skip(
            "criterion 9 requires the 2014-2019 season CSVs "
            "(set ULTIRATE_DATA_DIR or place them under ./data)"
        )
    games, _ = read_games_many(sorted(data_dir.glob("*.csv")))
    regular = [
        s for s in partition_seasons(games)
        if s.stage.value == "regular" and 2014 <= s.season <= 2019
    ]
    assert len(regular) == 18, f"expected 6 years x 3 divisions, got {len(regular)}"

    men_2019 = [s for s in regular if s.season == 2019 and s.division is Division.MENS]
    assert len(men_2019) == 1
    assert men_2019[0].n_games == 1581
    assert len(men_2019[0].teams) == 260

    gaps, rate_gaps = [], {}
    tables = {}
    for s in regular:
        usau_table = compute_usau(s)
        ls_table = compute_leastsq(s)
        tables[(s.season, s.division)] = (usau_table, ls_table)
        usau_ps = build_predictions(usau_table, s)
        ls_ps = build_predictions(ls_table, s)
        usau_mad, ls_mad = mad(usau_ps), mad(ls_ps)
        assert ls_mad <= usau_mad, (s.season, s.division, ls_mad, usau_mad)
        gaps.append(usau_mad - ls_mad)
        rate_gaps[(s.season, s.division)] = abs(violation_rate(usau_ps) - violation_rate(ls_ps))
    mean_gap = sum(gaps) / len(gaps)
    assert 0.10 <= mean_gap <= 0.40, mean_gap
    for key, gap in rate_gaps.items():
        if key != (2014, Division.MENS):
            assert gap <= 0.02 + 1e-9, (key, gap)

    usau_table, ls_table = tables[(2019, Division.MENS)]
    usau_order = [
        t for t, _ in sorted(
            ((t, r) for t, r in usau_table.ratings.items() if usau_table.ranked[t]),
            key=lambda kv: (-kv[1], kv[0]),
        )
    ]
    ls_order = [
        t for t, _ in sorted(ls_table.ratings.items(), key=lambda kv: (-kv[1], kv[0]))
    ]
    usau_rank = {t: i for i, t in enumerate(usau_order, 1)}
    ls_rank = {t: i for i, t in enumerate(ls_order, 1)}
    for t in set(usau_order[:25]) | set(ls_order[:25]):
        assert t in usau_rank and t in ls_rank, t
        assert abs(usau_rank[t] - ls_rank[t]) <= 3, (t, usau_rank[t], ls_rank[t])
    _ok(9, "season-data replication checks all hold")


def test_criterion_10_property_suite():
    rng = random.Random(4242)

    # violation rate depends only on rating order
    for case in range(1000):
        teams = [f"T{i}" for i in range(rng.randrange(3, 9))]
        ratings = {t: rng.uniform(-8, 8) for t in teams}
        results = [tuple(rng.sample(teams, 2)) for _ in range(rng.randrange(1, 12))]
        base = violations_brute(ratings, results)
        affine = violations_brute({t: 2 * r + 7 for t, r in ratings.items()}, results)
        cubic = violations_brute({t: r**3 for t, r in ratings.items()}, results)
        assert base == affine == cubic, case

    # least-squares ratings are invariant to game order
    for case in range(1000):
        n_teams = rng.randrange(3, 8)
        games = [
            game(f"T{a}", f"T{b}", 15, rng.randrange(14), day=k % 28)
            for k, (a, b) in enumerate(
                rng.sample(range(n_teams), 2) for _ in range(rng.randrange(2, 15))
            )
        ]
        t1 = compute_leastsq(slice_of(games))
        shuffled = games[:]
        rng.shuffle(shuffled)
        t2 = compute_leastsq(slice_of(shuffled))
        for team in t1.ratings:
            assert abs(t1.ratings[team] - t2.ratings[team]) <= 1e-9, (case, team)

    # every game played to 15 carries full score weight
    for case in range(1000):
        l = rng.randrange(15)
        assert score_weight(15, l) == 1.0, (case, l)

    _ok(10, "3 x 1000 randomized property cases hold")
