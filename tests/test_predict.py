"""Margin predictions: differential inversion and cap re-scaling."""

import math
import random

import numpy as np
import pytest

from ultirate.domain import Method, RatingTable
from ultirate.leastsq import LsParams, build_system, compute_leastsq, solve_ratings
from ultirate.metrics import MetricReport, build_report, violation_rate
from ultirate.predict import build_predictions, invert_usau_diff, predict_ls_diff
from ultirate.synth import SynthSpec, generate
from ultirate.usau import compute_usau, game_diff

from helpers import game, games_of, slice_of
from oracles import build_predictions_loop, violation_rate_loop


class TestInvertUsauDiff:
    def test_one_point_gap(self):
        assert invert_usau_diff(125.0, 15) == pytest.approx(1.0, abs=1e-12)

    def test_mid_gap_exact_inverse(self):
        assert invert_usau_diff(game_diff(13, 9), 13) == pytest.approx(4.0, abs=1e-9)

    def test_saturated_gap_returns_boundary_margin(self):
        assert invert_usau_diff(700.0, 15) == pytest.approx(8.0, abs=1e-12)

    def test_zero_gap(self):
        assert invert_usau_diff(0.0, 15) == 0.0

    def test_sub_125_linear_ramp(self):
        assert invert_usau_diff(62.5, 15) == pytest.approx(0.5, abs=1e-12)

    def test_round_trip_non_saturated_region(self):
        for w in range(2, 31):
            for l in range(w):
                if 2 * l >= w:
                    margin = invert_usau_diff(game_diff(w, l), w)
                    assert margin == pytest.approx(w - l, abs=1e-9), (w, l)

    def test_continuous_and_nondecreasing(self):
        for w in (2, 13, 15, 30):
            gaps = [x * 0.5 for x in range(0, 1500)]
            margins = [invert_usau_diff(g, w) for g in gaps]
            for a, b in zip(margins, margins[1:]):
                assert b >= a - 1e-12
            # continuity at the two regime boundaries
            assert invert_usau_diff(125.0 - 1e-9, w) == pytest.approx(
                invert_usau_diff(125.0, w), abs=1e-6
            )
            assert invert_usau_diff(600.0, w) == pytest.approx(
                invert_usau_diff(600.0 + 1e-9, w), abs=1e-6
            )

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError):
            invert_usau_diff(-1.0, 15)

    def test_gaps_from_600_up_give_the_saturating_margin_exactly(self):
        # A gap above 600 is read as 600, where math.asin returns 0.4pi exactly.
        for w in range(2, 40):
            gaps = np.array([600.0, 601.0, 1e6])
            assert invert_usau_diff(gaps, np.full(3, w)).tolist() == [w - (w - 1) / 2.0] * 3
            assert all(invert_usau_diff(g, w) == w - (w - 1) / 2.0 for g in gaps.tolist())

    def test_bad_winning_score_in_an_array_named_alone(self):
        w = np.full(5, 15)
        w[[1, 4]] = [1, 0]
        with pytest.raises(ValueError, match=r"^winning score must be >= 2, got 0$"):
            invert_usau_diff(np.full(5, 300.0), w)
        with pytest.raises(ValueError, match=r"^winning score must be >= 2, got 1$"):
            invert_usau_diff(300.0, 1)


class TestPredictLsDiff:
    def test_reference_cap_game(self):
        assert predict_ls_diff(6.0, 1.0, 15) == 5.0

    def test_shorter_game_scaled_down(self):
        assert predict_ls_diff(6.0, 1.0, 12) == pytest.approx(4.0, abs=1e-12)

    def test_equal_ratings(self):
        assert predict_ls_diff(3.25, 3.25, 15) == 0.0

    def test_exact_at_cap(self):
        for gap in (0.1, 2.5, 14.0):
            assert predict_ls_diff(gap, 0.0, 15) == gap

    def test_bad_score_in_an_array_named_alone(self):
        w = np.full(40, 15)
        w[[3, 39]] = [1, 0]
        with pytest.raises(ValueError, match=r"^winning score must be >= 2, got 0$"):
            predict_ls_diff(np.ones(40), np.zeros(40), w)


def fixture_slice():
    return slice_of([
        game("A", "B", 15, 10),
        game("A", "C", 15, 2),
        game("B", "C", 15, 7),
        game("C", "A", 15, 13),  # upset by the worst-rated team
    ])


class TestBuildPredictions:
    def test_every_game_predicted_when_all_teams_rated(self):
        s = fixture_slice()
        table = compute_leastsq(s)
        ps = build_predictions(table, s)
        assert len(ps.entries) == s.n_games
        assert ps.n_skipped == 0

    def test_upset_flagged(self):
        s = fixture_slice()
        table = compute_leastsq(s)
        upset = build_predictions(table, s).entries[3]
        assert upset.higher_rated_won is False
        assert upset.favorite == "A"
        assert upset.underdog == "C"

    def test_usau_method_uses_inversion(self):
        s = fixture_slice()
        table = compute_usau(s)
        ps = build_predictions(table, s)
        assert ps.method is Method.USAU
        for e, g in zip(ps.entries, games_of(s)):
            gap = abs(table.ratings[e.favorite] - table.ratings[e.underdog])
            assert e.predicted_diff == pytest.approx(
                invert_usau_diff(gap, g.winning_score), abs=1e-12
            )

    def test_leastsq_method_uses_cap_scaling(self):
        s = slice_of([game("A", "B", 12, 8)])
        table = compute_leastsq(s)
        ps = build_predictions(table, s)
        gap = table.ratings["A"] - table.ratings["B"]
        assert ps.entries[0].predicted_diff == pytest.approx(gap * 12 / 15, abs=1e-12)

    def test_unranked_team_still_predicted(self):
        s = fixture_slice()
        table = compute_usau(s)
        assert not any(table.ranked.values())  # nobody has ten games here
        ps = build_predictions(table, s)
        assert len(ps.entries) == s.n_games

    def test_table_missing_a_slice_team_rejected(self):
        s = fixture_slice()
        table = compute_leastsq(s)
        reduced = RatingTable(
            method=table.method,
            season=table.season,
            division=table.division,
            ratings={t: r for t, r in table.ratings.items() if t != "C"},
            ranked={t: True for t in table.ratings if t != "C"},
        )
        with pytest.raises(ValueError, match="must rate every team"):
            build_predictions(reduced, s)

    def test_mismatched_slice_rejected(self):
        s = fixture_slice()
        table = compute_leastsq(s)
        other = slice_of([game("A", "B", 15, 10, season=2018)])
        with pytest.raises(ValueError):
            build_predictions(table, other)

    def test_actual_diff_is_positive_margin(self):
        s = fixture_slice()
        ps = build_predictions(compute_leastsq(s), s)
        assert [e.actual_diff for e in ps.entries] == [5, 13, 8, 2]


class TestRefCap:
    """Least-squares predictions depend on the reference cap only through rounding."""

    def _season(self):
        rng = random.Random(3)
        teams = [f"T{i}" for i in range(10)]
        games = []
        for day in range(60):
            w = rng.choice([11, 13, 15])
            games.append(game(*rng.sample(teams, 2), w, rng.randrange(w - 1), day=day % 28))
        return slice_of(games)

    def test_predictions_and_metrics_match_the_default(self):
        s = self._season()
        default = compute_leastsq(s)
        at_7 = solve_ratings(build_system(s, LsParams(7)))
        assert list(at_7.ratings) == list(default.ratings)
        assert list(at_7.ratings.values()) == pytest.approx(
            [r * 7 / 15 for r in default.ratings.values()], rel=1e-12, abs=1e-12)

        ps, ps_7 = build_predictions(default, s), build_predictions(at_7, s, LsParams(7))
        for e, e_7 in zip(ps.entries, ps_7.entries, strict=True):
            assert e_7._replace(predicted_diff=e.predicted_diff) == e
            assert e_7.predicted_diff == pytest.approx(e.predicted_diff, rel=1e-12, abs=1e-12)
        report, report_7 = build_report(default, s, ps), build_report(at_7, s, ps_7)
        assert report_7.games_predicted == report.games_predicted
        assert report_7.violation_rate == report.violation_rate
        assert (report_7.mad, report_7.mse) == pytest.approx((report.mad, report.mse),
                                                             rel=1e-12)

    def test_predicting_with_other_params_rescales_margins(self):
        # build_predictions must get the LsParams the table was rated with.
        s = self._season()
        at_30 = solve_ratings(build_system(s, LsParams(30)))
        right = build_predictions(at_30, s, LsParams(30)).predicted_diff
        wrong = build_predictions(at_30, s).predicted_diff
        assert wrong == pytest.approx(2 * right, rel=1e-12, abs=1e-12)


def _synth_300x4000_slice():
    truth = {f"T{i:03d}": 8.0 - 16.0 * i / 299 for i in range(300)}
    return generate(SynthSpec(true_ratings=truth, schedule="random", n_games=4000,
                              noise_sd=1.5, seed=7))


class TestLoopOracle:
    """Predictions and metrics against the per-game loops they replaced."""

    @pytest.mark.parametrize("method", [Method.USAU, Method.LEASTSQ],
                             ids=lambda m: f"all-rated-{m}")
    def test_matches_per_game_loops(self, method):
        s = _synth_300x4000_slice()
        table = compute_usau(s) if method is Method.USAU else compute_leastsq(s)
        ps = build_predictions(table, s)
        entries = build_predictions_loop(table, s)

        def key(e):
            return (e.game_id, e.favorite, e.underdog, e.predicted_diff.hex(),
                    e.actual_diff, e.higher_rated_won)

        assert [key(e) for e in ps.entries] == [key(e) for e in entries]

        errors = [(e.actual_diff if e.higher_rated_won else -e.actual_diff) - e.predicted_diff
                  for e in entries]
        violations, total = violation_rate_loop(table, s), len(entries)
        assert violation_rate(ps) == violations / total
        assert build_report(table, s, ps) == MetricReport(
            season=s.season, division=s.division, method=method,
            games_predicted=total,
            mad=math.fsum(abs(e) for e in errors) / len(errors),
            mse=math.fsum(e * e for e in errors) / len(errors),
            violation_rate=violations / total,
        )
