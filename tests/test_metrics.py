"""MAD, MSE, and ranking-violation metrics."""

import random

import pytest

from ultirate.domain import Division, Method, RatingTable
from ultirate.leastsq import compute_leastsq
from ultirate.metrics import build_report, mad, mse, violation_rate
from ultirate.predict import PredictionEntry, build_predictions
from ultirate.usau import compute_usau

from helpers import game, prediction_set_of, slice_of
from oracles import violations_brute


def prediction_set(pairs, method=Method.LEASTSQ):
    """pairs: (predicted_diff, signed_actual) with sign toward the favorite."""
    entries = []
    for i, (predicted, signed_actual) in enumerate(pairs):
        entries.append(
            PredictionEntry(
                game_id=i,
                favorite="F",
                underdog="U",
                predicted_diff=predicted,
                actual_diff=abs(int(signed_actual)),
                higher_rated_won=signed_actual >= 0,
            )
        )
    return prediction_set_of(entries, method=method)


def make_table(ratings, method=Method.LEASTSQ):
    return RatingTable(
        method=method,
        season=2019,
        division=Division.MENS,
        ratings=dict(ratings),
        ranked={t: True for t in ratings},
    )


class TestMadMse:
    def test_mad_example(self):
        assert mad(prediction_set([(5, 4), (3, 5)])) == 1.5

    def test_mse_example(self):
        assert mse(prediction_set([(5, 4), (3, 5)])) == 2.5

    def test_perfect_predictions(self):
        ps = prediction_set([(4, 4), (7, 7), (1, 1)])
        assert mad(ps) == 0.0
        assert mse(ps) == 0.0

    def test_upset_counts_direction_and_magnitude(self):
        ps = prediction_set([(2, -3)])
        assert mad(ps) == 5.0
        assert mse(ps) == 25.0

    def test_single_game_mse(self):
        assert mse(prediction_set([(0, 3)])) == 9.0

    def test_order_invariance(self):
        pairs = [(5, 4), (3, 5), (2, -3), (0, 1), (6, 6)]
        forward = prediction_set(pairs)
        backward = prediction_set(list(reversed(pairs)))
        assert mad(forward) == mad(backward)
        assert mse(forward) == mse(backward)

    def test_empty_set_rejected(self):
        empty = prediction_set([])
        with pytest.raises(ValueError):
            mad(empty)
        with pytest.raises(ValueError):
            mse(empty)


def report_of(table, s):
    return build_report(table, s, build_predictions(table, s))


class TestViolationRate:
    def test_hand_enumerated_example(self):
        table = make_table({"A": 2.0, "B": 1.0, "C": 0.0})
        s = slice_of([game("A", "B", 15, 10), game("C", "B", 15, 12)])
        report = report_of(table, s)
        assert (report.violation_rate, report.games_predicted) == (0.5, 2)

    def test_agrees_with_brute_enumeration(self):
        rng = random.Random(23)
        for _ in range(50):
            teams = [f"T{i}" for i in range(rng.randrange(3, 8))]
            ratings = {t: rng.choice([0.0, 1.0, 2.5, 2.5, 7.0]) for t in teams}
            games = []
            for day in range(rng.randrange(1, 15)):
                a, b = rng.sample(teams, 2)
                games.append(game(a, b, 15, rng.randrange(14), day=day))
            report = report_of(make_table(ratings), slice_of(games))
            v, _, total = violations_brute(ratings, [(g.winner, g.loser) for g in games])
            assert (report.violation_rate, report.games_predicted) == (v / total, total)

    def test_paper_style_self_consistency(self):
        # The worked three-game season judged by its own least-squares
        # ratings produces no violations: 6 > 1 > -7 matches every result.
        s = slice_of([game("A", "B", 15, 10), game("A", "C", 15, 2), game("B", "C", 15, 7)])
        report = report_of(compute_leastsq(s), s)
        assert (report.violation_rate, report.games_predicted) == (0.0, 3)

    def test_all_favorites_win(self):
        table = make_table({"A": 3.0, "B": 2.0, "C": 1.0})
        s = slice_of([game("A", "B", 15, 10), game("B", "C", 15, 10), game("A", "C", 15, 5)])
        assert violation_rate(build_predictions(table, s)) == 0.0

    def test_exact_tie_is_not_a_violation(self):
        table = make_table({"A": 1.0, "B": 1.0})
        s = slice_of([game("A", "B", 15, 10), game("B", "A", 15, 10, day=1)])
        assert violation_rate(build_predictions(table, s)) == 0.0

    def test_unrated_games_excluded_from_total(self):
        table = make_table({"A": 1.0, "B": 0.0})
        s = slice_of([game("A", "B", 15, 10), game("X", "A", 15, 10)])
        report = report_of(table, s)
        assert (report.violation_rate, report.games_predicted) == (0.0, 1)

    def test_zero_total_flagged(self):
        # With no countable game the rate is undefined, as MAD and MSE are.
        table = make_table({"A": 1.0})
        s = slice_of([game("X", "Y", 15, 10)])
        ps = build_predictions(table, s)
        with pytest.raises(ValueError, match="empty prediction set"):
            violation_rate(ps)
        with pytest.raises(ValueError, match="empty prediction set"):
            build_report(table, s, ps)

    def test_invariant_under_monotone_transforms(self):
        rng = random.Random(31)
        teams = [f"T{i}" for i in range(6)]
        ratings = {t: rng.uniform(-5, 5) for t in teams}
        games = [
            game(*rng.sample(teams, 2), 15, rng.randrange(14), day=d) for d in range(20)
        ]
        s = slice_of(games)
        rates = [
            violation_rate(build_predictions(make_table(transformed), s))
            for transformed in (ratings, {t: 2 * r + 7 for t, r in ratings.items()},
                      {t: r**3 for t, r in ratings.items()})
        ]
        assert rates[0] == rates[1] == rates[2] > 0.0


class TestBuildReport:
    def test_report_fields(self):
        s = slice_of([game("A", "B", 15, 10), game("A", "C", 15, 2), game("B", "C", 15, 7)])
        table = compute_leastsq(s)
        report = build_report(table, s, build_predictions(table, s))
        assert report.games_predicted == 3
        assert report.violation_rate == 0.0
        assert report.season == 2019
        assert report.method is Method.LEASTSQ
        assert report.mad >= 0.0
        assert report.mse >= 0.0

    def test_rejects_predictions_for_another_row(self):
        def worked(season):
            return slice_of([game(w, l, 15, score, season=season)
                             for w, l, score in (("A", "B", 10), ("A", "C", 2), ("B", "C", 7))])

        s, later = worked(2019), worked(2020)
        table = compute_leastsq(s)
        for ps in (build_predictions(compute_usau(s), s),
                   build_predictions(compute_leastsq(later), later)):
            with pytest.raises(ValueError, match="cannot fill"):
                build_report(table, s, ps)
