"""Synthetic season generation and rating recovery."""

import math
from datetime import date

import numpy as np
import pytest

from ultirate.domain import Division, Method, RatingTable
from ultirate.leastsq import LsParams, build_system, compute_leastsq, solve_ratings
from ultirate.synth import SynthSpec, generate
from ultirate.usau import calendar_weeks

from helpers import TieRng, games_of, recovery_error


def spec_of(ratings, **kwargs):
    return SynthSpec(true_ratings=dict(ratings), **kwargs)


class TestGenerate:
    def test_noiseless_round_robin_margins(self):
        s = generate(spec_of({"A": 10.0, "B": 0.0, "C": -10.0}, cap=15, seed=1))
        by_pair = {(g.winner, g.loser): (g.winning_score, g.losing_score) for g in games_of(s)}
        assert by_pair[("A", "B")] == (15, 5)   # margin 10
        assert by_pair[("B", "C")] == (15, 5)   # margin 10
        assert by_pair[("A", "C")] == (15, 1)   # |delta|=20 clamps to 14

    def test_winner_always_reaches_cap(self):
        s = generate(spec_of({"A": 3.0, "B": 1.0, "C": -4.0}, cap=13, seed=2, noise_sd=2.0))
        assert all(g.winning_score == 13 for g in games_of(s))

    def test_two_teams_single_game(self):
        s = generate(spec_of({"A": 1.0, "B": 0.0}))
        assert s.n_games == 1

    def test_same_seed_identical(self):
        spec = spec_of({f"T{i}": float(i) for i in range(6)}, noise_sd=3.0, seed=9)
        a, b = generate(spec), generate(spec)
        assert games_of(a) == games_of(b)
        assert a.day.tolist() == b.day.tolist()

    def test_different_seeds_differ(self):
        a = generate(spec_of({f"T{i}": float(i) for i in range(6)}, noise_sd=3.0, seed=1))
        b = generate(spec_of({f"T{i}": float(i) for i in range(6)}, noise_sd=3.0, seed=2))
        assert games_of(a) != games_of(b)

    def test_round_robin_game_count(self):
        s = generate(spec_of({f"T{i}": float(i) for i in range(8)}))
        assert s.n_games == 8 * 7 // 2

    def test_pods_schedule_disconnects(self):
        spec = spec_of({f"T{i}": float(i) for i in range(8)}, schedule="pods", pod_size=4)
        table = compute_leastsq(generate(spec))
        assert table.n_components == 2

    @pytest.mark.parametrize("noise_sd", [0.0, 2.0])
    def test_one_pod_of_every_team_is_the_round_robin(self, noise_sd):
        ratings = {f"T{i}": 0.7 * i for i in range(9)}
        rr = generate(spec_of(ratings, noise_sd=noise_sd, seed=4))
        pods = generate(spec_of(ratings, schedule="pods", pod_size=9, noise_sd=noise_sd, seed=4))
        assert games_of(pods) == games_of(rr)
        assert pods.teams == rr.teams and pods.day.tolist() == rr.day.tolist()

    def test_noise_moves_no_pairing(self):
        # Every pairing is drawn before the first noise draw, so the noise
        # decides only who wins each scheduled game, and by how much.
        ratings = {f"T{i}": float(i) for i in range(7)}
        pairs = [
            [frozenset((g.winner, g.loser)) for g in games_of(generate(spec_of(
                ratings, schedule="random", n_games=30, noise_sd=noise_sd, seed=5)))]
            for noise_sd in (0.0, 4.0)
        ]
        assert pairs[0] == pairs[1]

    def test_random_schedule_count(self):
        spec = spec_of({f"T{i}": float(i) for i in range(5)}, schedule="random", n_games=17, seed=3)
        assert generate(spec).n_games == 17

    def test_dates_span_weeks(self):
        s = generate(spec_of({f"T{i}": float(i) for i in range(8)}, n_weeks=6))
        assert calendar_weeks(s.day).max() == 6

    def test_equal_ratings_without_noise_rejected(self):
        with pytest.raises(ValueError):
            generate(spec_of({"A": 1.0, "B": 1.0}))

    def test_exact_tie_with_noise_rejected(self, monkeypatch):
        # Noise that cancels the rating gap is a ValueError, with no re-draw.
        monkeypatch.setattr(np.random, "default_rng", lambda seed: TieRng(1.5))
        with pytest.raises(ValueError, match="'A' and 'B' tie exactly"):
            generate(spec_of({"A": 1.5, "B": 0.0}, noise_sd=1.0))

    def test_invalid_specs_rejected(self):
        with pytest.raises(ValueError):
            spec_of({"A": 1.0})
        with pytest.raises(ValueError):
            spec_of({"A": 1.0, "B": 0.0}, schedule="ladder")
        with pytest.raises(ValueError):
            spec_of({"A": 1.0, "B": 0.0}, schedule="random")
        for noise_sd in (-1.0, math.nan, math.inf):
            with pytest.raises(ValueError):
                spec_of({"A": 1.0, "B": 0.0}, noise_sd=noise_sd)
        for rating in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError, match="true ratings must be finite"):
                spec_of({"A": rating, "B": 0.0})

    def test_last_week_of_the_latest_season(self):
        # Season 9999 starts on Monday 9999-06-07; 29 weeks end on 9999-12-26
        # and a 30th would run past 9999-12-31, the last representable date.
        s = generate(spec_of({"A": 1.0, "B": 0.0, "C": 2.0}, season=9999, n_weeks=29))
        assert max(g.date for g in games_of(s)) == date(9999, 12, 26)
        with pytest.raises(ValueError, match="n_weeks must be >= 1, with the last week"):
            spec_of({"A": 1.0, "B": 0.0}, season=9999, n_weeks=30)


class TestRecoveryError:
    def test_exact_estimate(self):
        truth = {"A": 4.0, "B": -1.0, "C": -3.0}
        table = RatingTable(
            method=Method.LEASTSQ, season=2000, division=Division.MENS,
            ratings=dict(truth), ranked={t: True for t in truth},
        )
        assert recovery_error(truth, table) == 0.0

    def test_constant_shift_removed(self):
        truth = {"A": 4.0, "B": -1.0, "C": -3.0}
        table = RatingTable(
            method=Method.LEASTSQ, season=2000, division=Division.MENS,
            ratings={t: v + 117.0 for t, v in truth.items()},
            ranked={t: True for t in truth},
        )
        assert recovery_error(truth, table) == pytest.approx(0.0, abs=1e-12)

    def test_single_unit_miss_on_four_teams(self):
        # estimate off by +1 on one of four: residuals re-center to
        # (0.75, -0.25, -0.25, -0.25), rms = sqrt(3)/4.
        truth = {"A": 2.0, "B": 1.0, "C": -1.0, "D": -2.0}
        est = dict(truth)
        est["A"] += 1.0
        table = RatingTable(
            method=Method.LEASTSQ, season=2000, division=Division.MENS,
            ratings=est, ranked={t: True for t in truth},
        )
        assert recovery_error(truth, table) == pytest.approx(
            math.sqrt(3) / 4, abs=1e-12
        )

    def test_mismatched_teams_rejected(self):
        truth = {"A": 1.0, "B": -1.0}
        table = RatingTable(
            method=Method.LEASTSQ, season=2000, division=Division.MENS,
            ratings={"A": 1.0, "X": -1.0}, ranked={"A": True, "X": True},
        )
        with pytest.raises(ValueError):
            recovery_error(truth, table)


class TestRecoveryProperties:
    def test_noiseless_round_robin_recovers_truth(self):
        # Integer gaps, span below the clamp ceiling: every margin survives
        # rounding and clamping, so the system is exactly consistent.
        truth = {f"T{i:02d}": float(9 - i) for i in range(20)}
        spec = spec_of(truth, cap=30, seed=4)
        table = solve_ratings(build_system(generate(spec), LsParams(reference_cap=30)))
        assert recovery_error(truth, table) < 1e-9

    def test_noise_degrades_recovery_monotonically(self):
        truth = {f"T{i}": float(2 * (3 - i)) for i in range(8)}
        medians = []
        for sd in (0.0, 2.0, 6.0):
            errors = []
            for seed in range(100):
                spec = spec_of(truth, cap=30, seed=seed, noise_sd=sd)
                table = solve_ratings(build_system(generate(spec), LsParams(reference_cap=30)))
                errors.append(recovery_error(truth, table))
            medians.append(float(np.median(errors)))
        assert medians[0] < medians[1] < medians[2]
