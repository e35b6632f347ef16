"""Power-rating formulas, eligibility rules, and the fixed-point iteration."""

import math
import random

import numpy as np
import pytest

from ultirate import usau
from ultirate.domain import Stage
from ultirate.synth import SynthSpec, generate
from ultirate.usau import (
    BASE_DIFF,
    BLOWOUT_GAP,
    DIFF_SPAN,
    INITIAL_RATING,
    MAX_DIFF,
    MIN_GAMES_RANKED,
    MIN_OTHER_RESULTS,
    UsauParams,
    compute_usau,
    date_weight,
    game_diff,
    score_weight,
)

from helpers import game, slice_of
from oracles import (
    blowout_ignorable,
    game_rating,
    iterate_loops,
    usau_fixed_point_residual,
    usau_game_inputs,
)


class TestGameDiff:
    def test_one_point_game_is_125(self):
        assert game_diff(15, 14) == 125.0

    def test_double_plus_margin_is_600(self):
        assert game_diff(15, 7) == 600.0

    def test_mid_margin_value(self):
        # 125 + 475*sin(0.2*pi)/sin(0.4*pi), checked at 30-digit precision
        assert game_diff(13, 9) == pytest.approx(418.5661446562, abs=1e-9)

    def test_every_one_point_game_worth_125(self):
        for w in range(2, 31):
            assert game_diff(w, w - 1) == 125.0

    def test_600_exactly_iff_winning_score_more_than_doubles(self):
        for w in range(2, 31):
            for l in range(w):
                if w > 2 * l:
                    assert game_diff(w, l) == 600.0, (w, l)
                else:
                    assert game_diff(w, l) < 600.0, (w, l)

    def test_nonincreasing_in_losing_score(self):
        for w in range(2, 31):
            values = [game_diff(w, l) for l in range(w)]
            assert values == sorted(values, reverse=True)

    def test_bounds(self):
        for w in range(2, 31):
            for l in range(w):
                assert 125.0 <= game_diff(w, l) <= 600.0

    def test_rejects_bad_scores(self):
        with pytest.raises(ValueError):
            game_diff(1, 0)
        with pytest.raises(ValueError):
            game_diff(10, 10)
        with pytest.raises(ValueError):
            game_diff(10, -1)


class TestGameRating:
    def test_win_one_point_game(self):
        assert game_rating(1000.0, 15, 14, won=True) == 1125.0

    def test_lose_blowout(self):
        assert game_rating(1000.0, 15, 7, won=False) == 400.0

    def test_lose_mid_margin(self):
        assert game_rating(1500.0, 13, 9, won=False) == pytest.approx(
            1081.4338553438, abs=1e-9
        )


class TestDateWeight:
    def test_final_week_full_weight(self):
        for n in (1, 5, 13):
            assert date_weight(n, n) == 1.0

    def test_halfway(self):
        assert date_weight(1, 2) == pytest.approx(0.7071067811865476, abs=1e-12)

    def test_first_of_thirteen(self):
        assert date_weight(1, 13) == pytest.approx(0.5273830382408233, abs=1e-12)

    def test_range(self):
        for n in range(1, 30):
            for t in range(1, n + 1):
                assert 0.5 < date_weight(t, n) <= 1.0

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            date_weight(0, 5)
        with pytest.raises(ValueError):
            date_weight(6, 5)


class TestScoreWeight:
    def test_full_weight_game(self):
        assert score_weight(15, 10) == 1.0

    def test_short_game(self):
        assert score_weight(11, 5) == pytest.approx(math.sqrt(16 / 19), abs=1e-12)

    def test_floor_dominates_low_losing_score(self):
        # max(2, (9-1)//2) = 4 -> sqrt(13/19)
        assert score_weight(9, 2) == pytest.approx(math.sqrt(13 / 19), abs=1e-12)

    def test_games_to_15_always_full_weight(self):
        for l in range(15):
            assert score_weight(15, l) == 1.0

    def test_games_won_with_13_or_more_full_weight(self):
        for w in range(13, 31):
            for l in range(w):
                assert score_weight(w, l) == 1.0


class TestBlowoutPredicate:
    def test_applies(self):
        assert blowout_ignorable(601, 15, 6) is True

    def test_margin_must_exceed_double_plus_one(self):
        assert blowout_ignorable(601, 15, 7) is False

    def test_gap_must_exceed_600(self):
        assert blowout_ignorable(600, 15, 2) is False


def _blowout_fixture():
    """Star S beats six mids 15-10, mids beat W 15-2, and S beats W 15-4.

    Only the S-W game (index 12) is ever ignorable: the S-mid margins never
    qualify, and the mids never hold the five other results the rule demands.
    """
    games = []
    mids = [f"M{i}" for i in range(1, 7)]
    for m in mids:
        games.append(game("S", m, 15, 10))
    for m in mids:
        games.append(game(m, "W", 15, 2))
    games.append(game("S", "W", 15, 4))
    return slice_of(games)


class TestComputeUsau:
    def test_two_team_fixed_point(self):
        s = slice_of([game("A", "B", 15, 14)])
        table = compute_usau(s)
        assert table.ratings["A"] == pytest.approx(1125.0, abs=1e-9)
        assert table.ratings["B"] == pytest.approx(875.0, abs=1e-9)
        assert table.converged
        assert table.iterations_used < 100

    def test_rejects_postseason_slice(self):
        s = slice_of([game("A", "B", 15, 14, stage=Stage.POST)])
        with pytest.raises(ValueError):
            compute_usau(s)

    def test_widening_tolerance_never_unconverges(self):
        s = _blowout_fixture()
        base = compute_usau(s, UsauParams(convergence_tol=1e-6))
        assert base.converged
        wide = compute_usau(s, UsauParams(convergence_tol=2e-6))
        assert wide.converged
        assert wide.iterations_used <= base.iterations_used

    def test_blowout_game_lands_in_ignored_set(self):
        s = _blowout_fixture()
        table = compute_usau(s)
        assert table.converged
        assert table.ignored_games == frozenset({12})
        g = s.games[12]
        gap = table.ratings[g.winner] - table.ratings[g.loser]
        assert gap > 600.0
        assert g.winning_score > 2 * g.losing_score + 1
        # the guard held: the winner kept at least five other counted games
        counted_for_winner = sum(
            1 for i, other in enumerate(s.games)
            if i not in table.ignored_games and g.winner in (other.winner, other.loser)
        )
        assert counted_for_winner >= 5

    def test_ignore_rule_protects_heavy_favorite(self):
        s = _blowout_fixture()
        with_rule = compute_usau(s)
        without_ratings, without_ignored, *_ = _oracle_table(s, UsauParams(), gap_limit=math.inf)
        assert without_ignored == frozenset()
        assert with_rule.ratings["S"] >= without_ratings["S"]

    def test_min_other_results_guard(self):
        # S has only the W game plus four others: too few to invoke the rule.
        games = [game("S", f"M{i}", 15, 10) for i in range(1, 5)]
        games += [game(f"M{i}", "W", 15, 2) for i in range(1, 5)]
        games.append(game("S", "W", 15, 4))
        table = compute_usau(slice_of(games))
        assert table.ignored_games == frozenset()

    def test_team_with_all_games_ignored_keeps_rating(self):
        games = list(_blowout_fixture().games) + [game("S", "L", 15, 1)]
        table = compute_usau(slice_of(games))
        assert 13 in table.ignored_games
        # L's only game was dropped once the gap opened; its rating froze at
        # the last counted round (1000 - 600 from the uniform start) instead
        # of resetting to 1000.
        assert table.ratings["L"] == pytest.approx(400.0, abs=1e-6)
        assert table.ranked["L"] is False

    def test_iteration_cap_reports_unconverged(self):
        s = _blowout_fixture()  # needs ~30 rounds; cap it at 3
        table = compute_usau(s, UsauParams(max_iterations=3))
        assert table.converged is False
        assert table.iterations_used == 3
        assert all(math.isfinite(r) for r in table.ratings.values())

    def test_ranked_requires_ten_counted_games(self):
        games = []
        for i in range(10):
            games.append(game("A", f"B{i % 5}", 15, 11, day=i))
        table = compute_usau(slice_of(games))
        assert table.ranked["A"] is True
        assert all(table.ranked[f"B{i}"] is False for i in range(5))

    def test_every_team_rated_finite(self):
        table = compute_usau(_blowout_fixture())
        assert all(math.isfinite(r) for r in table.ratings.values())

    def test_deterministic_bit_for_bit(self):
        s = _blowout_fixture()
        t1 = compute_usau(s)
        t2 = compute_usau(s)
        assert t1.ratings == t2.ratings
        assert t1.ignored_games == t2.ignored_games
        assert t1.iterations_used == t2.iterations_used


def _oracle_table(season_slice, params, gap_limit=BLOWOUT_GAP, **per_round):
    """compute_usau's outputs rebuilt around the loop oracle.

    The per-game inputs come from the public formula functions, which their
    own tests pin down, and the team index is built here. per_round takes
    iterate_loops' candidates_per_round and ignored_per_round lists.
    """
    index = {}
    for g in season_slice.games:
        index.setdefault(g.winner, len(index))
        index.setdefault(g.loser, len(index))
    games = season_slice.games
    diff, weight = usau_game_inputs(games)
    ratings, ignored, counted, iterations, converged = iterate_loops(
        np.array([index[g.winner] for g in games], np.int64),
        np.array([index[g.loser] for g in games], np.int64),
        diff,
        weight,
        np.array([g.winning_score > 2 * g.losing_score + 1 for g in games]),
        len(index),
        INITIAL_RATING,
        gap_limit,
        MIN_OTHER_RESULTS,
        params.convergence_tol,
        params.max_iterations,
        **per_round,
    )
    return (
        {team: float(ratings[i]) for team, i in index.items()},
        frozenset(int(g) for g in np.flatnonzero(ignored)),
        {team: int(counted[i]) >= MIN_GAMES_RANKED for team, i in index.items()},
        iterations,
        converged,
    )


def _twelve_team_fixture():
    """40 random games among 12 teams; its ignored set never settles."""
    rng = random.Random(3)
    games = []
    for day in range(40):
        a, b = rng.sample(range(12), 2)
        l = rng.randrange(0, 14)
        games.append(game(f"T{a}", f"T{b}", 15, l, day=day * 2))
    return slice_of(games)


def _pod_fixture():
    """Four 5-team pods, every pair twice; its ignored set never settles.

    Random winners and losing scores of 3-14 leave some rounds where a
    candidate's winner would fall below five other results if every
    candidate were dropped, and others where it would not.
    """
    rng = random.Random(1)
    games = []
    for pod in range(4):
        teams = [f"T{pod * 5 + i:02d}" for i in range(5)]
        pairs = [(a, b) for i, a in enumerate(teams) for b in teams[i + 1:]]
        for a, b in pairs + pairs:
            winner, loser = (a, b) if rng.random() < 0.5 else (b, a)
            games.append(game(winner, loser, 15, rng.randint(3, 14), day=len(games) % 28))
    return slice_of(games)


def _count_fallbacks(monkeypatch):
    """Record the candidates of every round that takes the ordered-loop fallback."""
    calls = []
    greedy = usau._greedy_ignore

    def counted(*args):
        calls.append(args[0])
        return greedy(*args)

    monkeypatch.setattr(usau, "_greedy_ignore", counted)
    return calls


def _synthetic_season(noise_sd, n_weeks=12, n_teams=40, n_games=400, spread=10.0, seed=11):
    """Random pairings among teams whose true ratings are evenly spread."""
    ratings = {f"T{i:02d}": spread / 2 - spread * i / (n_teams - 1) for i in range(n_teams)}
    return generate(SynthSpec(true_ratings=ratings, schedule="random", n_games=n_games,
                              noise_sd=noise_sd, seed=seed, n_weeks=n_weeks))


def _assert_matches_oracle(season_slice, params, table, **per_round):
    """table equals the loop oracle's bit for bit, and a converged one is at its fixed point."""
    ratings, ignored, ranked, iterations, converged = _oracle_table(
        season_slice, params, **per_round
    )
    assert table.converged is converged
    assert table.iterations_used == iterations
    assert table.ratings == ratings
    assert list(table.ratings) == list(ratings)
    assert table.ignored_games == ignored
    assert table.ranked == ranked
    if converged:
        assert usau_fixed_point_residual(season_slice, table) < 2 * params.convergence_tol


class TestKernelOracle:
    """compute_usau matches the per-game loop oracle bit for bit."""

    @pytest.mark.parametrize("season, params, converges", [
        pytest.param(_twelve_team_fixture, UsauParams(max_iterations=300), False,
                     id="12x40-capped"),
        pytest.param(lambda: _synthetic_season(1.5), UsauParams(), True, id="40x400-noise1.5"),
        # Over 35 weeks, 2.0 ** (t/n - 1) and np.power(2.0, t/n - 1) differ
        # in the last bit for some weeks t, such as t = 1 and t = 4.
        pytest.param(lambda: _synthetic_season(1.5, n_weeks=35), UsauParams(), True,
                     id="40x400-35-weeks"),
        pytest.param(lambda: _synthetic_season(3.0), UsauParams(max_iterations=300), False,
                     id="40x400-noise3-capped"),
        pytest.param(_pod_fixture, UsauParams(max_iterations=2000), False,
                     id="20x80-pods-capped"),
    ])
    def test_matches_loop_oracle(self, season, params, converges):
        s = season()
        table = compute_usau(s, params)
        _assert_matches_oracle(s, params, table)
        assert table.converged is converges

    def test_fixed_point_converges_in_one_round(self):
        # The first round compares its ignored set against the empty set, not
        # against "no previous round", so a slice at its fixed point stops at once.
        s = slice_of([game("A", "B", 15, 10), game("B", "A", 15, 10)])
        table = compute_usau(s)
        _assert_matches_oracle(s, UsauParams(), table)
        assert table.iterations_used == 1
        assert table.converged

    def test_ignored_set_cycles_with_period_seven(self):
        # A cycle longer than two rounds, as on noisy full seasons (the
        # benchmark's capped season cycles through 12 sets): the kernel
        # rebuilds den on every change of the ignored set.
        s = _synthetic_season(3.0, n_teams=60, n_games=600, spread=12.0, seed=0)
        params = UsauParams(max_iterations=500)
        ignored_per_round = []
        table = compute_usau(s, params)
        _assert_matches_oracle(s, params, table, ignored_per_round=ignored_per_round)
        assert not table.converged
        tail = ignored_per_round[-50:]
        periods = [p for p in range(1, 13) if tail[p:] == tail[:-p]]
        assert periods[0] == 7

    def test_pods_take_fast_path_and_fallback(self, monkeypatch):
        s, params = _pod_fixture(), UsauParams(max_iterations=2000)
        fallbacks = _count_fallbacks(monkeypatch)
        compute_usau(s, params)
        candidates_per_round = []
        _oracle_table(s, params, candidates_per_round=candidates_per_round)
        candidate_rounds = sum(1 for n in candidates_per_round if n)
        assert 0 < len(fallbacks) < candidate_rounds


def _star(n_wins, blowouts):
    """Team 0 beats teams 1..n_wins in turn; the games at the blowouts indices qualify."""
    return [(0, t + 1, t in blowouts) for t in range(n_wins)]


class TestIgnoredSetRule:
    """Hand-built ignored sets, kernel against the loop oracle.

    Every game is worth 2000 points at weight 1, so after round 1 each
    winner here is rated at least 666 points above its loser, and round 2
    derives the ignored set from those gaps under the 600-point BLOWOUT_GAP.
    """

    @pytest.mark.parametrize("games, ignored, fallbacks", [
        pytest.param(_star(7, {2, 5}), {2, 5}, 0, id="winner-left-at-min-other"),
        pytest.param(_star(5, {2}), set(), 1, id="winner-one-below"),
        pytest.param(_star(6, {4, 1}), {1}, 1, id="shared-winner-first-only"),
        pytest.param(
            [(0, 1, True)] + [(0, t, False) for t in range(3, 8)]
            + [(1, 2, True)] + [(1, t, False) for t in range(8, 12)],
            {0}, 1, id="loser-is-later-winner",
        ),
    ])
    def test_round_matches_oracle(self, games, ignored, fallbacks, monkeypatch):
        calls = _count_fallbacks(monkeypatch)
        winner = np.array([w for w, _, _ in games], np.int64)
        loser = np.array([l for _, l, _ in games], np.int64)
        blowout = np.array([b for _, _, b in games])
        diff, weight = np.full(len(games), 2000.0), np.ones(len(games))
        n_teams = int(max(winner.max(), loser.max())) + 1
        params = UsauParams(max_iterations=2)

        got = usau._iterate(winner, loser, diff, weight, blowout, n_teams, params)
        want = iterate_loops(
            winner, loser, diff, weight, blowout, n_teams, INITIAL_RATING,
            BLOWOUT_GAP, MIN_OTHER_RESULTS, params.convergence_tol,
            params.max_iterations,
        )
        assert set(np.flatnonzero(got[1]).tolist()) == ignored
        assert len(calls) == fallbacks
        for g, w in zip(got, want):
            assert np.array_equal(g, w)


class TestParams:
    def test_default_consistency(self):
        assert BASE_DIFF + DIFF_SPAN == MAX_DIFF == 600.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError):
            UsauParams(convergence_tol=0.0)

    @pytest.mark.parametrize("tol", [math.nan, math.inf])
    def test_nonfinite_tolerance_rejected(self, tol):
        with pytest.raises(ValueError, match="convergence_tol must be finite"):
            UsauParams(convergence_tol=tol)
