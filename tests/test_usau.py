"""Power-rating formulas, eligibility rules, and the fixed-point iteration."""

import math
import random

import numpy as np
import pytest

from ultirate import usau
from ultirate.cli import main
from ultirate.domain import Stage
from ultirate.ingest import write_games
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

from helpers import game, games_of, slice_of
from oracles import (
    blowout_ignorable,
    game_rating,
    iterate_loops,
    usau_fixed_point_residual,
    usau_game_inputs,
    usau_weighted_solve,
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

    def test_blowout_game_lands_in_ignored_set(self):
        s = _blowout_fixture()
        table = compute_usau(s)
        assert table.converged
        assert table.ignored_games == frozenset({12})
        g = games_of(s)[12]
        gap = table.ratings[g.winner] - table.ratings[g.loser]
        assert gap > 600.0
        assert g.winning_score > 2 * g.losing_score + 1
        # the guard held: the winner kept at least five other counted games
        counted_for_winner = sum(
            1 for i, other in enumerate(games_of(s))
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
        games = list(games_of(_blowout_fixture())) + [game("S", "L", 15, 1)]
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
    own tests pin down, and the team index is built here; the ratings dict
    lists the teams in that index's order. per_round takes iterate_loops'
    candidates_per_round, ignored_per_round and ratings_per_round lists.
    """
    games = games_of(season_slice)
    index = {}
    for g in games:
        index.setdefault(g.winner, len(index))
        index.setdefault(g.loser, len(index))
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
        usau.CONVERGENCE_TOL,
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

    Every team plays 8 games, so with random winners and losing scores of
    3-14 many teams have fewer than five games besides their blowouts.
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
    """Record the arguments of every round that runs the ordered loop."""
    calls = []
    greedy = usau._greedy_ignore

    def counted(*args):
        calls.append(args)
        return greedy(*args)

    monkeypatch.setattr(usau, "_greedy_ignore", counted)
    return calls


def _at_risk_teams(s):
    """Teams with fewer than MIN_OTHER_RESULTS games besides the blowout games they play."""
    n = len(s.teams)
    blowout = s.winning_score > 2 * s.losing_score + 1
    games = np.bincount(s.winner, minlength=n) + np.bincount(s.loser, minlength=n)
    blowouts = np.bincount(s.winner[blowout], minlength=n) + np.bincount(s.loser[blowout], minlength=n)
    return games - blowouts < MIN_OTHER_RESULTS


def _synthetic_season(noise_sd, n_weeks=12, n_teams=40, n_games=400, spread=10.0, seed=11):
    """Random pairings among teams whose true ratings are evenly spread."""
    ratings = {f"T{i:02d}": spread / 2 - spread * i / (n_teams - 1) for i in range(n_teams)}
    return generate(SynthSpec(true_ratings=ratings, schedule="random", n_games=n_games,
                              noise_sd=noise_sd, seed=seed, n_weeks=n_weeks))


def _period_seven_season():
    """60 teams, 600 random games; its ignored set cycles with period 7."""
    return _synthetic_season(3.0, n_teams=60, n_games=600, spread=12.0, seed=0)


def _count_rounds(monkeypatch, limit=10**5):
    """Record each rating round the kernel runs, failing after limit rounds.

    A round makes one np.divide call, for its weighted means, so a run the
    closed form did not end shows here as more rounds than the test allows.
    """
    rounds = []
    divide = np.divide

    def counted(*args, **kwargs):
        rounds.append(None)
        assert len(rounds) <= limit, f"the kernel ran more than {limit} rounds"
        return divide(*args, **kwargs)

    monkeypatch.setattr(np, "divide", counted)
    return rounds


# A capped run that ends a cycle in closed form adds q rises at once where
# the loop oracle adds them one period at a time. Over every capped run
# checked against the oracle here (SWEEP_CAPS on three fixtures, the
# period-7 season at 500) the largest difference measured is 4.8e-12.
CLOSED_FORM_TOL = 1e-9
# Every capped fixture here confirms its cycle after round 128, so a run
# capped there is the round-by-round run.
BEFORE_CYCLE_CAP = 128


def _assert_matches_oracle(season_slice, params, table, rating_tol=0.0, **per_round):
    """table equals the loop oracle's, and a converged one is at its fixed point.

    Ratings match bit for bit, or within rating_tol for a run that ends a
    cycle in closed form; everything else matches exactly.
    """
    ratings, ignored, ranked, iterations, converged = _oracle_table(
        season_slice, params, **per_round
    )
    assert table.converged is converged
    assert table.iterations_used == iterations
    if rating_tol:
        assert table.ratings == pytest.approx(ratings, abs=rating_tol)
    else:
        assert table.ratings == ratings
    assert list(table.ratings) == list(ratings)
    assert table.ignored_games == ignored
    assert table.ranked == ranked
    if converged:
        assert usau_fixed_point_residual(season_slice, table) < 2 * usau.CONVERGENCE_TOL


def _assert_closed_form_end(season_slice, params, monkeypatch, **per_round):
    """A capped run on a cycling season stops early and matches the oracle.

    It matches within CLOSED_FORM_TOL at its cap, and bit for bit, running
    every round, at BEFORE_CYCLE_CAP.
    """
    rounds = _count_rounds(monkeypatch)
    table = compute_usau(season_slice, params)
    assert len(rounds) < params.max_iterations
    _assert_matches_oracle(season_slice, params, table, CLOSED_FORM_TOL, **per_round)
    before = UsauParams(max_iterations=BEFORE_CYCLE_CAP)
    rounds.clear()
    _assert_matches_oracle(season_slice, before, compute_usau(season_slice, before))
    assert len(rounds) == BEFORE_CYCLE_CAP
    return table


class TestKernelOracle:
    """compute_usau matches the per-game loop oracle bit for bit, or to
    CLOSED_FORM_TOL in the ratings where a capped run ends a cycle in closed form."""

    @pytest.mark.parametrize("season, params, converges, closed_form", [
        pytest.param(_twelve_team_fixture, UsauParams(max_iterations=300), False, True,
                     id="12x40-capped"),
        pytest.param(lambda: _synthetic_season(1.5), UsauParams(), True, False,
                     id="40x400-noise1.5"),
        # Over 35 weeks, 2.0 ** (t/n - 1) and np.power(2.0, t/n - 1) differ
        # in the last bit for some weeks t, such as t = 1 and t = 4.
        pytest.param(lambda: _synthetic_season(1.5, n_weeks=35), UsauParams(), True, False,
                     id="40x400-35-weeks"),
        pytest.param(lambda: _synthetic_season(3.0), UsauParams(max_iterations=300), False, True,
                     id="40x400-noise3-capped"),
        # The pods cycle too, but each component rises at its own rate, so
        # the run never ends in closed form.
        pytest.param(_pod_fixture, UsauParams(max_iterations=2000), False, False,
                     id="20x80-pods-capped"),
    ])
    def test_matches_loop_oracle(self, season, params, converges, closed_form, monkeypatch):
        s = season()
        if closed_form:
            table = _assert_closed_form_end(s, params, monkeypatch)
        else:
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

    def test_ignored_set_cycles_with_period_seven(self, monkeypatch):
        # A cycle longer than two rounds, as on noisy full seasons (the
        # benchmark's capped season cycles through 12 sets): the kernel
        # rebuilds den on every change of the ignored set.
        s = _period_seven_season()
        params = UsauParams(max_iterations=500)
        ignored_per_round = []
        table = _assert_closed_form_end(s, params, monkeypatch,
                                        ignored_per_round=ignored_per_round)
        assert not table.converged
        tail = ignored_per_round[-50:]
        periods = [p for p in range(1, 13) if tail[p:] == tail[:-p]]
        assert periods[0] == 7

    def test_wide_tolerance_does_not_end_the_cycle(self, monkeypatch):
        # Convergence also needs an unchanged ignored set, so on a cycling
        # season a tolerance 1e5 times wider stops nothing earlier.
        s = _period_seven_season()
        params = UsauParams(max_iterations=500)
        default = compute_usau(s, params)
        monkeypatch.setattr(usau, "CONVERGENCE_TOL", 0.1)
        wide = compute_usau(s, params)
        assert wide == default
        assert wide.iterations_used == 500 and not wide.converged

    def test_pods_run_the_loop_in_every_at_risk_round(self, monkeypatch):
        # Every round with candidates has an at-risk winner among them, and
        # each of those rounds runs the ordered loop.
        s, params = _pod_fixture(), UsauParams(max_iterations=2000)
        calls = _count_fallbacks(monkeypatch)
        table = compute_usau(s, params)
        candidates_per_round = []
        _assert_matches_oracle(s, params, table, candidates_per_round=candidates_per_round)
        at_risk = _at_risk_teams(s)
        assert len(calls) == sum(1 for n in candidates_per_round if n) == 1999
        assert all(at_risk[winners].any() for _, winners, _, _ in calls)

    def test_no_at_risk_winner_never_runs_the_loop(self, monkeypatch):
        # The per-game oracle is too slow for all 10000 rounds, so it counts
        # candidates over the first 300; the kernel then reaches the default cap.
        s = _synthetic_season(3.0)
        blowout = s.winning_score > 2 * s.losing_score + 1
        assert not _at_risk_teams(s)[s.winner[blowout]].any()
        candidates_per_round = []
        _oracle_table(s, UsauParams(max_iterations=300), candidates_per_round=candidates_per_round)
        assert sum(1 for n in candidates_per_round if n) == 299
        calls = _count_fallbacks(monkeypatch)
        table = compute_usau(s)
        assert table.iterations_used == UsauParams().max_iterations and not table.converged
        assert table.ignored_games and calls == []


class TestWeightedSolveOracle:
    """A converged power rating is the weighted least-squares rating of its kept games.

    With the ignored set fixed, a round is a lazy Jacobi step on the kept
    games' weighted Laplacian, so its fixed point solves one linear system
    (tests/oracles.py::usau_weighted_solve). Where usau_fixed_point_residual
    checks one more round, this checks the whole table at once.
    """

    @pytest.mark.parametrize("season", [
        pytest.param(lambda: _synthetic_season(1.5), id="40x400-noise1.5"),
        pytest.param(lambda: _synthetic_season(1.5, n_weeks=35), id="40x400-35-weeks"),
        *(pytest.param(lambda seed=seed: _synthetic_season(2.0, spread=12.0, seed=seed),
                       id=f"40x400-noise2-seed{seed}") for seed in (1, 6, 7)),
        pytest.param(_blowout_fixture, id="blowout"),
    ])
    def test_converged_table_is_the_weighted_solve(self, season):
        s = season()
        table = compute_usau(s)
        assert table.converged and table.ignored_games
        solved = usau_weighted_solve(s, table)
        assert list(solved) == list(table.ratings)
        assert table.ratings == pytest.approx(solved, abs=1e-5)

    def test_capped_table_is_far_from_its_own_sets_solve(self):
        # Non-convergence is not a slow approach: a capped run's ratings lie
        # rating points away from the fixed point of the set it ends on.
        s = _synthetic_season(2.0, spread=12.0, seed=0)
        table = compute_usau(s)
        assert not table.converged
        solved = usau_weighted_solve(s, table)
        assert max(abs(table.ratings[t] - solved[t]) for t in solved) > 1.0


# 41 consecutive caps, more than any period below (16, 2 and 7), so they
# meet every phase of the cycle. That includes the phase where the rounds
# left after the confirming round k are a whole number of periods less one,
# so the run does one whole period round by round.
SWEEP_CAPS = range(260, 301)


@pytest.fixture(scope="module", params=[
    pytest.param(_twelve_team_fixture, id="12x40"),
    pytest.param(lambda: _synthetic_season(3.0), id="40x400-noise3"),
    pytest.param(_period_seven_season, id="60x600-period7"),
])
def round_by_round(request):
    """A cycling season, the loop oracle's ratings and ignored set after each round, and its period."""
    s = request.param()
    ratings_per_round, ignored_per_round = [], []
    final, *_ = _oracle_table(s, UsauParams(max_iterations=SWEEP_CAPS[-1]),
                              ratings_per_round=ratings_per_round,
                              ignored_per_round=ignored_per_round)
    tail = ignored_per_round[-50:]
    period = next(p for p in range(1, 25) if tail[p:] == tail[:-p])
    ratings = [dict(zip(final, r.tolist())) for r in ratings_per_round]
    return s, ratings, ignored_per_round, period


def _confirming_round(ratings, ignored, period):
    """The round k = j + period in which the checkpoint j first sees the cycle, from the oracle.

    j is the first power of two from 2 on from which, in every later round
    the oracle ran, the ignored set recurs period rounds on, and the ratings
    the round starts from have risen by one constant, to CYCLE_TOL, period
    rounds on.
    ratings[r - 1] and ignored[r - 1] are the ratings after round r and the
    set of round r.
    """
    def cycling_from(j):
        return all(ignored[r - 1] == ignored[r - 1 + period]
                   and np.ptp([ratings[r - 2 + period][team] - x
                               for team, x in ratings[r - 2].items()]) <= usau.CYCLE_TOL
                   for r in range(j, len(ratings) - period + 1))

    j = next(2**t for t in range(1, 9) if cycling_from(2**t))
    return j + period


def _closest_to_blowout_gap(s, ratings, period):
    """The smallest distance of a blowout game's rating gap to BLOWOUT_GAP over one period."""
    blowouts = [g for g in games_of(s) if g.winning_score > 2 * g.losing_score + 1]
    return min(abs(r[g.winner] - r[g.loser] - BLOWOUT_GAP)
               for r in ratings[-period:] for g in blowouts)


def _ranked_of(s, ignored):
    """Each team's ranked flag when the games at the ignored indices do not count."""
    counted = dict.fromkeys(s.teams, 0)
    for i, g in enumerate(games_of(s)):
        if i not in ignored:
            counted[g.winner] += 1
            counted[g.loser] += 1
    return {team: c >= MIN_GAMES_RANKED for team, c in counted.items()}


# Caps on either side of 2**t, far past SWEEP_CAPS. A run that jumps at round
# k goes on as round cap - s; for some of these caps that is the checkpoint
# round 2**t itself, and for all of them the jump passes over earlier ones.
FAR_CAP_POWERS = (9, 10, 13, 16, 19, 22, 25, 26, 28, 30)


class TestClosedFormEnd:
    """A capped run on a cycling season ends its cycle in closed form."""

    def test_every_phase_matches_the_oracle(self, round_by_round, monkeypatch):
        s, ratings, ignored, period = round_by_round
        rounds = _count_rounds(monkeypatch)
        rounds_run = set()
        for cap in SWEEP_CAPS:
            rounds.clear()
            table = compute_usau(s, UsauParams(max_iterations=cap))
            rounds_run.add(len(rounds))
            assert table.iterations_used == cap and not table.converged
            assert table.ignored_games == ignored[cap - 1]
            assert table.ratings == pytest.approx(ratings[cap - 1], abs=CLOSED_FORM_TOL)
        # Each run confirms the cycle in the same round k, runs it and then
        # the 0 to period - 1 rounds the cap leaves over.
        assert len(rounds_run) == period and max(rounds_run) < SWEEP_CAPS[0]
        k = _confirming_round(ratings, ignored, period)
        assert min(rounds_run) == k and max(rounds_run) == k + period - 1

    def test_no_whole_period_left_runs_every_round(self, round_by_round, monkeypatch):
        # Capped under one period after the confirming round k, the run has no
        # period to add in closed form, so it runs to the cap round by round;
        # one round later it adds one period and stops at round k.
        s, ratings, ignored, period = round_by_round
        rounds = _count_rounds(monkeypatch)
        k = _confirming_round(ratings, ignored, period)
        for cap, run in ((k + period - 1, k + period - 1), (k + period, k)):
            rounds.clear()
            table = compute_usau(s, UsauParams(max_iterations=cap))
            assert len(rounds) == run and table.iterations_used == cap
            assert table.ignored_games == ignored[cap - 1]
            if run == cap:
                assert table.ratings == ratings[cap - 1]
            else:
                assert table.ratings == pytest.approx(ratings[cap - 1], abs=CLOSED_FORM_TOL)

    def test_far_caps_match_the_same_phase_cap(self, round_by_round, monkeypatch):
        # A far cap publishes the ignored set and ranked flags of the loop
        # oracle at the cap of SWEEP_CAPS in the same phase of the cycle. The
        # run stops within one period of round k unless the margin guard
        # refuses that jump: 12x40 has a gap within 0.003 of 600 once a
        # period, so from 2**26 on it jumps from a later window.
        s, ratings, ignored, period = round_by_round
        rounds = _count_rounds(monkeypatch, limit=2000)
        k = _confirming_round(ratings, ignored, period)
        closest = _closest_to_blowout_gap(s, ratings, period)
        for t in FAR_CAP_POWERS:
            for cap in (2**t - 1, 2**t, 2**t + 1, 2**t + period - 1):
                rounds.clear()
                table = compute_usau(s, UsauParams(max_iterations=cap))
                assert table.iterations_used == cap and not table.converged
                same_phase = next(c for c in SWEEP_CAPS if (cap - c) % period == 0)
                assert table.ignored_games == ignored[same_phase - 1]
                assert table.ranked == _ranked_of(s, ignored[same_phase - 1])
                guard_allows = (cap - k) // period * usau.CYCLE_TOL < closest
                assert (len(rounds) < k + period) is guard_allows, (t, cap - 2**t)

    def test_same_phase_caps_differ_by_whole_rises(self, round_by_round):
        s, _, _, period = round_by_round
        cap, n = SWEEP_CAPS[-1], 1000
        tables = [compute_usau(s, UsauParams(max_iterations=cap + k * period)) for k in (0, 1, n)]
        at_cap, one_more, n_more = (np.array(list(t.ratings.values())) for t in tables)
        rise = one_more - at_cap
        assert np.ptp(rise) < CLOSED_FORM_TOL and abs(rise.mean()) > 1e-4
        assert n_more - at_cap == pytest.approx(n * rise, abs=CLOSED_FORM_TOL)
        assert tables[0].ignored_games == tables[1].ignored_games == tables[2].ignored_games
        assert tables[0].ranked == tables[1].ranked == tables[2].ranked

    def test_gap_near_blowout_gap_defers_the_jump(self, monkeypatch):
        # A blowout gap of 12x40 comes within 0.003 of 600 once a period. A
        # cap of 10**9 leaves q * CYCLE_TOL near 0.06 at the first confirmed
        # period, so that run waits for a longer window and a smaller q.
        s = _twelve_team_fixture()
        rounds = _count_rounds(monkeypatch)
        rounds_run = []
        for cap in (10**6, 10**9):
            rounds.clear()
            assert compute_usau(s, UsauParams(max_iterations=cap)).iterations_used == cap
            rounds_run.append(len(rounds))
        assert rounds_run[0] < 200 < rounds_run[1]

    def test_billion_round_cap_returns(self, monkeypatch):
        # Round by round this would take hours; the closed form runs one
        # period past the cycle's confirmation. 10**9 - 300 is a multiple of 7.
        s = _period_seven_season()
        _count_rounds(monkeypatch, limit=1000)  # fails the run after 1000 rounds
        table = compute_usau(s, UsauParams(max_iterations=10**9))
        assert table.iterations_used == 10**9 and not table.converged
        assert table.ignored_games == compute_usau(s, UsauParams(max_iterations=300)).ignored_games

    def test_same_phase_caps_write_the_same_metrics(self, tmp_path):
        # Through the CLI, caps 300 and 10**9 end in the same phase of the
        # period-7 cycle, so evaluate writes the same bytes at both.
        games = tmp_path / "games.csv"
        write_games(_period_seven_season(), games)
        written = []
        for cap in (300, 10**9):
            out = tmp_path / f"metrics_{cap}.csv"
            assert main(["evaluate", "--input", str(games), "--output", str(out),
                         "--max-iters", str(cap)]) == 0
            written.append(out.read_bytes())
        assert written[0] == written[1]


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
            BLOWOUT_GAP, MIN_OTHER_RESULTS, usau.CONVERGENCE_TOL,
            params.max_iterations,
        )
        assert got[1].dtype == np.int64 and got[1].tolist() == sorted(ignored)
        assert len(calls) == fallbacks
        assert np.array_equal(got[1], np.flatnonzero(want[1]))
        for i in (0, 2, 3, 4):
            assert np.array_equal(got[i], want[i])


class TestParams:
    def test_default_consistency(self):
        assert BASE_DIFF + DIFF_SPAN == MAX_DIFF == 600.0

    def test_nonpositive_rejected(self):
        with pytest.raises(ValueError, match="max_iterations must be positive"):
            UsauParams(max_iterations=0)
