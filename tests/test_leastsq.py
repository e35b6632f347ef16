"""Schedule system construction and the minimum-norm least-squares solve."""

import random

import numpy as np
import pytest

from ultirate.domain import Division, SeasonSlice, Stage
from ultirate.leastsq import (
    LsParams,
    ScheduleSystem,
    build_system,
    compute_leastsq,
    normalize_diff,
    solve_ratings,
)

from ultirate.synth import SynthSpec, generate

from helpers import game, games_of, slice_of
from oracles import components_brute, least_squares_dense, least_squares_pgd


def worked_example_slice():
    """A beats B 15-10, A beats C 15-2, B beats C 15-7."""
    return slice_of([
        game("A", "B", 15, 10),
        game("A", "C", 15, 2),
        game("B", "C", 15, 7),
    ])


class TestNormalizeDiff:
    def test_shorter_game_scaled_up(self):
        assert normalize_diff(12, 8) == pytest.approx(5.0, abs=1e-12)

    def test_identity_at_reference_cap(self):
        assert normalize_diff(15, 10) == 5.0

    def test_odd_cap(self):
        assert normalize_diff(13, 11) == pytest.approx(2 * 15 / 13, abs=1e-12)

    def test_custom_reference_cap(self):
        assert normalize_diff(30, 11, LsParams(reference_cap=30)) == 19.0

    @pytest.mark.parametrize("cap", [1, 0, -15])
    def test_reference_cap_below_two_rejected(self, cap):
        with pytest.raises(ValueError, match="reference_cap must be >= 2"):
            LsParams(reference_cap=cap)

    def test_rejects_bad_scores(self):
        with pytest.raises(ValueError):
            normalize_diff(10, 10)
        with pytest.raises(ValueError):
            normalize_diff(1, 0)


class TestBuildSystem:
    def test_worked_example_rows(self):
        system = build_system(worked_example_slice())
        assert len(system.season_slice.teams) == 3
        assert system.season_slice.n_games == 3
        assert list(system.diffs) == [5.0, 13.0, 8.0]
        assert system.component.tolist() == [0, 0, 0]
        assert system.n_components == 1

    def test_columns_by_first_appearance(self):
        s = build_system(worked_example_slice()).season_slice
        assert s.teams == ("A", "B", "C")
        assert list(s.winner) == [0, 0, 1]
        assert list(s.loser) == [1, 2, 2]

    def test_disjoint_pairs_make_two_components(self):
        system = build_system(slice_of([game("A", "B", 15, 10), game("C", "D", 15, 9)]))
        assert system.component.tolist() == [0, 0, 1, 1]
        assert system.n_components == 2

    def test_single_game(self):
        system = build_system(slice_of([game("A", "B", 15, 10)]))
        assert (system.season_slice.n_games, len(system.season_slice.teams)) == (1, 2)

    def test_rejects_postseason(self):
        with pytest.raises(ValueError):
            build_system(slice_of([game("A", "B", 15, 10, stage=Stage.POST)]))


class TestSolveRatings:
    def test_worked_example(self):
        table = solve_ratings(build_system(worked_example_slice()))
        assert table.ratings["A"] == pytest.approx(6.0, abs=1e-9)
        assert table.ratings["B"] == pytest.approx(1.0, abs=1e-9)
        assert table.ratings["C"] == pytest.approx(-7.0, abs=1e-9)

    def test_single_game_splits_symmetrically(self):
        table = compute_leastsq(slice_of([game("A", "B", 15, 10)]))
        assert table.ratings["A"] == pytest.approx(2.5, abs=1e-9)
        assert table.ratings["B"] == pytest.approx(-2.5, abs=1e-9)

    def test_four_team_cycle(self):
        # A>B 15-10, B>C 15-10, C>D 15-10, D>A 15-14: inconsistent cycle.
        # Expected values derived by hand from the normal equations and
        # confirmed by the projected-gradient oracle below.
        s = slice_of([
            game("A", "B", 15, 10),
            game("B", "C", 15, 10),
            game("C", "D", 15, 10),
            game("D", "A", 15, 14),
        ])
        table = compute_leastsq(s)
        expected = {"A": 1.5, "B": 0.5, "C": -0.5, "D": -1.5}
        for team, value in expected.items():
            assert table.ratings[team] == pytest.approx(value, abs=1e-9)

        oracle = least_squares_pgd(
            edges=[(0, 1), (1, 2), (2, 3), (3, 0)], diffs=[5.0, 5.0, 5.0, 1.0], n_teams=4
        )
        for team, col in (("A", 0), ("B", 1), ("C", 2), ("D", 3)):
            assert table.ratings[team] == pytest.approx(oracle[col], abs=1e-6)

    def test_team_without_games_rates_zero(self):
        # A slice built directly may list a team that plays no game; it is a
        # component of its own, rated 0, and its zero game count divides nothing.
        s = SeasonSlice(season=2019, division=Division.MENS, stage=Stage.REGULAR,
                        teams=("A", "B", "C"), winner=np.array([0]), loser=np.array([1]),
                        winning_score=np.array([15]), losing_score=np.array([10]),
                        day=np.array([0]))
        table = solve_ratings(build_system(s))
        assert table.ratings == {"A": 2.5, "B": -2.5, "C": 0.0}
        assert table.n_components == 2

    def test_all_teams_ranked(self):
        table = compute_leastsq(worked_example_slice())
        assert all(table.ranked.values())

    def test_component_sums_zero(self):
        games = [game("A", "B", 15, 10), game("B", "C", 15, 3),
                 game("X", "Y", 15, 1), game("Y", "Z", 15, 13), game("X", "Z", 15, 6)]
        table = compute_leastsq(slice_of(games))
        assert table.n_components == 2
        for comp in ({"A", "B", "C"}, {"X", "Y", "Z"}):
            total = sum(table.ratings[t] for t in comp)
            assert abs(total) < 1e-9 * len(comp)

    def test_consistent_system_zero_residual(self):
        # Round robin with exactly realizable margins: 6, 4, 2 point gaps.
        truth = {"A": 6.0, "B": 2.0, "C": 0.0, "D": -8.0}
        teams = list(truth)
        games = []
        for i, hi in enumerate(teams):
            for lo in teams[i + 1:]:
                margin = int(truth[hi] - truth[lo])
                games.append(game(hi, lo, 15, 15 - margin))
        table = compute_leastsq(slice_of(games))
        shifted = {t: truth[t] - np.mean(list(truth.values())) for t in truth}
        for t in truth:
            assert table.ratings[t] == pytest.approx(shifted[t], abs=1e-9)

    def test_game_order_permutation_invariance(self):
        rng = random.Random(5)
        base = [
            game(f"T{a}", f"T{b}", 15, rng.randrange(14))
            for a, b in [rng.sample(range(6), 2) for _ in range(14)]
        ]
        table_a = compute_leastsq(slice_of(base))
        shuffled = base[:]
        rng.shuffle(shuffled)
        table_b = compute_leastsq(slice_of(shuffled))
        for team in table_a.ratings:
            assert table_a.ratings[team] == pytest.approx(table_b.ratings[team], abs=1e-9)

    def test_anchoring_independence(self):
        # Reversing game order changes which team gets column 0; pairwise
        # gaps must not move.
        games = [game("A", "B", 15, 10), game("B", "C", 15, 7), game("C", "A", 15, 12)]
        t1 = compute_leastsq(slice_of(games))
        t2 = compute_leastsq(slice_of(list(reversed(games))))
        for x in "ABC":
            for y in "ABC":
                gap1 = t1.ratings[x] - t1.ratings[y]
                gap2 = t2.ratings[x] - t2.ratings[y]
                assert gap1 == pytest.approx(gap2, abs=1e-9)

    def test_matches_pgd_oracle_on_random_instances(self):
        rng = random.Random(17)
        for trial in range(10):
            n_teams = rng.randrange(2, 6)
            n_games = rng.randrange(1, 13)
            edges, diffs, games = [], [], []
            for k in range(n_games):
                a, b = rng.sample(range(n_teams), 2)
                l = rng.randrange(0, 14)
                edges.append((a, b))
                diffs.append(normalize_diff(15, l))
                games.append(game(f"T{a}", f"T{b}", 15, l, day=k % 28))
            # column order must match the oracle's edge indices
            order: dict[str, int] = {}
            for a, b in edges:
                order.setdefault(f"T{a}", len(order))
                order.setdefault(f"T{b}", len(order))
            remap = [(order[f"T{a}"], order[f"T{b}"]) for a, b in edges]
            table = compute_leastsq(slice_of(games))
            oracle = least_squares_pgd(remap, diffs, len(order))
            for team, col in order.items():
                assert table.ratings[team] == pytest.approx(oracle[col], abs=1e-4), trial


def _spread(prefix: str, n: int, top: float) -> dict[str, float]:
    return {f"{prefix}{i:03d}": top - 2 * top * i / (n - 1) for i in range(n)}


def pods_and_random_slice():
    """Three 4-team pods plus a 40-team random season: at least 4 components."""
    pods = generate(SynthSpec(true_ratings=_spread("P", 12, 6.0), schedule="pods",
                              noise_sd=2.0, seed=3))
    rand = generate(SynthSpec(true_ratings=_spread("R", 40, 8.0), schedule="random",
                              n_games=60, noise_sd=1.5, seed=4))
    return slice_of(games_of(pods) + games_of(rand))


def synth_300x4000_slice():
    return generate(SynthSpec(true_ratings=_spread("T", 300, 8.0), schedule="random",
                              n_games=4000, noise_sd=1.5, seed=7))


def chain_slice():
    """A 200-team chain listed from its far end, the slowest case for label propagation."""
    return slice_of([game(f"C{i:03d}", f"C{i + 1:03d}", 15, 10, day=k % 28)
                     for k, i in enumerate(range(198, -1, -1))])


def two_cliques_slice():
    """Two 30-team round robins joined by a single game: one bottleneck edge."""
    rng = random.Random(11)
    games = []
    for side in "AB":
        teams = [f"{side}{i:02d}" for i in range(30)]
        for i, a in enumerate(teams):
            for b in teams[i + 1:]:
                winner, loser = (a, b) if rng.random() < 0.5 else (b, a)
                games.append(game(winner, loser, 15, rng.randrange(14), day=len(games) % 28))
    return slice_of(games + [game("A00", "B00", 15, 3)])


def pods_20x5_slice():
    """Twenty five-team pods that never meet: 20 components."""
    return generate(SynthSpec(true_ratings=_spread("P", 100, 6.0), schedule="pods",
                              pod_size=5, noise_sd=2.0, seed=9))


class TestDenseOracle:
    # The chain's ratings reach ±497.5, so it is compared relative to max|r|.
    @pytest.mark.parametrize("make_slice, min_components, relative", [
        pytest.param(pods_and_random_slice, 4, False, id="pods-and-random"),
        pytest.param(synth_300x4000_slice, 1, False, id="synth-300x4000"),
        pytest.param(chain_slice, 1, True, id="chain-200"),
        pytest.param(two_cliques_slice, 1, False, id="two-cliques-30"),
        pytest.param(pods_20x5_slice, 20, False, id="pods-20x5"),
    ])
    def test_matches_dense_lstsq(self, make_slice, min_components, relative):
        season_slice = make_slice()
        system = build_system(season_slice)
        col = {team: i for i, team in enumerate(system.season_slice.teams)}
        games = games_of(season_slice)
        edges = [(col[g.winner], col[g.loser]) for g in games]
        diffs = [normalize_diff(g.winning_score, g.losing_score) for g in games]
        oracle = least_squares_dense(edges, diffs, len(col))

        table = solve_ratings(system)
        tol = 1e-12 * (np.abs(oracle).max() if relative else 1.0)
        for team, i in col.items():
            assert table.ratings[team] == pytest.approx(oracle[i], abs=tol), team

        comps = components_brute(len(col), edges)
        assert table.n_components == len(comps) >= min_components
        for comp in comps:
            total = sum(table.ratings[t] for t, i in col.items() if i in comp)
            assert abs(total) < 1e-10


class TestComponents:
    @pytest.mark.parametrize("make_slice", [
        pytest.param(pods_and_random_slice, id="pods-and-random"),
        pytest.param(chain_slice, id="chain-200"),
        pytest.param(lambda: generate(SynthSpec(true_ratings=_spread("S", 300, 8.0),
                                                schedule="random", n_games=150, seed=5)),
                     id="sparse-300x150"),
    ])
    def test_match_brute_force(self, make_slice):
        system = build_system(make_slice())
        s = system.season_slice
        edges = list(zip(s.winner.tolist(), s.loser.tolist()))
        # Label k belongs to the component with the k-th smallest least member.
        comps = sorted(components_brute(len(s.teams), edges), key=min)
        expected = [k for i in range(len(s.teams)) for k, c in enumerate(comps) if i in c]
        assert system.component.tolist() == expected
        assert system.n_components == len(comps)


class TestResidualGuard:
    def test_nan_diff_raises(self):
        s = slice_of([game("A", "B", 15, 10), game("B", "C", 15, 7)])
        assert s.teams == ("A", "B", "C")
        assert (s.winner.tolist(), s.loser.tolist()) == ([0, 1], [1, 2])
        system = ScheduleSystem(
            season_slice=s,
            diffs=np.array([5.0, np.nan]),
            component=np.array([0, 0, 0]),
        )
        with pytest.raises(ArithmeticError):
            solve_ratings(system)
