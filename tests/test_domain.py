"""Validation, normalization, and season partitioning."""

import random
from datetime import date

import pytest

from ultirate.domain import (
    Division,
    GameTable,
    GameValidationError,
    Stage,
    build_slice,
    normalize_team_name,
    partition_seasons,
    validate_game,
)
from ultirate.usau import calendar_weeks

from helpers import game, record


def partition(games):
    return partition_seasons(GameTable.from_games(games))


class TestNormalization:
    def test_trims_and_collapses_whitespace(self):
        assert normalize_team_name("  Seattle   Sockeye ") == "Seattle Sockeye"

    def test_case_preserved(self):
        assert normalize_team_name("PoNY") == "PoNY"

    def test_identical_normalization_means_same_team(self):
        with pytest.raises(GameValidationError) as err:
            validate_game(record(team_a="Sockeye ", team_b=" Sockeye"))
        assert err.value.reason == "same team"


class TestValidateGame:
    def test_orients_winner_by_score(self):
        g = validate_game(record(team_a="A", team_b="B", score_a="15", score_b="10"))
        assert (g.winner, g.loser) == ("A", "B")
        assert (g.winning_score, g.losing_score) == (15, 10)

    def test_orients_when_team_b_wins(self):
        g = validate_game(record(score_a="9", score_b="13"))
        assert (g.winner, g.loser) == ("B", "A")

    def test_tie_rejected(self):
        with pytest.raises(GameValidationError) as err:
            validate_game(record(score_a="10", score_b="10"))
        assert err.value.reason == "tie"

    def test_degenerate_score_rejected(self):
        with pytest.raises(GameValidationError) as err:
            validate_game(record(score_a="1", score_b="0"))
        assert err.value.reason == "degenerate score"

    def test_missing_field_rejected(self):
        bad = record()
        del bad["date"]
        with pytest.raises(GameValidationError) as err:
            validate_game(bad)
        assert err.value.reason == "missing field"

    def test_unparseable_date_rejected(self):
        with pytest.raises(GameValidationError) as err:
            validate_game(record(date_str="June 1st 2019"))
        assert err.value.reason == "bad date"

    # Basic and week-date ISO forms, which some Python versions' fromisoformat
    # accepts; the schema is yyyy-mm-dd only.
    @pytest.mark.parametrize("raw", ["20190601", "2019-W22-6"])
    def test_only_yyyy_mm_dd_is_a_date(self, raw):
        with pytest.raises(GameValidationError) as err:
            validate_game(record(date_str=raw))
        assert (err.value.reason, err.value.detail) == ("bad date", raw)

    def test_date_padding_is_stripped(self):
        assert validate_game(record(date_str=" 2019-06-01 ")).date == date(2019, 6, 1)

    def test_negative_score_rejected(self):
        with pytest.raises(GameValidationError) as err:
            validate_game(record(score_a="-3", score_b="10"))
        assert err.value.reason == "bad score"

    def test_unknown_division_rejected(self):
        with pytest.raises(GameValidationError) as err:
            validate_game(record(division="open"))
        assert err.value.reason == "bad division"

    def test_empty_team_rejected(self):
        with pytest.raises(GameValidationError) as err:
            validate_game(record(team_a="   "))
        assert err.value.reason == "empty team"


class TestPartition:
    def test_single_week_span(self):
        # 2019-06-03 is a Monday; +3 days stays inside the same ISO week.
        slices = partition([game("A", "B", 15, 10, day=2), game("C", "D", 15, 9, day=5)])
        assert len(slices) == 1
        weeks = calendar_weeks(slices[0].day)
        assert weeks.max() == 1
        assert weeks.tolist() == [1, 1]

    def test_last_week_game_gets_top_index(self):
        # 2019-06-01 is a Saturday; +30 days is Monday 2019-07-01, five week starts later.
        slices = partition([game("A", "B", 15, 10, day=0), game("A", "C", 15, 9, day=30)])
        weeks = calendar_weeks(slices[0].day)
        assert weeks[-1] == weeks.max()
        assert weeks.tolist() == [1, 6]

    def test_iso_week_boundary(self):
        # Fri 2019-06-28 and Tue 2019-07-02 fall in consecutive ISO weeks.
        g1 = game("A", "B", 15, 10, day=27)
        g2 = game("A", "C", 15, 9, day=31)
        assert (g1.date, g2.date) == (date(2019, 6, 28), date(2019, 7, 2))
        weeks = calendar_weeks(partition([g1, g2])[0].day)
        assert weeks.max() == 2
        assert weeks.tolist() == [1, 2]

    def test_week_runs_monday_to_sunday(self):
        # Sunday 2019-06-02 closes one week and Monday 2019-06-03 opens the next.
        s = partition([game("A", "B", 15, 10, day=1), game("A", "C", 15, 9, day=2)])[0]
        assert calendar_weeks(s.day).tolist() == [1, 2]

    def test_empty_weeks_still_counted_in_span(self):
        # Monday 2019-06-03 then Monday 2019-06-24: four calendar weeks spanned.
        s = partition([game("A", "B", 15, 10, day=2), game("A", "C", 15, 9, day=23)])[0]
        weeks = calendar_weeks(s.day)
        assert weeks.max() == 4
        assert weeks.tolist() == [1, 4]

    def test_one_slice_per_key(self):
        games = [
            game("A", "B", 15, 10, season=2018),
            game("A", "B", 15, 10, season=2019),
            game("C", "D", 15, 10, season=2019, division=Division.WOMENS),
            game("E", "F", 15, 10, season=2019, stage=Stage.POST),
        ]
        slices = partition(games)
        keys = [(s.season, s.division, s.stage) for s in slices]
        assert len(slices) == 4
        assert keys == sorted(keys, key=lambda k: (k[0], k[1].value, k[2].value))

    def test_partition_is_bijection_on_games(self):
        rng = random.Random(7)
        games = [
            game(
                f"T{rng.randrange(20)}",
                f"U{rng.randrange(20)}",
                15,
                rng.randrange(14),
                season=rng.choice([2018, 2019]),
                division=rng.choice(list(Division)),
                day=rng.randrange(60),
            )
            for _ in range(200)
        ]
        # Slices rebuild their games from columns, so games are matched by
        # value: each slice holds exactly the games of its key, in input order.
        slices = partition(games)
        assert sum(s.n_games for s in slices) == len(games)
        for s in slices:
            key = (s.season, s.division, s.stage)
            assert list(s.games) == [g for g in games if (g.season, g.division, g.stage) == key]

    def test_week_indices_monotone_in_date(self):
        rng = random.Random(11)
        games = [game("A", "B", 15, rng.randrange(14), day=rng.randrange(80)) for _ in range(60)]
        s = partition(games)[0]
        pairs = sorted(zip(s.games, calendar_weeks(s.day).tolist()), key=lambda p: p[0].date)
        weeks = [t for _, t in pairs]
        assert weeks == sorted(weeks)

    def test_empty_input(self):
        assert partition([]) == []

    def test_deterministic(self):
        games = [game("A", "B", 15, 10), game("B", "C", 15, 7, day=9)]
        first, second = partition(games), partition(games)
        assert [(s.games, s.day.tolist()) for s in first] == [
            (s.games, s.day.tolist()) for s in second
        ]


class TestSliceInvariants:
    def test_mismatched_game_rejected(self):
        with pytest.raises(ValueError):
            build_slice(2018, Division.MENS, Stage.REGULAR, [game("A", "B", 15, 10)])

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            build_slice(2019, Division.MENS, Stage.REGULAR, [])

    def test_teams_in_first_appearance_order(self):
        s = build_slice(
            2019, Division.MENS, Stage.REGULAR,
            [game("B", "A", 15, 10), game("C", "A", 15, 9)],
        )
        assert s.teams == ("B", "A", "C")
