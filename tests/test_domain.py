"""Row rules, normalization, and season partitioning."""

import random
from dataclasses import fields, replace
from datetime import date

import numpy as np
import pytest

from ultirate.domain import (
    GAME_FIELDS,
    Division,
    SeasonSlice,
    Stage,
    normalize_team_name,
    partition_seasons,
    per_distinct,
)
from ultirate.ingest import read_games_many, write_csv
from ultirate.leastsq import compute_leastsq
from ultirate.usau import calendar_weeks, compute_usau

from helpers import game, games_of, row, slice_of, table_of


def partition(games):
    return partition_seasons(table_of(games))


def read_row(tmp_path, cells):
    """read_games_many on a CSV of the header and one row of the given cells."""
    path = tmp_path / "g.csv"
    write_csv(path, GAME_FIELDS, [cells])
    return read_games_many([path])


def rejection(tmp_path, **fields):
    """The (reason, detail) with which read_games_many rejects the one row row(**fields)."""
    table, rejections = read_row(tmp_path, row(**fields))
    assert len(table) == 0
    (r,) = rejections
    return r.reason, r.detail


class TestNormalization:
    def test_trims_and_collapses_whitespace(self):
        assert normalize_team_name("  Seattle   Sockeye ") == "Seattle Sockeye"

    def test_case_preserved(self):
        assert normalize_team_name("PoNY") == "PoNY"

    def test_identical_normalization_means_same_team(self, tmp_path):
        assert rejection(tmp_path, team_a="Sockeye ", team_b=" Sockeye") == (
            "same team", "Sockeye")


INT64_OVER = str(2**63)


class TestValidateGame:
    """The row rules as read_games_many applies them, one CSV row at a time.

    A row's reason is its first failing check, in the order empty team, bad
    season, bad division, bad stage, bad date, bad score, tie, same team,
    degenerate score; the detail comes from the raw cell or the parsed values.
    """

    def test_orients_winner_by_score(self, tmp_path):
        table, _ = read_row(tmp_path, row(team_a="A", team_b="B", score_a="15", score_b="10"))
        (g,) = games_of(table)
        assert (g.winner, g.loser) == ("A", "B")
        assert (g.winning_score, g.losing_score) == (15, 10)

    def test_orients_when_team_b_wins(self, tmp_path):
        table, _ = read_row(tmp_path, row(score_a="9", score_b="13"))
        (g,) = games_of(table)
        assert (g.winner, g.loser) == ("B", "A")
        assert (g.winning_score, g.losing_score) == (13, 9)

    def test_tie_rejected(self, tmp_path):
        assert rejection(tmp_path, score_a="10", score_b="10") == ("tie", "10-10")

    def test_degenerate_score_rejected(self, tmp_path):
        assert rejection(tmp_path, score_a="1", score_b="0") == ("degenerate score", "1-0")

    def test_missing_field_rejected(self, tmp_path):
        table, rejections = read_row(tmp_path, row()[:-1])
        assert len(table) == 0
        assert [(r.reason, r.detail) for r in rejections] == [("missing field", "8 columns")]

    def test_unparseable_date_rejected(self, tmp_path):
        assert rejection(tmp_path, date_str="June 1st 2019") == ("bad date", "June 1st 2019")

    # Basic and week-date ISO forms, which some Python versions' fromisoformat
    # accepts; the schema is yyyy-mm-dd only.
    @pytest.mark.parametrize("raw", ["20190601", "2019-W22-6"])
    def test_only_yyyy_mm_dd_is_a_date(self, tmp_path, raw):
        assert rejection(tmp_path, date_str=raw) == ("bad date", raw)

    def test_date_padding_is_stripped(self, tmp_path):
        table, _ = read_row(tmp_path, row(date_str=" 2019-06-01 "))
        assert [g.date for g in games_of(table)] == [date(2019, 6, 1)]

    def test_negative_score_rejected(self, tmp_path):
        assert rejection(tmp_path, score_a="-3", score_b="10") == ("bad score", "-3, 10")

    def test_unknown_division_rejected(self, tmp_path):
        assert rejection(tmp_path, division="open") == ("bad division", "open")

    def test_empty_team_rejected(self, tmp_path):
        assert rejection(tmp_path, team_a="   ") == ("empty team", "")

    @pytest.mark.parametrize("case", [
        # (id, cells that differ from row(), reason, detail)
        # A score cell that int() rejects: both cells print repr'd, as written.
        ("score-not-int", {"score_a": " x ", "score_b": "10"}, "bad score", "' x ', '10'"),
        ("score-not-int-b", {"score_b": "1.5"}, "bad score", "'15', '1.5'"),
        # Both parse, one is out of range: both print as plain ints.
        ("score-over-int64", {"score_a": INT64_OVER}, "bad score", f"{INT64_OVER}, 10"),
        ("season-over-int64", {"season": INT64_OVER}, "bad season", INT64_OVER),
        ("season-raw-cell", {"season": " 20x9 "}, "bad season", " 20x9 "),
        ("stage", {"stage": "final"}, "bad stage", "final"),
        # Precedence: each row fails two checks and reports the first.
        ("empty-team-first", {"team_b": "", "season": "x"}, "empty team", ""),
        ("season-before-division", {"season": "x", "division": "open"}, "bad season", "x"),
        ("division-before-stage", {"division": "open", "stage": "final"}, "bad division", "open"),
        ("stage-before-date", {"stage": "final", "date_str": "x"}, "bad stage", "final"),
        ("date-before-score", {"date_str": "x", "score_a": "y"}, "bad date", "x"),
        ("score-before-tie", {"score_a": "-1", "score_b": "-1"}, "bad score", "-1, -1"),
        ("tie-before-same-team", {"team_b": "A", "score_b": "15"}, "tie", "15-15"),
        ("same-team-before-degenerate", {"team_b": "A", "score_a": "1", "score_b": "0"},
         "same team", "A"),
        ("degenerate-b-wins", {"score_a": "0", "score_b": "1"}, "degenerate score", "1-0"),
    ], ids=lambda case: case[0])
    def test_first_failing_check_and_detail(self, tmp_path, case):
        _, fields, reason, detail = case
        assert rejection(tmp_path, **fields) == (reason, detail)


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

    def test_enums_declared_in_value_order(self):
        # The lexsort on member indices then gives the published slice order.
        assert [d.value for d in Division] == sorted(d.value for d in Division)
        assert [s.value for s in Stage] == sorted(s.value for s in Stage)

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
            assert list(games_of(s)) == [g for g in games if (g.season, g.division, g.stage) == key]

    def test_week_indices_monotone_in_date(self):
        rng = random.Random(11)
        games = [game("A", "B", 15, rng.randrange(14), day=rng.randrange(80)) for _ in range(60)]
        s = partition(games)[0]
        pairs = sorted(zip(games_of(s), calendar_weeks(s.day).tolist()), key=lambda p: p[0].date)
        weeks = [t for _, t in pairs]
        assert weeks == sorted(weeks)

    def test_empty_input(self):
        assert partition([]) == []
        # Reading no files gives an empty table too, which splits into no slices.
        assert partition_seasons(read_games_many([])[0]) == []

    def test_deterministic(self):
        games = [game("A", "B", 15, 10), game("B", "C", 15, 7, day=9)]
        first, second = partition(games), partition(games)
        assert [(games_of(s), s.day.tolist()) for s in first] == [
            (games_of(s), s.day.tolist()) for s in second
        ]


def _score_slice(w, l):
    """A slice of games between two teams with the given score columns."""
    m = len(w)
    return SeasonSlice(
        season=2019, division=Division.MENS, stage=Stage.REGULAR, teams=("A", "B"),
        winner=np.zeros(m, np.int64), loser=np.ones(m, np.int64),
        winning_score=np.array(w, np.int64), losing_score=np.array(l, np.int64),
        day=np.zeros(m, np.int64),
    )


class TestSliceInvariants:
    def test_mismatched_game_rejected(self):
        # Every column holds one entry per game.
        with pytest.raises(ValueError):
            _score_slice([15, 13], [10])

    def test_empty_slice_rejected(self):
        with pytest.raises(ValueError):
            _score_slice([], [])

    @pytest.mark.parametrize("winner, loser", [
        pytest.param(0, 0, id="same-team"),
        pytest.param(0, 2, id="loser-out-of-range"),
        pytest.param(-1, 1, id="negative-winner"),
    ])
    def test_game_needs_two_teams_of_the_slice(self, winner, loser):
        s = _score_slice([15, 15], [10, 9])
        with pytest.raises(ValueError, match="each game needs two different teams of the slice"):
            replace(s, winner=np.array([0, winner], np.int64), loser=np.array([1, loser], np.int64))

    @pytest.mark.parametrize("w, l", [
        pytest.param(15, 15, id="tie"),
        pytest.param(10, 15, id="losing-above-winning"),
        pytest.param(15, -1, id="negative-losing"),
        pytest.param(1, 0, id="winning-below-two"),
    ])
    def test_scores_out_of_rule_rejected(self, w, l):
        with pytest.raises(ValueError, match="scores must satisfy 0 <= losing < winning"):
            _score_slice([15, w], [10, l])

    def test_teams_in_first_appearance_order(self):
        s = slice_of([game("B", "A", 15, 10), game("C", "A", 15, 9)])
        assert s.teams == ("B", "A", "C")

    def test_rating_leaves_only_the_slice_fields(self):
        # The methods derive their per-game columns without caching them on the slice.
        s = slice_of([game("A", "B", 15, 10), game("B", "C", 15, 7, day=9)])
        compute_usau(s)
        compute_leastsq(s)
        assert set(vars(s)) == {f.name for f in fields(SeasonSlice)}


class TestScorePairs:
    """per_distinct on the score columns, against np.unique(axis=0)."""

    @staticmethod
    def _assert_matches_unique(*keys):
        calls = ([], [])

        def recorder(seen):
            def rule(*row):
                seen.append(row)
                return len(seen) - 1
            return rule

        columns = per_distinct(keys, recorder(calls[0]), recorder(calls[1]))
        want, want_inverse = np.unique(np.column_stack(keys), axis=0, return_inverse=True)
        for seen, column in zip(calls, columns):
            # Once per distinct key row, in lexicographic order, with Python ints.
            assert seen == [tuple(p) for p in want.tolist()]
            assert all(type(v) is int for row in seen for v in row)
            assert column.tolist() == want_inverse.ravel().tolist()

    @pytest.mark.parametrize("seed", range(5))
    def test_random_pairs(self, seed):
        rng = np.random.default_rng(seed)
        w = rng.integers(2, 30, 500)
        self._assert_matches_unique(w, rng.integers(0, w - 1))

    def test_single_game(self):
        s = _score_slice([15], [10])
        self._assert_matches_unique(s.winning_score, s.losing_score)
        assert [c.tolist() for c in per_distinct((s.winning_score, s.losing_score),
                                                 lambda w, l: w - l)] == [[5]]

    def test_scores_near_int64_max(self):
        top = np.iinfo(np.int64).max
        w = [top, top, top - 1, top, 15, top - 1]
        l = [top - 1, 0, top - 2, top - 1, 10, 7]
        self._assert_matches_unique(np.array(w, np.int64), np.array(l, np.int64))

    @pytest.mark.parametrize("n_keys", [1, 3])
    def test_other_key_counts(self, n_keys):
        rng = np.random.default_rng(n_keys)
        self._assert_matches_unique(*rng.integers(0, 4, (n_keys, 200)))
