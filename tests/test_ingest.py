"""CSV reading, writing, and byte-stability."""

import codecs
import csv
import os
import random
import stat

import pytest

from ultirate.domain import Division, Method, RatingTable
from ultirate.ingest import (
    IngestError,
    read_games_many,
    write_csv,
    write_games,
    write_metrics,
    write_predictions,
    write_ratings,
)
from ultirate.leastsq import compute_leastsq
from ultirate.metrics import MetricReport
from ultirate.predict import build_predictions

from helpers import game, games_of, read_metrics, read_ratings, slice_of
from oracles import read_games_loop

HEADER = "season,division,stage,date,tournament,team_a,team_b,score_a,score_b"

ROWS = [
    "2019,mens,regular,2019-06-01,Invite,Sockeye,PoNY,15,10",
    "2019,mens,regular,2019-06-02,Invite,Truck Stop,Machine,13,11",
    "2019,mens,regular,2019-06-08,Open,PoNY,Machine,15,7",
]


def write_text(path, text):
    path.write_bytes(text.encode("utf-8"))
    return path


class TestReadGames:
    def test_well_formed_file(self, tmp_path):
        f = write_text(tmp_path / "g.csv", HEADER + "\n" + "\n".join(ROWS) + "\n")
        games, rejections = read_games_many([f])
        assert len(games) == 3
        assert rejections == []
        assert games_of(games)[0].winner == "Sockeye"
        assert games_of(games)[1].winner == "Truck Stop"

    def test_tie_row_rejected_with_row_number(self, tmp_path):
        rows = ROWS[:1] + ["2019,mens,regular,2019-06-03,Invite,A,B,9,9"]
        f = write_text(tmp_path / "g.csv", HEADER + "\n" + "\n".join(rows) + "\n")
        games, rejections = read_games_many([f])
        assert len(games) == 1
        assert len(rejections) == 1
        assert rejections[0].reason == "tie"
        assert rejections[0].row == 2

    def test_only_yyyy_mm_dd_is_a_date(self, tmp_path):
        rows = ROWS[:1] + ["2019,mens,regular,20190601,Invite,A,B,15,9",
                           "2019,mens,regular,2019-W22-6,Invite,A,B,15,9"]
        f = write_text(tmp_path / "g.csv", HEADER + "\n" + "\n".join(rows) + "\n")
        games, rejections = read_games_many([f])
        assert len(games) == 1
        assert [(r.row, r.reason, r.detail) for r in rejections] == [
            (2, "bad date", "20190601"), (3, "bad date", "2019-W22-6")]

    def test_crlf_matches_lf(self, tmp_path):
        lf = write_text(tmp_path / "lf.csv", HEADER + "\n" + "\n".join(ROWS) + "\n")
        crlf = write_text(tmp_path / "crlf.csv", HEADER + "\r\n" + "\r\n".join(ROWS) + "\r\n")
        assert games_of(read_games_many([lf])[0]) == games_of(read_games_many([crlf])[0])

    def test_quoted_team_names(self, tmp_path):
        row = '2019,mens,regular,2019-06-01,Invite,"Doe, John and Co",B,15,10'
        f = write_text(tmp_path / "g.csv", HEADER + "\n" + row + "\n")
        games, _ = read_games_many([f])
        assert games_of(games)[0].winner == "Doe, John and Co"

    def test_nul_is_an_ordinary_character(self, tmp_path):
        rows = [ROWS[0].replace("Sockeye", "Sock\0eye"), ROWS[1].replace("2019", "2019\0", 1)]
        f = write_text(tmp_path / "g.csv", HEADER + "\n" + "\n".join(rows) + "\n")
        games, rejections = read_games_many([f])
        assert [g.winner for g in games_of(games)] == ["Sock\0eye"]
        assert [(r.row, r.reason, r.detail) for r in rejections] == [(2, "bad season", "2019\0")]

    def test_missing_file_fatal(self, tmp_path):
        with pytest.raises(IngestError):
            read_games_many([tmp_path / "nope.csv"])

    def test_invalid_utf8_after_a_bom_names_its_line(self, tmp_path):
        f = tmp_path / "g.csv"
        f.write_bytes(codecs.BOM_UTF8 + HEADER.encode() + b"\n\xff" + ROWS[0].encode())
        with pytest.raises(IngestError, match=r"not valid UTF-8 at line 2$"):
            read_games_many([f])

    def test_malformed_header_fatal(self, tmp_path):
        f = write_text(tmp_path / "g.csv", "a,b,c\n1,2,3\n")
        with pytest.raises(IngestError):
            read_games_many([f])

    def test_short_row_rejected_not_fatal(self, tmp_path):
        f = write_text(tmp_path / "g.csv", HEADER + "\n2019,mens,regular\n" + ROWS[0] + "\n")
        games, rejections = read_games_many([f])
        assert len(games) == 1
        assert rejections[0].reason == "missing field"

    def test_reingest_identical(self, tmp_path):
        f = write_text(tmp_path / "g.csv", HEADER + "\n" + "\n".join(ROWS) + "\n")
        (first, first_rejections), (second, second_rejections) = (
            read_games_many([f]), read_games_many([f]))
        assert games_of(first) == games_of(second)
        assert first_rejections == second_rejections

    def test_many_preserves_order(self, tmp_path):
        f1 = write_text(tmp_path / "a.csv", HEADER + "\n" + ROWS[0] + "\n")
        f2 = write_text(tmp_path / "b.csv", HEADER + "\n" + ROWS[2] + "\n")
        games, _ = read_games_many([f1, f2])
        assert [g.winner for g in games_of(games)] == ["Sockeye", "PoNY"]


def _quoted(text):
    return text.replace("Invite", '"Invite"')


BODY = HEADER + "\n" + ROWS[0] + "\n"
HUGE = BODY + ROWS[1].replace("Invite", "A" * 131073) + "\n"
BAD_HEADER = "season, division\r\n" + ROWS[0] + "\r\n"


class TestTokeniserParity:
    """A fatal error reads alike from a file without quotes and from its quoted twin.

    An empty file holds no quote, so its twin is a file holding only a BOM.
    """

    @pytest.mark.parametrize("plain, twin, message", [
        pytest.param(HUGE, _quoted(HUGE), "line 3: field larger than field limit (131072)",
                     id="huge-field"),
        pytest.param(HUGE, BODY + ROWS[1].replace("Invite", '"' + "A" * 131071 + '""x"') + "\n",
                     "line 3: field larger than field limit (131072)", id="huge-quoted-field"),
        pytest.param(BAD_HEADER, _quoted(BAD_HEADER),
                     f"bad header ['season', ' division'], expected {HEADER}", id="bad-header"),
        pytest.param("\n" + BODY, _quoted("\n" + BODY), f"bad header [], expected {HEADER}",
                     id="blank-first-line"),
        pytest.param("", "\ufeff", "empty file, expected header row", id="empty-file"),
    ])
    def test_same_message(self, plain, twin, message, tmp_path):
        f = tmp_path / "g.csv"
        for text in (plain, twin):
            write_text(f, text)
            with pytest.raises(IngestError) as err:
                read_games_many([f])
            assert str(err.value) == f"{f}: {message}"

    def test_quoted_cell_at_the_limit_reads(self, tmp_path):
        cell = "A" * 131070 + '"\n'  # 131072 characters, written in 131075 bytes
        f = write_text(tmp_path / "g.csv", BODY + ROWS[1].replace(
            "Truck Stop", '"' + cell.replace('"', '""') + '"') + "\n")
        games, rejections = read_games_many([f])
        assert [g.winner for g in games_of(games)] == ["Sockeye", "A" * 131070 + '"']
        assert rejections == []

    def test_process_wide_csv_limit_is_not_read(self, tmp_path):
        # The limit is fixed at csv's default: a caller that moves csv's own
        # setting moves neither what reads nor what fails.
        plain, huge = write_text(tmp_path / "p.csv", BODY), write_text(tmp_path / "h.csv", HUGE)
        old = csv.field_size_limit(5)
        try:
            assert read_games_many([plain])[1] == []
            with pytest.raises(IngestError, match=r"line 3: .* field limit \(131072\)"):
                read_games_many([huge])
        finally:
            csv.field_size_limit(old)


class TestGamesRoundTrip:
    def test_write_then_read(self, tmp_path):
        games = [game("A", "B", 15, 10), game("C D", "E", 13, 7, day=9)]
        f = tmp_path / "out.csv"
        write_games(slice_of(games), f)
        back, rejections = read_games_many([f])
        assert rejections == []
        assert games_of(back) == tuple(games)


class TestWriteRatings:
    def make_table(self, ratings, ranked=None):
        return RatingTable(
            method=Method.LEASTSQ,
            season=2019,
            division=Division.MENS,
            ratings=ratings,
            ranked=ranked or {t: True for t in ratings},
        )

    def test_sorted_by_rating_descending(self, tmp_path):
        f = tmp_path / "r.csv"
        write_ratings(self.make_table({"B": 1.0, "C": -7.0, "A": 6.0}), f)
        rows = read_ratings(f)
        assert [(r[0], r[1]) for r in rows] == [(1, "A"), (2, "B"), (3, "C")]

    def test_empty_table_header_only(self, tmp_path):
        f = tmp_path / "r.csv"
        write_ratings(self.make_table({}), f)
        assert f.read_text() == "rank,team,rating,ranked\n"

    def test_equal_ratings_alphabetical(self, tmp_path):
        f = tmp_path / "r.csv"
        write_ratings(self.make_table({"Zeta": 2.0, "Alpha": 2.0}), f)
        rows = read_ratings(f)
        assert [r[1] for r in rows] == ["Alpha", "Zeta"]

    def test_ratings_that_print_equal_rank_by_name(self, tmp_path):
        # Both print as 1.000000, so the published order goes by name, not by the
        # unprinted digits that put Zeta first.
        f = tmp_path / "r.csv"
        write_ratings(self.make_table({"Zeta": 1.0000004, "Alpha": 1.0000001}), f)
        assert f.read_text().splitlines()[1:] == ["1,Alpha,1.000000,true", "2,Zeta,1.000000,true"]

    def test_round_trip_six_decimals(self, tmp_path):
        table = self.make_table({"A": 1.2345678, "B": -0.0000004}, ranked={"A": True, "B": False})
        f = tmp_path / "r.csv"
        write_ratings(table, f)
        rows = read_ratings(f)
        assert rows[0] == (1, "A", 1.234568, True)
        assert rows[1] == (2, "B", -0.0, False) or rows[1] == (2, "B", 0.0, False)

    def test_values_that_round_to_zero_print_unsigned(self, tmp_path):
        f = tmp_path / "r.csv"
        write_ratings(self.make_table({"A": 1.0, "B": -1e-17, "C": -4e-7, "D": -0.0}), f)
        # All three print as 0.000000, so they tie and go by name.
        assert f.read_text().splitlines()[1:] == [
            "1,A,1.000000,true", "2,B,0.000000,true", "3,C,0.000000,true", "4,D,0.000000,true",
        ]

    def test_byte_identical_rewrites(self, tmp_path):
        table = self.make_table({"A": 6.0, "B": 1.0, "C": -7.0})
        f1, f2 = tmp_path / "a.csv", tmp_path / "b.csv"
        write_ratings(table, f1)
        write_ratings(table, f2)
        assert f1.read_bytes() == f2.read_bytes()


class TestWriteMetrics:
    def reports(self):
        out = []
        for season in (2018, 2019):
            for method in (Method.USAU, Method.LEASTSQ):
                out.append(
                    MetricReport(
                        season=season,
                        division=Division.MENS,
                        method=method,
                        games_predicted=100,
                        mad=2.25,
                        mse=8.5,
                        violation_rate=0.2,
                    )
                )
        return out

    def test_row_count_and_order(self, tmp_path):
        f = tmp_path / "m.csv"
        write_metrics(self.reports(), f)
        rows = read_metrics(f)
        assert len(rows) == 4
        keys = [(r.season, r.division.value, r.method.value) for r in rows]
        assert keys == sorted(keys)

    def test_empty_header_only(self, tmp_path):
        f = tmp_path / "m.csv"
        write_metrics([], f)
        assert f.read_text() == (
            "year,division,method,games_predicted,mad,mse,violation_rate\n"
        )

    def test_round_trip_at_six_decimals(self, tmp_path):
        f = tmp_path / "m.csv"
        originals = self.reports()
        write_metrics(originals, f)
        for back, orig in zip(read_metrics(f), sorted(
            originals, key=lambda r: (r.season, r.division.value, r.method.value)
        )):
            assert back.games_predicted == orig.games_predicted
            assert back.mad == pytest.approx(orig.mad, abs=5e-7)
            assert back.mse == pytest.approx(orig.mse, abs=5e-7)
            assert back.violation_rate == pytest.approx(orig.violation_rate, abs=5e-7)


class TestWritePredictions:
    def test_columns_and_ids(self, tmp_path):
        s = slice_of([game("A", "B", 15, 10), game("B", "C", 15, 7, day=3)])
        table = compute_leastsq(s)
        ps = build_predictions(table, s)
        f = tmp_path / "p.csv"
        write_predictions([ps], f)
        lines = f.read_text().splitlines()
        assert lines[0] == (
            "game_id,favorite,underdog,method,predicted_diff,actual_diff,higher_rated_won"
        )
        assert lines[1].startswith("2019-mens-00000,A,B,leastsq,")
        assert len(lines) == 3


def _rows_cut_short(n):
    """n rows, more than one write buffer, then an error as if the run were killed."""
    for i in range(n):
        yield [i, "x" * 20]
    raise RuntimeError("cut short")


class TestWriteCsv:
    def test_failed_write_leaves_no_file(self, tmp_path):
        with pytest.raises(RuntimeError, match="cut short"):
            write_csv(tmp_path / "out.csv", ("i", "s"), _rows_cut_short(10_000))
        assert list(tmp_path.iterdir()) == []

    def test_failed_write_keeps_the_old_target(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"i,s\n0,old\n")
        with pytest.raises(RuntimeError, match="cut short"):
            write_csv(target, ("i", "s"), _rows_cut_short(10_000))
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"i,s\n0,old\n"

    def test_replaces_the_target_with_the_umask_mode(self, tmp_path):
        target = tmp_path / "out.csv"
        target.write_bytes(b"old\n")
        target.chmod(0o604)
        old = os.umask(0o027)
        try:
            write_csv(target, ("i", "s"), [[1, "a"]])
        finally:
            os.umask(old)
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"i,s\n1,a\n"
        assert target.stat().st_mode & 0o777 == 0o640

    def test_error_names_the_output(self, tmp_path):
        target = tmp_path / "absent" / "out.csv"
        with pytest.raises(FileNotFoundError) as err:
            write_csv(target, ("i", "s"), [[1, "a"]])
        assert err.value.filename == str(target)
        assert not (tmp_path / "absent").exists()

    def test_stale_temporary_file_is_overwritten(self, tmp_path):
        target = tmp_path / "out.csv"
        (tmp_path / f".out.csv.{os.getpid()}.tmp").write_bytes(b"left by a killed run\n")
        write_csv(target, ("i", "s"), [[1, "a"]])
        assert list(tmp_path.iterdir()) == [target]
        assert target.read_bytes() == b"i,s\n1,a\n"

    def test_symlinked_target_is_written_through(self, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        real.write_bytes(b"old\n")
        link.symlink_to(real)
        write_csv(link, ("i", "s"), [[1, "a"]])
        assert link.is_symlink()
        assert sorted(tmp_path.iterdir()) == [link, real]
        assert real.read_bytes() == b"i,s\n1,a\n"

    def test_fifo_target_is_written_in_place(self, tmp_path):
        target = tmp_path / "out.csv"
        os.mkfifo(target)
        reader = os.open(target, os.O_RDONLY | os.O_NONBLOCK)
        try:
            write_csv(target, ("i", "s"), [[1, "a"]])
            assert os.read(reader, 1024) == b"i,s\n1,a\n"
        finally:
            os.close(reader)
        assert stat.S_ISFIFO(target.stat().st_mode)
        assert list(tmp_path.iterdir()) == [target]


SEASONS = ["2019", " 2019 ", "2018", "20x9", "", "-5", "2_019", "99999999999999999999",
           "2019\xa0"]
DIVISION_CELLS = ["mens", " womens ", "mixed", "Mens", "open", ""]
STAGE_CELLS = ["regular", " post", "Regular", "playoffs"]
DATES = ["2019-06-01", " 2019-06-09 ", "2019-07-30", "20190615", "2019-13-01", "June 1st",
         "\x1c2019-06-09"]
TEAM_CELLS = ["Sockeye", " Sockeye", "Sock  eye", "sockeye", "PoNY", "Truck Stop",
              "  Truck   Stop ", "Machine", "", "   ", "Zürich", "\xa0Zürich\x1c", "Ñandú",
              "\xa0", "\x1c"]
SCORES = ["15", " 13 ", "10", "7", "1", "0", "-3", "x", "", "15.0", "99999999999999999999"]
# Cells that str.strip empties, as a blank row may hold them.
BLANKS = ["", " ", "\t", "\xa0", "\x1c", "\u3000"]
# Team cells that a file with quotes writes quoted, "" for each quote.
QUOTED_TEAMS = ['a"b', "Doe, John", "x\ny", "x\r\ny", "x\ry"]
# Raw cells of a file with quotes: a literal quote, text after a closing
# quote, and a run of three quotes, which opens a cell that holds a quote.
QUIRKS = ['a"b', '"C"x', '"""']
# A last row that ends inside its quoted last cell, which csv.reader keeps.
OPEN_ROW = '2019,mens,regular,2019-06-01,Invite,Open,Ends,15,"10'


def _fuzz_row(rng, quotes):
    """One CSV row's raw cells: usually nine, each drawn from valid and invalid variants.

    Without quotes, no cell holds a comma, a quote or a line break. With
    them, any cell may be quoted, a team may hold a comma, a quote or a line
    end, and a row may hold a quirk.
    """
    kind = rng.random()
    if kind < 0.05:
        return []                                            # blank line
    if kind < 0.10:
        row = [rng.choice(BLANKS) for _ in range(rng.choice([1, 4, 9]))]  # blank cells only
    elif kind < 0.12:
        row = [""] * rng.choice([4, 9])                      # ",,,", ",,,,,,,,"
    elif kind < 0.16:
        row = ["2019", "mens", "regular"][:rng.randrange(1, 4)] + (
            ["x"] * rng.choice([0, 7]))                      # ragged
    else:
        teams = TEAM_CELLS + QUOTED_TEAMS * quotes
        a, b = rng.choice(teams), rng.choice(teams)
        score_a, score_b = rng.choice(SCORES), rng.choice(SCORES)
        if rng.random() < 0.5:                               # mostly valid rows
            a, b = rng.sample(TEAM_CELLS[:8] + TEAM_CELLS[10:13], 2)
            score_a, score_b = rng.choice(SCORES[:6]), rng.choice(SCORES[:6])
        row = [
            rng.choice(SEASONS[:3] if rng.random() < 0.7 else SEASONS),
            rng.choice(DIVISION_CELLS[:3] if rng.random() < 0.7 else DIVISION_CELLS),
            rng.choice(STAGE_CELLS[:2] if rng.random() < 0.7 else STAGE_CELLS),
            rng.choice(DATES[:4] if rng.random() < 0.7 else DATES),
            rng.choice(["Invite", "  Big   Open ", ""] + ["Doe, John\nand Co"] * quotes),
            a, b, score_a, score_b,
        ]
    if not quotes:
        return row
    row = ['"' + cell.replace('"', '""') + '"' if rng.random() < 0.3 or any(
        c in cell for c in ',"\n\r') else cell for cell in row]
    if rng.random() < 0.1:
        row[rng.randrange(len(row))] = rng.choice(QUIRKS)
    return row


def _fuzz_file(path, rng, n_rows, quotes):
    """A fuzzed season file, its rows' raw cells joined on commas.

    It may lack a final line end, and with quotes it may end inside a cell.
    """
    rows = [HEADER.split(",")] + [_fuzz_row(rng, quotes) for _ in range(n_rows)]
    line_end = rng.choices(["\n", "\r\n", "\r"], [2, 2, 1])[0]
    last = rng.choice([line_end + OPEN_ROW, ""] if quotes else [""]) + rng.choice([line_end, ""])
    bom = "\ufeff" if rng.random() < 0.5 else ""
    text = line_end.join(",".join(row) for row in rows)
    path.write_bytes((bom + text + last).encode())
    return path


class TestReaderOracle:
    """The column reader against the per-row loop it replaced.

    Odd seeds write files without quotes. Even seeds quote cells of every
    column, with commas, quotes and line ends inside, and write the quirks
    csv.reader reads: a literal quote, text after a closing quote, and a run
    of three quotes.
    """

    @pytest.mark.parametrize("seed", range(8))
    def test_matches_row_loop(self, seed, tmp_path):
        rng = random.Random(seed)
        f = _fuzz_file(tmp_path / "g.csv", rng, 400, quotes=seed % 2 == 0)
        table, rejections = read_games_many([f])
        games, expected, teams = read_games_loop(f)
        assert games_of(table) == tuple(games)
        assert rejections == expected
        assert table.teams == tuple(teams)
        assert len(table) == len(games)

    def test_covers_every_reason(self, tmp_path):
        reasons = set()
        for seed in range(8):
            f = _fuzz_file(tmp_path / "g.csv", random.Random(seed), 400, quotes=seed % 2 == 0)
            _, rejections = read_games_many([f])
            reasons |= {r.reason for r in rejections}
        assert reasons == {
            "missing field", "empty team", "bad season", "bad division", "bad stage",
            "bad date", "bad score", "tie", "same team", "degenerate score",
        }

    def test_many_files_match_row_loop(self, tmp_path):
        rng = random.Random(99)
        files = [_fuzz_file(tmp_path / f"g{i}.csv", rng, 150, quotes=i == 1) for i in range(3)]
        table, rejections = read_games_many(files)
        loops = [read_games_loop(f) for f in files]
        assert games_of(table) == tuple(g for games, _, _ in loops for g in games)
        assert rejections == [r for _, rejected, _ in loops for r in rejected]
        assert table.teams == tuple(dict.fromkeys(t for _, _, teams in loops for t in teams))
