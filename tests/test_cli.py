"""End-to-end runs of the command-line interface."""

import argparse
import csv
import io
import os
import re
import shlex
import stat
from pathlib import Path

import numpy as np
import pytest

from ultirate import leastsq
from ultirate.cli import (
    EXIT_CONFIG,
    EXIT_EMPTY,
    EXIT_IO,
    EXIT_NONCONVERGED,
    EXIT_OK,
    EXIT_SOLVER,
    build_parser,
    main,
)
from ultirate.domain import Division
from ultirate.ingest import read_games_many
from ultirate.usau import UsauParams

from helpers import TieRng, game, read_metrics, read_ratings, write_game_csv


@pytest.fixture
def season_csv(tmp_path):
    """Two divisions of a small 2019 season, enough games to rank some teams."""
    games = []
    teams = [f"T{i}" for i in range(6)]
    day = 0
    for rounds in range(3):
        for i, a in enumerate(teams):
            for b in teams[i + 1:]:
                margin = (i + rounds) % 5 + 1
                games.append(game(a, b, 15, 15 - margin, day=day % 28))
                day += 1
    games += [
        game("W1", "W2", 15, 11, division=Division.WOMENS),
        game("W2", "W3", 15, 8, division=Division.WOMENS),
        game("W1", "W3", 15, 6, division=Division.WOMENS),
    ]
    path = tmp_path / "season.csv"
    write_game_csv(games, path)
    return path


DATA_COMMANDS = ["rate", "predict", "evaluate", "top"]


def _failed_run(argv, tmp_path, capsys, output=True):
    """Run argv, with --output under tmp_path unless output is False; (exit code, stderr).

    Asserts that the run printed nothing on stdout and created no file.
    """
    capsys.readouterr()
    before = set(tmp_path.rglob("*"))
    code = main(argv + (["--output", str(tmp_path / "out")] if output else []))
    out, err = capsys.readouterr()
    assert out == ""
    assert set(tmp_path.rglob("*")) == before
    return code, err


class TestRate:
    def test_writes_one_file_per_unit(self, season_csv, tmp_path):
        out = tmp_path / "ratings"
        code = main([
            "rate", "--input", str(season_csv), "--output", str(out), "--method", "both",
        ])
        assert code == EXIT_OK
        names = sorted(p.name for p in out.glob("*.csv"))
        assert names == [
            "ratings_2019_mens_leastsq.csv",
            "ratings_2019_mens_usau.csv",
            "ratings_2019_womens_leastsq.csv",
            "ratings_2019_womens_usau.csv",
        ]

    def test_method_both_equals_union_of_single_runs(self, season_csv, tmp_path):
        both = tmp_path / "both"
        main(["rate", "--input", str(season_csv), "--output", str(both)])
        for method in ("usau", "leastsq"):
            single = tmp_path / method
            main([
                "rate", "--input", str(season_csv), "--output", str(single),
                "--method", method,
            ])
            for f in single.glob("*.csv"):
                assert (both / f.name).read_bytes() == f.read_bytes()

    def test_rerun_byte_identical(self, season_csv, tmp_path):
        out1, out2 = tmp_path / "r1", tmp_path / "r2"
        main(["rate", "--input", str(season_csv), "--output", str(out1)])
        main(["rate", "--input", str(season_csv), "--output", str(out2)])
        for f in out1.glob("*.csv"):
            assert f.read_bytes() == (out2 / f.name).read_bytes()

    def test_division_filter(self, season_csv, tmp_path):
        out = tmp_path / "w"
        code = main([
            "rate", "--input", str(season_csv), "--output", str(out),
            "--division", "womens", "--method", "leastsq",
        ])
        assert code == EXIT_OK
        assert [p.name for p in out.glob("*.csv")] == ["ratings_2019_womens_leastsq.csv"]

    def test_empty_filter_exits_with_code(self, season_csv, tmp_path, capsys):
        for command in DATA_COMMANDS:
            code, err = _failed_run([command, "--input", str(season_csv), "--season", "1999"],
                                    tmp_path, capsys)
            assert code == EXIT_EMPTY
            assert err == "ultirate: no games match the given filters\n"

    def test_missing_input_is_io_error(self, tmp_path, capsys):
        absent = tmp_path / "absent.csv"
        for command in DATA_COMMANDS:
            code, err = _failed_run([command, "--input", str(absent)], tmp_path, capsys)
            assert code == EXIT_IO
            assert err.startswith("ultirate: ") and str(absent) in err

    def test_post_stage_is_config_error(self, season_csv, tmp_path):
        # Ratings are defined on regular-season play only, so there is no --stage.
        with pytest.raises(SystemExit) as err:
            main([
                "rate", "--input", str(season_csv), "--output", str(tmp_path / "o"),
                "--stage", "post",
            ])
        assert err.value.code == 2
        assert not (tmp_path / "o").exists()

    def test_strict_flags_nonconvergence(self, season_csv, tmp_path, capsys):
        code = main([
            "rate", "--input", str(season_csv), "--output", str(tmp_path / "o"),
            "--method", "usau", "--max-iters", "2", "--strict",
        ])
        assert code == EXIT_NONCONVERGED
        # A failed --strict run writes no rating file and prints no path.
        assert not list(tmp_path.rglob("ratings_*.csv"))
        assert capsys.readouterr().out == ""
        relaxed = main([
            "rate", "--input", str(season_csv), "--output", str(tmp_path / "o2"),
            "--method", "usau", "--max-iters", "2",
        ])
        assert relaxed == EXIT_OK
        for command in DATA_COMMANDS:
            argv = [command, "--input", str(season_csv), "--max-iters", "2", "--strict"]
            code, err = _failed_run(argv + ["--division", "mens"] * (command == "top"),
                                    tmp_path, capsys)
            assert code == EXIT_NONCONVERGED
            assert "ultirate: 2019 mens usau: did not converge within the iteration cap\n" in err


class TestEvaluate:
    def test_row_per_unit_and_method(self, season_csv, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["evaluate", "--input", str(season_csv), "--output", str(out)])
        assert code == EXIT_OK
        rows = read_metrics(out)
        assert len(rows) == 4  # 2 divisions x 2 methods
        assert all(r.games_predicted > 0 for r in rows)

    def test_single_method(self, season_csv, tmp_path):
        out = tmp_path / "metrics.csv"
        main(["evaluate", "--input", str(season_csv), "--output", str(out),
              "--method", "leastsq"])
        rows = read_metrics(out)
        assert {r.method.value for r in rows} == {"leastsq"}


class TestPredict:
    def test_prediction_rows(self, season_csv, tmp_path):
        out = tmp_path / "pred.csv"
        code = main([
            "predict", "--input", str(season_csv), "--output", str(out),
            "--division", "womens", "--method", "leastsq",
        ])
        assert code == EXIT_OK
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 3
        assert all(r["method"] == "leastsq" for r in rows)
        assert all(float(r["predicted_diff"]) >= 0 for r in rows)


class TestOutputTarget:
    @pytest.mark.parametrize("command", ["predict", "evaluate", "top"])
    def test_dev_null_is_written_in_place(self, command, season_csv, monkeypatch):
        def no_rename(*args):
            raise AssertionError("os.replace called on a non-regular target")

        monkeypatch.setattr(os, "replace", no_rename)  # a rename would replace the device
        assert main([command, "--input", str(season_csv), "--division", "womens",
                     "--output", os.devnull]) == EXIT_OK
        assert stat.S_ISCHR(os.stat(os.devnull).st_mode)

    def test_symlinked_output_is_written_through(self, season_csv, tmp_path):
        real, link = tmp_path / "real.csv", tmp_path / "link.csv"
        link.symlink_to(real)
        assert main(["evaluate", "--input", str(season_csv), "--output", str(link)]) == EXIT_OK
        assert link.is_symlink()
        assert len(read_metrics(real)) == 4  # 2 divisions x 2 methods


class TestTop:
    def test_side_by_side_table(self, season_csv, tmp_path, capsys):
        code = main([
            "top", "--input", str(season_csv), "--division", "mens", "--top-n", "4",
        ])
        assert code == EXIT_OK
        lines = capsys.readouterr().out.strip().splitlines()
        assert lines[0] == "rank,usau_team,usau_rating,ls_team,ls_rating,rank_diff"
        assert len(lines) == 5

    def test_rank_diff_sign_convention(self, season_csv, tmp_path):
        out = tmp_path / "top.csv"
        main([
            "top", "--input", str(season_csv), "--division", "mens",
            "--top-n", "6", "--output", str(out),
        ])
        with open(out, newline="") as fh:
            rows = list(csv.DictReader(fh))
        names = [r["ls_team"] for r in rows]
        usau_rank = {r["usau_team"]: int(r["rank"]) for r in rows}
        for r in rows:
            team = r["ls_team"]
            if team in usau_rank and r["rank_diff"]:
                assert int(r["rank_diff"]) == usau_rank[team] - int(r["rank"])

    def test_requires_single_unit(self, season_csv, tmp_path, capsys):
        # top refuses after loading and before rating, so no rating caveat is
        # printed, though one iteration leaves every power rating unconverged.
        for output in (False, True):
            code, err = _failed_run(["top", "--input", str(season_csv), "--max-iters", "1"],
                                    tmp_path, capsys, output=output)
            assert code == EXIT_CONFIG
            assert err == ("ultirate: top needs one (season, division); "
                           "narrow with --season/--division\n")

    def test_lists_ls_top_n_past_the_ranked_power_ratings(self, tmp_path, capsys):
        # In a noise-free 12-team round robin every game is a blowout, so no
        # team keeps the ten counted games a power-rating rank needs.
        data = tmp_path / "s.csv"
        main(["synth", "--output", str(data), "--teams", "12", "--seed", "7"])
        capsys.readouterr()
        assert main(["top", "--input", str(data)]) == EXIT_OK
        rows = list(csv.DictReader(io.StringIO(capsys.readouterr().out)))
        assert [r["rank"] for r in rows] == [str(k) for k in range(1, 13)]
        assert all(r["usau_team"] == r["usau_rating"] == r["rank_diff"] == "" for r in rows)
        assert [r["ls_team"] for r in rows] == [f"T{i:02d}" for i in range(1, 13)]

    def test_method_is_not_an_option(self, season_csv, tmp_path, capsys):
        # top always shows both methods side by side.
        with pytest.raises(SystemExit) as err:
            main(["top", "--input", str(season_csv), "--division", "mens", "--method", "usau"])
        assert err.value.code == 2
        assert capsys.readouterr().out == ""


HEADER_LINE = b"season,division,stage,date,tournament,team_a,team_b,score_a,score_b\n"
GOOD_ROW = b"2019,mens,regular,2019-06-01,Invite,A,B,15,10\n"


class TestUnreadableInput:
    @pytest.mark.parametrize("body, message", [
        pytest.param(GOOD_ROW * 2 + b"2019,mens,regular,2019-06-01,Invite,\xff,B,15,10\n",
                     "not valid UTF-8 at line 4", id="invalid-utf8"),
        # Line ends count as csv.reader counts them: the header's LF, a CR, a CRLF.
        pytest.param(GOOD_ROW.replace(b"\n", b"\r") + GOOD_ROW.replace(b"\n", b"\r\n")
                     + b"2019,mens,regular,2019-06-01,Invite,\xff,B,15,10\r",
                     "not valid UTF-8 at line 4", id="invalid-utf8-cr"),
        pytest.param(GOOD_ROW + b"2019,mens,regular,2019-06-01,Invite,"
                     + b"A" * 131073 + b",B,15,10\n",
                     "line 3: field larger than field limit (131072)", id="huge-field"),
    ])
    def test_exit_io_naming_the_file(self, body, message, tmp_path, capsys):
        path = tmp_path / "season.csv"
        path.write_bytes(HEADER_LINE + body)
        for command in DATA_COMMANDS:
            code, err = _failed_run([command, "--input", str(path)], tmp_path, capsys)
            assert code == EXIT_IO
            assert err == f"ultirate: {path}: {message}\n"


class TestSolverFailure:
    def test_failed_residual_check_exits_solver(self, tmp_path, capsys, monkeypatch):
        season = tmp_path / "s.csv"
        assert main(["synth", "--output", str(season), "--teams", "12", "--seed", "7"]) == EXIT_OK
        solve = leastsq._conjugate_gradient
        monkeypatch.setattr(leastsq, "_conjugate_gradient", lambda *a: solve(*a) * 1.001)
        for command in DATA_COMMANDS:
            code, err = _failed_run([command, "--input", str(season)], tmp_path, capsys)
            assert code == EXIT_SOLVER
            assert re.fullmatch(r"ultirate: 2000 mens leastsq: normal-equation residual "
                                r"\S+ exceeds tolerance\n", err)


class TestSynth:
    def test_generates_readable_season(self, tmp_path):
        out = tmp_path / "synth.csv"
        code = main([
            "synth", "--output", str(out), "--teams", "6", "--seed", "11",
            "--noise-sd", "1.5",
        ])
        assert code == EXIT_OK
        games, rejections = read_games_many([out])
        assert rejections == []
        assert len(games) == 15

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        for path in (a, b):
            main(["synth", "--output", str(path), "--teams", "5", "--seed", "3",
                  "--noise-sd", "2.0"])
        assert a.read_bytes() == b.read_bytes()

    def test_feeds_back_into_rate(self, tmp_path):
        data = tmp_path / "synth.csv"
        main(["synth", "--output", str(data), "--teams", "8", "--seed", "5"])
        out = tmp_path / "ratings"
        code = main(["rate", "--input", str(data), "--output", str(out)])
        assert code == EXIT_OK
        rows = read_ratings(out / "ratings_2000_mens_leastsq.csv")
        # linspace truth is decreasing by team index, leastsq should agree
        assert [r[1] for r in rows] == [f"T{i}" for i in range(1, 9)]

    @pytest.mark.parametrize("argv", [
        pytest.param(["--cap", "9007199254740993", "--rating-min=-1e30", "--rating-max=1e30",
                      "--teams", "3"], id="cap-2**53+1"),
        pytest.param(["--cap", "9223372036854775807", "--rating-min=-1e300",
                      "--rating-max=1e300"], id="cap-int64-max"),
    ])
    def test_huge_cap_clamps_margin_to_cap_minus_one(self, argv, tmp_path):
        out = tmp_path / "synth.csv"
        assert main(["synth", "--output", str(out)] + argv) == EXIT_OK
        table, rejections = read_games_many([out])
        assert rejections == []
        assert set(table.losing_score.tolist()) == {1}
        assert set(table.winning_score.tolist()) == {int(argv[1])}

    def test_bad_config(self, tmp_path):
        assert main(["synth", "--output", str(tmp_path / "x.csv"), "--teams", "1"]) == EXIT_CONFIG

    def test_exact_tie_exits_config(self, tmp_path, capsys, monkeypatch):
        # T1 and T2 are rated 10 and -10; noise of -20 ties them exactly.
        monkeypatch.setattr(np.random, "default_rng", lambda seed: TieRng(20.0))
        out = tmp_path / "x.csv"
        assert main(["synth", "--output", str(out), "--teams", "2", "--noise-sd", "1"]) == EXIT_CONFIG
        assert capsys.readouterr().err == (
            "ultirate: teams 'T1' and 'T2' tie exactly (rating gap plus noise is 0); "
            "no winner can be drawn\n")
        assert not out.exists()

    def test_no_negative_zero_ratings(self, tmp_path):
        # Every pod's middle team has a true rating within rounding noise of
        # zero; its least-squares rating must print as 0.000000, unsigned.
        data = tmp_path / "pods.csv"
        main(["synth", "--output", str(data), "--teams", "600", "--schedule", "pods",
              "--pod-size", "6", "--noise-sd", "1", "--seed", "1"])
        out = tmp_path / "ratings"
        assert main(["rate", "--input", str(data), "--output", str(out),
                     "--method", "leastsq"]) == EXIT_OK
        text = (out / "ratings_2000_mens_leastsq.csv").read_text()
        assert ",0.000000," in text
        assert "-0.000000" not in text


WEEK_RANGE = "n_weeks must be >= 1, with the last week ending by 9999-12-31"
RATING_RANGE = "--rating-min and --rating-max must be finite, with --rating-min below --rating-max"


class TestBadFlagValues:
    # (commands, arguments after the command, message); the power-rating values
    # are checked by every command that rates, top's before its unit count.
    @pytest.mark.parametrize("commands, argv, message", [
        pytest.param(DATA_COMMANDS, ["--max-iters", "0"], "max_iterations must be positive",
                     id="max-iters"),
        pytest.param(["top"], ["--division", "mens", "--top-n", "-3"], "--top-n must be >= 1",
                     id="top-n"),
        pytest.param(["synth"], ["--schedule", "pods", "--pod-size", "1"],
                     "pod_size must be >= 2", id="pod-size"),
        pytest.param(["synth"], ["--noise-sd", "nan"], "noise_sd must be finite and >= 0",
                     id="noise-sd-nan"),
        pytest.param(["synth"], ["--rating-min", "nan"], RATING_RANGE, id="rating-min-nan"),
        pytest.param(["synth"], ["--rating-max", "inf"], RATING_RANGE, id="rating-max-inf"),
        pytest.param(["synth"], ["--rating-min", "3", "--rating-max", "3"], RATING_RANGE,
                     id="rating-range-empty"),
        # Each bound is finite, but the span between them overflows to inf.
        pytest.param(["synth"], ["--rating-min=-1e308", "--rating-max", "1e308"],
                     "true ratings must be finite", id="rating-span-overflow"),
        pytest.param(["synth"], ["--season", "0"], "season must be in 1..9999", id="season-0"),
        pytest.param(["synth"], ["--season", "100000000000000000000"],
                     "season must be in 1..9999", id="season-huge"),
        pytest.param(["synth"], ["--weeks", "1000000000"], WEEK_RANGE, id="weeks-huge"),
        pytest.param(["synth"], ["--cap", "100000000000000000000"],
                     "cap must be in 2..9223372036854775807", id="cap-huge"),
    ])
    def test_exit_config_without_output(self, commands, argv, message, season_csv, tmp_path,
                                        capsys):
        for command in commands:
            data = [] if command == "synth" else ["--input", str(season_csv)]
            code, err = _failed_run([command] + data + argv, tmp_path, capsys)
            assert code == EXIT_CONFIG
            assert err == f"ultirate: {message}\n"

    @pytest.mark.parametrize("commands, argv, message", [
        pytest.param(DATA_COMMANDS, ["--max-iters", "0"], "max_iterations must be positive",
                     id="max-iters"),
        pytest.param(["top"], ["--top-n", "0"], "--top-n must be >= 1", id="top-n"),
    ])
    def test_checked_before_the_input_is_read(self, commands, argv, message, tmp_path, capsys):
        absent = ["--input", str(tmp_path / "absent.csv")]
        for command in commands:
            code, err = _failed_run([command] + absent + argv, tmp_path, capsys)
            assert code == EXIT_CONFIG
            assert err == f"ultirate: {message}\n"


class TestParser:
    @pytest.mark.parametrize("command", ["rate", "predict", "evaluate", "top"])
    def test_defaults_come_from_the_library(self, command):
        args = build_parser().parse_args([command, "--input", "x", "--output", "y"])
        assert args.max_iters == UsauParams().max_iterations

    @pytest.mark.parametrize("command, option", [
        *(pytest.param(c, ["--ref-cap", "15"], id=c) for c in DATA_COMMANDS),
        *(pytest.param(c, ["--tol", "1e-6"], id=f"{c}-tol") for c in DATA_COMMANDS),
    ])
    def test_ref_cap_is_not_an_option(self, command, option, season_csv, tmp_path, capsys):
        # Least squares always rates at REFERENCE_CAP (see TestRefCap in
        # test_predict.py), and the power rating stops at usau.CONVERGENCE_TOL.
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as err:
            main([command, "--input", str(season_csv), "--output", str(out)] + option)
        assert err.value.code == EXIT_CONFIG
        assert f"unrecognized arguments: {' '.join(option)}" in capsys.readouterr().err
        assert not out.exists()

    def test_unknown_command_exits_two(self):
        with pytest.raises(SystemExit) as err:
            main(["frobnicate"])
        assert err.value.code == 2

    def test_directory_input(self, season_csv, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main([
            "evaluate", "--input", str(season_csv.parent), "--output", str(out),
        ])
        assert code == EXIT_OK

    def test_directory_input_skips_subdirectories(self, season_csv, tmp_path):
        # A subdirectory whose name ends in .csv is not a season file.
        (tmp_path / "sub.csv").mkdir()
        alone, beside = tmp_path / "alone.txt", tmp_path / "beside.txt"
        assert main(["evaluate", "--input", str(season_csv), "--output", str(alone)]) == EXIT_OK
        assert main(["evaluate", "--input", str(tmp_path), "--output", str(beside)]) == EXIT_OK
        assert beside.read_bytes() == alone.read_bytes()

    def test_broken_csv_symlink_in_directory_is_io_error(self, season_csv, tmp_path, capsys):
        # Skipping directories must not silently drop a season whose link is broken.
        link = tmp_path / "lost.csv"
        link.symlink_to(tmp_path / "absent.csv")
        code, err = _failed_run(["evaluate", "--input", str(tmp_path)], tmp_path, capsys)
        assert code == EXIT_IO
        assert err == f"ultirate: no such file: {link}\n"

    @pytest.mark.parametrize("subdirectories", [
        pytest.param([], id="empty"),
        pytest.param(["sub.csv"], id="only-a-csv-subdirectory"),
    ])
    def test_directory_without_csv_files_is_io_error(self, subdirectories, tmp_path, capsys):
        seasons = tmp_path / "seasons"
        seasons.mkdir()
        for name in subdirectories:
            (seasons / name).mkdir()
        for command in DATA_COMMANDS:
            code, err = _failed_run([command, "--input", str(seasons)], tmp_path, capsys)
            assert code == EXIT_IO
            assert err == f"ultirate: no .csv files in directory {seasons}\n"


def _readme_cli_section() -> str:
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    return text.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]


class TestReadme:
    """README's CLI section shows only commands that run and options that exist."""

    def test_examples_run(self, tmp_path, monkeypatch):
        block = _readme_cli_section().split("```sh\n", 1)[1].split("```", 1)[0]
        commands = [shlex.split(line) for line in block.replace("\\\n", " ").splitlines()
                    if line.startswith("ultirate ")]
        assert len(commands) == 5
        monkeypatch.chdir(tmp_path)
        for argv in commands:
            assert main(argv[1:]) == EXIT_OK, argv

    def test_every_option_exists(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]
        options = {o for p in sub.choices.values() for o in p._option_string_actions}
        named = set(re.findall(r"--[a-z][a-z-]*", _readme_cli_section()))
        assert named and named <= options, named - options
