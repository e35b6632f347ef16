"""Golden outputs: CLI bytes and power ratings frozen on one fixed season.

The season is written here with the standard library's seeded generator, so
it depends on nothing in the package. It holds a 2019 mens slice in which the
blowout rule ignores games, a 2019 womens pods slice whose schedule graph has
several components, a few postseason games and a few malformed rows. Any
change to a rating, a prediction, a metric, the top table, a generated
season, an output file name, an exit code or the text on stdout or stderr
fails a check below.
"""

import hashlib
import random
from datetime import date, timedelta

import pytest

from ultirate.cli import main
from ultirate.domain import Division, Stage, partition_seasons
from ultirate.ingest import read_games
from ultirate.usau import compute_usau

HEADER = "season,division,stage,date,tournament,team_a,team_b,score_a,score_b\n"

MALFORMED_ROWS = [
    "2019,mens,regular,2019-06-08,Invite,M01,M02,11,11\n",      # tie
    "2019,mens,regular,2019-13-01,Invite,M01,M03,15,9\n",       # bad date
    "2019,mens,regular,2019-06-08,Invite,M01,M04,15\n",         # short row
    "2019,coed,regular,2019-06-08,Invite,M01,M05,15,9\n",       # bad division
    "2019,mens,regular,2019-06-08,Invite,M01,M06,1,0\n",        # degenerate score
    "2019,womens,regular,2019-06-08,Invite,W01,W01,15,3\n",     # same team
]


def _season_csv() -> str:
    rng = random.Random(20190601)
    rows = []

    # mens: 30 teams spread over 18 goals, 330 random pairings over 12 weeks
    mens = {f"M{i:02d}": 9.0 - 18.0 * i / 29 for i in range(30)}
    names = list(mens)
    for k in range(330):
        a, b = rng.sample(names, 2)
        delta = mens[a] - mens[b] + rng.gauss(0.0, 1.5)
        winner, loser = (a, b) if delta > 0 else (b, a)
        margin = min(max(round(abs(delta)), 1), 14)
        cap = 15 if k % 9 else 11  # some short-capped games
        losing = max(cap - margin, 0)
        played = date(2019, 6, 1) + timedelta(days=k * 84 // 330)
        rows.append(f"2019,mens,regular,{played},Invite,{winner},{loser},{cap},{losing}\n")

    # mens postseason: filtered out before rating
    for winner, loser, losing in (("M00", "M01", 13), ("M02", "M00", 12)):
        rows.append(f"2019,mens,post,2019-09-01,Nationals,{winner},{loser},15,{losing}\n")

    # womens: four pods of five teams, every pair twice
    for pod in range(4):
        teams = [f"W{pod * 5 + i + 1:02d}" for i in range(5)]
        for _ in range(2):
            for i, a in enumerate(teams):
                for b in teams[i + 1:]:
                    losing = rng.randrange(7, 15)  # never a blowout
                    winner, loser = (a, b) if rng.random() < 0.6 else (b, a)
                    day = 1 + rng.randrange(28)
                    rows.append(f"2019,womens,regular,2019-07-{day:02d},Pod {pod},"
                                f"{winner},{loser},15,{losing}\n")

    for i, bad in enumerate(MALFORMED_ROWS):
        rows.insert(40 * i + 7, bad)
    return HEADER + "".join(rows)


CASES = {
    "rate": ["rate", "--output", "ratings"],
    "predict": ["predict", "--output", "predictions.csv"],
    "evaluate": ["evaluate", "--output", "metrics.csv"],
    "rate_capped": ["rate", "--output", "capped", "--method", "usau", "--max-iters", "7"],
    "rate_capped_strict": ["rate", "--output", "capped", "--max-iters", "7", "--strict"],
    "predict_capped_strict": ["predict", "--output", "predictions.csv", "--max-iters", "7",
                              "--strict"],
    "evaluate_capped_strict": ["evaluate", "--output", "metrics.csv", "--max-iters", "7",
                               "--strict"],
    "top": ["top", "--division", "mens", "--top-n", "8"],
    "top_output": ["top", "--division", "mens", "--top-n", "30", "--output", "top.csv"],
    "top_none_ranked": ["top", "--division", "womens"],
    "top_capped_strict": ["top", "--division", "mens", "--output", "top.csv", "--max-iters", "7",
                          "--strict"],
    "synth": ["synth", "--output", "synth.csv", "--teams", "12", "--schedule", "random",
              "--games", "80", "--noise-sd", "1.5", "--cap", "13", "--seed", "3",
              "--weeks", "5", "--season", "2018", "--division", "womens"],
}


def _run_case(argv, tmp_path, monkeypatch, capsys):
    """Exit code, stdout, stderr and {relative path: sha256} of every file written."""
    monkeypatch.chdir(tmp_path)
    (tmp_path / "season.csv").write_text(_season_csv(), encoding="utf-8")
    if argv[0] != "synth":
        argv = argv[:1] + ["--input", "season.csv"] + argv[1:]
    code = main(argv)
    out, err = capsys.readouterr()
    files = {
        p.relative_to(tmp_path).as_posix(): hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.rglob("*"))
        if p.is_file() and p.name != "season.csv"
    }
    return code, out, err, files


REJECTED = (
    "ultirate: 6 row(s) rejected\n"
    "ultirate:   season.csv row 8: tie (11-11)\n"
    "ultirate:   season.csv row 48: bad date (2019-13-01)\n"
    "ultirate:   season.csv row 88: missing field (8 columns)\n"
    "ultirate:   season.csv row 128: bad division (coed)\n"
    "ultirate:   season.csv row 168: degenerate score (1-0)\n"
    "ultirate:   ... and 1 more\n"
)
PODS = ("ultirate: 2019 womens leastsq: schedule graph has 4 components; "
        "ratings are only comparable within a component\n")
CAPPED = ("ultirate: 2019 mens usau: did not converge within the iteration cap\n"
          "ultirate: 2019 womens usau: did not converge within the iteration cap\n")

MENS_LS = "7d1446bffc6b2b49b77193162a8291c32a2c5a37807f667e4b7c3991f40afcf8"
WOMENS_LS = "6e6a5ebd3fcf15cf6e4e7e1811df9e3184ae5196ff1656bae4c809efc16b2dd4"
MENS_USAU_CAPPED = "f96d2dac18b8fac3324153d46fabfaafa89dc3784f7a952add0fff57ecf67168"
WOMENS_USAU_CAPPED = "505bf81b7844ac3cec521bdc9231fb14cc047ff96ef7529e0ff7cd79d62bf6c9"

def _lines(*names):
    return "".join(f"{name}\n" for name in names)


TOP_HEADER = "rank,usau_team,usau_rating,ls_team,ls_rating,rank_diff\n"

RATED = _lines("ratings_2019_mens_usau.csv", "ratings_2019_mens_leastsq.csv",
               "ratings_2019_womens_usau.csv", "ratings_2019_womens_leastsq.csv")

# case: (exit code, stdout, stderr, {file: sha256})
GOLDEN = {
    "rate": (0, RATED.replace("ratings_", "ratings/ratings_"), REJECTED + PODS, {
        "ratings/ratings_2019_mens_leastsq.csv": MENS_LS,
        "ratings/ratings_2019_mens_usau.csv":
            "f56cbbdb78a768deebd7a7af9e6406a26144092d59231135b54e6535863508cd",
        "ratings/ratings_2019_womens_leastsq.csv": WOMENS_LS,
        "ratings/ratings_2019_womens_usau.csv":
            "0404e62080cea84888bdf4a53b06846ac72c151ebbd96cdd7d609a70d0f5f4c7",
    }),
    "predict": (0, _lines("predictions.csv"), REJECTED + PODS, {
        "predictions.csv": "41cd4feeedc423938b2cbe010a532159a1dda17c131e6e956d96f3754356f837",
    }),
    "evaluate": (0, _lines("metrics.csv"), REJECTED + PODS, {
        "metrics.csv": "44f5c3fbd24782b52015184970c6c47a5f4ad4fcc473e9a70a88b00a218cd9f2",
    }),
    "rate_capped": (
        0,
        _lines("capped/ratings_2019_mens_usau.csv", "capped/ratings_2019_womens_usau.csv"),
        REJECTED + CAPPED,
        {
            "capped/ratings_2019_mens_usau.csv": MENS_USAU_CAPPED,
            "capped/ratings_2019_womens_usau.csv": WOMENS_USAU_CAPPED,
        },
    ),
    # rate, predict and evaluate write nothing when --strict fails the run
    "rate_capped_strict": (5, "", REJECTED + CAPPED + PODS, {}),
    "predict_capped_strict": (5, "", REJECTED + CAPPED + PODS, {}),
    "evaluate_capped_strict": (5, "", REJECTED + CAPPED + PODS, {}),
    # top writes to stdout unless --output is given
    "top": (0, TOP_HEADER + _lines(
        "1,M01,2551.667351,M01,8.830789,0", "2,M00,2394.304862,M00,8.115776,0",
        "3,M03,2140.742699,M03,6.860753,0", "4,M02,2139.078657,M02,6.843967,0",
        "5,M04,1951.335451,M05,6.357503,1", "6,M05,1922.698941,M04,6.206300,-1",
        "7,M06,1870.247385,M06,5.642893,0", "8,M07,1814.677171,M07,4.997538,0",
    ), REJECTED, {}),
    # 29 ranked power ratings; M23 is unranked, so its rank_diff is empty. Least
    # squares ranks all 30 teams, so row 30 has empty power-rating cells.
    "top_output": (0, _lines("top.csv"), REJECTED, {
        "top.csv": "7515a4683422898bb3441f6ced56664e40ef585c2715741710577cce59fd0277",
    }),
    # no womens team reaches the 10-game minimum, so every row lists least
    # squares alone: all 20 teams, fewer than the default --top-n of 25
    "top_none_ranked": (0, TOP_HEADER + _lines(
        "1,,,W06,2.500000,", "2,,,W09,2.400000,", "3,,,W17,2.400000,", "4,,,W01,2.300000,",
        "5,,,W03,1.600000,", "6,,,W16,1.300000,", "7,,,W12,1.200000,", "8,,,W14,0.300000,",
        "9,,,W15,0.100000,", "10,,,W07,0.100000,", "11,,,W11,-0.400000,",
        "12,,,W18,-0.600000,", "13,,,W02,-1.000000,", "14,,,W20,-1.100000,",
        "15,,,W04,-1.100000,", "16,,,W13,-1.200000,", "17,,,W05,-1.800000,",
        "18,,,W19,-2.000000,", "19,,,W10,-2.300000,", "20,,,W08,-2.700000,",
    ), REJECTED + PODS, {}),
    # top writes nothing when --strict fails the run
    "top_capped_strict": (5, "", REJECTED + CAPPED.splitlines(keepends=True)[0], {}),
    "synth": (0, _lines("synth.csv"), "", {
        "synth.csv": "943a64a1f17593c739954fd67203c9a9c7ca3d35b9b147f841622f2b44329bd6",
    }),
}


@pytest.mark.parametrize("case", list(CASES))
def test_cli_outputs_frozen(case, tmp_path, monkeypatch, capsys):
    assert _run_case(CASES[case], tmp_path, monkeypatch, capsys) == GOLDEN[case]


MENS_USAU_HEX = {
    "M00": "0x1.2b49c16d8dfe6p+11", "M01": "0x1.3ef55af03fc2bp+11",
    "M02": "0x1.0b62845b24a2bp+11", "M03": "0x1.0b97c430027fdp+11",
    "M04": "0x1.e7d57807196adp+10", "M05": "0x1.e0acbb73e405ap+10",
    "M06": "0x1.d38fd527fcb17p+10", "M07": "0x1.c5ab56c38ae95p+10",
    "M08": "0x1.9618f90a39b0dp+10", "M09": "0x1.7f9ef3596ec63p+10",
    "M10": "0x1.500ae41a20373p+10", "M11": "0x1.492f2babc222fp+10",
    "M12": "0x1.41113f7a49aa9p+10", "M13": "0x1.30572f790d34dp+10",
    "M14": "0x1.090ff7948cbfdp+10", "M15": "0x1.e67bb4b8333e1p+9",
    "M16": "0x1.d665c5e649635p+9", "M17": "0x1.4623f80375d4ap+9",
    "M18": "0x1.2eb3177135777p+9", "M19": "0x1.2609f9f364755p+9",
    "M20": "0x1.1ba04e8a47446p+9", "M21": "0x1.933c8cf1697f6p+8",
    "M22": "0x1.3db2d6f5d4bc3p+6", "M23": "0x1.9a105aa9b71fcp+7",
    "M24": "0x1.57f2ecddf0f11p+6", "M25": "0x1.54025201f5434p+4",
    "M26": "-0x1.a7fcd996d7769p+7", "M27": "-0x1.de4916635d22cp+7",
    "M28": "-0x1.cee89694dc334p+8", "M29": "-0x1.d07117bad3a8dp+8",
}
MENS_IGNORED_SHA256 = "09f336994fd5e031229263e0e8dcdaa0dab2ae74a4af31c537fd7b55a64a4b99"


def test_usau_ratings_bit_exact(tmp_path):
    path = tmp_path / "season.csv"
    path.write_text(_season_csv(), encoding="utf-8")
    games, _ = read_games(path)
    (mens,) = [s for s in partition_seasons(games)
               if s.stage is Stage.REGULAR and s.division is Division.MENS]
    table = compute_usau(mens)
    assert {team: r.hex() for team, r in table.ratings.items()} == MENS_USAU_HEX
    assert (table.iterations_used, table.converged) == (95, True)
    assert len(table.ignored_games) == 103
    digest = hashlib.sha256(repr(sorted(table.ignored_games)).encode()).hexdigest()
    assert digest == MENS_IGNORED_SHA256
    assert [team for team, ok in table.ranked.items() if not ok] == ["M23"]
