"""CSV ingestion and byte-stable output files.

Game schema (header required, exact): season, division, stage, date,
tournament, team_a, team_b, score_a, score_b; the tournament cell must be
present but is not read. UTF-8, comma-delimited, RFC-4180 quoting; LF and
CRLF inputs read identically. Bad rows become Rejection records rather than
aborting; a missing file, a file that is not UTF-8 or has a field over the
csv module's limit, or a wrong header is fatal. All writers emit
deterministic, byte-identical files for identical inputs: fixed 6-decimal
floats, explicit sort orders, LF newlines.
"""

from __future__ import annotations

import csv
import io
import os
import sys
from dataclasses import dataclass, fields
from functools import reduce
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .domain import (
    DIVISIONS,
    GAME_FIELDS,
    STAGES,
    Division,
    GameTable,
    RatingTable,
    SeasonSlice,
    Stage,
    normalize_team_name,
    parse_date,
)
from .metrics import MetricReport
from .predict import PredictionSet


class IngestError(Exception):
    """Fatal input problem: missing file, unreadable file, or bad header."""


@dataclass(frozen=True)
class Rejection:
    """One skipped row: 1-based data row number, reason code, and detail."""

    row: int
    reason: str
    detail: str = ""
    source: str = ""


def _data_rows(path: Path) -> Iterator[tuple[int, list[str]]]:
    """Yield (data row number, fields) for each non-blank row after the header."""
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    data = path.read_bytes()
    try:
        text = data.decode("utf-8-sig")
    except UnicodeDecodeError as err:
        line = data.count(b"\n", 0, err.start) + 1
        raise IngestError(f"{path}: not valid UTF-8 at line {line}") from None
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        header = next(reader, None)
        if header is None:
            raise IngestError(f"{path}: empty file, expected header row")
        if tuple(h.strip() for h in header) != GAME_FIELDS:
            raise IngestError(
                f"{path}: bad header {header!r}, expected {','.join(GAME_FIELDS)}"
            )
        for row_no, row in enumerate(reader, start=1):
            if "".join(row).strip():
                yield row_no, row
    except csv.Error as err:
        raise IngestError(f"{path}: line {reader.line_num}: {err}") from None


def _parse_column(
    values: Sequence[str], parse: Callable[[str], int]
) -> tuple[np.ndarray, np.ndarray]:
    """Parse each distinct string once: (value per row, whether it parsed).

    A string that parse rejects with ValueError or OverflowError gets 0.
    """
    distinct = dict.fromkeys(values)
    parsed, ok = [], []
    for raw in distinct:
        try:
            parsed.append(parse(raw))
            ok.append(True)
        except (ValueError, OverflowError):
            parsed.append(0)
            ok.append(False)
    index = {raw: i for i, raw in enumerate(distinct)}
    code = np.fromiter(map(index.__getitem__, values), np.int64, len(values))
    return np.array(parsed, np.int64)[code], np.array(ok, np.bool_)[code]


def _int64(raw: str) -> np.int64:
    return np.int64(int(raw.strip()))  # OverflowError outside the int64 range


def _score_detail(raw_a: str, raw_b: str) -> str:
    """A bad score's detail: both scores as ints if both parse, else both cells repr'd."""
    try:
        return f"{int(raw_a.strip())}, {int(raw_b.strip())}"
    except ValueError:
        return f"{raw_a!r}, {raw_b!r}"


def _read_columns(
    path: Path, teams: dict[str, int]
) -> tuple[dict[str, np.ndarray], list[Rejection]]:
    """One file's valid rows as GameTable columns by name, and its rejections in row order.

    Each field is parsed once per distinct string, and the checks across
    fields run on arrays. A row without nine cells is a missing field;
    another rejected row's reason is its first failing check, in this order:
    empty team, bad season, bad division, bad stage, bad date, bad score,
    tie, same team, degenerate score. A season or score outside the int64
    range is a bad season or bad score. teams maps each team name to its
    code and is shared by all files of one read.
    """
    numbers, rows, rejections = [], [], []
    for row_no, row in _data_rows(path):
        if len(row) == len(GAME_FIELDS):
            numbers.append(row_no)
            rows.append(row)
        else:
            rejections.append(Rejection(row_no, "missing field", f"{len(row)} columns", str(path)))
    season, division, stage, day, _, team_a, team_b, score_a, score_b = (
        list(zip(*rows)) or [()] * len(GAME_FIELDS))
    n = len(rows)

    def team_code(raw: str) -> int:
        name = normalize_team_name(raw)
        if not name:
            raise ValueError("empty team")
        return teams.setdefault(name, len(teams))

    season, ok_season = _parse_column(season, _int64)
    division, ok_division = _parse_column(
        division, lambda raw: DIVISIONS.index(Division(raw.strip())))
    stage, ok_stage = _parse_column(stage, lambda raw: STAGES.index(Stage(raw.strip())))
    day, ok_day = _parse_column(day, lambda raw: parse_date(raw).toordinal())
    # Both teams and both scores are parsed together: side a, then side b.
    team, ok_team = _parse_column(team_a + team_b, team_code)
    score, ok_score = _parse_column(score_a + score_b, _int64)
    ok_score &= score >= 0
    a, b, sa, sb = team[:n], team[n:], score[:n], score[n:]
    w, l = np.maximum(sa, sb), np.minimum(sa, sb)

    # (reason, which rows pass, the detail of a row that fails), in check order.
    names = tuple(teams)
    checks = (
        ("empty team", ok_team[:n] & ok_team[n:], lambda i: ""),
        ("bad season", ok_season, lambda i: rows[i][0]),
        ("bad division", ok_division, lambda i: rows[i][1]),
        ("bad stage", ok_stage, lambda i: rows[i][2]),
        ("bad date", ok_day, lambda i: rows[i][3]),
        ("bad score", ok_score[:n] & ok_score[n:], lambda i: _score_detail(*rows[i][7:])),
        ("tie", sa != sb, lambda i: f"{sa[i]}-{sb[i]}"),
        ("same team", a != b, lambda i: names[a[i]]),
        ("degenerate score", w >= 2, lambda i: f"{w[i]}-{l[i]}"),
    )
    ok = reduce(np.logical_and, (p for _, p, _ in checks))
    failed = np.flatnonzero(~ok)
    first = np.array([p[failed] for _, p, _ in checks]).argmin(axis=0)
    for i, k in zip(failed.tolist(), first.tolist()):
        reason, _, detail = checks[k]
        rejections.append(Rejection(numbers[i], reason, detail(i), str(path)))
    rejections.sort(key=lambda r: r.row)

    a_won = sa > sb
    columns = {
        "season": season, "division": division, "stage": stage, "day": day,
        "winner": np.where(a_won, a, b), "loser": np.where(a_won, b, a),
        "winning_score": w, "losing_score": l,
    }
    return {name: column[ok] for name, column in columns.items()}, rejections


def read_games(path: str | Path) -> tuple[GameTable, list[Rejection]]:
    """Read one game CSV; every row yields a game or a Rejection, in order."""
    return read_games_many([path])


def read_games_many(paths: Iterable[str | Path]) -> tuple[GameTable, list[Rejection]]:
    """Read several game CSVs in the given order into one table.

    Rejections come in file order, then row order.
    """
    teams: dict[str, int] = {}
    parts = [{f.name: np.empty(0, np.int64) for f in fields(GameTable)[1:]}]
    rejections: list[Rejection] = []
    for path in paths:
        columns, rejected = _read_columns(Path(path), teams)
        parts.append(columns)
        rejections.extend(rejected)
    columns = {name: np.concatenate([p[name] for p in parts]) for name in parts[0]}
    return GameTable(teams=tuple(teams), **columns), rejections


def write_csv(
    path: str | Path | None, header: Sequence[str], rows: Iterable[Sequence[object]]
) -> None:
    """The one output format: UTF-8, LF line ends, a header row, then rows; stdout if no path.

    A regular or new file is written to a temporary name beside it, then renamed over it.
    """
    def write(fh) -> None:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)

    if path is None:
        return write(sys.stdout)
    if os.path.exists(path) and not os.path.isfile(path):  # /dev/null, a pipe: in place
        with open(path, "w", newline="", encoding="utf-8") as fh:
            return write(fh)
    target = Path(path).resolve()  # a symlinked output is replaced where it points
    tmp = target.with_name(f".{target.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="", encoding="utf-8") as fh:  # overwrites a stale leftover
            write(fh)
        os.replace(tmp, target)  # a new file: its mode follows the umask
    except BaseException as err:
        tmp.unlink(missing_ok=True)
        if isinstance(err, OSError) and err.filename == str(tmp):
            err.filename = os.fspath(path)  # the error names the output, not the temporary file
        raise


def write_games(season_slice: SeasonSlice, path: str | Path) -> None:
    """Write a slice's games in the ingest schema, winner as team_a, tournament "synth"."""
    s = season_slice
    names = np.array(s.teams, dtype=object)
    write_csv(path, GAME_FIELDS, zip(
        repeat(s.season), repeat(s.division.value), repeat(s.stage.value),
        (date.fromordinal(d).isoformat() for d in s.day.tolist()), repeat("synth"),
        names[s.winner].tolist(), names[s.loser].tolist(),
        s.winning_score.tolist(), s.losing_score.tolist(),
    ))


def format_decimal(x: float) -> str:
    """Six decimals; a value that rounds to zero prints as 0.000000, never -0.000000."""
    text = f"{x:.6f}"
    return "0.000000" if text == "-0.000000" else text


RATING_COLUMNS = ("rank", "team", "rating", "ranked")


def write_ratings(table: RatingTable, path: str | Path) -> None:
    """Rating CSV: rank,team,rating,ranked in published order (RatingTable.ranking)."""
    write_csv(path, RATING_COLUMNS, (
        [rank, team, format_decimal(rating), str(table.ranked.get(team, True)).lower()]
        for rank, (team, rating) in enumerate(table.ranking(), start=1)
    ))


METRIC_COLUMNS = (
    "year", "division", "method", "games_predicted", "mad", "mse", "violation_rate",
)


def write_metrics(reports: Iterable[MetricReport], path: str | Path) -> None:
    """Metric CSV, one row per (year, division, method), sorted by that key."""
    ordered = sorted(reports, key=lambda r: (r.season, r.division.value, r.method.value))
    write_csv(path, METRIC_COLUMNS, (
        [r.season, r.division.value, r.method.value, r.games_predicted,
         format_decimal(r.mad), format_decimal(r.mse), format_decimal(r.violation_rate)]
        for r in ordered
    ))


PREDICTION_COLUMNS = (
    "game_id", "favorite", "underdog", "method",
    "predicted_diff", "actual_diff", "higher_rated_won",
)


def write_predictions(
    prediction_sets: Iterable[PredictionSet], path: str | Path
) -> None:
    """Prediction CSV; sets in the given order, entries in slice game order."""
    write_csv(path, PREDICTION_COLUMNS, (
        [f"{ps.season_slice.season}-{ps.season_slice.division.value}-{e.game_id:05d}",
         e.favorite, e.underdog, ps.method.value, format_decimal(e.predicted_diff),
         e.actual_diff, str(e.higher_rated_won).lower()]
        for ps in prediction_sets for e in ps.entries
    ))
