"""CSV ingestion and byte-stable output files.

Game schema (header required, exact): season, division, stage, date,
tournament, team_a, team_b, score_a, score_b; the tournament cell must be
present but is not read. A file is UTF-8, split as csv.reader's default
dialect splits it by one numpy tokeniser (_split). Bad rows become
Rejection records rather than aborting; a missing file, a file that is not
UTF-8 or has a field over FIELD_LIMIT characters (csv's default, fixed: no
process-wide setting is read), or a wrong header is fatal. All writers emit
deterministic, byte-identical files for identical inputs: floats with
DECIMALS (6) decimals, explicit sort orders, LF newlines.
"""

from __future__ import annotations

import codecs
import csv
import os
import re
import sys
from dataclasses import dataclass, fields
from functools import partial, reduce
from datetime import date
from itertools import repeat
from pathlib import Path
from typing import Callable, Iterable, Sequence

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .domain import (
    DECIMALS,
    DIVISIONS,
    GAME_FIELDS,
    STAGES,
    Division,
    GameTable,
    RatingTable,
    SeasonSlice,
    Stage,
    group_rows,
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


# The csv module's default field size limit, fixed: no process-wide setting moves it.
FIELD_LIMIT = 131072

_QUOTED = re.compile(r'"((?:[^"]|"")*)"?(.*)', re.DOTALL)


def _unquote(raw: str) -> str:
    """A cell's value: a quoted cell's text with "" read as ", then any text after its close."""
    match = _QUOTED.match(raw)
    return match[1].replace('""', '"') + match[2] if match else raw


def _line(head: str) -> int:
    """The line of the character after head, counting CRLF, CR and LF ends as csv.reader does."""
    return head.count("\n") + head.count("\r") - head.count("\r\n") + 1


def _quote_bounds(buf: np.ndarray) -> np.ndarray:
    """Where each quoted cell of buf opens and closes; with an odd count the last stays open.

    A run of quotes of even length never changes whether the text after it
    is quoted, since "" in a quoted cell is a quote. A run of odd length
    toggles that where a cell starts (at buf's start or after a comma, LF or
    CR), and elsewhere only closes an open cell: in an unquoted cell a quote
    is a literal. A cell opens at its run's first quote and closes at its last.
    """
    edge = np.diff((buf == ord('"')).view(np.int8), prepend=np.int8(0))  # buf ends in 0
    first, last = np.flatnonzero(edge == 1), np.flatnonzero(edge == -1) - 1
    odd = (last - first) % 2 == 0
    first, last = first[odd], last[odd]
    prev = buf[first - 1]
    toggle = (first == 0) | (prev == ord(",")) | (prev == ord("\n")) | (prev == ord("\r"))
    # The toggles since the last run that only closes, after which the text is unquoted.
    before = np.cumsum(toggle) - toggle
    closed = np.append(0, np.maximum.accumulate(np.where(toggle, 0, before))[:-1])
    inside = (before - closed) % 2 == 1
    return np.where(inside, last, first)[inside | toggle]


def _split(path: Path, data: bytes) -> tuple[list[int], list[Rejection], Callable]:
    """Nine-cell rows' numbers, missing-field rejections, and the rows' cells (see _group).

    data, valid UTF-8 without its BOM, is split as csv.reader's default dialect
    splits it: commas and line ends (LF, CR or CRLF) outside quoted cells are
    separators. Blank rows are skipped.
    """
    if not data:
        raise IngestError(f"{path}: empty file, expected header row")
    buf = np.frombuffer(data + bytes(8), np.uint8)  # zero-padded for _group's keys
    commas = np.flatnonzero(buf == ord(","))
    ends = np.flatnonzero((buf == ord("\n")) | (buf == ord("\r")))
    ends = ends[(buf[ends] == ord("\r")) | (buf[ends - 1] != ord("\r"))]  # a CRLF ends at its CR
    if b'"' in data:
        bounds = _quote_bounds(buf)
        commas = commas[np.searchsorted(bounds, commas) % 2 == 0]
        ends = ends[np.searchsorted(bounds, ends) % 2 == 0]
    starts = np.append(0, ends + 1 + ((buf[ends] == ord("\r")) & (buf[ends + 1] == ord("\n"))))
    records = np.searchsorted(starts, len(data))  # no record starts at the end of the data
    starts, ends = starts[:records], np.append(ends, len(data))[:records]
    first = np.searchsorted(commas, starts)
    count = np.searchsorted(commas, ends) - first

    def record(i: int) -> list[str]:
        """Record i's cells, unless one is over FIELD_LIMIT: then the line where it goes over."""
        cut = [starts[i] - 1, *commas[first[i]:first[i] + count[i]].tolist(), ends[i]]
        row = [_unquote(data[a + 1:b].decode()) for a, b in zip(cut, cut[1:])]
        for a, value in zip(cut, row):
            if len(value) > FIELD_LIMIT:
                text = data[:a + 1].decode() + value[:FIELD_LIMIT + 1]
                line = _line(text[:-1]) - text.endswith("\r\n")
                raise IngestError(
                    f"{path}: line {line}: field larger than field limit ({FIELD_LIMIT})")
        return row

    header = record(0) if ends[0] else []
    if tuple(h.strip() for h in header) != GAME_FIELDS:
        raise IngestError(f"{path}: bad header {header!r}, expected {','.join(GAME_FIELDS)}")
    # Only these records can hold a cell over the limit.
    for i in np.flatnonzero(ends - starts > FIELD_LIMIT).tolist():
        record(i)
    # A record holding printable ASCII other than a space, a comma or a quote is not blank.
    solid = np.logical_or.reduceat(
        (buf > ord(" ")) & (buf < 127) & (buf != ord(",")) & (buf != ord('"')), starts)
    keep = count == len(GAME_FIELDS) - 1
    keep[0] = False  # the header, so it leads the list below; record i is row i
    rejections = []
    for i in np.flatnonzero(~(keep & solid))[1:].tolist():
        row = record(i)
        if not "".join(row).strip():
            keep[i] = False
        elif not keep[i]:
            rejections.append(Rejection(i, "missing field", f"{len(row)} columns", str(path)))
    rows = np.flatnonzero(keep)
    # Cell k of a row lies between its separators k and k + 1: the line end
    # before the row, its eight commas, and its own line end.
    separators = np.column_stack([
        starts[rows] - 1, commas[first[rows, None] + np.arange(len(GAME_FIELDS) - 1)], ends[rows]])
    return rows.tolist(), rejections, partial(_group, buf, separators)


def _group(buf: np.ndarray, separators: np.ndarray, *ks: int) -> tuple[np.ndarray, list[str]]:
    """Columns ks' cells, one column after another: each one's code, and the distinct values.

    Row i's cell k is buf between separators[i, k] and separators[i, k + 1].
    Values are in order of first appearance. Cells of one length are
    grouped on their bytes, zero-padded to whole int64 words, so the keys
    take about as many bytes as the cells. buf ends in at least 8 zero bytes.
    """
    k = np.array(ks)
    start, end = (separators[:, k] + 1).ravel("F"), separators[:, k + 1].ravel("F")
    length = end - start
    head = np.empty(len(start), np.int64)  # the first cell equal to each cell
    for size in np.flatnonzero(np.bincount(length)).tolist():
        same = np.flatnonzero(length == size)
        key = sliding_window_view(buf, size // 8 * 8 + 8)[start[same]]
        key[:, size:] = 0
        order, runs = group_rows(*key.view(np.int64).T)
        head[same[order]] = np.repeat(same[order[runs]], np.diff(runs, append=len(same)))
    is_head = head == np.arange(len(head))
    code = (np.cumsum(is_head) - 1)[head]
    return code, [_unquote(buf[s:e].tobytes().decode()) for s, e in zip(
        start[is_head].tolist(), end[is_head].tolist())]


def _parse_column(
    code: np.ndarray, distinct: list[str], parse: Callable[[str], int]
) -> tuple[np.ndarray, np.ndarray]:
    """Parse each distinct string once: (value per cell, whether it parsed).

    A string that parse rejects with ValueError or OverflowError gets 0.
    """
    parsed, ok = [], []
    for raw in distinct:
        try:
            parsed.append(parse(raw))
            ok.append(True)
        except (ValueError, OverflowError):
            parsed.append(0)
            ok.append(False)
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

    _split hands over each column as a code per row and its distinct
    strings, so each field is parsed once per distinct string and the checks
    across fields run on arrays. A row without nine cells is a missing
    field; another rejected row's reason is its first failing check, in this
    order: empty team, bad season, bad division, bad stage, bad date, bad
    score, tie, same team, degenerate score. A season or score outside the
    int64 range is a bad season or bad score. teams maps each team name to
    its code and is shared by all files of one read.
    """
    if not path.is_file():
        raise IngestError(f"no such file: {path}")
    data = path.read_bytes().removeprefix(codecs.BOM_UTF8)
    try:
        data.decode()
    except UnicodeDecodeError as err:
        raise IngestError(
            f"{path}: not valid UTF-8 at line {_line(data[:err.start].decode())}") from None
    numbers, rejections, cells = _split(path, data)
    n = len(numbers)

    def team_code(raw: str) -> int:
        name = normalize_team_name(raw)
        if not name:
            raise ValueError("empty team")
        return teams.setdefault(name, len(teams))

    # Both teams and both scores are coded together: side a, then side b.
    raw_season, raw_division, raw_stage, raw_day, raw_team, raw_score = (
        cells(0), cells(1), cells(2), cells(3), cells(5, 6), cells(7, 8))
    season, ok_season = _parse_column(*raw_season, _int64)
    division, ok_division = _parse_column(
        *raw_division, lambda raw: DIVISIONS.index(Division(raw.strip())))
    stage, ok_stage = _parse_column(*raw_stage, lambda raw: STAGES.index(Stage(raw.strip())))
    day, ok_day = _parse_column(*raw_day, lambda raw: parse_date(raw).toordinal())
    team, ok_team = _parse_column(*raw_team, team_code)
    score, ok_score = _parse_column(*raw_score, _int64)
    ok_score &= score >= 0
    a, b, sa, sb = team[:n], team[n:], score[:n], score[n:]
    w, l = np.maximum(sa, sb), np.minimum(sa, sb)

    def cell(raw: tuple[np.ndarray, list[str]], i: int) -> str:
        code, distinct = raw
        return distinct[code[i]]

    # (reason, which rows pass, the detail of a row that fails), in check order.
    names = tuple(teams)
    checks = (
        ("empty team", ok_team[:n] & ok_team[n:], lambda i: ""),
        ("bad season", ok_season, lambda i: cell(raw_season, i)),
        ("bad division", ok_division, lambda i: cell(raw_division, i)),
        ("bad stage", ok_stage, lambda i: cell(raw_stage, i)),
        ("bad date", ok_day, lambda i: cell(raw_day, i)),
        ("bad score", ok_score[:n] & ok_score[n:],
         lambda i: _score_detail(cell(raw_score, i), cell(raw_score, n + i))),
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
    """DECIMALS (6) decimals; a value that rounds to zero prints as 0.000000, never -0.000000."""
    text = "%.*f" % (DECIMALS, x)
    return text[1:] if text[0] == "-" and float(text) == 0 else text


RATING_COLUMNS = ("rank", "team", "rating", "ranked")


def write_ratings(table: RatingTable, path: str | Path) -> None:
    """Rating CSV: rank,team,rating,ranked in published order (RatingTable.ranking)."""
    write_csv(path, RATING_COLUMNS, (
        [rank, team, format_decimal(rating), str(table.ranked[team]).lower()]
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
