"""Command-line entry point: rate, predict, evaluate, top, synth.

Every run is fully determined by its flags and input files; identical runs
produce byte-identical outputs. Exit codes: 0 ok, 2 bad configuration,
3 I/O failure, 4 empty filter result, 5 non-convergence under --strict,
6 a failed solve (the least-squares residual guard). A run checks its flags,
then reads, filters and rates every unit before it writes, so a run that
exits 2, 4, 5 or 6 writes no file and prints no stdout.
"""

from __future__ import annotations

import argparse
import sys
from itertools import zip_longest
from pathlib import Path

from . import ingest
from .domain import Division, Method, RatingTable, SeasonSlice, Stage, partition_seasons
from .leastsq import compute_leastsq
from .metrics import build_report
from .predict import build_predictions
from .synth import SynthSpec, generate
from .usau import UsauParams, compute_usau

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_IO = 3
EXIT_EMPTY = 4
EXIT_NONCONVERGED = 5
EXIT_SOLVER = 6


class CliError(Exception):
    """Ends a run with an exit code; main prints the message, if any, on stderr."""

    def __init__(self, code: int, message: str = ""):
        super().__init__(message)
        self.code = code


def _err(msg: str) -> None:
    print(f"ultirate: {msg}", file=sys.stderr)


def _input_files(raw: str) -> list[Path]:
    path = Path(raw)
    if path.is_dir():
        files = sorted(p for p in path.glob("*.csv") if not p.is_dir())
        if not files:
            raise ingest.IngestError(f"no .csv files in directory {path}")
        return files
    return [path]


def _load(args) -> tuple[UsauParams, list[SeasonSlice]]:
    """Power-rating parameters (bad: exit 2), then the filtered regular slices (none: exit 4)."""
    try:
        params = UsauParams(max_iterations=args.max_iters)
    except ValueError as err:
        raise CliError(EXIT_CONFIG, str(err)) from None
    games, rejections = ingest.read_games_many(_input_files(args.input))
    if rejections:
        _err(f"{len(rejections)} row(s) rejected")
        for r in rejections[:5]:
            _err(f"  {r.source} row {r.row}: {r.reason}" + (f" ({r.detail})" if r.detail else ""))
        if len(rejections) > 5:
            _err(f"  ... and {len(rejections) - 5} more")
    slices = [
        s for s in partition_seasons(games)
        if s.stage is Stage.REGULAR
        and (not args.season or s.season in args.season)
        and (not args.division or s.division is Division(args.division))
    ]
    if not slices:
        raise CliError(EXIT_EMPTY, "no games match the given filters")
    return params, slices


def _methods(args) -> list[Method]:
    if args.method == "both":
        return [Method.USAU, Method.LEASTSQ]
    return [Method(args.method)]


def _rate(args, params, slices, methods) -> list[tuple[SeasonSlice, RatingTable]]:
    """Rate each (slice, method), report its caveats; --strict exits 5 once every unit is rated."""
    rated = []
    for s in slices:
        for method in methods:
            unit = f"{s.season} {s.division.value} {method.value}"
            try:
                table = compute_usau(s, params) if method is Method.USAU else compute_leastsq(s)
            except ArithmeticError as err:
                raise CliError(EXIT_SOLVER, f"{unit}: {err}") from None
            if not table.converged:
                _err(f"{unit}: did not converge within the iteration cap")
            elif table.n_components > 1:
                _err(f"{unit}: schedule graph has {table.n_components} components; "
                     "ratings are only comparable within a component")
            rated.append((s, table))
    if args.strict and not all(t.converged for _, t in rated):
        raise CliError(EXIT_NONCONVERGED)
    return rated


def cmd_rate(args) -> None:
    rated = _rate(args, *_load(args), _methods(args))
    outdir = Path(args.output)
    outdir.mkdir(parents=True, exist_ok=True)
    for _, t in rated:
        path = outdir / f"ratings_{t.season}_{t.division.value}_{t.method.value}.csv"
        ingest.write_ratings(t, path)
        print(path)


def cmd_predict(args) -> None:
    rated = _rate(args, *_load(args), _methods(args))
    ingest.write_predictions([build_predictions(t, s) for s, t in rated], args.output)
    print(args.output)


def cmd_evaluate(args) -> None:
    rated = _rate(args, *_load(args), _methods(args))
    # Each unit's predictions are dropped once its report is built.
    ingest.write_metrics([build_report(t, s, build_predictions(t, s)) for s, t in rated],
                         args.output)
    print(args.output)


TOP_COLUMNS = ("rank", "usau_team", "usau_rating", "ls_team", "ls_rating", "rank_diff")


def cmd_top(args) -> None:
    if args.top_n < 1:
        raise CliError(EXIT_CONFIG, "--top-n must be >= 1")
    params, slices = _load(args)
    if len(slices) > 1:
        raise CliError(EXIT_CONFIG,
                       "top needs one (season, division); narrow with --season/--division")
    (_, usau_table), (_, ls_table) = _rate(args, params, slices, [Method.USAU, Method.LEASTSQ])
    usau_rows = usau_table.ranking(ranked_only=True)
    usau_rank = {team: i for i, (team, _) in enumerate(usau_rows, start=1)}
    # LS ranks every team but the power rating only those with enough games, so its
    # cells are empty past them. rank_diff: the LS team's power-rating rank minus k.
    rows = [
        [k, u_team, "" if u_rating is None else ingest.format_decimal(u_rating),
         l_team, ingest.format_decimal(l_rating),
         str(usau_rank[l_team] - k) if l_team in usau_rank else ""]
        for k, ((u_team, u_rating), (l_team, l_rating)) in enumerate(zip_longest(
            usau_rows[:args.top_n], ls_table.ranking()[:args.top_n], fillvalue=("", None)),
            start=1)
    ]
    ingest.write_csv(args.output, TOP_COLUMNS, rows)
    if args.output is not None:
        print(args.output)


def cmd_synth(args) -> None:
    if args.teams < 2:
        raise CliError(EXIT_CONFIG, "--teams must be >= 2")
    if not float("-inf") < args.rating_min < args.rating_max < float("inf"):
        raise CliError(EXIT_CONFIG, "--rating-min and --rating-max must be finite, "
                       "with --rating-min below --rating-max")
    width = len(str(args.teams))
    step = (args.rating_max - args.rating_min) / (args.teams - 1)
    true_ratings = {
        f"T{i + 1:0{width}d}": args.rating_max - i * step for i in range(args.teams)
    }
    try:
        spec = SynthSpec(
            true_ratings=true_ratings,
            schedule=args.schedule,
            pod_size=args.pod_size,
            n_games=args.games,
            noise_sd=args.noise_sd,
            cap=args.cap,
            seed=args.seed,
            season=args.season,
            division=Division(args.division),
            n_weeks=args.weeks,
        )
        season_slice = generate(spec)
    except ValueError as err:
        raise CliError(EXIT_CONFIG, str(err)) from None
    ingest.write_games(season_slice, args.output)
    print(args.output)


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="game CSV file or directory of CSVs")
    p.add_argument("--season", type=int, action="append", help="season filter, repeatable")
    p.add_argument("--division", choices=[d.value for d in Division], help="division filter")
    p.add_argument("--max-iters", type=int, default=UsauParams().max_iterations,
                   help="power-rating iteration cap")
    p.add_argument("--strict", action="store_true",
                   help="exit nonzero when a rating fails to converge")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ultirate",
        description="Rate ultimate teams from season game data and evaluate the ratings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, help_ in (
        ("rate", cmd_rate, "write rating tables per (season, division, method)"),
        ("predict", cmd_predict, "write per-game score differential predictions"),
        ("evaluate", cmd_evaluate, "write MAD/MSE/violation metrics per season"),
    ):
        p = sub.add_parser(name, help=help_)
        _add_data_options(p)
        p.add_argument("--method", choices=["usau", "leastsq", "both"], default="both")
        p.add_argument("--output", required=True,
                       help="output directory" if name == "rate" else "output CSV file")
        p.set_defaults(func=func)

    p = sub.add_parser("top", help="side-by-side top-N table for both methods")
    _add_data_options(p)
    p.add_argument("--top-n", type=int, default=25)
    p.add_argument("--output", help="output CSV file (default: stdout)")
    p.set_defaults(func=cmd_top)

    p = sub.add_parser("synth", help="generate a synthetic season CSV")
    p.add_argument("--output", required=True, help="output CSV file")
    p.add_argument("--teams", type=int, default=8)
    p.add_argument("--schedule", choices=["round_robin", "pods", "random"],
                   default="round_robin")
    p.add_argument("--pod-size", type=int, default=4)
    p.add_argument("--games", type=int, default=0, help="game count for --schedule random")
    p.add_argument("--noise-sd", type=float, default=0.0)
    p.add_argument("--cap", type=int, default=15)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--weeks", type=int, default=8)
    p.add_argument("--season", type=int, default=2000)
    p.add_argument("--division", choices=[d.value for d in Division], default="mens")
    p.add_argument("--rating-min", type=float, default=-10.0)
    p.add_argument("--rating-max", type=float, default=10.0)
    p.set_defaults(func=cmd_synth)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        args.func(args)
    except CliError as err:
        if str(err):
            _err(str(err))
        return err.code
    except (ingest.IngestError, OSError) as err:
        _err(str(err))
        return EXIT_IO
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
