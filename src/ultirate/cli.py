"""Command-line entry point: rate, predict, evaluate, top, synth.

Every run is fully determined by its flags and input files; identical runs
produce byte-identical outputs. Exit codes: 0 ok, 2 bad configuration,
3 I/O failure, 4 empty filter result, 5 non-convergence under --strict.
"""

from __future__ import annotations

import argparse
import sys
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


class ConfigError(Exception):
    pass


class EmptyFilterError(Exception):
    pass


def _err(msg: str) -> None:
    print(f"ultirate: {msg}", file=sys.stderr)


def _input_files(raw: str) -> list[Path]:
    path = Path(raw)
    if path.is_dir():
        files = sorted(path.glob("*.csv"))
        if not files:
            raise ingest.IngestError(f"no .csv files in directory {path}")
        return files
    return [path]


def _load_slices(args) -> list[SeasonSlice]:
    games, rejections = ingest.read_games_many(_input_files(args.input))
    if rejections:
        _err(f"{len(rejections)} row(s) rejected")
        for r in rejections[:5]:
            _err(f"  {r.source} row {r.row}: {r.reason}" + (f" ({r.detail})" if r.detail else ""))
        if len(rejections) > 5:
            _err(f"  ... and {len(rejections) - 5} more")
    slices = partition_seasons(games)
    if args.season:
        slices = [s for s in slices if s.season in set(args.season)]
    if args.division:
        slices = [s for s in slices if s.division is Division(args.division)]
    slices = [s for s in slices if s.stage is Stage.REGULAR]
    return slices


def _methods(args) -> list[Method]:
    if args.method == "both":
        return [Method.USAU, Method.LEASTSQ]
    return [Method(args.method)]


def _warn_table(table: RatingTable) -> bool:
    """Report convergence/component caveats; returns True if unconverged."""
    unit = f"{table.season} {table.division.value} {table.method.value}"
    if not table.converged:
        _err(f"{unit}: did not converge within the iteration cap")
        return True
    if table.n_components > 1:
        _err(
            f"{unit}: schedule graph has {table.n_components} components; "
            "ratings are only comparable within a component"
        )
    return False


class _Ratings:
    """What rate, predict, evaluate and top share: load, then rate each unit.

    Construction builds the power-rating parameters (a bad value is a
    ConfigError) and loads the filtered regular-season slices (none is an
    EmptyFilterError). each() rates every (slice, method), reports its
    caveats on stderr and yields (slice, table) before rating the next one.
    Least squares rates and predicts at the default REFERENCE_CAP.
    """

    def __init__(self, args):
        try:
            self.usau_params = UsauParams(
                convergence_tol=args.tol, max_iterations=args.max_iters
            )
        except ValueError as err:
            raise ConfigError(str(err)) from None
        self.slices = _load_slices(args)
        if not self.slices:
            raise EmptyFilterError("no games match the given filters")
        self.strict = args.strict
        self.unconverged = False

    def each(self, methods):
        for s in self.slices:
            for method in methods:
                if method is Method.USAU:
                    table = compute_usau(s, self.usau_params)
                else:
                    table = compute_leastsq(s)
                self.unconverged |= _warn_table(table)
                yield s, table

    def finish(self, write, output) -> int:
        """Call write() and print output, unless --strict is set and a rating hit the cap.

        That run writes and prints nothing and returns EXIT_NONCONVERGED.
        """
        if self.unconverged and self.strict:
            return EXIT_NONCONVERGED
        write()
        if output is not None:
            print(output)
        return EXIT_OK


def cmd_rate(args) -> int:
    run = _Ratings(args)
    tables = [table for _, table in run.each(_methods(args))]

    def write():
        outdir = Path(args.output)
        outdir.mkdir(parents=True, exist_ok=True)
        for t in tables:
            path = outdir / f"ratings_{t.season}_{t.division.value}_{t.method.value}.csv"
            ingest.write_ratings(t, path)
            print(path)

    return run.finish(write, None)


def cmd_predict(args) -> int:
    run = _Ratings(args)
    prediction_sets = [build_predictions(table, s) for s, table in run.each(_methods(args))]
    return run.finish(lambda: ingest.write_predictions(prediction_sets, args.output), args.output)


def cmd_evaluate(args) -> int:
    run = _Ratings(args)
    # Each unit's predictions are dropped once its report is built.
    reports = [
        build_report(table, s, build_predictions(table, s))
        for s, table in run.each(_methods(args))
    ]
    return run.finish(lambda: ingest.write_metrics(reports, args.output), args.output)


TOP_COLUMNS = ("rank", "usau_team", "usau_rating", "ls_team", "ls_rating", "rank_diff")


def cmd_top(args) -> int:
    if args.top_n < 1:
        raise ConfigError("--top-n must be >= 1")
    run = _Ratings(args)
    if len(run.slices) > 1:
        raise ConfigError(
            "top needs one (season, division); narrow with --season/--division"
        )
    usau_table, ls_table = [table for _, table in run.each([Method.USAU, Method.LEASTSQ])]
    usau_rows = usau_table.ranking(ranked_only=True)
    usau_rank = {team: i for i, (team, _) in enumerate(usau_rows, start=1)}
    # rank_diff is the LS team's power-rating rank minus k; empty when unranked.
    rows = [
        [k, u_team, ingest.format_decimal(u_rating), l_team, ingest.format_decimal(l_rating),
         str(usau_rank[l_team] - k) if l_team in usau_rank else ""]
        for k, ((u_team, u_rating), (l_team, l_rating))
        in enumerate(zip(usau_rows[:args.top_n], ls_table.ranking()), start=1)
    ]
    return run.finish(lambda: ingest.write_csv(args.output, TOP_COLUMNS, rows), args.output)


def cmd_synth(args) -> int:
    if args.teams < 2:
        raise ConfigError("--teams must be >= 2")
    if not float("-inf") < args.rating_min < args.rating_max < float("inf"):
        raise ConfigError("--rating-min and --rating-max must be finite, "
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
        raise ConfigError(str(err)) from None
    ingest.write_games(season_slice, args.output)
    print(args.output)
    return EXIT_OK


def _add_data_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--input", required=True, help="game CSV file or directory of CSVs")
    p.add_argument("--season", type=int, action="append", help="season filter, repeatable")
    p.add_argument("--division", choices=[d.value for d in Division], help="division filter")
    usau = UsauParams()
    p.add_argument("--tol", type=float, default=usau.convergence_tol,
                   help="power-rating convergence tolerance")
    p.add_argument("--max-iters", type=int, default=usau.max_iterations,
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
        return args.func(args)
    except ConfigError as err:
        _err(str(err))
        return EXIT_CONFIG
    except EmptyFilterError as err:
        _err(str(err))
        return EXIT_EMPTY
    except ingest.IngestError as err:
        _err(str(err))
        return EXIT_IO
    except OSError as err:
        _err(str(err))
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
