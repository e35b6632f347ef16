"""Seeded season CSVs for the end-to-end benchmark.

Every workload is a random schedule over 13 calendar weeks with a 15-goal cap.
A game between teams i and j draws the raw differential
truth_i - truth_j + N(0, noise_sd); the higher side wins 15 to
15 - round(clamp(|differential|, 1, max_margin)). True ratings are evenly
spaced over `spread` goals.

max_margin sets the convergence regime of the power rating. Its blowout rule
only applies to a game won 15-6 or wider (margin 9 or more). When a candidate
game's rating gap sits near the 600-point limit, the ignored set can flip
back and forth forever; with unclamped margins (max_margin 14) that happened
in about 4% of 300x4k slices at spread 6 to 8 and noise 1.5. A max_margin of
8 leaves no game the rule can drop, so every such slice converges.

The generator is written here, independent of `ultirate.synth`, so a change to
the program cannot change the inputs.

The same seed always gives byte-identical files and the same truth.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import date, timedelta
from pathlib import Path

import numpy as np

CAP = 15
N_WEEKS = 13
HEADER = ("season", "division", "stage", "date", "tournament",
          "team_a", "team_b", "score_a", "score_b")
DIVISIONS = ("mens", "mixed", "womens")


@dataclass(frozen=True)
class Workload:
    name: str
    seasons: tuple[int, ...]
    divisions: tuple[str, ...]
    n_teams: int
    n_games: int          # valid games per (season, division)
    spread: float
    noise_sd: float
    max_margin: int        # widest winning margin; 8 or less means no blowouts
    malformed_frac: float  # malformed rows injected, as a share of valid rows

    @property
    def converges(self) -> bool:
        """The regime every usau unit must be in: true when no game is a blowout
        (winning score above twice the losing score plus one)."""
        return not CAP > 2 * (CAP - self.max_margin) + 1

    @property
    def n_units(self) -> int:
        return len(self.seasons) * len(self.divisions)

    @property
    def n_valid(self) -> int:
        return self.n_units * self.n_games


WORKLOADS = {
    w.name: w
    for w in (
        # The analyst's real job: many mid-size slices, where ingest,
        # partition, the per-game Python and many small LS solves dominate.
        # The malformed rows exercise the rejection path.
        Workload(
            "archive", tuple(range(2014, 2020)), DIVISIONS,
            300, 4000, 8.0, 1.5, 8, 0.01,
        ),
        # The usau ignored set never settles, so all 10000 rounds run: the
        # power-rating kernel dominates and LS is under 1% of the run.
        Workload(
            "capped", (2019,), ("mens",),
            300, 4000, 12.0, 3.0, CAP - 1, 0.0,
        ),
    )
}


@dataclass(frozen=True)
class Unit:
    """The valid games of one (season, division), as generated."""

    season: int
    division: str
    teams: tuple[str, ...]
    truth: np.ndarray     # true rating per team, in goals
    winner: np.ndarray    # team index per game
    loser: np.ndarray
    margin: np.ndarray    # winning minus losing score


@dataclass(frozen=True)
class Inputs:
    files: tuple[Path, ...]
    units: tuple[Unit, ...]
    n_rows: int           # data rows written, valid and malformed
    n_malformed: int


def _play(rng: np.random.Generator, wl: Workload, season: int, division: str) -> Unit:
    n, m = wl.n_teams, wl.n_games
    truth = wl.spread * (0.5 - np.arange(n) / n)
    i = np.empty(0, np.int64)
    j = np.empty(0, np.int64)
    while i.size < m:
        a, b = rng.integers(0, n, size=(2, m))
        keep = a != b
        i, j = np.concatenate([i, a[keep]]), np.concatenate([j, b[keep]])
    i, j = i[:m], j[:m]
    delta = truth[i] - truth[j] + rng.normal(0.0, wl.noise_sd, m)
    if np.any(delta == 0.0):
        raise RuntimeError(f"seed drew an exact tie in {season} {division}")
    margin = np.rint(np.clip(np.abs(delta), 1.0, wl.max_margin)).astype(np.int64)
    win = delta > 0
    tag = division[:2].upper()
    return Unit(
        season, division,
        tuple(f"{tag}{season % 100:02d}-{k:04d}" for k in range(n)),
        truth, np.where(win, i, j), np.where(win, j, i), margin,
    )


def _malformed(k: int, season: int, day: str, a: str, b: str) -> list:
    """One row that ingest must reject; the reason cycles with k."""
    reasons = (
        [season, "mens", "regular", day, "bad", a, b, 15, 15],           # tie
        [season, "mens", "regular", "2019-13-45", "bad", a, b, 15, 9],   # bad date
        [season, "mens", "regular", day, "bad", a, b, "x", 9],           # bad score
        [season, "mens", "regular", day, "bad", a, b, 15],               # missing field
        [season, "mens", "regular", day, "bad", a, a, 15, 9],            # same team
        [season, "open", "regular", day, "bad", a, b, 15, 9],            # bad division
        [season, "mens", "regular", day, "bad", a, b, 1, 0],             # degenerate
        [season, "mens", "regular", day, "bad", " ", b, 15, 9],          # empty team
    )
    return reasons[k % len(reasons)]


def generate(wl: Workload, seed: int, outdir: Path) -> Inputs:
    """Write one CSV per season into outdir; rows are in date order."""
    rng = np.random.default_rng([seed, sum(map(ord, wl.name))])
    outdir.mkdir(parents=True, exist_ok=True)
    files, units = [], []
    n_rows = n_malformed = 0
    for season in wl.seasons:
        june1 = date(season, 6, 1)
        start = june1 + timedelta(days=(8 - june1.isoweekday()) % 7)
        span = 7 * N_WEEKS - 1
        days = [
            (start + timedelta(days=round(k * span / (wl.n_games - 1)))).isoformat()
            for k in range(wl.n_games)
        ]
        events = [f"Week {k * N_WEEKS // wl.n_games + 1}" for k in range(wl.n_games)]
        rows = []
        for division in wl.divisions:
            u = _play(rng, wl, season, division)
            units.append(u)
            flip = rng.random(wl.n_games) < 0.5
            for k in range(wl.n_games):
                w, l = u.teams[u.winner[k]], u.teams[u.loser[k]]
                lose_score = CAP - int(u.margin[k])
                sides = [l, w, lose_score, CAP] if flip[k] else [w, l, CAP, lose_score]
                rows.append([season, division, "regular", days[k], events[k], *sides])
        bad = int(round(wl.malformed_frac * len(rows)))
        for k in range(bad):
            teams = units[-1].teams
            a, b = rng.choice(len(teams), size=2, replace=False)
            pos = int(rng.integers(0, len(rows) + 1))
            rows.insert(pos, _malformed(k, season, days[0], teams[a], teams[b]))
        path = outdir / f"season_{season}.csv"
        with open(path, "w", newline="", encoding="utf-8") as fh:
            writer = csv.writer(fh, lineterminator="\n")
            writer.writerow(HEADER)
            writer.writerows(rows)
        files.append(path)
        n_rows += len(rows)
        n_malformed += bad
    return Inputs(tuple(files), tuple(units), n_rows, n_malformed)
