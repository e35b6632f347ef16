"""Output checks for the end-to-end benchmark, written without the program's code.

Each check returns a list of problems; an empty list means the output passed.
The least-squares oracle rebuilds the normal equations from the generated
games with np.bincount, so it shares nothing with `ultirate.leastsq`.
"""

from __future__ import annotations

import csv
import hashlib
import math
import re
from pathlib import Path

import numpy as np

from workloads import CAP, Inputs, Workload

METRIC_HEADER = ["year", "division", "method", "games_predicted", "mad", "mse",
                 "violation_rate"]
METHODS = ("usau", "leastsq")
REFERENCE_CAP = 15  # the CLI's default --ref-cap

# Worst recovery RMSE (goals) of least-squares ratings against the truth. The
# margins are clamped to [1, 14] and rounded, so recovery is biased; these
# bounds sit well above every seed tried while sizing the workloads.
RECOVERY_RMSE_BOUND = {"archive": 1.0, "capped": 1.5}
RESIDUAL_REL_BOUND = 1e-9
ZERO_SUM_BOUND = 1e-9


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def check_stderr(text: str, wl: Workload, inputs: Inputs) -> list[str]:
    """Rejection count and convergence regime, from the CLI's warnings."""
    problems = []
    m = re.search(r"ultirate: (\d+) row\(s\) rejected", text)
    rejected = int(m.group(1)) if m else 0
    if rejected != inputs.n_malformed:
        problems.append(f"CLI rejected {rejected} rows, {inputs.n_malformed} were malformed")
    unconverged = len(re.findall(r" usau: did not converge", text))
    expected = 0 if wl.converges else wl.n_units
    if unconverged != expected:
        problems.append(
            f"REGIME BROKEN: {unconverged} usau unit(s) did not converge, "
            f"workload requires {expected}"
        )
    return problems


def check_output(path: Path, wl: Workload) -> tuple[list[str], dict[str, float]]:
    """Evaluate output: one row per (year, division, method).

    Returns the problems and each method's MAD, weighted by games predicted.
    """
    if not path.is_file():
        return [f"no output file {path.name}"], {}
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    if not rows or rows[0] != METRIC_HEADER:
        return [f"bad metrics header {rows[:1]}"], {}
    body = rows[1:]
    problems = []
    want = {(str(s), d, m) for s in wl.seasons for d in wl.divisions for m in METHODS}
    got = [tuple(r[:3]) for r in body]
    if len(body) != len(want) or set(got) != want:
        problems.append(f"{len(body)} metric rows, expected {len(want)}")
    total = {m: 0.0 for m in METHODS}
    games = {m: 0 for m in METHODS}
    for r in body:
        if len(r) != len(METRIC_HEADER):
            problems.append(f"malformed metric row {r}")
            continue
        n, mad, mse, viol = int(r[3]), float(r[4]), float(r[5]), float(r[6])
        if n != wl.n_games:
            problems.append(f"{r[:3]}: {n} games predicted, expected {wl.n_games}")
        if not (math.isfinite(mad) and 0.0 < mad <= math.sqrt(mse) + 1e-6 and 0 <= viol <= 1):
            problems.append(f"{r[:3]}: implausible mad/mse/violation {r[4:]}")
        if r[2] in total:
            total[r[2]] += mad * n
            games[r[2]] += n
    mads = {m: total[m] / games[m] for m in METHODS if games[m]}
    return problems, mads


def _components(n: int, a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Smallest member of each node's connected component (label propagation)."""
    label = np.arange(n)
    while True:
        low = np.minimum(label[a], label[b])
        new = label.copy()
        np.minimum.at(new, a, low)
        np.minimum.at(new, b, low)
        new = new[new]
        if np.array_equal(new, label):
            return label
        label = new


def leastsq_oracle(unit, ratings: dict[str, float]) -> dict[str, float]:
    """Normal-equation residual, per-component sums and recovery of the truth.

    With A the game-by-team incidence matrix (+1 winner, -1 loser) and b the
    margins rescaled to the 15-goal reference cap, AᵀA is the schedule-graph
    Laplacian L; both L and Aᵀb come from np.bincount.
    """
    m = unit.margin.size
    played, inv = np.unique(np.concatenate([unit.winner, unit.loser]), return_inverse=True)
    n = played.size
    w, l = inv[:m], inv[m:]
    r = np.array([ratings[unit.teams[t]] for t in played])
    b = unit.margin * (REFERENCE_CAP / CAP)  # every winner scores CAP
    pair = np.bincount(w * n + l, minlength=n * n).reshape(n, n)
    lap = np.diag(np.bincount(w, minlength=n) + np.bincount(l, minlength=n)) - pair - pair.T
    atb = np.bincount(w, b, n) - np.bincount(l, b, n)
    residual_rel = float(np.linalg.norm(lap @ r - atb) / np.linalg.norm(atb))

    label = _components(n, w, l)
    truth = unit.truth[played]
    zero_sum = 0.0
    sq = 0.0
    for c in np.unique(label):
        members = label == c
        rc, tc = r[members], truth[members]
        zero_sum = max(zero_sum, abs(float(rc.sum())) / max(1.0, float(np.abs(rc).sum())))
        sq += float(np.sum(((rc - rc.mean()) - (tc - tc.mean())) ** 2))
    return {
        "residual_rel": residual_rel,
        "zero_sum_rel": zero_sum,
        "recovery_rmse": math.sqrt(sq / n),
        "components": int(np.unique(label).size),
    }


def check_traced(last, wl: Workload, inputs: Inputs, max_rounds: int):
    """Checks on one traced pass: ingest counts, regime and the LS oracle.

    Returns the problems and the worst oracle figures over the LS tables.
    """
    problems = []
    if last.rejected != inputs.n_malformed:
        problems.append(f"ingest rejected {last.rejected} rows, "
                        f"{inputs.n_malformed} were malformed")
    if last.rows != inputs.n_rows:
        problems.append(f"ingest read {last.rows} rows, {inputs.n_rows} were written")
    units = {(u.season, u.division): u for u in inputs.units}
    oracle = []
    for t in last.tables:
        if t.method.value == "leastsq":
            oracle.append(leastsq_oracle(units[(t.season, t.division.value)], t.ratings))
            if oracle[-1]["components"] != t.n_components:
                problems.append(f"LS reports {t.n_components} components, "
                                f"the schedule has {oracle[-1]['components']}")
        elif t.converged != wl.converges or (not t.converged and t.iterations_used != max_rounds):
            problems.append(f"REGIME BROKEN: {t.season} {t.division.value} usau "
                            f"converged={t.converged} after {t.iterations_used} rounds")
    worst = {k: max(o[k] for o in oracle)
             for k in ("residual_rel", "zero_sum_rel", "recovery_rmse")}
    if worst["residual_rel"] > RESIDUAL_REL_BOUND:
        problems.append(f"LS normal-equation residual {worst['residual_rel']:.3e}")
    if worst["zero_sum_rel"] > ZERO_SUM_BOUND:
        problems.append(f"LS ratings sum to {worst['zero_sum_rel']:.3e} on a component")
    if worst["recovery_rmse"] > RECOVERY_RMSE_BOUND[wl.name]:
        problems.append(f"LS recovery RMSE {worst['recovery_rmse']:.3f} goals exceeds "
                        f"{RECOVERY_RMSE_BOUND[wl.name]}")
    return problems, worst
