"""Smoke test of the library calls that the end-to-end benchmark's traced pass makes.

e2ebench/traced.py mirrors `ultirate evaluate` through the public library
(LsParams, build_system, solve_ratings, build_predictions with its entries
and n_skipped, and the table fields). e2ebench/checks.py then reads each
RatingTable's method.value, season, division.value, ratings[name],
n_components, converged and iterations_used. A change to any of these would
otherwise fail only a benchmark run, so the checks also run here on small
copies of the workloads.
"""

from dataclasses import replace
from pathlib import Path

import pytest

from ultirate.cli import EXIT_OK, main
from ultirate.domain import Method

E2EBENCH = Path(__file__).resolve().parent.parent / "e2ebench"


def test_traced_pass_runs_on_a_small_season(tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(E2EBENCH))
    import traced

    season = tmp_path / "s.csv"
    assert main(["synth", "--output", str(season), "--teams", "12", "--seed", "7"]) == EXIT_OK
    p = traced.traced_pass([season], tmp_path / "metrics.csv")
    assert (p.rows, p.rejected, len(p.slices), len(p.tables)) == (66, 0, 1, 2)
    assert (p.entries, p.skipped) == (132, 0)
    assert p.write_bytes == (tmp_path / "metrics.csv").stat().st_size > 0
    usau, ls = p.tables
    assert (usau.method, ls.method) == (Method.USAU, Method.LEASTSQ)
    assert (len(usau.ignored_games), len(ls.ignored_games)) == (27, 0)
    for t in p.tables:
        assert len([t.ratings[team] for team in p.slices[0].teams]) == 12

    metrics = traced.layer_metrics([p], [traced.usau_prep_seconds(p.slices)], [0.0], 0.0)
    assert metrics["usau.ignored"] == 27
    assert metrics["predict.entries"] == 132
    assert set(traced.peak_alloc_mb(p.slices)) == {"usau", "leastsq"}


# Each keeps its workload's name, so its recovery bound in checks.py applies.
SMALL = {
    "archive": {"divisions": ("mens", "mixed"), "n_teams": 40, "n_games": 400},
    "capped": {"n_teams": 40, "n_games": 400},
}


@pytest.mark.parametrize("name", sorted(SMALL))
def test_benchmark_checks_pass_on_a_small_workload(name, tmp_path, monkeypatch):
    monkeypatch.syspath_prepend(str(E2EBENCH))
    import checks
    import traced
    import workloads

    wl = replace(workloads.WORKLOADS[name], **SMALL[name])
    inputs = workloads.generate(wl, 7, tmp_path / "input")
    p = traced.traced_pass(inputs.files, tmp_path / "metrics.csv")
    problems, _ = checks.check_traced(p, wl, inputs, traced.MAX_ROUNDS)
    assert problems == []
    assert len(p.tables) == 2 * wl.n_units
