"""Smoke test of the library calls that the end-to-end benchmark's traced pass makes.

e2ebench/traced.py mirrors `ultirate evaluate` through the public library
(LsParams, build_system, solve_ratings, build_predictions and the table
fields). A change to any of these would otherwise fail only a benchmark run.
"""

from pathlib import Path

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
