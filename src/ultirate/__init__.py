"""Team ratings for club ultimate: an iterative power rating and a
least-squares rating, with retrodictive evaluation of both."""

from .domain import (
    Division,
    GameTable,
    Method,
    RatingTable,
    SeasonSlice,
    Stage,
    normalize_team_name,
    partition_seasons,
)
from .leastsq import LsParams, ScheduleSystem, build_system, compute_leastsq, normalize_diff, solve_ratings
from .metrics import MetricReport, build_report, mad, mse, violation_rate
from .predict import PredictionEntry, PredictionSet, build_predictions, invert_usau_diff, predict_ls_diff
from .synth import SynthSpec, generate
from .usau import UsauParams, calendar_weeks, compute_usau, date_weight, game_diff, score_weight

__version__ = "0.1.0"
