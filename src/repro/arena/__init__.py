"""Arena: matches, tournaments, and strength metrics.

The paper's strength results are all arena outputs: win ratios
(Figure 6), per-step point difference (Figure 7), and per-step depth
(Figure 8).
"""

from repro.arena.cohort import play_games_cohort, play_matchups
from repro.arena.elo import elo_from_matchups, elo_ratings, expected_score
from repro.arena.match import GameRecord, MoveRecord, play_game
from repro.arena.metrics import (
    mean_score_series,
    mean_depth_series,
    wilson_interval,
    win_ratio,
)
from repro.arena.sprt import Sprt, sprt_match
from repro.arena.tournament import MatchupResult, play_match, round_robin

__all__ = [
    "play_game",
    "GameRecord",
    "MoveRecord",
    "play_match",
    "MatchupResult",
    "win_ratio",
    "wilson_interval",
    "mean_score_series",
    "mean_depth_series",
    "play_games_cohort",
    "play_matchups",
    "elo_ratings",
    "elo_from_matchups",
    "expected_score",
    "Sprt",
    "sprt_match",
    "round_robin",
]
