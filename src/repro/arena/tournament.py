"""Multi-game matchups with colour alternation and seed ladders."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.arena.match import GameRecord, play_game
from repro.arena.metrics import (
    mean_depth_series,
    mean_score_series,
    wilson_interval,
    win_ratio,
)
from repro.games.base import Game
from repro.players.base import Player
from repro.util.seeding import SeedLadder

#: A player factory: ``(seed) -> Player`` so every game gets fresh,
#: independently seeded players.
PlayerFactory = Callable[[int], Player]


@dataclass
class MatchupResult:
    """Aggregate of ``n`` games between a subject ("A") and an
    opponent, colours alternating."""

    wins: int = 0
    losses: int = 0
    draws: int = 0
    records: list[GameRecord] = field(default_factory=list)
    subject_colours: list[int] = field(default_factory=list)

    def add(self, record: GameRecord, subject_colour: int) -> float:
        """Tally one finished game; returns the subject's score for it
        (1 win, 0.5 draw, 0 loss)."""
        self.records.append(record)
        self.subject_colours.append(subject_colour)
        outcome = record.winner * subject_colour
        if outcome > 0:
            self.wins += 1
            return 1.0
        if outcome < 0:
            self.losses += 1
            return 0.0
        self.draws += 1
        return 0.5

    @property
    def games(self) -> int:
        return self.wins + self.losses + self.draws

    @property
    def win_ratio(self) -> float:
        return win_ratio(self.wins, self.losses, self.draws)

    def win_ratio_ci(self, z: float = 1.96) -> tuple[float, float]:
        return wilson_interval(
            self.wins + 0.5 * self.draws, self.games, z
        )

    @property
    def mean_final_score(self) -> float:
        """Mean final point difference from the subject's side (the
        y-axis of the paper's Figures 7 and 9, last step)."""
        total = sum(
            rec.final_score * colour
            for rec, colour in zip(self.records, self.subject_colours)
        )
        return total / len(self.records)

    def score_series(self, length: int) -> np.ndarray:
        return mean_score_series(
            self.records, self.subject_colours, length
        )

    def depth_series(self, length: int) -> np.ndarray:
        return mean_depth_series(
            self.records, self.subject_colours, length
        )


def play_match(
    game: Game,
    subject: PlayerFactory,
    opponent: PlayerFactory,
    n_games: int,
    seed: int,
    alternate_colours: bool = True,
    max_plies: int | None = None,
) -> MatchupResult:
    """Play ``n_games`` between two player factories.

    Game ``i`` gives the subject colour black when ``i`` is even (or
    always, if ``alternate_colours`` is off); seeds derive from
    ``(seed, game index, role)`` so every game is independent yet the
    whole matchup replays exactly.
    """
    if n_games <= 0:
        raise ValueError(f"n_games must be positive: {n_games}")
    ladder = SeedLadder(seed, "match")
    out = MatchupResult()
    for i in range(n_games):
        subject_colour = 1 if (i % 2 == 0 or not alternate_colours) else -1
        subj = subject(ladder.seed("game", i, "subject"))
        opp = opponent(ladder.seed("game", i, "opponent"))
        if subject_colour == 1:
            record = play_game(game, subj, opp, max_plies=max_plies)
        else:
            record = play_game(game, opp, subj, max_plies=max_plies)
        out.add(record, subject_colour)
    return out


def round_robin(
    game: Game,
    factories: dict[str, PlayerFactory],
    n_games: int,
    seed: int,
) -> dict[tuple[str, str], MatchupResult]:
    """Every ordered pair of distinct players plays a matchup; used by
    the ablation benches to rank schemes."""
    results = {}
    ladder = SeedLadder(seed, "round_robin")
    for a in factories:
        for b in factories:
            if a == b:
                continue
            results[(a, b)] = play_match(
                game,
                factories[a],
                factories[b],
                n_games,
                ladder.seed(a, b),
            )
    return results
