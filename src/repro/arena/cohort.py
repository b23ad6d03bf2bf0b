"""Cohort driver: many games advanced in lockstep, CPU searches merged.

Strength experiments pit dozens of independent games against each
other; their CPU-side MCTS searches (sequential, root-parallel,
tree-parallel, pipeline) are round policies that request playouts.  The
cohort driver advances all games one *move* per step: every CPU search
of that move runs under one :func:`repro.core.rounds.run_rounds`, each
round's leaf states from all of them merged into one vectorised playout
batch, so a 1-core machine simulates a whole tournament at near-batch
throughput.  Virtual-time semantics are untouched -- each
engine still charges its own clock -- and outcomes are deterministic
given the full cohort configuration.

Every engine kind but multi-GPU is a round policy, but only the CPU
kinds join the merge (``Engine.joins_merged_rounds``).  The GPU kinds
(leaf/block/hybrid) run their rounds alone on their own virtual
device, and multi-GPU runs its rank loop; their playouts already run
as wide kernels, and they search when their game's turn comes, so
their RNG streams are the ones a standalone ``search()`` draws.

:func:`play_matchups` is the match protocol on top of it -- several
subjects, one opponent, colours alternated, one
:class:`~repro.arena.tournament.MatchupResult` per subject -- and what
every strength figure of the harness calls.

The round loop itself lives in :mod:`repro.core.rounds`; the search
service's tick advances its tenants through the same
:func:`~repro.core.rounds.advance_rounds`.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Hashable, Mapping, Sequence

from repro.arena.match import GameRecord, MoveRecord
from repro.arena.tournament import MatchupResult, PlayerFactory
from repro.core.base import PlayoutBatch, PlayoutResults
from repro.core.rounds import run_rounds
from repro.games.base import Game
from repro.players.base import Player
from repro.players.mcts import MctsPlayer


def play_games_cohort(
    game: Game,
    matchups: Sequence[tuple[Player, Player]],
    executor: Callable[[PlayoutBatch], PlayoutResults],
    max_plies: int | None = None,
) -> list[GameRecord]:
    """Play every ``(black, white)`` pair to completion, one move per
    round across all still-running games."""
    n = len(matchups)
    if n == 0:
        raise ValueError("no games in the cohort")
    limit = max_plies if max_plies is not None else game.max_game_length
    states = [game.initial_state() for _ in range(n)]
    records = [GameRecord(winner=0, final_score=0) for _ in range(n)]
    steps = [0] * n
    alive = [i for i in range(n) if not game.is_terminal(states[i])]

    while alive:
        rounds = {}
        movers: dict[int, Player] = {}
        for i in alive:
            mover = game.to_move(states[i])
            black, white = matchups[i]
            player = black if mover == 1 else white
            movers[i] = player
            # A CPU search joins the merged rounds; the rest (GPU
            # engines, non-MCTS players) move on their own below.
            if (
                isinstance(player, MctsPlayer)
                and player.engine.joins_merged_rounds
            ):
                engine = player.engine
                engine._begin_session(states[i], player.move_budget_s)
                rounds[i] = engine.open_round()
        merged = dict(
            zip(rounds, run_rounds(list(rounds.values()), executor))
        )

        still_alive = []
        for i in alive:
            if steps[i] >= limit:
                raise RuntimeError(
                    f"cohort game {i} exceeded {limit} plies"
                )
            player = movers[i]
            if i in merged:
                result = merged[i]
                info_move = result.move
                sims = result.simulations
                depth = result.max_depth
            else:
                info = player.choose(states[i])
                info_move = info.move
                sims = info.simulations
                depth = info.max_depth
            game.validate_move(states[i], info_move)
            mover = game.to_move(states[i])
            states[i] = game.apply(states[i], info_move)
            steps[i] += 1
            records[i].moves.append(
                MoveRecord(
                    step=steps[i],
                    player=mover,
                    move=info_move,
                    score_after=game.score(states[i]),
                    simulations=sims,
                    max_depth=depth,
                )
            )
            if game.is_terminal(states[i]):
                records[i].winner = game.winner(states[i])
                records[i].final_score = game.score(states[i])
            else:
                still_alive.append(i)
        alive = still_alive
    return records


def play_matchups(
    game: Game,
    subjects: Mapping[Hashable, PlayerFactory],
    opponent: PlayerFactory,
    n_games: int,
    seeds: Callable[[Hashable, int, str], int],
    executor: Callable[[PlayoutBatch], PlayoutResults],
    max_plies: int | None = None,
) -> dict[Hashable, MatchupResult]:
    """The cohort form of :func:`~repro.arena.tournament.play_match`:
    every subject plays ``n_games`` against ``opponent``, all games of
    all subjects in one :func:`play_games_cohort`.

    ``subjects`` maps a point key to its player factory; the result has
    the same keys in the same order.  Game ``g`` of a point gives the
    subject black when ``g`` is even, and builds its two players from
    ``seeds(key, g, "subject")`` and ``seeds(key, g, "opponent")`` --
    the caller owns the seed path, so a figure keeps drawing the seeds
    it always drew.  Games are laid out points-outer, games-inner; the
    layout fixes which lanes of the merged playout batches a game gets,
    so it is part of what makes a figure replay exactly.
    """
    if not subjects:
        raise ValueError("no subjects to play")
    if n_games <= 0:
        raise ValueError(f"n_games must be positive: {n_games}")
    matchups, colours = [], []
    for key, subject in subjects.items():
        for g in range(n_games):
            subj = subject(seeds(key, g, "subject"))
            opp = opponent(seeds(key, g, "opponent"))
            colour = 1 if g % 2 == 0 else -1
            matchups.append((subj, opp) if colour == 1 else (opp, subj))
            colours.append(colour)
    played = zip(
        play_games_cohort(game, matchups, executor, max_plies), colours
    )
    out = {}
    for key in subjects:
        out[key] = result = MatchupResult()
        for record, colour in islice(played, n_games):
            result.add(record, colour)
    return out
