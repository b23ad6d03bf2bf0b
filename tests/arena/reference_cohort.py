"""The generator-stepping cohort: the oracle of the round-driven one.

The arena cohort once advanced every CPU mover of a move by stepping
its engine's search generator (:func:`tests.round_steps.round_steps`):
prime each generator in game order, then, while any is searching, one
executor call over all their requests, each generator sent its slice
in game order -- it backs the slice up and runs on to its next request
before the next is resumed.  :func:`reference_cohort` keeps that loop;
``play_games_cohort`` runs the movers through
``repro.core.rounds.run_rounds`` instead, and
``test_cohort_differential.py`` holds every move it plays equal to
this one's.
"""

from __future__ import annotations

from repro.arena.match import GameRecord, MoveRecord
from repro.players.mcts import MctsPlayer
from tests.round_steps import round_steps


def _step_all(gens, executor):
    """Each generator's search result, their requests merged per call."""
    results, requests = {}, {}

    def advance(i, send):
        try:
            requests[i] = list(send())
        except StopIteration as stop:
            results[i] = stop.value
            requests.pop(i, None)

    for i, gen in gens.items():
        advance(i, gen.__next__)
    while requests:
        keys = list(requests)
        flat = [state for i in keys for state in requests[i]]
        answers, lo = executor(flat), 0
        for i in keys:
            hi = lo + len(requests[i])
            advance(i, lambda: gens[i].send(answers[lo:hi]))
            lo = hi
    return results


def reference_cohort(game, matchups, executor):
    """``play_games_cohort(game, matchups, executor)``, one generator
    per CPU mover."""
    n = len(matchups)
    states = [game.initial_state() for _ in range(n)]
    records = [GameRecord(winner=0, final_score=0) for _ in range(n)]
    alive = list(range(n))
    while alive:
        movers, gens = {}, {}
        for i in alive:
            black, white = matchups[i]
            player = black if game.to_move(states[i]) == 1 else white
            movers[i] = player
            if (
                isinstance(player, MctsPlayer)
                and player.engine.gpu is None
                and player.engine.round_policy is not None
            ):
                player.engine._begin_session(
                    states[i], player.move_budget_s, None
                )
                gens[i] = round_steps(player.engine)
        searched = _step_all(gens, executor)
        still_alive = []
        for i in alive:
            if i in searched:
                result = searched[i]
                move, sims, depth = (
                    result.move, result.simulations, result.max_depth
                )
            else:
                info = movers[i].choose(states[i])
                move, sims, depth = info.move, info.simulations, info.max_depth
            mover = game.to_move(states[i])
            states[i] = game.apply(states[i], move)
            records[i].moves.append(
                MoveRecord(
                    step=len(records[i].moves) + 1,
                    player=mover,
                    move=move,
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
