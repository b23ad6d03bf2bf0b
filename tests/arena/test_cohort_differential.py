"""The round-driven cohort against the generator-stepping reference.

``play_games_cohort`` runs every CPU mover of a move through
``repro.core.rounds.run_rounds`` -- batched selection over every
compiled arena of the game, one executor call per round;
:func:`~tests.arena.reference_cohort.reference_cohort` steps one
generator per mover.  Both must play the same games: every
``MoveRecord`` and every winner, on any mix of CPU kinds, stores and
seeds, with a GPU player moving on its own beside them.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.arena.cohort import play_games_cohort
from repro.core import make_engine
from repro.core.base import BatchExecutor
from repro.games import make_game
from repro.players import MctsPlayer
from tests.arena.reference_cohort import reference_cohort

#: The CPU kinds that merge; ``{n}`` a root tree count.
CPU_KINDS = (
    "sequential", "root:{n}", "tree:2@vloss", "tree:2@wuct", "pipeline:2"
)
#: The stores (and playout executors) they run on.
STACKS = ("@arena@compiled", "@node")
#: The GPU player that moves on its own.
GPU = "block:2x8"
#: A few iterations a move.
BUDGETS = {"tictactoe": 2e-3, "connect4": 6e-4}


@st.composite
def cohorts(draw):
    """``(game, player specs and seeds per game)``: the first three
    games all on compiled arenas, so a move's batched select takes the
    many-arena kernel; one GPU player somewhere."""
    game = draw(st.sampled_from(sorted(BUDGETS)))
    n = draw(st.integers(3, 8))

    def cpu(stack):
        kind = draw(st.sampled_from(CPU_KINDS))
        return kind.format(n=draw(st.integers(2, 4))) + stack

    pairs = [
        [cpu(STACKS[0] if i < 3 else draw(st.sampled_from(STACKS))),
         cpu(STACKS[0] if i < 3 else draw(st.sampled_from(STACKS)))]
        for i in range(n)
    ]
    gpu_game = draw(st.integers(0, n - 1))
    pairs[gpu_game][draw(st.integers(0, 1))] = GPU
    seeds = [
        [draw(st.integers(0, 2**16)) for _ in range(2)] for _ in range(n)
    ]
    return game, list(zip(pairs, seeds))


def play(driver, cohort):
    name, games = cohort
    game = make_game(name)
    matchups = [
        tuple(
            MctsPlayer(
                game, make_engine(spec, game, seed), BUDGETS[name]
            )
            for spec, seed in zip(specs, seeds)
        )
        for specs, seeds in games
    ]
    return driver(
        game,
        matchups,
        BatchExecutor(game, playout="compiled"),
    )


@settings(max_examples=25, deadline=None)
@given(cohorts())
def test_cohort_matches_the_generator_cohort(cohort):
    records = play(play_games_cohort, cohort)
    assert records == play(reference_cohort, cohort)
    assert all(record.moves for record in records)
