"""The batched service tick against the generator-stepping reference.

The product tick delivers every tenant's answers and selects their next
rounds in batched sub-rounds -- one ``select_round_many`` per game over
every compiled arena; :class:`~tests.serve.reference_tick.
ReferenceService` resumes one generator per tenant per tick.  Both must
hand every request the same outcome: status, result, latency, ticks,
lanes and lost lanes, record for record, on any mix of generator kinds,
games, stores, slot counts, arrival spacings and launch geometries --
and through a crash and its recovery.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.games import make_game
from repro.serve import COMPLETED, SearchRequest, SearchService, read_journal
from repro.serve.service import ServiceCrash
from tests.serve.reference_tick import ReferenceService

#: Generator kinds, ``{n}`` their worker / tree count.
KINDS = ("sequential", "root:{n}", "tree:{n}", "tree:{n}@wuct", "pipeline:{n}")
#: Budgets of a few iterations per game -- enough on TicTacToe for
#: terminal leaves to come up.
BUDGETS = {"tictactoe": 2e-3, "connect4": 6e-4, "reversi": 8e-4}


def record_view(record):
    """Everything the service decides about one request."""
    result = record.result
    return (
        record.request.request_id,
        record.status,
        None
        if result is None
        else (
            result.move,
            tuple(sorted(result.stats.items())),
            result.iterations,
            result.simulations,
            result.elapsed_s,
            result.extras.get("tree.nodes"),
        ),
        record.latency_s,
        record.ticks,
        record.lanes,
        record.lost_lanes,
    )


@st.composite
def mixes(draw):
    """A request mix and the service settings it runs under."""
    spacing = draw(st.sampled_from((0.0, 1e-4, 5e-4)))
    requests = []
    for i in range(draw(st.integers(1, 12))):
        kind = draw(st.sampled_from(KINDS)).format(n=draw(st.integers(1, 4)))
        game = draw(st.sampled_from(sorted(BUDGETS)))
        # Mostly arenas: a game's batched call needs a few of them.
        backend = draw(st.sampled_from(("arena", "arena", "node")))
        requests.append(
            SearchRequest(
                request_id=f"r{i:02d}",
                game=game,
                engine=f"{kind}@{backend}",
                budget_s=BUDGETS[game],
                seed=draw(st.integers(0, 2**16)),
                arrival_s=i * spacing,
            )
        )
    settings_ = dict(
        max_active=draw(st.integers(1, 16)),
        fusion=draw(st.booleans()),
        playout=draw(st.sampled_from(("numpy", "compiled"))),
        seed=draw(st.integers(0, 2**16)),
        n_devices=2,
    )
    return requests, settings_


def run(cls, requests, **kwargs):
    service = cls(**kwargs)
    service.submit_all(requests)
    return [record_view(r) for r in service.run()]


@settings(max_examples=30, deadline=None)
@given(mixes())
def test_batched_tick_matches_the_generator_tick(mix):
    requests, kwargs = mix
    assert run(SearchService, requests, **kwargs) == run(
        ReferenceService, requests, **kwargs
    )


def crash_requests():
    """One request of each kind over the three games."""
    return [
        SearchRequest(
            request_id=f"c{i}",
            game=game,
            engine=engine,
            budget_s=BUDGETS[game],
            seed=300 + i,
        )
        for i, (game, engine) in enumerate(
            [
                ("tictactoe", "sequential@arena"),
                ("connect4", "root:3@arena"),
                ("tictactoe", "tree:2@arena"),
                ("connect4", "pipeline:2@wuct@arena"),
                ("tictactoe", "root:2"),
                ("reversi", "sequential@arena"),
            ]
        )
    ]


def walk(game, plies, seed):
    """The last non-terminal position of a random walk of ``plies``."""
    rng = np.random.default_rng(seed)
    state = game.initial_state()
    for _ in range(plies):
        nxt = game.apply(state, int(rng.choice(game.legal_moves(state))))
        if game.is_terminal(nxt):
            break
        state = nxt
    return state


def endgame_requests():
    """TicTacToe four plies in: terminal leaves come up within a few
    iterations, so iteration hooks fire while rounds select too."""
    game = make_game("tictactoe")
    return [
        SearchRequest(
            request_id=f"e{i}",
            game="tictactoe",
            engine=engine,
            budget_s=BUDGETS["tictactoe"],
            seed=300 + i,
            state=walk(game, 4, 7 + i),
        )
        for i, engine in enumerate(
            [
                "sequential@arena",
                "root:3@arena",
                "tree:2@arena",
                "pipeline:2@wuct@arena",
                "root:2@arena",
                "sequential@arena",
            ]
        )
    ]


@pytest.mark.faults
@pytest.mark.parametrize(
    "requests, faults, every",
    [
        (crash_requests, "corrupt=0.2,crash=tick:6", 4),
        (endgame_requests, "crash=iter:9", 1),
    ],
)
def test_crash_and_recovery_match_the_generator_tick(
    tmp_path, requests, faults, every
):
    """Corrupted readbacks and a crash between ticks; or a checkpoint at
    every iteration and a crash at one, on positions where hooks also
    fire while rounds select.  After recovery from the journal every
    request completes exactly once, and as the reference's does; the
    two journals are byte for byte the same."""
    kwargs = dict(
        seed=9,
        n_devices=2,
        checkpoint_every=every,
        faults=faults,
        playout="compiled",
    )
    outcomes = []
    for cls in (SearchService, ReferenceService):
        path = tmp_path / f"{cls.__name__}.jsonl"
        service = cls(journal=path, **kwargs)
        service.submit_all(requests())
        with pytest.raises(ServiceCrash):
            service.run()
        recovered = cls.recover(path, **kwargs)
        records = recovered.run()
        assert all(r.status == COMPLETED for r in records)
        state = read_journal(path)
        assert set(state.completions) == set(state.requests)
        assert recovered.resumed_requests
        outcomes.append(
            (
                [record_view(r)[:3] for r in records],
                recovered.resumed_requests,
                recovered.recovered_iterations,
                path.read_bytes(),
            )
        )
    assert outcomes[0] == outcomes[1]
