"""The batched service tick against the generator-stepping reference.

The product tick delivers every tenant's answers and selects their next
rounds together: the ``root:N`` and ``sequential`` tenants on compiled
arenas are select loops, delivered and run on in one
``*_select_expand_many`` call per game, their playout rows gathered
into the launch without a state built; the other tenants select in
batched sub-rounds -- one ``select_round_many`` per game over every
compiled arena.  :class:`~tests.serve.reference_tick.ReferenceService`
resumes one generator per tenant per tick.  Both must hand every
request the same outcome: status, result, latency, ticks, lanes and
lost lanes, record for record, on any mix of generator kinds, games,
stores, start positions, iteration caps, checkpoint intervals, slot
counts, arrival spacings and launch geometries -- and through a crash
and its recovery, mid-tick among the loops too.  The counts of a tick
of loop tenants -- one launch, one select call per game, no state --
are held too.
"""

import tempfile
from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import compiled_available
from repro.core.spec import EngineSpec
from repro.core import arena as arena_module
from repro.core.arena import MANY_SELECT_MIN, TreeArena
from repro.games import make_game
from repro.serve import COMPLETED, SearchRequest, SearchService, read_journal
from repro.serve import service as service_module
from repro.serve.scheduler import FusedBatcher
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
        engine = f"{kind}@{backend}"
        cap = draw(st.sampled_from((None, None, 1, 3, 12)))
        if cap is not None:
            engine = {**EngineSpec.parse(engine).params, "max_iterations": cap}
            engine["kind"] = kind.partition(":")[0]
        # Endgames: solved trees, terminal leaves in most sub-rounds.
        plies = draw(st.sampled_from((0, 0, 4, 6, 30)))
        requests.append(
            SearchRequest(
                request_id=f"r{i:02d}",
                game=game,
                engine=engine,
                budget_s=BUDGETS[game],
                seed=draw(st.integers(0, 2**16)),
                arrival_s=i * spacing,
                state=walk(make_game(game), plies, i) if plies else None,
            )
        )
    settings_ = dict(
        max_active=draw(st.integers(1, 16)),
        fusion=draw(st.booleans()),
        playout=draw(st.sampled_from(("numpy", "compiled"))),
        seed=draw(st.integers(0, 2**16)),
        n_devices=2,
        checkpoint_every=draw(st.sampled_from((0, 0, 1, 3))),
    )
    return requests, settings_


def run(cls, requests, **kwargs):
    with tempfile.TemporaryDirectory() as tmp:
        if kwargs.get("checkpoint_every"):
            # Checkpoints need a journal: every tenant gets an iteration
            # hook, and the loops stop at every boundary.
            kwargs["journal"] = Path(tmp) / "journal.jsonl"
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


def loop_requests():
    """``root:N`` and ``sequential`` tenants on arenas over the three
    games -- every one of them a select loop on the compiled stack --
    and one ``tree:2`` tenant beside them."""
    engines = ["root:3@arena", "sequential@arena", "root:2@arena"]
    return [
        SearchRequest(
            request_id=f"l{i:02d}",
            game=game,
            engine="tree:2@arena" if i == 4 else engines[i % 3],
            budget_s=BUDGETS[game],
            seed=500 + i,
        )
        for i, game in enumerate(sorted(BUDGETS) * 4)
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
        # The crash fires in one loop's hook while the tick's CPU phase
        # runs: the loops before it delivered and selected on, those
        # after it hold their rows undelivered.
        (loop_requests, "crash=iter:14", 2),
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


@pytest.mark.skipif(not compiled_available(), reason="no compiled library")
def test_a_tick_of_loop_tenants_is_one_launch_and_one_select_per_game(
    monkeypatch,
):
    """The tick's batching, counted: over 36 ``root:N`` and
    ``sequential`` tenants of three games, every tick is one fused
    launch and one ``*_select_expand_many`` call per game with at least
    ``MANY_SELECT_MIN`` loop tenants -- one more per arena that grew,
    the call resumed from it -- and one ``select_loop`` call per tenant
    of a smaller game; no state is built for a loop's rows.  A
    tenant-by-tenant tick makes a select call per tenant and builds
    every leaf's state."""
    counts = {
        "launch": 0, "select": 0, "grow": 0, "own": 0, "states": 0,
    }
    inside = []

    def counting(key, fn):
        def counted(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def own(store, loop):
        inside.append(loop)
        try:
            return select_loop(store, loop)
        finally:
            inside.pop()

    def grow(arena, need):
        # Growth inside a tenant's own call resumes no many-arena call.
        counts["grow"] += not inside
        return _grow(arena, need)

    select_loop, _grow = TreeArena.select_loop, TreeArena._grow
    monkeypatch.setattr(
        arena_module,
        "select_expand_many_compiled",
        counting("select", arena_module.select_expand_many_compiled),
    )
    monkeypatch.setattr(TreeArena, "_grow", grow)
    monkeypatch.setattr(TreeArena, "select_loop", counting("own", own))
    monkeypatch.setattr(
        FusedBatcher,
        "_launch_group",
        counting("launch", FusedBatcher._launch_group),
    )
    for name in BUDGETS:
        cls = type(make_game(name))
        monkeypatch.setattr(
            cls,
            "state_from_planes",
            counting("states", cls.state_from_planes),
        )
    ticks = []
    merged_tick = SearchService._merged_tick

    def tick(service):
        games = Counter(
            service._active[rid].record.request.game
            for rid in service._tenants
        )
        before = dict(counts)
        merged_tick(service)
        ticks.append((games, {k: counts[k] - before[k] for k in counts}))

    monkeypatch.setattr(service_module.SearchService, "_merged_tick", tick)
    requests = [
        SearchRequest(
            request_id=f"t{i:02d}",
            game=game,
            engine=("root:4@arena", "sequential@arena", "root:2@arena")[i % 3],
            budget_s=BUDGETS[game] / 2,
            seed=700 + i,
        )
        for i, game in enumerate(sorted(BUDGETS) * 12)
    ]
    service = SearchService(
        n_devices=2, max_active=64, seed=3, fusion=True, playout="compiled"
    )
    service.submit_all(requests)
    records = service.run()
    assert all(record.status == COMPLETED for record in records)
    assert len(ticks) > 10
    for games, delta in ticks:
        many = [n for n in games.values() if n >= MANY_SELECT_MIN]
        assert delta["launch"] == 1
        assert delta["select"] == len(many) + delta["grow"]
        assert delta["own"] == sum(games.values()) - sum(many)
        assert delta["states"] == 0
    assert sum(delta["grow"] for _, delta in ticks) > 0
    assert sum(delta["select"] for _, delta in ticks) > len(ticks)
