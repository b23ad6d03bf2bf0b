"""The default stack: ``repro.core.backend.default_stack`` is the one
place that decides which tree backend and playout executor run when
nobody names them.

An explicit value wins.  An unnamed backend is the arena where the game
has C kernels and the library loads, node elsewhere; an unnamed playout
follows the backend -- compiled on an arena with kernels, numpy
otherwise -- so ``@node`` alone still names the reference stack (node +
numpy), which the benchmark's oracle replays spell as ``@node``.  Every
owner of a ``backend=`` / ``playout=`` resolves through it: engines and
executors when built, the batchers and the service per game.
"""

import warnings

import pytest

from repro.compiled import compiled_available
from repro.core import make_engine
from repro.core.backend import default_stack
from repro.core.executors import playout_launcher
from repro.games import make_game
from repro.gpu import TESLA_C2050, DevicePool
from repro.serve import LaneBatcher, SearchRequest, SearchService
from repro.util.clock import Clock

#: Every game: three with C kernels, and breakthrough, which has none.
GAMES = ("breakthrough", "connect4", "reversi", "tictactoe")

#: ``(backend, playout)`` asked for -> what Reversi (C kernels) and
#: Breakthrough (none) run with the library loaded.
TABLE = [
    (None, None, ("arena", "compiled"), ("node", "numpy")),
    ("node", None, ("node", "numpy"), ("node", "numpy")),
    ("arena", None, ("arena", "compiled"), ("arena", "numpy")),
    (None, "numpy", ("arena", "numpy"), ("node", "numpy")),
    (None, "compiled", ("arena", "compiled"), ("node", "compiled")),
    ("node", "compiled", ("node", "compiled"), ("node", "compiled")),
    ("arena", "numpy", ("arena", "numpy"), ("arena", "numpy")),
]


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
def test_node_names_the_reference_stack_with_the_library_loaded():
    """``@node`` is node + numpy even where the default is arena +
    compiled; a spec with no stack modifier runs arena + compiled on a
    game with kernels and node + numpy on one without, which then never
    reaches the compiled seam's missing-kernel warning."""
    reversi = make_game("reversi")
    reference = make_engine("block:2x32@node", reversi, 1)
    assert (reference.backend, reference.playout) == ("node", "numpy")
    assert reference.gpu.playout == "numpy"
    default = make_engine("block:2x32", reversi, 1)
    assert (default.backend, default.playout) == ("arena", "compiled")
    assert default.gpu.playout == "compiled"
    breakthrough = make_game("breakthrough")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        subject = make_engine("block:2x32", breakthrough, 1)
        subject.search(breakthrough.initial_state(), 0.002)
    assert (subject.backend, subject.playout) == ("node", "numpy")


@pytest.mark.skipif(not compiled_available(), reason="no compiled kernels")
@pytest.mark.parametrize("backend,playout,reversi,breakthrough", TABLE)
def test_a_named_value_wins_and_the_playout_follows_the_backend(
    backend, playout, reversi, breakthrough
):
    assert default_stack("reversi", backend, playout) == reversi
    assert default_stack("breakthrough", backend, playout) == breakthrough


def test_an_unknown_value_is_refused():
    with pytest.raises(ValueError, match="tree backend"):
        default_stack("reversi", "cuda")
    with pytest.raises(ValueError, match="playout executor"):
        default_stack("reversi", None, "opencl")


def test_without_a_library_every_game_is_on_the_reference_stack(
    compiled_env,
):
    compiled_env("0")
    for name in GAMES:
        assert default_stack(name) == ("node", "numpy")
        assert default_stack(name, "arena") == ("arena", "numpy")
    engine = make_engine("block:2x32", make_game("reversi"), 1)
    assert (engine.backend, engine.playout) == ("node", "numpy")


def test_a_batcher_resolves_each_game_at_its_first_launch():
    """A batcher has no game of its own: with no playout named, each
    game's merged batches run that game's default executor -- the
    results are the NumPy body's either way."""
    demand = {
        name: [make_game(name).initial_state()] * 16
        for name in ("reversi", "breakthrough")
    }

    def answers(playout):
        batcher = LaneBatcher(
            DevicePool((TESLA_C2050,), Clock()), 5, playout=playout
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = {g: batcher.execute(g, s)[0] for g, s in demand.items()}
        return batcher, got

    batcher, got = answers(None)
    assert batcher.playout is None
    for name in demand:
        assert batcher._launch(name) is playout_launcher(
            default_stack(name)[1]
        )
    assert got == answers("numpy")[1]


def test_a_service_builds_each_request_on_its_games_stack(monkeypatch):
    from repro.serve import service as service_module

    built = {}

    def spy(spec, game, seed, **overrides):
        engine = make_engine(spec, game, seed, **overrides)
        built[game.name] = (engine.backend, engine.playout)
        return engine

    monkeypatch.setattr(service_module, "make_engine", spy)
    service = SearchService(n_devices=1, max_active=4, seed=3)
    assert (service.backend, service.playout) == (None, None)
    for i, name in enumerate(("reversi", "breakthrough", "tictactoe")):
        service.submit(
            SearchRequest(f"r{i}", name, "root:2", 0.001, seed=i)
        )
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        records = service.run()
    assert all(r.status == "completed" for r in records)
    assert built == {name: default_stack(name) for name in built}
    assert len(built) == 3
