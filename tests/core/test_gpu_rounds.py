"""The GPU round policies against the hand-written loops they replace.

``leaf``, ``block`` and ``hybrid`` search through ``run_rounds`` over
their round policy (``LeafRound``, ``BlockRound``, ``HybridRound``),
answered by the engine's own ``VirtualGpu``;
:mod:`tests.core.reference_gpu_loops` keeps the ``while`` loops they
once ran.  Both must produce the same search bit for bit: the
``SearchResult``, the engine clock, the device state
(``gpu.getstate()``: lane RNGs, counters, stream timeline) and the
profiler's phase call counts -- on both stores, from near-terminal
roots, under budgets and iteration caps, through screened retries and
their give-up, and across a crash -> snapshot -> restore -> resume.
"""

import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import snapshot_bytes, snapshot_from_bytes
from repro.core.spec import make_engine
from repro.cpu.costmodel import CpuCostModel
from repro.faults import FaultInjector, FaultPlan
from repro.games import make_game
from repro.util.clock import ClockError
from repro.util.profile import Profiler
from tests.core.reference_gpu_loops import reference_resume, reference_search
from tests.core.test_checkpoint import Boom
from tests.core.test_checkpoint_golden import canonical

KINDS = ("leaf", "block", "hybrid")
STACKS = ("@node", "@arena")
#: Most random plies played from the initial position to reach a root.
ROOT_PLIES = {"tictactoe": 8, "connect4": 40}
BUDGETS = (1e-4, 1e-3, 3e-3)
#: Fault plans for the guarded ``block`` cases: every readback corrupt
#: (each retry rejected too, so the batch is given up), or some.
FAULTS = ("corrupt=1.0:nan,seed={s}", "corrupt=0.5:bitflip,seed={s}")


def near_terminal_root(game, plies: int, seed: int):
    """The position after up to ``plies`` random moves, never a
    terminal one."""
    rng = random.Random(seed)
    state = game.initial_state()
    for _ in range(plies):
        nxt = game.apply(state, rng.choice(game.legal_moves(state)))
        if game.is_terminal(nxt):
            break
        state = nxt
    return state


@st.composite
def cases(draw, guarded=False):
    """One search; ``guarded``: a ``block`` one under a fault plan."""
    kind = "block" if guarded else draw(st.sampled_from(KINDS))
    game = draw(st.sampled_from(sorted(ROOT_PLIES)))
    faults = None
    if guarded:
        faults = draw(st.sampled_from(FAULTS)).format(
            s=draw(st.integers(0, 99))
        )
    return {
        "spec": (
            f"{kind}:{draw(st.integers(1, 3))}x"
            f"{draw(st.sampled_from((4, 8, 32)))}"
            f"{draw(st.sampled_from(STACKS))}"
        ),
        "game": game,
        "plies": draw(st.integers(0, ROOT_PLIES[game])),
        "seed": draw(st.integers(0, 2**16)),
        "budget_s": draw(st.sampled_from(BUDGETS)),
        "max_iterations": draw(st.none() | st.integers(1, 6)),
        "faults": faults,
        "crash_at": draw(st.none() | st.integers(1, 4)),
    }


def observe(case, search, resume):
    """Run ``case`` with ``search`` (and, after a planned crash, a
    restore into a fresh engine and ``resume``); what the run left."""
    game = make_game(case["game"])
    state = near_terminal_root(game, case["plies"], case["seed"])
    profiler = Profiler()

    def build():
        kwargs = {}
        if case["faults"] is not None:
            kwargs["injector"] = FaultInjector(FaultPlan.parse(case["faults"]))
        return make_engine(
            case["spec"],
            game,
            case["seed"],
            max_iterations=case["max_iterations"],
            profiler=profiler,
            **kwargs,
        )

    engine = build()
    captured = {}
    if case["crash_at"] is not None:

        def hook(eng, iterations):
            if iterations >= case["crash_at"] and not captured:
                captured["snap"] = eng.snapshot()
                raise Boom()

        engine.iteration_hook = hook
    try:
        result = search(engine, state, case["budget_s"])
    except Boom:
        snap = snapshot_from_bytes(snapshot_bytes(captured["snap"]))
        engine = build()
        engine.restore(snap)
        result = resume(engine)
    return {
        "crashed": bool(captured),
        "result": canonical(result),
        "clock": engine.clock.now,
        "gpu": canonical(engine.gpu.getstate()),
        "phases": {name: s.calls for name, s in profiler.phases.items()},
    }


def product(case):
    return observe(
        case,
        lambda engine, state, budget_s: engine.search(state, budget_s),
        lambda engine: engine.resume(),
    )


def reference(case):
    return observe(case, reference_search, reference_resume)


@settings(max_examples=80, deadline=None)
@given(cases())
def test_gpu_rounds_match_the_hand_written_loops(case):
    assert product(case) == reference(case)


def _case(spec, game="tictactoe", plies=0, **overrides):
    case = {
        "spec": spec,
        "game": game,
        "plies": plies,
        "seed": 7,
        "budget_s": 3e-3,
        "max_iterations": None,
        "faults": None,
        "crash_at": None,
    }
    case.update(overrides)
    return case


@pytest.mark.parametrize("stack", STACKS)
def test_leaf_answers_a_terminal_leaf_without_a_launch(stack):
    """Three plies from a full TicTacToe board, the tree's terminal
    leaves come up: iterations outrun kernels, as they did."""
    case = _case(f"leaf:1x8{stack}", plies=6, seed=3)
    seen = product(case)
    assert seen == reference(case)
    result = seen["result"]
    assert result["extras"]["gpu.kernels"] < result["iterations"]


@pytest.mark.parametrize("stack", STACKS)
def test_block_plays_terminal_leaves_out(stack):
    case = _case(f"block:3x8{stack}", plies=6, seed=3)
    seen = product(case)
    assert seen == reference(case)
    result = seen["result"]
    assert result["extras"]["gpu.kernels"] == result["iterations"]


@pytest.mark.faults
@pytest.mark.parametrize("stack", STACKS)
@pytest.mark.parametrize("crash_at", [None, 2])
def test_block_gives_up_after_its_retries(stack, crash_at):
    """Every readback corrupt: each iteration launches 1 + 3 retries,
    all charged, then credits all draws."""
    case = _case(
        f"block:2x8{stack}",
        faults="corrupt=1.0:nan,seed=3",
        max_iterations=4,
        crash_at=crash_at,
    )
    seen = product(case)
    assert seen == reference(case)
    result = seen["result"]
    assert result["extras"]["integrity.dropped_batches"] == 4
    assert result["extras"]["gpu.kernels"] == 4 * 4
    assert result["simulations"] == 4 * 4 * 16
    assert seen["phases"]["playout"] == 4


@pytest.mark.faults
@settings(max_examples=30, deadline=None)
@given(cases(guarded=True))
def test_guarded_block_rounds_match_the_hand_written_loop(case):
    assert product(case) == reference(case)


@pytest.mark.parametrize("kind", KINDS)
def test_crash_restore_resume_matches(kind):
    case = _case(f"{kind}:2x8@arena", game="connect4", crash_at=2)
    seen = product(case)
    assert seen["crashed"]
    assert seen == reference(case)


@pytest.mark.parametrize("stack", STACKS)
def test_block_refuses_a_negative_control_time(stack):
    """The block round sums its trees' control times and sets the clock
    once; a negative one is still refused, as ``Clock.advance`` would."""

    class Backwards(CpuCostModel):
        def tree_control_time(self, depth):
            return -1e-6

    game = make_game("tictactoe")
    engine = make_engine(
        f"block:2x4{stack}", game, seed=1, cost_model=Backwards(name="back")
    )
    with pytest.raises(ClockError, match="negative"):
        engine.search(game.initial_state(), 1e-3)
    assert engine.clock.now == 0.0
