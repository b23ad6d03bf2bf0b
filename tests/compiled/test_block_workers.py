"""The block workers behind ``repro_<game>_block``: a launch's blocks are
claimed one at a time by the calling thread and the pool's helpers, and
the generator is settled once, after every block has landed
(docs/block_parallelism.md).  So a launch must write the same bytes --
winners, scores, finish steps and generator -- whatever number of
workers plays it.  Each test here holds a launch on every worker to the
same launch pinned to the caller alone (:func:`pinned_block_workers`),
on both kernel bodies, and the pin is lifted after the module.
"""

import hashlib
import os
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (
    block_compiled,
    block_workers,
    compiled_available,
    load_library,
)
from repro.compiled.build import (
    kernel_bodies,
    lazy_export,
    pinned_block_workers,
    pinned_kernel_body,
)
from repro.games import make_batch_game, make_game
from repro.games.batch import Positions
from repro.rng import BatchXorShift128Plus
from tests.compiled.test_launch import root_pool

pytestmark = [
    pytest.mark.compiled,
    pytest.mark.skipif(
        not compiled_available(), reason="no compiled kernel library"
    ),
]

GAMES = ["reversi", "connect4", "tictactoe"]
SRC = str(Path(__file__).resolve().parents[2] / "src")


@pytest.fixture(scope="module", autouse=True)
def all_workers_after_the_module():
    """Every test pins its own worker count; lift any pin left behind."""
    yield
    lazy_export(load_library(), "pin_block_workers")(-1)


def launch_bytes(game_name, states, lanes, seed):
    """One launch of ``lanes`` playouts per state on a fresh generator:
    the bytes of its three outputs and of the generator after it."""
    rng = BatchXorShift128Plus(len(states) * lanes, seed)
    bg = make_batch_game(game_name)
    out = block_compiled(bg, Positions(states), lanes, rng)
    _, s0, s1 = rng.getstate()
    columns = (out.winners, out.scores, out.finish_steps, s0, s1)
    return [column.tobytes() for column in columns]


def alone_and_on_all(game_name, states, lanes, seed):
    with pinned_block_workers(1):
        alone = launch_bytes(game_name, states, lanes, seed)
    return alone, launch_bytes(game_name, states, lanes, seed)


def walked(game_name, walks, k, seed):
    """``k`` positions drawn from the ends of ``walks`` -- arbitrary
    legal move sequences from the initial position, each stopping early
    at a terminal position, which then enters the launch as over at
    entry."""
    game = make_game(game_name)
    ends = []
    for picks in walks:
        state = game.initial_state()
        for pick in picks:
            if game.is_terminal(state):
                break
            moves = game.legal_moves(state)
            state = game.apply(state, moves[pick % len(moves)])
        ends.append(state)
    order = np.random.default_rng(seed).integers(len(ends), size=k)
    return [ends[i] for i in order]


def test_a_launch_plays_on_every_cpu_of_the_affinity_mask():
    assert block_workers() == len(os.sched_getaffinity(0))
    with pinned_block_workers(1):
        assert block_workers() == 1
    assert block_workers() == len(os.sched_getaffinity(0))


def test_the_pin_refuses_what_the_host_does_not_have():
    for workers in (0, block_workers() + 1):
        with pytest.raises(LookupError, match="block workers"):
            with pinned_block_workers(workers):
                pass
    assert block_workers() == len(os.sched_getaffinity(0))


@settings(max_examples=60, deadline=None)
@given(
    game_name=st.sampled_from(GAMES),
    k=st.integers(1, 300),
    lanes=st.integers(1, 64),
    walks=st.lists(
        st.lists(st.integers(0, 2**16), max_size=70), min_size=1, max_size=6
    ),
    body=st.sampled_from(kernel_bodies() or ("portable",)),
    seed=st.integers(0, 2**63 - 1),
)
def test_every_worker_count_writes_the_same_bytes(
    game_name, k, lanes, walks, body, seed
):
    states = walked(game_name, walks, k, seed)
    with pinned_kernel_body(body):
        alone, on_all = alone_and_on_all(game_name, states, lanes, seed)
    assert on_all == alone


@pytest.mark.parametrize("body", kernel_bodies())
@pytest.mark.parametrize("game_name", GAMES)
def test_a_lane_past_max_steps_raises_and_leaves_the_generator(
    game_name, body
):
    """The failing lane's block stops its claims; the launch raises the
    single worker's error and the generator is untouched either way."""
    bg = make_batch_game(game_name)
    bg.max_game_length = 3  # shadows the class attribute on this instance
    states = root_pool(game_name) * 4
    for workers in (1, block_workers()):
        rng = BatchXorShift128Plus(len(states) * 2, 5)
        before = [column.tobytes() for column in rng.getstate()[1:]]
        with pinned_kernel_body(body), pinned_block_workers(workers):
            with pytest.raises(
                RuntimeError, match="exceeded max_game_length=3; engine bug"
            ):
                block_compiled(bg, Positions(states), 2, rng)
        assert [column.tobytes() for column in rng.getstate()[1:]] == before


@pytest.mark.parametrize("body", kernel_bodies())
def test_concurrent_callers_each_get_the_single_worker_bytes(body):
    """Two Python threads launch at once, round after round: one of
    them holds the pool, the other plays alone, and both answers are the
    caller-alone bytes."""
    states = root_pool("reversi") * 4
    seeds = range(12)
    with pinned_kernel_body(body):
        with pinned_block_workers(1):
            want = [launch_bytes("reversi", states, 8, s) for s in seeds]
        got = {0: [], 1: []}
        barrier = threading.Barrier(2, timeout=60)

        def caller(who):
            for seed in seeds:
                barrier.wait()
                got[who].append(launch_bytes("reversi", states, 8, seed))

        threads = [threading.Thread(target=caller, args=(w,)) for w in got]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
        assert not any(thread.is_alive() for thread in threads)
    assert got[0] == want and got[1] == want


CHILD = """
import hashlib, os, sys
sys.path[:0] = [{src!r}, {root!r}]
os.sched_setaffinity(0, {{{cpu}}})
from repro.compiled import block_workers
from repro.compiled.build import pinned_kernel_body
from tests.compiled.test_block_workers import launch_bytes
from tests.compiled.test_launch import root_pool
print(block_workers())
with pinned_kernel_body({body!r}):
    columns = launch_bytes("connect4", root_pool("connect4") * 3, 16, 7)
print(hashlib.sha256(b"".join(columns)).hexdigest())
"""


@pytest.mark.parametrize("body", kernel_bodies())
def test_a_process_pinned_to_one_cpu_plays_alone(body):
    """``taskset`` is the control: a process whose affinity mask holds
    one CPU starts no helper, and writes the same bytes."""
    with pinned_kernel_body(body), pinned_block_workers(1):
        columns = launch_bytes("connect4", root_pool("connect4") * 3, 16, 7)
    want = hashlib.sha256(b"".join(columns)).hexdigest()
    cpu = min(os.sched_getaffinity(0))
    root = str(Path(SRC).parent)
    child = subprocess.run(
        [
            sys.executable,
            "-c",
            CHILD.format(src=SRC, root=root, cpu=cpu, body=body),
        ],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert child.returncode == 0, child.stderr
    assert child.stdout.split() == ["1", want]


@pytest.mark.skipif(not hasattr(os, "fork"), reason="no fork on this host")
def test_a_forked_child_plays_alone():
    """No helper survives a fork: the child of a process whose pool has
    started reports one worker and writes the same bytes -- it neither
    deadlocks on the pool's lock nor waits on a helper it does not
    have."""
    states = root_pool("tictactoe") * 5
    want = launch_bytes("tictactoe", states, 4, 3)  # starts the pool
    read_end, write_end = os.pipe()
    with warnings.catch_warnings():
        # Python 3.12 warns that forking a threaded process can
        # deadlock the child: that child is what this test is about.
        warnings.simplefilter("ignore", DeprecationWarning)
        pid = os.fork()
    if pid == 0:  # pragma: no cover - the child
        code = 1
        try:
            os.close(read_end)
            got = launch_bytes("tictactoe", states, 4, 3)
            ok = block_workers() == 1 and got == want
            os.write(write_end, b"ok" if ok else b"differs")
            code = 0
        finally:
            os._exit(code)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as pipe:
        answer = pipe.read()
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert answer == b"ok"
