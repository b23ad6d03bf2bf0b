"""Every playout body against the exact law of a random playout.

The bit-identity walls hold the playout bodies to one another; a
defect they share (a pick that never takes the last legal move, a draw
folded modulo ``n``) passes all of them.  ``tests/golden/playout_law.json``
(``python tools/playout_law.py``) holds, per position, the exact
probability of every ``(winner, finish step)`` pair of a uniformly
random playout.  Each body that loads plays :data:`N` seeded playouts
from each position -- on its own, and for the launch bodies also as a
virtual GPU's launches (``device-*``), several blocks of many lanes
each from the position -- and a chi-square test at level :data:`ALPHA`
compares their counts with the law; an outcome the law gives no
probability fails at once.  The seeds are fixed, so the verdict is
deterministic.  Run with ``-s`` to see the p-values.
"""

import json
from contextlib import nullcontext
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from scipy.stats import chi2

from repro.compiled import launch_compiled
from repro.compiled.build import kernel_bodies, pinned_kernel_body
from repro.core.executors import launch_numpy
from repro.games import make_batch_game, make_game
from repro.gpu import TESLA_C2050, LaunchConfig, VirtualGpu
from repro.rng import XorShift128PlusLane, XorShift64Star
from repro.util.clock import Clock
from repro.util.seeding import derive_seed

GOLDEN = Path(__file__).parent.parent / "golden" / "playout_law.json"
POSITIONS = json.loads(GOLDEN.read_text())["positions"]
#: Playouts per position and body.
N = 3000
#: The test's level: a body fails a position when its counts are this
#: unlikely under the law.
ALPHA = 1e-3
#: The fewest expected playouts a chi-square cell holds; rarer outcomes
#: are pooled.
MIN_EXPECTED = 5.0


def _python(game, state, seed):
    """The scalar body: ``Game.playout`` on one generator."""
    rng = XorShift64Star(seed)
    return [game.playout(state, rng) for _ in range(N)]


def _lane(game, state, seed):
    """The Python lane: ``Game.playout`` on lane ``i`` of the family."""
    return [
        game.playout(state, XorShift128PlusLane(seed, i)) for i in range(N)
    ]


def _launch(launch):
    def play(game, state, seed):
        winners, steps = launch(
            make_batch_game(game.name), [state] * N, seed
        )
        return list(zip(winners.tolist(), steps.tolist()))

    return play


def _kernel(body):
    def play(game, state, seed):
        with pinned_kernel_body(body):
            return _launch(launch_compiled)(game, state, seed)

    return play


#: A device launch: blocks, and lanes per block, all from the position;
#: :data:`N` playouts take ``N / 1000`` launches of one device.
DEVICE_GRID = LaunchConfig(10, 100)


def _device(playout, body=None):
    """A ``VirtualGpu``'s launches, each block from the position."""

    def play(game, state, seed):
        gpu = VirtualGpu(
            TESLA_C2050, Clock(), game.name, seed, playout=playout
        )
        states = [state] * DEVICE_GRID.blocks
        outcomes = []
        with pinned_kernel_body(body) if body else nullcontext():
            for _ in range(N // DEVICE_GRID.total_threads):
                result = gpu.run_playouts(states, DEVICE_GRID)
                outcomes += zip(
                    result.winners.tolist(), result.finish_steps.tolist()
                )
        return outcomes

    return play


BODIES = {
    "python": _python,
    "lane": _lane,
    "numpy": _launch(launch_numpy),
    **{body: _kernel(body) for body in kernel_bodies()},
    "device-numpy": _device("numpy"),
    **{
        f"device-{body}": _device("compiled", body)
        for body in kernel_bodies()
    },
}


def p_value(law: dict, outcomes: list) -> float:
    """The chi-square test's p-value of ``outcomes`` under ``law``
    (``{(winner, steps): probability}``); 0.0 when an outcome has no
    probability."""
    counts: dict = {}
    for outcome in outcomes:
        if outcome not in law:
            return 0.0
        counts[outcome] = counts.get(outcome, 0) + 1
    n = len(outcomes)
    cells = sorted(law, key=lambda k: law[k])
    observed, expected = [], []
    pooled_o = pooled_e = 0.0
    for cell in cells:
        e = float(law[cell]) * n
        if e < MIN_EXPECTED:
            pooled_o += counts.get(cell, 0)
            pooled_e += e
        else:
            observed.append(counts.get(cell, 0))
            expected.append(e)
    if pooled_e >= MIN_EXPECTED or not expected:
        observed.append(pooled_o)
        expected.append(pooled_e)
    else:
        # Too rare even pooled: fold into the rarest kept cell.
        observed[0] += pooled_o
        expected[0] += pooled_e
    if len(expected) < 2:
        return 1.0
    observed, expected = np.array(observed), np.array(expected)
    stat = float((((observed - expected) ** 2) / expected).sum())
    return float(chi2.sf(stat, len(expected) - 1))


def exact_law(entry) -> dict:
    return {
        (winner, steps): Fraction(p) for winner, steps, p in entry["law"]
    }


def test_the_golden_laws_are_distributions():
    for entry in POSITIONS:
        assert sum(exact_law(entry).values()) == 1, entry["name"]


@pytest.mark.parametrize("body", sorted(BODIES))
@pytest.mark.parametrize("entry", POSITIONS, ids=lambda e: e["name"])
def test_the_body_plays_the_exact_law(body, entry):
    game = make_game(entry["game"])
    state = game.state_from_planes(*entry["planes"])
    seed = derive_seed(2011, "playout_law", entry["name"])
    p = p_value(exact_law(entry), BODIES[body](game, state, seed))
    print(f"{body:>10} {entry['name']:<22} p = {p:.4f}")
    assert p > ALPHA, f"{body} on {entry['name']}: p = {p:.3g}"
