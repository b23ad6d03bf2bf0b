"""The exact law of a uniformly random playout, by enumeration.

A random playout picks each legal move with probability ``1 / n``, so
the probability of one path to the end of the game is the product of
its ``1 / n`` factors, and the law of the playout's outcome is the sum
over every path.  This tool enumerates that sum, memoised on the
position, for a few positions small enough to finish in seconds in
pure Python, and writes, per position, the exact probability of every
``(winner, finish step)`` pair as a fraction.

The finish step is the one a lockstep lane reports and the GPU timing
model charges: one step per ply, passes included.  A Reversi lane ends
on the second of two passes in a row, so a game that ends after a move
takes two more steps; a position already over at entry takes none.

    python tools/playout_law.py            # rewrite the golden
    python tools/playout_law.py --check    # exit 1 if it would change
    python tools/playout_law.py --time     # seconds per late position

The golden (``tests/golden/playout_law.json``) is what
``tests/games/test_playout_law.py`` holds every playout body to by a
chi-square test; it regenerates byte for byte.
"""

from __future__ import annotations

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from repro.games import make_game  # noqa: E402
from repro.games.reversi import mobility  # noqa: E402
from repro.rng import XorShift64Star  # noqa: E402

GOLDEN = ROOT / "tests" / "golden" / "playout_law.json"

#: Late positions: ``(game, empties, seed)`` -- the position a seeded
#: random game reaches with that many empty squares left.  One more
#: empty square costs Reversi about 7x and Connect-4 about 3x (``--time``
#: prints the seconds from 8 empties to one past these).
LATE = (("connect4", 16, 3), ("reversi", 10, 5))


def _law_of_moves(game):
    """The law of a game without passes: ``law(state)`` maps ``(winner,
    steps)`` to its probability."""
    memo = {}

    def law(state):
        out = memo.get(state)
        if out is not None:
            return out
        if game.is_terminal(state):
            out = {(game.winner(state), 0): Fraction(1)}
        else:
            moves = game.legal_moves(state)
            share = Fraction(1, len(moves))
            out = {}
            for move in moves:
                after = law(game.apply(state, move))
                for key, p in _shift(after, share).items():
                    out[key] = out.get(key, 0) + p
        memo[state] = out
        return out

    return law


def _law_of_reversi(game):
    """Reversi's law, a lane's way: a side with no move passes (one
    step), and the second pass in a row ends the game (one step)."""
    memo = {}

    def lane(own, opp, sign, passed):
        key = own, opp, sign, passed
        out = memo.get(key)
        if out is not None:
            return out
        moves = mobility(own, opp)
        if not moves:
            if passed:
                black, white = (own, opp) if sign == 1 else (opp, own)
                diff = black.bit_count() - white.bit_count()
                out = {((diff > 0) - (diff < 0), 1): Fraction(1)}
            else:
                out = _shift(lane(opp, own, -sign, True), Fraction(1))
        else:
            share = Fraction(1, moves.bit_count())
            out = {}
            m = moves
            while m:
                bit = m & -m
                m ^= bit
                after = game.apply(
                    _state(game, own, opp, sign), bit.bit_length() - 1
                )
                mine, theirs = (
                    (after.black, after.white)
                    if sign == 1
                    else (after.white, after.black)
                )
                for k, p in _shift(
                    lane(theirs, mine, -sign, False), share
                ).items():
                    out[k] = out.get(k, 0) + p
        memo[key] = out
        return out

    def law(state):
        if game.is_terminal(state):
            return {(game.winner(state), 0): Fraction(1)}
        own, opp = (
            (state.black, state.white)
            if state.to_move == 1
            else (state.white, state.black)
        )
        return lane(own, opp, state.to_move, False)

    return law


def _state(game, own, opp, sign):
    black, white = (own, opp) if sign == 1 else (opp, own)
    return game.state_from_planes(black, white, sign)


def _shift(law, share):
    """``law`` one step later, weighted by ``share``."""
    return {(w, s + 1): share * p for (w, s), p in law.items()}


def law_of(game, state) -> dict:
    """The exact law of a random playout from ``state``:
    ``{(winner, steps): probability}``."""
    if game.name == "reversi":
        return _law_of_reversi(game)(state)
    return _law_of_moves(game)(state)


def late_position(game, empties: int, seed: int):
    """The first position a seeded random game reaches with
    ``empties`` empty squares, replayed from a new seed until the game
    is still running there."""
    attempt = 0
    while True:
        rng = XorShift64Star(seed + 1000 * attempt)
        state = game.initial_state()
        while not game.is_terminal(state):
            p1, p2 = game.zobrist_planes(state)
            if _cells(game) - (p1 | p2).bit_count() == empties:
                return state
            moves = game.legal_moves(state)
            state = game.apply(state, moves[rng.randrange(len(moves))])
        attempt += 1


def _cells(game) -> int:
    return {"tictactoe": 9, "connect4": 42, "reversi": 64}[game.name]


def positions() -> list:
    """``(name, game, state)`` of every position the golden holds."""
    ttt = make_game("tictactoe")
    out = [
        ("tictactoe/empty", ttt, ttt.initial_state()),
        # X in the centre.
        ("tictactoe/centre", ttt, ttt.apply(ttt.initial_state(), 4)),
        # X on the bottom edge, O on the top edge: no symmetry maps a
        # square to the one after it, so a pick that favours the first
        # empty squares moves the law.
        (
            "tictactoe/edges",
            ttt,
            ttt.apply(ttt.apply(ttt.initial_state(), 7), 1),
        ),
    ]
    for name, empties, seed in LATE:
        game = make_game(name)
        state = late_position(game, empties, seed)
        out.append((f"{name}/late-{empties}", game, state))
    return out


def render() -> str:
    """The golden's text."""
    entries = []
    for name, game, state in positions():
        p1, p2 = game.zobrist_planes(state)
        law = law_of(game, state)
        entries.append(
            {
                "name": name,
                "game": game.name,
                "planes": [p1, p2, game.to_move(state)],
                "law": [
                    [winner, steps, str(p)]
                    for (winner, steps), p in sorted(law.items())
                ],
            }
        )
    rows = ",\n".join(" " + json.dumps(entry) for entry in entries)
    return '{"positions": [\n' + rows + "\n]}\n"


def main(argv: list[str]) -> int:
    if "--time" in argv:
        for name, most, seed in LATE:
            game = make_game(name)
            for empties in range(8, most + 2):
                state = late_position(game, empties, seed)
                t0 = time.perf_counter()
                law_of(game, state)
                print(
                    f"{name} {empties} empties: "
                    f"{time.perf_counter() - t0:.2f} s"
                )
        return 0
    text = render()
    if "--check" in argv:
        same = GOLDEN.exists() and GOLDEN.read_text() == text
        print("golden up to date" if same else f"{GOLDEN} would change")
        return 0 if same else 1
    GOLDEN.parent.mkdir(parents=True, exist_ok=True)
    GOLDEN.write_text(text)
    print(f"wrote {GOLDEN}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
