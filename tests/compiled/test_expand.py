"""Differential wall for the compiled expansion kernels.

Each ``repro_<game>_expand`` export must do to a set of arena columns
exactly what the Python expansion body does: pop the node's last
untried move, ``game.apply`` it, describe the child with ``legal_mask``
+ ``bits_of`` + ``XorShift64Star.shuffle`` on the tree's word, link it
and update the parent's and the tree's counters.  The columns here are
hand-built (any position can be a parent row), so the reference is the
scalar game API itself, not the arena.  Without a C toolchain there is
no kernel to compare and the tests skip.
"""

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.compiled import (
    COMPILED_GAMES,
    ArenaColumns,
    expand_compiled,
    expand_kernel,
)
from repro.games import make_game
from repro.games.reversi import PASS_MOVE, ReversiState
from repro.rng import XorShift64Star
from repro.util.bitops import bits_of, square_mask

pytestmark = pytest.mark.compiled

GAMES = sorted(COMPILED_GAMES)
_U64 = (1 << 64) - 1


def _kernel(game_name):
    kernel = expand_kernel(game_name)
    if kernel is None:
        pytest.skip("no compiled kernel library on this host")
    return kernel


def _mask_words(mask: int, words: int) -> list[int]:
    return [(mask >> (64 * w)) & _U64 for w in range(words)]


def _columns(game, parents, rng_words):
    """Arena-shaped columns for ``k`` expansions: slot ``i`` holds
    parent ``i`` (a ``(state, move)`` pair, the move last in its
    untried order -- an illegal one overwrites the last legal move),
    slot ``k + i`` is the virgin slot of its child, and every row has a
    tree (generator word) of its own."""
    k = len(parents)
    words = (game.num_moves + 63) // 64
    cols = SimpleNamespace(
        capacity=2 * k, n_trees=k, mask_words=words,
        order_width=game.num_moves,
    )
    for name, dtype, rows, width in ArenaColumns._LAYOUT:
        shape = (getattr(cols, rows),)
        if width is not None:
            shape += (getattr(cols, width),)
        setattr(cols, name, np.zeros(shape, dtype=dtype))
    cols.parent.fill(-1)
    cols.move.fill(-1)
    cols.tree_node_count.fill(1)
    cols.rng_state[:] = rng_words
    for i, (state, move) in enumerate(parents):
        cols.plane1[i], cols.plane2[i] = game.zobrist_planes(state)
        cols.to_move[i] = game.to_move(state)
        mask = game.legal_mask(state)
        legal = list(bits_of(mask))
        order = [m for m in legal if m != move][: len(legal) - 1] + [move]
        cols.untried_order[i, : len(order)] = order
        cols.n_legal[i] = cols.untried_count[i] = len(order)
        cols.untried_mask[i] = _mask_words(mask, words)
    return cols


def _rows(k, depths=None):
    depths = list(range(1, k + 1)) if depths is None else depths
    return np.array(
        [range(k), range(k, 2 * k), range(k), depths], dtype=np.int64
    )


def _check_against_scalar_game(game, parents, rng_words):
    """Expand every row through the kernel and compare every column
    the kernel writes with the scalar game + scalar RNG."""
    k = len(parents)
    cols = _columns(game, parents, rng_words)
    before = SimpleNamespace(
        untried_count=cols.untried_count.copy(),
        untried_mask=cols.untried_mask.copy(),
    )
    rc = expand_compiled(_kernel(game.name), ArenaColumns.of(cols), _rows(k))
    assert rc == 0
    words = cols.mask_words
    for i, (state, move) in enumerate(parents):
        child = k + i
        nxt = game.apply(state, move)
        mask = game.legal_mask(nxt)
        legal = list(bits_of(mask))
        rng = XorShift64Star.from_state(rng_words[i])
        rng.shuffle(legal)
        assert (
            int(cols.plane1[child]), int(cols.plane2[child])
        ) == game.zobrist_planes(nxt)
        assert cols.to_move[child] == game.to_move(nxt)
        assert cols.parent[child] == i
        assert cols.move[child] == move
        assert cols.mover[child] == game.to_move(state)
        assert cols.untried_mask[child].tolist() == _mask_words(mask, words)
        assert cols.n_legal[child] == cols.untried_count[child] == len(legal)
        assert cols.untried_order[child, : len(legal)].tolist() == legal
        assert not cols.untried_order[child, len(legal):].any()
        assert bool(cols.terminal[child]) == game.is_terminal(nxt)
        assert bool(cols.terminal[child]) == (mask == 0)
        assert cols.winner[child] == (game.winner(nxt) if mask == 0 else 0)
        assert int(cols.rng_state[i]) == rng.getstate()
        # The parent lost its last untried move, gained a child.
        assert cols.untried_count[i] == before.untried_count[i] - 1
        popped = _mask_words(
            game.legal_mask(state) & ~(1 << move), words
        )
        assert cols.untried_mask[i].tolist() == popped
        assert cols.child_count[i] == 1
        assert cols.tree_node_count[i] == 2
        assert cols.tree_max_depth[i] == i + 1
    return cols


def _walk(game, plies, seed):
    """``(state, move)`` after up to ``plies`` random plies: the last
    non-terminal position reached and a random legal move in it."""
    rng = np.random.default_rng(seed)
    state = game.initial_state()
    for _ in range(plies):
        moves = game.legal_moves(state)
        nxt = game.apply(state, int(rng.choice(moves)))
        if game.is_terminal(nxt):
            break
        state = nxt
    return state, int(rng.choice(game.legal_moves(state)))


@settings(max_examples=60, deadline=None)
@given(
    game_name=st.sampled_from(GAMES),
    walks=st.lists(
        st.tuples(st.integers(0, 70), st.integers(0, 2**32 - 1)),
        min_size=1,
        max_size=23,
    ),
    word_seed=st.integers(0, 2**32 - 1),
)
def test_random_mid_game_rows_match_scalar_game(game_name, walks, word_seed):
    """Random walks of every length (openings to the last ply, ``k``
    from 1 up and never a round number) expand exactly like the scalar
    game + scalar RNG."""
    game = make_game(game_name)
    parents = [_walk(game, plies, seed) for plies, seed in walks]
    words = np.random.default_rng(word_seed).integers(
        1, 2**64 - 1, size=len(parents), dtype=np.uint64
    )
    _check_against_scalar_game(game, parents, [int(w) for w in words])


def _endgames(game, wanted, tries=400):
    """``(state, move)`` pairs whose child satisfies ``wanted(child)``,
    found by playing random games out (so they are reachable)."""
    found = []
    for seed in range(tries):
        rng = np.random.default_rng(seed)
        state = game.initial_state()
        while not game.is_terminal(state):
            move = int(rng.choice(game.legal_moves(state)))
            nxt = game.apply(state, move)
            if wanted(nxt):
                found.append((state, move))
            state = nxt
        if len(found) >= 12:
            break
    return found


@pytest.mark.parametrize("game_name", GAMES)
def test_terminal_children(game_name):
    """Moves that end the game -- wins for either side, draws, the full
    board -- give a terminal child with the scalar winner and an empty
    untried order that draws nothing from the generator."""
    game = make_game(game_name)
    parents = _endgames(game, game.is_terminal)
    winners = {game.winner(game.apply(s, m)) for s, m in parents}
    assert winners >= {1, -1}
    cols = _check_against_scalar_game(
        game, parents, list(range(1, len(parents) + 1))
    )
    k = len(parents)
    assert cols.terminal[k:].all()
    assert cols.rng_state.tolist() == list(range(1, k + 1))


def test_reversi_full_board():
    game = make_game("reversi")
    parents = _endgames(
        game, lambda s: (s.black | s.white) == _U64, tries=2000
    )
    assert parents
    _check_against_scalar_game(game, parents, [7] * len(parents))


def test_reversi_pass_moves_and_pass_only_children():
    game = make_game("reversi")
    # Children that can only pass: their mask is exactly bit 64.
    pass_only = _endgames(
        game, lambda s: game.legal_mask(s) == 1 << PASS_MOVE, tries=2000
    )
    assert pass_only
    # Parents whose popped move *is* the pass.
    passing = [
        (game.apply(state, move), PASS_MOVE) for state, move in pass_only
    ]
    # Hand-built: black b1 against white a1 must pass; the child
    # (white to move) then has exactly c1.
    corner, next_to_it = square_mask(0, 0), square_mask(0, 1)
    forced = ReversiState(black=next_to_it, white=corner, to_move=1)
    assert game.legal_moves(forced) == (PASS_MOVE,)
    parents = pass_only + passing + [(forced, PASS_MOVE)]
    cols = _check_against_scalar_game(
        game, parents, list(range(11, 11 + len(parents)))
    )
    k = len(parents)
    assert cols.untried_mask[k : k + len(pass_only)].tolist() == [
        [0, 1]
    ] * len(pass_only)
    assert cols.untried_order[2 * k - 1, 0] == 2  # c1


@pytest.mark.parametrize("game_name", GAMES)
@pytest.mark.parametrize("k", [1, 2, 97])
def test_rows_share_nothing(game_name, k):
    """The same position expanded ``k`` times side by side (each row a
    tree of its own) equals ``k`` separate one-row calls."""
    game = make_game(game_name)
    parents = [_walk(game, 6, seed=3)] * k
    words = [1000 + i for i in range(k)]
    together = _check_against_scalar_game(game, parents, words)
    for i in range(0, k, max(1, k // 3)):
        alone = _check_against_scalar_game(game, [parents[i]], [words[i]])
        assert (
            alone.untried_order[1].tolist()
            == together.untried_order[k + i].tolist()
        )


def _illegal_rows(game_name):
    """``(state, move)`` pairs ``game.apply`` raises on, one per way a
    move can be wrong."""
    game = make_game(game_name)
    state, _ = _walk(game, 4, seed=1)
    rows = [(state, game.num_moves), (state, 255)]
    if game_name == "connect4":
        while 0 in game.legal_moves(state):  # alternating discs: no four
            state = game.apply(state, 0)
        assert 0 not in game.legal_moves(state)
        assert not game.is_terminal(state)
        return game, rows + [(state, 0)]  # a full column
    p1, p2 = game.zobrist_planes(state)
    occupied = next(sq for sq in range(64) if (p1 | p2) >> sq & 1)
    rows.append((state, occupied))
    if game_name == "reversi":
        rows.append((state, PASS_MOVE))  # passing with a move available
        flips_nothing = next(
            sq
            for sq in range(64)
            if sq not in game.legal_moves(state) and not (p1 | p2) >> sq & 1
        )
        rows.append((state, flips_nothing))
    return game, rows


@pytest.mark.parametrize("game_name", GAMES)
def test_illegal_moves_are_rejected_before_any_write(game_name):
    """A move ``game.apply`` raises on makes the call return that
    row's number; rows before it are done, it and later rows are
    untouched."""
    game, rows = _illegal_rows(game_name)
    good = _walk(game, 5, seed=2)
    for state, move in rows:
        with pytest.raises(ValueError):
            game.apply(state, move)
        cols = _columns(game, [good, (state, move), good], [5, 6, 7])
        # ``_columns`` lists the move last even though it is illegal.
        assert cols.untried_order[1, cols.untried_count[1] - 1] == move
        virgin = _columns(game, [good, (state, move), good], [5, 6, 7])
        rc = expand_compiled(
            _kernel(game_name), ArenaColumns.of(cols), _rows(3)
        )
        assert rc == 2
        assert cols.parent[3] == 0 and cols.child_count[0] == 1
        for name in ("parent", "untried_count", "plane1", "untried_order"):
            got, want = getattr(cols, name), getattr(virgin, name)
            assert got[[1, 2, 4, 5]].tolist() == want[[1, 2, 4, 5]].tolist()
        assert cols.rng_state[1:].tolist() == [6, 7]


@pytest.mark.parametrize("game_name", GAMES)
def test_out_of_range_rows_are_refused(game_name):
    game = make_game(game_name)
    parent = _walk(game, 3, seed=4)
    kernel = _kernel(game_name)
    for bad in ([[5], [1], [0], [1]], [[0], [2], [0], [1]],
                [[0], [1], [1], [1]], [[1], [0], [0], [1]]):
        cols = _columns(game, [parent], [9])
        with pytest.raises(ValueError, match="outside the arena"):
            expand_compiled(
                kernel, ArenaColumns.of(cols), np.array(bad, dtype=np.int64)
            )
    cols = _columns(game, [parent], [9])
    with pytest.raises(TypeError, match="4 x k"):
        expand_compiled(kernel, ArenaColumns.of(cols), _rows(1).T)
    cols.untried_order = cols.untried_order[:, :-1].copy()
    cols.order_width -= 1
    with pytest.raises(ValueError, match="row widths"):
        expand_compiled(kernel, ArenaColumns.of(cols), _rows(1))
    cols.plane1 = cols.plane1.astype(np.int64)
    with pytest.raises(TypeError, match="plane1"):
        ArenaColumns.of(cols)
    # A column the kernels could not write is refused too.
    cols = _columns(game, [parent], [9])
    cols.visits.setflags(write=False)
    with pytest.raises(TypeError, match="not writable"):
        ArenaColumns.of(cols)
