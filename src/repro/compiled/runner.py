"""The compiled playout executor's three entries (docs/fusion.md,
"Launch entry"), and the tree arena's kernels.

:func:`block_compiled` is the virtual GPU's entry: ``k`` positions x
``lanes_per_state`` lanes each on the *caller's* generator -- winners,
scores and finish steps out, and the same side effect on the caller's
:class:`BatchXorShift128Plus` as the NumPy lockstep driver has (its
lanes end advanced exactly as far as the lockstep loop would have
advanced them before the first compaction) -- with the perspective swap
and the terminal-at-entry test done in C, once per position.  The NumPy
composition (:func:`repro.core.executors.launch_block_numpy`) is its
oracle.

:func:`launch_compiled` is the one-call entry for a *fresh* lane family
over a list of states: positions and a lane-seed range in, winners and
finish steps out, with the lane seeding done in C as well.  Its oracle
is :func:`repro.core.executors.launch_numpy`.

:func:`run_playouts_tracked_compiled` is the bit-identical drop-in for
:func:`repro.games.batch.run_playouts_tracked` on an already built
batch object; the benchmark ladder and ``tests/compiled/test_runner.py``
call it, the product no longer does.

Environments without a C toolchain silently fall back to the NumPy path
(nothing the user can act on); a game *without a compiled kernel*
(breakthrough -- see the known-gaps note in docs/fusion.md) also falls
back, but warns once per game so an ``@compiled`` spec never silently
runs slower than asked.  The differential suites pin the equivalence
either way.

The same library carries the tree arena's kernels: descent + expansion
and backprop over :class:`ArenaColumns` (:func:`select_expand_compiled`,
:func:`backprop_compiled`, :func:`backprop_winners_compiled`), and the
bare expansion step they share (:func:`expand_kernel`,
:func:`expand_compiled`).  Nobody asks for those -- the arena uses them
whenever they exist -- so a game without them falls back silently.
"""

from __future__ import annotations

import ctypes
import warnings

import numpy as np

from repro.compiled.build import load_library, lazy_export
from repro.games.batch import (
    COMPACT_THRESHOLD,
    MIN_COMPACT_SIZE,
    BatchGame,
    Positions,
    TrackedPlayouts,
    run_playouts_tracked,
)
from repro.rng import BatchXorShift128Plus
from repro.util.seeding import derive_seed

#: Games with a compiled kernel; everything else uses the NumPy path.
COMPILED_GAMES = frozenset({"reversi", "tictactoe", "connect4"})

#: Games already warned about missing a compiled kernel (warn once
#: per game per process, not once per launch).
_WARNED_GAMES: set[str] = set()


def compiled_available() -> bool:
    """Is the compiled kernel library loadable right now?"""
    return load_library() is not None


def _playout_library(game_name: str):
    """The library when it can play ``game_name``, else ``None``:
    silently without a toolchain, with a warning (once per game) for a
    game without a kernel -- the caller asked for ``@compiled`` and is
    getting the NumPy driver instead.  Looked up per call: a test that
    sets ``REPRO_COMPILED`` resets the library cache."""
    lib = load_library()
    if game_name in COMPILED_GAMES:
        return lib
    if game_name not in _WARNED_GAMES:
        _WARNED_GAMES.add(game_name)
        warnings.warn(
            f"no compiled playout kernel for {game_name!r}; "
            f"@compiled degrades to the NumPy driver "
            f"(bit-identical results, no speedup -- see "
            f"docs/fusion.md)",
            RuntimeWarning,
            stacklevel=3,
        )
    return None


_addressof = ctypes.addressof
_from_buffer = ctypes.c_char.from_buffer


def _address(array: np.ndarray, written: bool = True) -> int:
    """The address of ``array``'s first byte, to hand a kernel.

    ``addressof(c_char.from_buffer(array))`` costs a third of
    ``array.ctypes.data`` (0.40 vs 1.33 us) and raises ``TypeError`` on a
    read-only array -- the right answer for a buffer a kernel *writes*:
    the arena's columns, the tree kernels' per-call rows, a launch's two
    outputs.  With ``written=False`` -- a launch's three input columns,
    which a caller may hand in read-only -- such an array keeps
    ``ctypes.data`` instead.  The array must not be empty."""
    try:
        return _addressof(_from_buffer(array))
    except TypeError:
        if written:
            raise
        return array.ctypes.data


def _too_long(game: BatchGame) -> RuntimeError:
    return RuntimeError(
        f"{game.name} playout exceeded max_game_length="
        f"{game.max_game_length}; engine bug"
    )


def run_playouts_tracked_compiled(
    game: BatchGame,
    batch,
    rng: BatchXorShift128Plus,
    compact_threshold: float = COMPACT_THRESHOLD,
    min_compact_size: int = MIN_COMPACT_SIZE,
) -> TrackedPlayouts:
    """Drive a batch to completion through the compiled kernel.

    Falls back to :func:`run_playouts_tracked` (identical results by
    contract) when the library is unavailable or the game has no
    kernel (:func:`_playout_library`).
    """
    lib = _playout_library(game.name)
    if lib is None:
        return run_playouts_tracked(
            game,
            batch,
            rng,
            compact_threshold=compact_threshold,
            min_compact_size=min_compact_size,
        )

    n = len(batch)
    n_rng, s0, s1 = rng.getstate()
    if n_rng != n:
        raise ValueError(
            f"rng has {n_rng} lanes for a {n}-lane batch"
        )
    # The kernels write every lane of the three outputs.
    winners = np.empty(n, dtype=np.int8)
    scores = np.empty(n, dtype=np.int16)
    finish = np.empty(n, dtype=np.int64)
    to_move = np.ascontiguousarray(batch.to_move, dtype=np.int8)
    done = np.ascontiguousarray(batch.done, dtype=np.uint8)

    # Arrays cross as raw addresses (argtypes are c_void_p); the locals
    # above and below keep every converted copy alive across the call.
    common = (
        _address(s0),
        _address(s1),
        _address(winners),
        _address(scores),
        _address(finish),
        game.max_game_length,
        min_compact_size,
        compact_threshold,
    )
    if game.name == "reversi":
        kernel = lib.repro_reversi_playouts
        fields = (
            np.ascontiguousarray(batch.own, dtype=np.uint64),
            np.ascontiguousarray(batch.opp, dtype=np.uint64),
            to_move,
            np.ascontiguousarray(batch.passed, dtype=np.uint8),
            done,
        )
    elif game.name == "tictactoe":
        kernel = lib.repro_tictactoe_playouts
        fields = (
            np.ascontiguousarray(batch.x, dtype=np.uint64),
            np.ascontiguousarray(batch.o, dtype=np.uint64),
            to_move,
            done,
        )
    else:  # connect4
        kernel = lib.repro_connect4_playouts
        fields = (
            np.ascontiguousarray(batch.p1, dtype=np.uint64),
            np.ascontiguousarray(batch.p2, dtype=np.uint64),
            to_move,
            done,
        )
    rc = kernel(n, *(_address(field, False) for field in fields), *common)
    if rc == -1:
        raise _too_long(game)
    if rc != 0:
        raise MemoryError("compiled playout kernel allocation failed")
    rng.setstate((n, s0, s1))
    return TrackedPlayouts(
        winners=winners, scores=scores, finish_steps=finish
    )


#: ``launch_compiled``'s input columns -- the states' two planes and
#: sides to move -- written and read inside one call, so launches (of
#: any game) can share them; grown geometrically, never per launch.
_staged_planes = np.zeros((2, 0), dtype=np.uint64)
_staged_to_move = np.zeros(0, dtype=np.int8)


def _position_count(
    plane1: np.ndarray, plane2: np.ndarray, to_move: np.ndarray
) -> int:
    """How many positions a launch's three input columns hold: the
    columns' own length, so a kernel cannot be told to read past them.
    Refuses any that is not the array the kernels read."""
    n = to_move.shape[0]
    for column, dtype in (
        (plane1, np.uint64), (plane2, np.uint64), (to_move, np.int8)
    ):
        if (
            column.dtype != dtype
            or column.shape != (n,)
            or not column.flags.c_contiguous
        ):
            raise TypeError(
                f"launch column {column.dtype}{column.shape} is not the "
                f"contiguous {np.dtype(dtype)}({n},) the kernel reads"
            )
    return n


def launch_columns(
    kernel,
    game: BatchGame,
    plane1: np.ndarray,
    plane2: np.ndarray,
    to_move: np.ndarray,
    family_seed: int,
    lo: int = 0,
) -> tuple[np.ndarray, np.ndarray]:
    """The kernel half of :func:`launch_compiled`: one playout per
    position ``(plane1[i], plane2[i], to_move[i])`` (absolute colours,
    as the tree arena's columns hold them) on lane ``lo + i`` of
    ``family_seed``'s stream family, through ``kernel``, the game's
    ``repro_<game>_launch`` export.  The two outputs are fresh arrays."""
    n = _position_count(plane1, plane2, to_move)
    # Lane indices cross into C as ``int64``: refuse what would wrap.
    if lo < 0 or lo + n > 2**63:
        raise ValueError(
            f"need a lane range inside [0, 2**63), got [{lo}, {lo + n})"
        )
    # The kernel writes every lane of both outputs.
    winners = np.empty(n, dtype=np.int8)
    finish = np.empty(n, dtype=np.int64)
    if n == 0:
        return winners, finish
    rc = kernel(
        n, _address(plane1, False), _address(plane2, False),
        _address(to_move, False), derive_seed(family_seed), lo,
        _address(winners), _address(finish), game.max_game_length,
    )
    if rc:
        raise _too_long(game)
    return winners, finish


def launch_compiled(
    game: BatchGame, states, family_seed: int, lo: int = 0
) -> tuple[np.ndarray, np.ndarray]:
    """One playout per state on lanes ``[lo, lo + len(states))`` of
    ``family_seed``'s stream family: ``(winners, finish_steps)``, equal
    lane for lane to :func:`repro.core.executors.launch_numpy` -- which
    also runs when there is nothing to launch, no library or no kernel
    for the game.

    ``states`` is a sequence of states or a :class:`Positions`.  The
    three compiled games' states *are* their ``(plane1, plane2,
    to_move)`` triples (what ``Game.state_from_planes`` builds), so
    staging a sequence is three column copies into buffers the call
    does not keep; a :class:`Positions` brings (and keeps) its own.
    """
    global _staged_planes, _staged_to_move
    n = len(states)
    lib = _playout_library(game.name) if n else None
    if lib is None:
        # Imported here: ``repro.core`` imports this module.
        from repro.core.executors import launch_numpy

        return launch_numpy(game, states, family_seed, lo)
    if isinstance(states, Positions):
        plane1, plane2, to_move = states.columns()
    else:
        if _staged_to_move.shape[0] < n:
            room = max(n, 2 * _staged_to_move.shape[0])
            _staged_planes = np.zeros((2, room), dtype=np.uint64)
            _staged_to_move = np.zeros(room, dtype=np.int8)
        plane1, plane2 = _staged_planes[:, :n]
        to_move = _staged_to_move[:n]
        plane1[:], plane2[:], to_move[:] = zip(*states)
    kernel = lazy_export(lib, "launch", game.name)
    return launch_columns(
        kernel, game, plane1, plane2, to_move, family_seed, lo
    )


def block_columns(
    kernel,
    game: BatchGame,
    plane1: np.ndarray,
    plane2: np.ndarray,
    to_move: np.ndarray,
    lanes_per_state: int,
    rng: BatchXorShift128Plus,
) -> TrackedPlayouts:
    """The kernel half of :func:`block_compiled`: ``lanes_per_state``
    playouts per position ``(plane1[i], plane2[i], to_move[i])``
    (absolute colours), lanes ``[i * lanes_per_state, (i + 1) *
    lanes_per_state)`` of ``rng`` playing position ``i``, through
    ``kernel``, the game's ``repro_<game>_block`` export.  ``rng`` is
    left where :func:`run_playouts_tracked` would leave it -- or
    untouched, when the launch is refused or fails."""
    k = _position_count(plane1, plane2, to_move)
    if lanes_per_state <= 0:
        raise ValueError(
            f"lanes_per_state must be positive, got {lanes_per_state}"
        )
    # Lane counts cross into C as ``int64``: refuse what would wrap.
    n = k * lanes_per_state
    if n >= 2**63:
        raise ValueError(
            f"{k} positions x {lanes_per_state} lanes do not fit int64"
        )
    n_rng, s0, s1 = rng.getstate()
    if n_rng != n:
        raise ValueError(
            f"rng has {n_rng} lanes for a {k} x {lanes_per_state}-lane "
            f"launch"
        )
    # The kernel writes every lane of the three outputs.
    winners = np.empty(n, dtype=np.int8)
    scores = np.empty(n, dtype=np.int16)
    finish = np.empty(n, dtype=np.int64)
    rc = kernel(
        k, _address(plane1, False), _address(plane2, False),
        _address(to_move, False), lanes_per_state, _address(s0),
        _address(s1), _address(winners), _address(scores),
        _address(finish), game.max_game_length, MIN_COMPACT_SIZE,
        COMPACT_THRESHOLD,
    )
    if rc == -1:
        raise _too_long(game)
    if rc != 0:
        raise MemoryError("compiled playout kernel allocation failed")
    rng.setstate((n, s0, s1))
    return TrackedPlayouts(
        winners=winners, scores=scores, finish_steps=finish
    )


def block_compiled(
    game: BatchGame,
    positions: Positions,
    lanes_per_state: int,
    rng: BatchXorShift128Plus,
) -> TrackedPlayouts:
    """``lanes_per_state`` playouts per position on the caller's
    ``len(positions) * lanes_per_state`` wide generator: outcomes and
    generator state equal lane for lane to
    :func:`repro.core.executors.launch_block_numpy` -- which also runs
    when there is no library or no kernel for the game."""
    lib = _playout_library(game.name)
    if lib is None:
        # Imported here: ``repro.core`` imports this module.
        from repro.core.executors import launch_block_numpy

        return launch_block_numpy(game, positions, lanes_per_state, rng)
    kernel = lazy_export(lib, "block", game.name)
    return block_columns(
        kernel, game, *positions.columns(), lanes_per_state, rng
    )


def _tree_library(game_name: str):
    """The library when it holds tree kernels for ``game_name``, else
    ``None`` (never warns: compiled tree work is not something a spec
    requests)."""
    lib = load_library()
    if lib is None or game_name not in COMPILED_GAMES:
        return None
    return lib


def expand_kernel(game_name: str):
    """The library's ``repro_<game>_expand`` export -- one expansion
    step per row, the part of a round ``tests/compiled/test_expand.py``
    checks on hand-built columns -- or ``None`` without a library or a
    kernel for the game."""
    lib = _tree_library(game_name)
    return None if lib is None else lazy_export(lib, "expand", game_name)


class ArenaColumns(ctypes.Structure):
    """``arena_t`` of ``playout.c``: the addresses of the tree arena's
    columns, taken once per (re)allocation.  :meth:`of` checks every
    array's dtype, shape and contiguity against what the C side reads,
    so the kernel never sees a layout it was not compiled for.

    It also owns the per-call buffers of the tree kernels, one slot per
    tree, each beside its address ``<name>_at``, so a round builds no
    array and takes no address: the ``_ARGUMENT_ROWS`` and ``stats``
    (float64, 3 rows) cross as call arguments; the ``_ROUND_ROWS`` a
    select round fills beside ``leaves`` / ``depths`` ride in the
    struct.
    """

    #: ``(attribute, dtype, row-count attribute, row-width attribute)``
    #: in ``arena_t`` field order.
    _LAYOUT = (
        ("parent", np.int64, "capacity", None),
        ("move", np.int32, "capacity", None),
        ("mover", np.int8, "capacity", None),
        ("to_move", np.int8, "capacity", None),
        ("terminal", np.bool_, "capacity", None),
        ("winner", np.int8, "capacity", None),
        ("child_count", np.int32, "capacity", None),
        ("n_legal", np.int32, "capacity", None),
        ("untried_count", np.int32, "capacity", None),
        ("untried_mask", np.uint64, "capacity", "mask_words"),
        ("plane1", np.uint64, "capacity", None),
        ("plane2", np.uint64, "capacity", None),
        ("untried_order", np.uint8, "capacity", "order_width"),
        ("rng_state", np.uint64, "n_trees", None),
        ("tree_node_count", np.int64, "n_trees", None),
        ("tree_max_depth", np.int64, "n_trees", None),
        ("roots", np.int64, "n_trees", None),
        ("visits", np.float64, "capacity", None),
        ("wins", np.float64, "capacity", None),
        ("vloss", np.float64, "capacity", None),
        ("child_start", np.int64, "capacity", None),
    )
    _SIZES = ("capacity", "n_trees", "mask_words", "order_width")
    #: ``(attribute, dtype)`` of the rows that cross as call arguments.
    _ARGUMENT_ROWS = (
        ("trees", np.int64),
        ("leaves", np.int64),
        ("depths", np.int64),
        ("winners", np.float64),
    )
    #: ``(attribute, dtype)`` of the rows a select round writes for the
    #: caller -- row ``i``'s leaf position and terminal flag -- and its
    #: ``seen`` scratch, in ``arena_t`` field order (fields ``<name>_at``).
    _ROUND_ROWS = (
        ("leaf_plane1", np.uint64),
        ("leaf_plane2", np.uint64),
        ("leaf_to_move", np.int8),
        ("leaf_terminal", np.bool_),
        ("seen", np.uint8),
    )
    _fields_ = (
        [(name, ctypes.c_void_p) for name, *_ in _LAYOUT]
        + [(name, ctypes.c_int64) for name in _SIZES]
        + [
            # Set per call / per arena by the tree kernels' caller.
            ("allocated", ctypes.c_int64),
            ("ucb_c", ctypes.c_double),
            ("wuct", ctypes.c_int64),
        ]
        + [(name + "_at", ctypes.c_void_p) for name, _ in _ROUND_ROWS]
    )

    @classmethod
    def of(cls, arena) -> "ArenaColumns":
        cols = cls()
        cols.take_columns(arena)
        n = arena.n_trees
        for name, dtype in cls._ARGUMENT_ROWS + cls._ROUND_ROWS:
            row = np.zeros(n, dtype=dtype)
            setattr(cols, name, row)
            setattr(cols, name + "_at", _address(row))
        cols.stats = np.zeros((3, n), dtype=np.float64)
        cols.stats_at = tuple(_address(row) for row in cols.stats)
        cols._at = ctypes.addressof(cols)
        return cols

    def take_columns(self, arena) -> None:
        """Check ``arena``'s columns and take their addresses -- again
        when the arena regrew: the per-call rows and everything
        :meth:`bind` resolved stay as they are."""
        sizes = {name: getattr(arena, name) for name in self._SIZES}
        for name, size in sizes.items():
            setattr(self, name, size)
        # The struct holds bare addresses: keep the arrays alive with it.
        self.arrays = arrays = []
        for name, dtype, rows, width in self._LAYOUT:
            array = getattr(arena, name)
            shape = (sizes[rows],)
            if width is not None:
                shape += (sizes[width],)
            if (
                array.dtype != dtype
                or array.shape != shape
                or not array.flags.c_contiguous
            ):
                raise TypeError(
                    f"arena column {name}: {array.dtype}{array.shape} is "
                    f"not the contiguous {np.dtype(dtype)}{shape} the "
                    f"tree kernels read"
                )
            arrays.append(array)
            setattr(self, name, _address(array))

    def take_policy(self, arena) -> None:
        """``arena``'s selection policy, as the kernels read it -- again
        when a reopened arena starts a session under another one."""
        self.ucb_c = arena.ucb_c
        self.wuct = arena.parallel_mode == "wuct"

    @classmethod
    def bind(cls, arena) -> "ArenaColumns | None":
        """:meth:`of` ``arena``, plus its selection policy and its
        game's tree kernels: everything a compiled round needs,
        resolved once.  ``None`` without a library or kernels for the
        game."""
        lib = _tree_library(arena.game.name)
        if lib is None:
            return None
        cols = cls.of(arena)
        cols.take_policy(arena)
        cols.select_expand = lazy_export(lib, "select_expand", arena.game.name)
        cols.select_expand_many = lazy_export(
            lib, "select_expand_many", arena.game.name
        )
        cols.backprop = lazy_export(lib, "backprop")
        cols.backprop_winners = lazy_export(lib, "backprop_winners")
        return cols


def expand_compiled(kernel, cols: ArenaColumns, rows: np.ndarray) -> int:
    """One kernel call over ``rows``, an int64 ``4 x k`` matrix: row
    ``i`` expands node ``rows[0, i]`` into slot ``rows[1, i]`` for tree
    ``rows[2, i]`` at depth ``rows[3, i]`` (``expand_rows`` in
    ``playout.c``).  Returns 0, or ``i + 1`` when row ``i`` holds a
    move the scalar game's ``apply`` rejects."""
    if (
        rows.dtype != np.int64
        or rows.ndim != 2
        or rows.shape[0] != 4
        or not rows.flags.c_contiguous
    ):
        raise TypeError("expansion rows must be a contiguous int64 4 x k")
    return _checked(kernel(rows.shape[1], rows.ctypes.data, cols._at))


def _checked(rc: int) -> int:
    if rc == -1:
        raise ValueError("arena row widths do not fit the game's moves")
    if rc == -2:
        raise ValueError(
            "a row's tree, node, child slot, child span or untried count "
            "is outside the arena"
        )
    return rc


def _check_rows(cols: ArenaColumns, k: int) -> None:
    if not 0 <= k <= len(cols.trees):
        raise ValueError(
            f"{k} rows do not fit the {len(cols.trees)}-tree call buffers "
            f"(one row per distinct tree)"
        )


def distinct_trees_error(rows, n_trees: int) -> ValueError:
    """What a round over ``rows`` -- a repeated tree, or one outside
    the arena -- is refused with, by the kernel and by the Python
    bodies of both stores alike."""
    return ValueError(
        f"rows {np.asarray(rows).tolist()} for {n_trees} trees: a round "
        f"takes distinct trees, none outside the arena"
    )


def distinct_trees(indices, n_trees: int) -> list[int]:
    """``indices`` as a list of ints, after the check the select kernel
    makes on its rows: distinct trees, none outside ``[0, n_trees)``."""
    trees = np.asarray(indices, dtype=np.int64).tolist()
    if len(set(trees)) != len(trees) or not all(
        0 <= t < n_trees for t in trees
    ):
        raise distinct_trees_error(trees, n_trees)
    return trees


#: ``BAD_TREES`` of ``playout.c``.
_BAD_TREES = -(2**63)


def select_expand_compiled(
    cols: ArenaColumns, k: int, loop: "RootLoop | None" = None
) -> int:
    """One descent + expansion round (``select_expand_rows`` in
    ``playout.c``) over the trees ``cols.trees[:k]``, with
    ``cols.allocated`` the arena's allocation cursor.  Returns 0 --
    ``cols.leaves[:k]`` / ``cols.depths[:k]`` hold each tree's leaf and
    depth, the ``cols.leaf_*`` rows the leaf's position and terminal
    flag, ``cols.allocated`` has moved past the reserved spans; or the
    capacity the round needs, with the arena untouched (grow it and call
    again); or ``-3 - i`` when row ``i`` pops a move the scalar game's
    ``apply`` rejects (``cols.leaves[i]`` is then ``~node``).  Trees
    that are not distinct trees of the arena are a ``ValueError`` with
    nothing written.

    Given a ``loop``, the call runs that select loop instead
    (``root_loop`` in ``playout.c``), ``k`` rows its room: 0 leaves its
    ``loop.rows`` playout rows first in ``cols.trees`` / ``leaves`` /
    ``depths`` / ``leaf_*``; a capacity need leaves the sub-rounds before
    it done, and the same call after growing resumes the loop."""
    _check_rows(cols, k)
    rc = cols.select_expand(
        k, cols.trees_at, cols._at, cols.leaves_at, cols.depths_at,
        None if loop is None else loop._at,
    )
    if rc == _BAD_TREES:
        raise distinct_trees_error(cols.trees[:k], cols.n_trees)
    return _checked(rc)


class RootLoop(ctypes.Structure):
    """``root_loop_t`` of ``playout.c``: a ``root:N`` session's select
    loop, which a select kernel runs to the session's next playout
    demand (``RootRound`` in :mod:`repro.core.rounds` is its Python
    body).  It owns the trees' core clocks and iteration counts as
    columns (``clock``, ``iters``) and holds the table of
    ``iteration_time(depth, 0)`` a terminal leaf is charged, by depth
    (``terminal_time``), each beside its address ``<name>_at``.
    The caller sets ``once`` and zeroes ``sub_rounds`` / ``iterations``;
    the kernel adds to them and sets ``rows``."""

    _fields_ = (
        ("clock_at", ctypes.c_void_p),
        ("iters_at", ctypes.c_void_p),
        ("n_trees", ctypes.c_int64),
        ("terminal_time_at", ctypes.c_void_p),
        ("depths", ctypes.c_int64),
        ("budget", ctypes.c_double),
        ("cap", ctypes.c_double),
        ("once", ctypes.c_int64),
        ("sub_rounds", ctypes.c_int64),
        ("iterations", ctypes.c_int64),
        ("rows", ctypes.c_int64),
    )

    @classmethod
    def of(
        cls,
        n_trees: int,
        budget: float,
        cap: float,
        terminal_time: np.ndarray,
    ) -> "RootLoop":
        if (
            terminal_time.dtype != np.float64
            or terminal_time.ndim != 1
            or not terminal_time.flags.c_contiguous
        ):
            raise TypeError("the terminal-time table must be float64 rows")
        loop = cls()
        loop.clock = np.zeros(n_trees, dtype=np.float64)
        loop.iters = np.zeros(n_trees, dtype=np.int64)
        # The struct holds bare addresses: keep the arrays alive with it.
        loop.terminal_time = terminal_time
        loop.clock_at = _address(loop.clock)
        loop.iters_at = _address(loop.iters)
        loop.n_trees = n_trees
        loop.terminal_time_at = terminal_time.ctypes.data
        loop.depths = len(terminal_time)
        loop.budget = budget
        loop.cap = cap
        loop._at = ctypes.addressof(loop)
        return loop


def backprop_compiled(cols: ArenaColumns, k: int, simulations: float) -> None:
    """Add ``simulations`` visits, and ``cols.stats[:, i]`` (black wins,
    white wins, draws), along the path from each ``cols.leaves[i]``,
    ``i < k``, to its root (``repro_backprop``); negative leaves are
    skipped."""
    _check_rows(cols, k)
    _checked(
        cols.backprop(
            k, cols.leaves_at, simulations, *cols.stats_at, cols._at
        )
    )


def backprop_winners_compiled(cols: ArenaColumns, k: int) -> None:
    """One playout's outcome per leaf (``repro_backprop_winners``): a
    visit along the path from each ``cols.leaves[i]``, ``i < k``, and the
    win ``cols.winners[i]`` names -- 1 black's, -1 white's, 0 half a win
    each, anything else none."""
    _check_rows(cols, k)
    _checked(
        cols.backprop_winners(
            k, cols.leaves_at, cols.winners_at, cols._at
        )
    )


class TenantRows:
    """The rows of the many-arena tree kernels
    (``repro_<game>_select_expand_many``, ``repro_backprop_winners_many``):
    per tenant its arena's ``arena_t`` address, its first row
    (``bounds``, one entry more than tenants) and its select loop's
    ``root_loop_t`` address (``loops``, 0 for none), per row its tree, leaf,
    depth, leaf position, terminal flag and winner.  Grown
    geometrically and reused -- a call allocates nothing -- with every
    address taken when (re)allocated, beside it as ``<name>_at``."""

    _TENANT_ROWS = (
        ("arenas", np.uint64),
        ("bounds", np.int64),
        ("loops", np.uint64),
    )
    _ROWS = (
        ("trees", np.int64),
        ("leaves", np.int64),
        ("depths", np.int64),
        ("plane1", np.uint64),
        ("plane2", np.uint64),
        ("to_move", np.int8),
        ("terminal", np.bool_),
        ("winners", np.float64),
    )

    def __init__(self) -> None:
        #: The kernels' answer slot: the first tenant not done.
        self.at = np.zeros(1, dtype=np.int64)
        self.at_at = _address(self.at)
        self._allocate(16, 64)

    def _allocate(self, tenants: int, rows: int) -> None:
        self.tenants, self.rows = tenants, rows
        for name, dtype in self._TENANT_ROWS:
            array = np.zeros(tenants + 1, dtype=dtype)
            setattr(self, name, array)
            setattr(self, name + "_at", _address(array))
        for name, dtype in self._ROWS:
            array = np.zeros(rows, dtype=dtype)
            setattr(self, name, array)
            setattr(self, name + "_at", _address(array))

    def reserve(self, tenants: int, rows: int) -> None:
        """Room for ``tenants`` tenants and ``rows`` rows."""
        if tenants > self.tenants or rows > self.rows:
            self._allocate(
                max(tenants, 2 * self.tenants), max(rows, 2 * self.rows)
            )


def select_expand_many_compiled(
    kernel, rows: TenantRows, first: int, n: int
) -> tuple[int, int]:
    """``*_select_expand_many`` over tenants ``[first, n)`` of ``rows``:
    tenant ``j``'s round walks ``rows.trees[bounds[j]:bounds[j + 1]]`` of
    the arena at ``rows.arenas[j]``, each arena's ``allocated`` set --
    or runs the select loop at ``rows.loops[j]`` in those rows, as
    :func:`select_expand_compiled` runs one.
    Returns ``(code, at)``: ``(0, n)`` with every tenant's leaf, depth,
    leaf position and terminal flag in its rows; otherwise tenants before
    ``at`` are done and the code is ``select_expand_compiled``'s for
    tenant ``at``'s round (a positive one: grow that arena, call again
    from ``at``).  Bad bounds or arenas, or rows that are not distinct
    trees of their arenas, refuse every tenant from ``first`` on before
    anything is written."""
    rc = kernel(
        n - first,
        rows.arenas_at + 8 * first,
        rows.bounds_at + 8 * first,
        rows.trees_at,
        rows.leaves_at,
        rows.depths_at,
        rows.plane1_at,
        rows.plane2_at,
        rows.to_move_at,
        rows.terminal_at,
        rows.loops_at + 8 * first,
        rows.at_at,
    )
    return rc, first + rows.at.item(0)


def backprop_winners_many_compiled(rows: TenantRows, n: int) -> None:
    """``repro_backprop_winners_many`` over the first ``n`` tenants of
    ``rows``: tenant ``j``'s leaves ``rows.leaves[bounds[j]:bounds[j +
    1]]`` of the arena at ``rows.arenas[j]`` (each arena's
    ``allocated`` set), each credited the outcome in ``rows.winners``.
    A missing arena, a bad bound or a leaf outside its allocation is a
    ``ValueError`` with nothing written."""
    _checked(
        lazy_export(load_library(), "backprop_winners_many")(
            n,
            rows.arenas_at,
            rows.bounds_at,
            rows.leaves_at,
            rows.winners_at,
            rows.at_at,
        )
    )
