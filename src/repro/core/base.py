"""Engine base class and the playout-executor seam.

Every engine kind but ``multigpu`` (whose MPI ranks vote over block
engines) is a *round policy* (:mod:`repro.core.rounds`): a round
selects the leaves whose playouts it needs, an *executor* answers
them, and the round backs the answers up.  That seam lets

* ``search()`` / ``resume()`` run standalone (``run_rounds`` over the
  one session): a CPU kind on a :class:`BatchExecutor`, a GPU kind
  (:class:`GpuEngine`) on its own ``VirtualGpu``; and
* the arena and the search service advance many CPU engines' rounds
  in lockstep (:meth:`Engine.open_round`), merging their playout
  requests into one call (how a 1-core-per-player tournament stays
  tractable on one machine).

A CPU playout draws from its session's stream and from nothing else:
call ``k`` of a session plays lanes ``0..n-1`` of
``SeedLadder(playout_seed, "playout").seed(k)``, the session seed
coming from the engine seed and its session count.  Where the call
runs, and what it is merged with, never shows in its answers.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.cpu import XEON_X5670, CpuCostModel
from repro.games.base import Game, GameState
from repro.core.backend import (
    default_stack,
    make_forest,
    restore_forest,
    snapshot_forest,
)
from repro.compiled import COMPILED_GAMES
from repro.core.executors import playout_active, playout_launcher
from repro.core.checkpoint import (
    CHECKPOINT_FORMAT_VERSION,
    CheckpointError,
    EngineSnapshot,
)
from repro.core.policy import MAX_VISITS, select_move
from repro.core.results import SearchResult
from repro.core.rounds import Round, run_rounds
from repro.core.tree import (
    aggregate_stat_dicts,
    majority_vote_stat_dicts,
    trimmed_vote_stat_dicts,
)
from repro.games import make_batch_game
from repro.gpu import TESLA_C2050, LaunchConfig, VirtualGpu
from repro.integrity.engine import IntegrityState
from repro.rng import XorShift128PlusLane, XorShift64Star
from repro.util.clock import Clock
from repro.util.profile import NULL_PROFILER, Profiler
from repro.util.seeding import derive_seed

#: What a round requests: leaf states needing one playout each.
PlayoutBatch = Sequence[GameState]
#: What it is answered: per-state ``(absolute winner, plies)``.
PlayoutResults = Sequence[tuple[int, int]]
#: What an executor is asked: one ``(family seed, states)`` segment per
#: session, lane ``i`` of the family playing ``states[i]``.
Segments = Sequence[tuple[int, PlayoutBatch]]

#: Root-vote modes of the multi-tree engines (``vote=`` / ``@vote=``).
VOTE_MODES = ("sum", "majority", "trimmed")


def validate_vote(vote: str) -> str:
    """Return ``vote`` if supported, raise ``ValueError`` otherwise."""
    if vote not in VOTE_MODES:
        raise ValueError(
            f"unknown vote mode {vote!r}; available: {VOTE_MODES}"
        )
    return vote


class Engine:
    """Common engine state: game, clock, RNG, cost model, UCB constant."""

    #: Short identifier used in reports ("sequential", "block", ...).
    name: str = "engine"
    #: Fault injector and integrity policy; the engines that take
    #: ``injector=`` / ``integrity=`` set them, the rest run unguarded.
    injector = None
    integrity = None
    #: The engine's private virtual device (GPU engines only).
    gpu: "VirtualGpu | None" = None
    #: Root-vote mode; the engines that take ``vote=`` set it.
    vote: str = "sum"
    #: The kind's round logic (:mod:`repro.core.rounds`); every kind
    #: but ``multigpu`` sets it.
    round_policy: "type[Round] | None" = None

    def __init__(
        self,
        game: Game,
        seed: int,
        ucb_c: float = 1.0,
        cost_model: CpuCostModel = XEON_X5670,
        clock: Clock | None = None,
        final_policy: str = MAX_VISITS,
        max_iterations: int | None = None,
        backend: str | None = None,
        playout: str | None = None,
        profiler: Profiler | None = None,
    ) -> None:
        if max_iterations is not None and max_iterations <= 0:
            raise ValueError(
                f"max_iterations must be positive: {max_iterations}"
            )
        backend, playout = default_stack(game.name, backend, playout)
        self.game = game
        self.seed = seed
        self.ucb_c = ucb_c
        self.cost = cost_model
        self.clock = clock if clock is not None else Clock()
        self.final_policy = final_policy
        self.max_iterations = max_iterations
        self.backend = backend
        #: Playout executor for vectorised batches ("numpy" or
        #: "compiled"); bit-identical by contract, so it is a pure
        #: performance knob that never changes search results.
        self.playout = playout
        self.profiler = profiler if profiler is not None else NULL_PROFILER
        self.rng = XorShift64Star(derive_seed(seed, "engine", self.name))
        #: Called as ``hook(engine, iterations)`` at every clean
        #: iteration boundary (trees consistent, no virtual loss or
        #: in-flight kernel outstanding) -- the seam the serving layer
        #: uses to journal periodic checkpoints and the fault layer
        #: uses to crash a search at a planned point.  Raising from the
        #: hook aborts the search; a later ``restore`` + ``resume``
        #: continues it bit-identically.
        self.iteration_hook: "Callable[[Engine, int], None] | None" = None
        #: Live search session (engine-specific dict) between the
        #: first iteration and the final result; ``None`` when idle.
        self._live: dict | None = None
        #: Sessions begun, the one live included: a session's playout
        #: seed is derived from the engine seed and this count.
        self.sessions = 0

    @property
    def joins_merged_rounds(self) -> bool:
        """Whether a driver (the arena cohort, the search service's
        tick) advances this engine's rounds merged with others': a
        round-policy kind with no private device.  The GPU kinds run
        their rounds on their own device; multigpu has no round
        policy."""
        return self.gpu is None and self.round_policy is not None

    def search(self, state: GameState, budget_s: float) -> SearchResult:
        """Run an anytime search for ``budget_s`` *virtual* seconds:
        the round policy over a :class:`BatchExecutor`."""
        self._begin_session(state, budget_s)
        return self.resume()

    def _begin_session(self, state: GameState, budget_s: float) -> None:
        """Engine-specific: set up ``self._live`` for a new search --
        run by ``search()``, or by a driver that answers it (the arena
        cohort, the search service)."""
        raise NotImplementedError

    def _playout_stream(self) -> dict:
        """A new session's ``_live`` keys of its playout stream: its
        seed, from the engine seed and the session count, and the calls
        it has made."""
        self.sessions += 1
        return {
            "playout_seed": derive_seed(self.seed, "session", self.sessions),
            "playout_calls": 0,
        }

    def open_round(self) -> "Round":
        """The live session's round policy, for a driver that advances
        it (:mod:`repro.core.rounds`)."""
        self._require_session()
        return self.round_policy.open(self)

    # -- checkpoint / resume -------------------------------------------------

    def snapshot(self) -> EngineSnapshot:
        """Freeze the live search into a picklable, restorable
        snapshot.  Only valid at iteration boundaries (where
        :attr:`iteration_hook` fires) or whenever no kernel / virtual
        loss is in flight; capturing never perturbs the search."""
        if self._live is None:
            raise CheckpointError(
                f"{self.name}: no live search session to snapshot"
            )
        payload = self._snapshot_payload()
        payload["engine_rng"] = self.rng.getstate()
        payload["sessions"] = self.sessions
        return EngineSnapshot(
            format_version=CHECKPOINT_FORMAT_VERSION,
            kind=self.name,
            backend=self.backend,
            game=self.game.name,
            seed=self.seed,
            clock_s=self.clock.now,
            iterations=int(self._live["iterations"]),
            payload=payload,
        )

    def restore(self, snap: EngineSnapshot) -> None:
        """Adopt a snapshot as this engine's live session.

        The engine must have been constructed identically to the one
        that snapshotted (same kind, backend, game and seed -- the
        caller keeps the construction recipe; the serving journal
        stores the originating request).  Resets the engine clock to
        the capture time, so only call on engines owning a private
        clock."""
        if not isinstance(snap, EngineSnapshot):
            raise CheckpointError(
                f"restore needs an EngineSnapshot, got "
                f"{type(snap).__name__}"
            )
        if snap.format_version != CHECKPOINT_FORMAT_VERSION:
            raise CheckpointError(
                f"snapshot format {snap.format_version} unsupported "
                f"(this build reads {CHECKPOINT_FORMAT_VERSION})"
            )
        for label, theirs, mine in (
            ("engine kind", snap.kind, self.name),
            ("backend", snap.backend, self.backend),
            ("game", snap.game, self.game.name),
            ("seed", snap.seed, self.seed),
        ):
            if theirs != mine:
                raise CheckpointError(
                    f"snapshot {label} mismatch: snapshot has "
                    f"{theirs!r}, engine has {mine!r}"
                )
        self.clock.reset(snap.clock_s)
        self.rng.setstate(snap.payload["engine_rng"])
        self.sessions = snap.payload["sessions"]
        self._live = self._restore_payload(snap.payload)

    def resume(self) -> SearchResult:
        """Run a restored (or interrupted) session to completion."""
        rnd = self.open_round()
        return run_rounds([rnd], BatchExecutor(self.game, self.playout))[0]

    def _require_session(self) -> dict:
        if self._live is None:
            raise CheckpointError(
                f"{self.name}: no session to resume (call restore() "
                "or interrupt a search first)"
            )
        return self._live

    def _snapshot_payload(self) -> dict:
        """The session dict as plain data, key for key: scalars pass
        through, lists are copied, and the stateful parts freeze via
        their own ``snapshot()`` / ``getstate()``.  An absent guard is
        omitted; the engine's private device state rides as ``gpu``."""
        payload = {}
        for key, value in self._live.items():
            if key == "integrity" and value is None:
                continue
            if key in ("tree", "forest"):
                value = snapshot_forest(value, key)
            elif key == "integrity":
                value = value.getstate()
            elif isinstance(value, list):
                value = list(value)
            payload[key] = value
        if self.gpu is not None:
            payload["gpu"] = self.gpu.getstate()
        return payload

    def _restore_payload(self, payload: dict) -> dict:
        """Inverse of :meth:`_snapshot_payload`.  The guard is rebuilt
        from the engine's own injector (a snapshot never carries one),
        then adopts the stored counters."""
        live = {}
        for key, value in payload.items():
            if key in ("engine_rng", "sessions", "integrity"):
                continue
            if key == "gpu":
                self.gpu.setstate(value)
                continue
            if key in ("tree", "forest"):
                value = restore_forest(self.game, value, key)
            elif isinstance(value, list):
                value = list(value)
            live[key] = value
        forest = live.get("forest")
        live["integrity"] = self._make_guard(
            forest.n_trees if forest is not None else 1,
            payload.get("integrity"),
        )
        return live

    def _make_guard(
        self, n_trees: int, state: "dict | None" = None
    ) -> "IntegrityState | None":
        """The session's integrity guard over ``n_trees`` trees (a
        shared tree counts as one): None without an injector, so an
        unguarded engine never enters an integrity code path."""
        if self.injector is None:
            return None
        guard = IntegrityState(self.integrity, self.injector, n_trees)
        if state is not None:
            guard.setstate(state)
        return guard

    def _vote_stats(self, store, keep=None):
        """The root vote over trees ``keep`` of ``store`` (all when
        None), in tree order: ``(stats, voted)`` -- the summed
        per-move statistics a result reports, and the statistics the
        move is chosen from under the engine's ``vote`` mode (``sum``
        reuses the aggregate)."""
        per_tree = store.root_stats_of(keep)
        stats = aggregate_stat_dicts(per_tree)
        if self.vote == "majority":
            return stats, majority_vote_stat_dicts(per_tree)
        if self.vote == "trimmed":
            return stats, trimmed_vote_stat_dicts(per_tree)
        return stats, stats

    def _finish(
        self, store, elapsed_s: float, extras: "dict | None" = None
    ) -> SearchResult:
        """End the live session over ``store``: the guard's final
        sweep, the vote over the trees it admits, and the result; then
        the store is released.
        ``extras`` are the engine's own keys; every engine reports
        per-tree depth and node counts, guarded ones the integrity
        counters."""
        live = self._live
        guard = live.get("integrity")
        keep = None
        if guard is not None:
            guard.final_sweep(store)
            keep = guard.keep_indices()
        stats, voted = self._vote_stats(store, keep)
        extras = {
            **(extras or {}),
            "tree.depth": store.per_tree_depth(),
            "tree.nodes": store.per_tree_nodes(),
        }
        if guard is not None:
            extras.update(guard.extras())
        self._live = None
        result = SearchResult(
            move=select_move(voted, self.final_policy),
            stats=stats,
            iterations=live["iterations"],
            simulations=live["simulations"],
            max_depth=store.max_depth,
            tree_nodes=store.node_count,
            elapsed_s=elapsed_s,
            trees=store.n_trees,
            extras=extras,
            engine=self.name,
        )
        # The last read of the store: an arena goes back to the free
        # list for the next session to reopen.
        store.release()
        return result

    def _after_iteration(
        self, iterations: int, store=None, bonus: float = 1.0
    ) -> None:
        """A clean iteration boundary.  Given the session's ``store``,
        a guarded session's scheduled ``poison=tree:K`` fault
        (``bonus`` = one iteration's worth of visits) and amortised
        audit run here; then the iteration hook fires."""
        if store is not None:
            guard = self._live.get("integrity")
            if guard is not None:
                guard.poison(store, bonus)
                guard.audit(store, iterations)
        hook = self.iteration_hook
        if hook is not None:
            hook(self, iterations)

    def _make_forest(
        self, state: GameState, rngs, parallel_mode: str = "vloss"
    ):
        """``len(rngs)`` trees on the engine's configured backend (a
        single-tree engine's store is a forest of one)."""
        return make_forest(
            self.backend,
            self.game,
            state,
            rngs,
            self.ucb_c,
            parallel_mode,
        )

    def _check_budget(self, budget_s: float, state: GameState) -> None:
        if budget_s <= 0:
            raise ValueError(f"budget must be positive: {budget_s}")
        if self.game.is_terminal(state):
            raise ValueError("cannot search a terminal position")

    def _iteration_cap(self) -> float:
        return self.max_iterations if self.max_iterations else float("inf")


class GpuEngine(Engine):
    """An engine with a private virtual device on its clock (``leaf``,
    ``block``, ``hybrid``): its round launches one kernel per round
    there (``hybrid``'s CPU overlap plays on the executor)."""

    def __init__(
        self,
        game: Game,
        seed: int,
        blocks: int,
        threads_per_block: int,
        device=TESLA_C2050,
        **kwargs,
    ) -> None:
        super().__init__(game, seed, **kwargs)
        self.config = LaunchConfig(blocks, threads_per_block)
        self.config.validate(device)
        self.gpu = VirtualGpu(
            device,
            self.clock,
            self.game.name,
            derive_seed(self.seed, "gpu"),
            playout=self.playout,
        )


class BatchExecutor:
    """The stateless CPU playout executor: sessions' segments played on
    the game's stack, one ``(winner, plies)`` answer per state, lane
    ``i`` of a segment's family playing its state ``i``.  The compiled
    stack launches each segment.  The NumPy stack launches a segment
    of at least :attr:`SCALAR_CUTOFF` states and plays a shorter one
    lane by lane in Python (``Game.playout`` on a
    :class:`~repro.rng.XorShift128PlusLane`): every body plays a lane
    alike, draw for draw."""

    #: Below it a NumPy launch costs more than the Python lanes it
    #: replaces (one state: 7.3 ms against 0.55 ms for Reversi).
    SCALAR_CUTOFF = 10

    def __init__(self, game: Game, playout: str | None = None) -> None:
        self.game = game
        self.playout = default_stack(game.name, playout=playout)[1]
        self.bg = make_batch_game(game.name)

    def __call__(self, segments: Segments) -> PlayoutResults:
        launch = playout_launcher(self.playout)
        lanes = playout_active(self.playout) != "compiled" or (
            self.game.name not in COMPILED_GAMES
        )
        answers: list = []
        for seed, states in segments:
            if lanes and len(states) < self.SCALAR_CUTOFF:
                playout = self.game.playout
                answers += [
                    playout(state, XorShift128PlusLane(seed, i))
                    for i, state in enumerate(states)
                ]
            else:
                winners, plies = launch(self.bg, states, seed)
                answers += zip(winners.tolist(), plies.tolist())
        return answers


def tally(winners: np.ndarray) -> tuple[int, int, int]:
    """Count (black wins, white wins, draws) in an outcome array."""
    black = int((winners == 1).sum())
    white = int((winners == -1).sum())
    draws = int((winners == 0).sum())
    return black, white, draws
