"""One round of an engine's search, written once per kind.

An engine's search is a loop of rounds: select leaves, have their
playouts run, back the answers up, charge the round's virtual time.
A :class:`Round` is that loop's body with the playout cut out, as two
calls around it:

* :meth:`Round.select` runs the session up to its next playout demand
  -- one position per leaf in :attr:`Round.requests` -- and returns
  True; or returns False once the session's budget is spent.  A round
  that needs no playout (every selected leaf terminal) is finished
  inside the call, and the next one selected.
* :meth:`Round.deliver` takes one answer per request, backs them up
  and charges the round.

:meth:`Round.finish` then ends the session with its result.

Every kind but ``multigpu`` is a policy here.  A CPU kind is answered
``(winner, plies)`` pairs; a GPU kind (:class:`BlockRound`,
:class:`LeafRound`, :class:`HybridRound`) requests position columns
and is answered by its own device: one row of lane winners per leaf.

A ``root:N`` or ``sequential`` session on a compiled arena is a
:class:`LoopRound`: the select kernel runs its whole loop
(:class:`~repro.compiled.RootLoop`, ``root_loop`` in ``playout.c``) --
one call delivers the last round's answers, charges the trees' clocks
from a table of the cost model's own doubles and selects on to the next
playout demand, with the requests left in the loop's columns.  Python
runs for such a session only at a boundary: its end, an iteration hook
or integrity guard (which see every delivery and sub-round), a ply
count the table does not hold.  :class:`RootRound` and
:class:`SequentialRound` are the same policies in Python -- on pointer
forests and on arenas without the kernels -- and the oracle the loop
is held to.

Every other policy selects in *sub-rounds*, each one ``select_round``
on the session's store: :meth:`Round.wants` names the trees of the
next one (``None``: none left -- the round is selected, or the session
is over) and :meth:`Round.took` reads its answer.  A root round is one
sub-round over its trees with budget left; a ``tree:N`` or
``pipeline:N`` round is ``N`` one-row sub-rounds on the shared tree,
each path marked in flight before the next; a terminal leaf that needs
no playout starts another.  Splitting the select this way lets
:func:`select_rounds` run the sub-rounds of many sessions together:
one ``select_round_many`` per sub-round, which walks every compiled
arena of a game in one kernel call.  (A GPU round selects in one
``select_expand_all``, and alone.)

One driver runs every policy.  :func:`advance_rounds` delivers a
tick's answers to many rounds at once -- the loops of a game in one
kernel call, the other rounds credited in one call and settled in
order, their next rounds selected together -- and :func:`run_rounds`
loops it: one executor call over every session's requests per round,
until each session is out of budget.  An engine's ``search()`` /
``resume()`` is ``run_rounds`` over a set of one, the arena cohort runs
it over every CPU mover of a move, and the search service's tick calls
``advance_rounds`` itself, all tenants' requests riding one launch per
tick (docs/serving.md, step 7).

A policy keeps nothing a checkpoint needs: the session lives in the
engine's ``_live`` dict, which the policy reads and writes (a loop at
every boundary), so a snapshot taken at any iteration hook restores
into a fresh policy.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Sequence

import numpy as np

from repro.compiled import BAD_PLIES, RootLoop
from repro.core.arena import (
    MANY_SELECT_MIN,
    backprop_winners_many,
    compiled_arena,
    select_loops,
    select_round_many,
)
from repro.core.executors import Answers
from repro.integrity.audit import MAX_RESULT_RETRIES
from repro.util.clock import ClockError
from repro.util.profile import NULL_PROFILER

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import Engine, PlayoutBatch, PlayoutResults
    from repro.core.results import SearchResult

    Executor = Callable[[PlayoutBatch], PlayoutResults]

#: The one-row sub-round of a single-tree session.
_TREE0 = (0,)

#: ``[model, iteration_time by (depth, plies), tree_control_time by
#: depth, iteration_time as a float64 [depth][plies] table]`` memos per
#: ``CpuCostModel``.  Pure functions: the memo hands back the very floats
#: they would compute, so every clock sum is unchanged, across a
#: checkpoint / restore too, and in the C select loop, which reads the
#: table.  Held by ``id`` beside the model itself -- hashing the frozen
#: dataclass costs more than the memo saves on a short search.
_COST_MEMOS: dict = {}
#: Keys one cost model's iteration-time memo holds at most (corrupted
#: answers can carry any ply count).
_MEMO_CAP = 1 << 14
#: Fewest compiled arenas :func:`credit_rounds` credits in one call:
#: below it the call's fixed cost outweighs the calls it replaces.
MANY_CREDIT_MIN = 4


def select_rounds(rounds: "Sequence[Round]") -> None:
    """:meth:`Round.select` of every round in ``rounds``, run together:
    each tree changes exactly as its own ``select`` would change it
    (sessions share no tree), so a caller that needs no order between
    the sessions' side effects -- no iteration hook among them -- may
    select them all at once.  The loops of a game go in one kernel
    call; the other rounds' sub-rounds in one ``select_round_many``
    each."""
    _run_loops(
        [(rnd, None, 0) for rnd in rounds if rnd.loop is not None], {}
    )
    rounds = [rnd for rnd in rounds if rnd.loop is None]
    if len(rounds) < MANY_SELECT_MIN:
        for rnd in rounds:
            rnd.select()
        return
    for rnd in rounds:
        rnd.requests = ()
    asking = rounds
    while asking:
        trees = [rnd.wants() for rnd in asking]
        asking = [rnd for rnd, ts in zip(asking, trees) if ts is not None]
        answers = select_round_many(
            [rnd.store for rnd in asking],
            [ts for ts in trees if ts is not None],
        )
        for rnd, answer in zip(asking, answers):
            rnd.took(*answer)


def _run_loops(entries, answers) -> None:
    """Deliver and select every :class:`LoopRound` of ``entries`` --
    ``(round, answer key, lane)``, the round's answers lanes ``lane`` on
    of ``answers[key]`` (key ``None``: no answers) -- the loops of a
    game, answered from one key, in one kernel call
    (:func:`~repro.core.arena.select_loops`); fewer than
    :data:`MANY_SELECT_MIN` of them in one call each."""
    groups: dict = {}
    for rnd, key, lane in entries:
        group = groups.get((rnd.game_name, key))
        if group is None:
            group = groups[rnd.game_name, key] = ([], [])
        group[0].append(rnd)
        group[1].append(lane)
    for (_, key), (rnds, lanes) in groups.items():
        columns = None if key is None else answers[key].columns()
        if len(rnds) < MANY_SELECT_MIN:
            for rnd, lane in zip(rnds, lanes):
                rnd.run(columns, lane)
            continue

        def mend(j, rnds=rnds, lanes=lanes, columns=columns):
            winners, plies = columns
            rnds[j].mend(winners[lanes[j] :], plies[lanes[j] :])

        select_loops(
            [rnd.store for rnd in rnds],
            [rnd.loop for rnd in rnds],
            columns,
            lanes,
            mend,
        )


def credit_rounds(rounds: "Sequence[Round]", answers) -> None:
    """The credit half of :meth:`Round.deliver` for every round in
    ``rounds``, ``answers[j]`` round ``j``'s: one
    ``backprop_winners_many`` when at least :data:`MANY_CREDIT_MIN` of
    them hold compiled arenas, else each round's own
    :meth:`Round.credit`.  Credits only add and sessions share no tree,
    so each round then settles (:meth:`Round.settle`) as its own
    ``deliver`` would have left it."""
    credits = [rnd.credits(answer) for rnd, answer in zip(rounds, answers)]
    if len(rounds) < MANY_CREDIT_MIN or sum(
        1
        for rnd, (rows, _) in zip(rounds, credits)
        if len(rows) and compiled_arena(rnd.store)
    ) < MANY_CREDIT_MIN:
        for rnd, (rows, outcomes) in zip(rounds, credits):
            if len(rows):
                rnd.credit(rows, outcomes)
        return
    backprop_winners_many(
        [rnd.store for rnd in rounds],
        [rows for rows, _ in credits],
        [outcomes for _, outcomes in credits],
    )


def advance_rounds(rounds: "Sequence[Round]", answers, spans) -> None:
    """Deliver round ``j`` its answers -- rows ``lo`` to ``hi`` of
    ``answers[key]`` (an :class:`~repro.core.executors.Answers`) for
    ``spans[j] = (key, lo, hi)`` -- and select every round's next.
    The loops of a game take their answers and select in one kernel
    call; the other rounds' leaves are credited in one call, then each
    round settles, in order.  A round that must see every iteration
    boundary (an iteration hook -- journal checkpoints, a planned crash
    -- or a loop's integrity guard) delivers and selects at its turn,
    so hooks fire in the order one round after the other would fire
    them; the rest select together after the loop -- no other round
    can see when they do."""
    loops, others, slices, turns = [], [], [], []
    for rnd, span in zip(rounds, spans):
        if rnd.loop is None:
            key, lo, hi = span
            others.append(rnd)
            slices.append(answers[key][lo:hi])
            turns.append((rnd, None))
        elif rnd.must_step:
            turns.append((rnd, span))
        else:
            loops.append((rnd, span[0], span[1]))
    credit_rounds(others, slices)
    together = []
    slices = iter(slices)
    for rnd, span in turns:
        if span is None:
            rnd.settle(next(slices))
            if not rnd.must_step:
                together.append(rnd)
                continue
        else:
            rnd.answer(answers[span[0]].columns(), span[1])
        rnd.select()
    _run_loops(loops, answers)
    select_rounds(together)


def run_rounds(
    rounds: "Sequence[Round]", executor: "Executor"
) -> "list[SearchResult]":
    """Run every round's session to its end, ``executor`` answering
    all their requests in one call per round; each session's result,
    in order.  A session finishes once it selects no requests.  A
    self-driven round (:attr:`Round.screen` set) has its answers
    screened before they are delivered.  A set of one hands the
    executor its requests as they are (a GPU round's are position
    columns)."""
    for rnd in rounds:
        if rnd.must_step:
            rnd.select()
    select_rounds([rnd for rnd in rounds if not rnd.must_step])
    results: list = [None] * len(rounds)
    running = list(enumerate(rounds))
    while True:
        for j, rnd in running:
            if not rnd.requests:
                results[j] = rnd.finish()
        running = [(j, rnd) for j, rnd in running if rnd.requests]
        if not running:
            return results
        asking = [rnd for _, rnd in running]
        flat = (
            asking[0].requests
            if len(asking) == 1
            else [state for rnd in asking for state in rnd.requests]
        )
        answers = _checked(flat, executor(flat))
        if asking[0].loop is None and len(asking) == 1:
            # A lone round's answers as they came: a GPU round's are
            # one row of lane winners per leaf.
            asking[0].deliver(
                answers
                if asking[0].screen is None
                else _screen_results(
                    asking[0], answers, asking[0].screen, executor
                )
            )
            asking[0].select()
            continue
        answers = Answers.of_pairs(answers)
        spans, lo = [], 0
        for rnd in asking:
            hi = lo + len(rnd.requests)
            if rnd.screen is not None:
                answers[lo:hi] = _screen_results(
                    rnd, answers[lo:hi], rnd.screen, executor
                )
            spans.append((0, lo, hi))
            lo = hi
        advance_rounds(asking, {0: answers}, spans)


def _checked(requests, answers):
    """``answers``, once they answer ``requests`` one for one: a
    short or long list is refused before any round is credited."""
    if len(answers) != len(requests):
        raise ValueError(
            f"{len(answers)} playout answers for "
            f"{len(requests)} requests"
        )
    return answers


def _screen_results(rnd, answers, guard, executor):
    """Screen one batch of ``rnd``'s playout answers with ``guard``
    (:meth:`Round.screen_answers`); a rejected batch is asked of
    ``executor`` again (fresh draws) up to the policy's retry budget,
    then degraded to the round's neutral answers
    (:meth:`Round.neutral`) -- the dropped-playout-batch model."""
    requests = rnd.requests
    for attempt in range(MAX_RESULT_RETRIES + 1):
        answers, ok = rnd.screen_answers(guard, answers)
        if ok:
            return answers
        if attempt < MAX_RESULT_RETRIES:
            answers = _checked(requests, executor(requests))
    guard.give_up()
    return rnd.neutral()


class Round:
    """The round logic of one live engine session (base class)."""

    #: The select loop a kernel runs the session in (a
    #: :class:`LoopRound`'s :class:`~repro.compiled.RootLoop`), or None.
    loop: "RootLoop | None" = None

    @classmethod
    def open(cls, engine: "Engine") -> "Round":
        """The policy of ``engine``'s live session."""
        return cls(engine)

    def __init__(self, engine: "Engine", store) -> None:
        self.engine = engine
        self.live = live = engine._live
        #: The session's trees: what each sub-round selects on.
        self.store = store
        self.cost = engine.cost
        self.cap = engine._iteration_cap()
        #: The executor ``search()`` / ``resume()`` answers the session
        #: with; None when a driver answers it (the arena cohort, the
        #: search service).
        self.executor = live.get("executor")
        #: The integrity guard that screens this session's answers:
        #: only when the engine drives its own executor.  Externally
        #: driven sessions (the service) are screened once at the
        #: merged-launch readback -- screening here too would
        #: double-draw corruption.
        self.screen = (
            live.get("integrity") if self.executor is not None else None
        )
        #: The positions whose playouts the selected round waits for.
        self.requests: Sequence = ()
        entry = _COST_MEMOS.get(id(self.cost))
        if entry is None or entry[0] is not self.cost:
            entry = _COST_MEMOS[id(self.cost)] = [self.cost, {}, {}, None]
        self._memo = entry
        _, self._times, self._control_times, _ = entry

    @property
    def must_step(self) -> bool:
        """Must the session select at its own turn?  (An iteration hook
        sees the order.)"""
        return self.engine.iteration_hook is not None

    def now(self) -> float:
        """The engine clock, as far as the session has moved it."""
        return self.engine.clock.now

    def _iteration_time(self, depth: int, plies: int) -> float:
        """``cost.iteration_time(depth, plies)``, memoised."""
        times = self._times
        t = times.get((depth, plies))
        if t is None:
            t = self.cost.iteration_time(depth, plies)
            if len(times) < _MEMO_CAP:
                times[depth, plies] = t
        return t

    def _iteration_times(self, plies: int) -> np.ndarray:
        """``iteration_time(d, p)`` at ``[d, p]`` for every ``d < plies
        + 2`` and ``p <= plies`` (at least), as a float64 table -- the
        cost model's own floats, built once per model and again only to
        grow."""
        table = self._memo[3]
        if table is None or table.shape[1] <= plies:
            iteration_time = self.cost.iteration_time
            table = self._memo[3] = np.array(
                [
                    [iteration_time(d, p) for p in range(plies + 1)]
                    for d in range(plies + 2)
                ],
                dtype=np.float64,
            )
        return table

    def select(self) -> bool:
        """Run the session to its next playout demand; False when the
        session is over (call :meth:`finish`)."""
        self.requests = ()
        store = self.store
        while (trees := self.wants()) is not None:
            self.took(*store.select_round(trees))
        return bool(self.requests)

    def wants(self) -> "Sequence[int] | None":
        """The trees of the next select sub-round; ``None`` when the
        round is selected or the session is over."""
        raise NotImplementedError

    def took(self, refs, depths, states, terminal) -> None:
        """Read one sub-round's answer: ``select_round``'s four lists."""
        raise NotImplementedError

    def deliver(self, answers: "PlayoutResults") -> None:
        """Back up one ``(winner, plies)`` answer per request: credit
        the leaves, then settle the round."""
        self.credit(*self.credits(answers))
        self.settle(answers)

    def credits(self, answers: "PlayoutResults") -> tuple[list, list]:
        """The leaves this delivery credits and their winners, in
        order; reads, changes nothing."""
        return [], []

    def credit(self, leaves, winners) -> None:
        """Credit ``winners[i]`` at ``leaves[i]`` on the store."""
        backprop_winner = self.store.backprop_winner
        for leaf, winner in zip(leaves, winners):
            backprop_winner(leaf, winner)

    def settle(self, answers: "PlayoutResults") -> None:
        """The rest of the delivery, once its leaves are credited:
        markers off, the round charged, the iteration hook."""
        raise NotImplementedError

    def screen_answers(self, guard, answers):
        """``guard``'s verdict on one batch of this round's answers:
        ``(answers, ok)``."""
        return guard.screen_answers(list(answers))

    def neutral(self):
        """The answers of a batch given up on: all draws."""
        return [(0, 0)] * len(self.requests)

    def finish(self) -> "SearchResult":
        """End the session: the engine's search result."""
        raise NotImplementedError


class LoopRound(Round):
    """A ``root:N`` or ``sequential`` session on a compiled arena, run
    by the select kernel from its first select to its end: the session's
    trees are the rows of a :class:`~repro.compiled.RootLoop`, which
    owns their clocks and iteration counts and the pending playout rows,
    and is the round's :attr:`requests`.  One kernel call credits the
    rows' answers, charges each tree's clock ``iteration_time(depth,
    plies)`` from the cost model's table -- the very doubles the Python
    body adds -- and runs the loop on to its next playout demand
    (:meth:`~repro.core.arena.TreeArena.select_loop`, many loops in one
    call through :func:`advance_rounds`).  A delivery reaches the trees
    in the next kernel call, which :meth:`select` makes.

    The session's lists and counters (``_live``) are written back from
    the loop's columns at every boundary that reads them -- the end, a
    hook, a guard, a call of :meth:`select` -- and a tick reads the
    clock through :meth:`now`.  A guard or an iteration hook must see
    every delivery and sub-round: with either (:attr:`must_step`), the
    kernel stops after each one (the loop's ``once``) and Python calls
    the hook between."""

    #: Does an iteration count only once its playout is delivered (the
    #: sequential count), not as it is selected (the root count)?
    counts_delivered = False

    def __init__(self, engine: "Engine", store, clocks, iters, start) -> None:
        super().__init__(engine, store)
        live = self.live
        self.guarded = live.get("integrity") is not None
        self.game_name = engine.game.name
        # No tree is deeper than the game is long, nor a playout longer.
        self.loop = loop = RootLoop.of(
            engine.game,
            store.n_trees,
            start,
            live["budget_s"],
            self.cap,
            self._iteration_times(engine.game.max_game_length),
        )
        loop.clock[:] = clocks
        loop.iters[:] = iters
        self.requests = loop
        #: The loop's iterations already counted in ``_live``.
        self._counted = 0

    @property
    def must_step(self) -> bool:
        """Must the session select at its own turn, and stop at every
        delivery and sub-round?"""
        return self.guarded or self.engine.iteration_hook is not None

    def answer(self, columns, lane: int) -> None:
        """Point the pending rows at their answers, rows ``lane`` on of
        ``columns``, ``(winners, plies)``: the next kernel call
        delivers them."""
        self.loop.answer(columns[0][lane:], columns[1][lane:])

    def deliver(self, answers) -> None:
        """Hand the loop one ``(winner, plies)`` answer per request; the
        next :meth:`select` credits and charges them."""
        self.answer(Answers.of_pairs(answers).columns(), 0)

    def select(self) -> bool:
        loop = self.loop
        loop.once = once = self.must_step
        while True:
            delivered = loop.answers is not None
            sub_rounds = loop.sub_rounds
            self._step()
            self.sync()
            if loop.rows:
                return True
            if not once or (not delivered and loop.sub_rounds == sub_rounds):
                # No tree has budget left.
                return False
            # A delivery, or a sub-round of terminal leaves alone: the
            # boundary a hook or guard must see.
            self._boundary()

    def run(self, columns, lane: int) -> None:
        """Deliver the pending rows their answers -- rows ``lane`` on of
        ``columns``, ``(winners, plies)``, or none when it is None --
        and run the loop on to its next playout demand: one kernel
        call."""
        if columns is not None:
            self.answer(columns, lane)
        self._step()

    def _step(self) -> None:
        """One kernel call; a delivery the kernel refuses is mended
        (:meth:`mend`) and the loop run on."""
        loop = self.loop
        if self.store.select_loop(loop) == BAD_PLIES:
            self.mend(*loop.answers)
            if not loop.once:
                self.store.select_loop(loop)
        loop.answers = None

    def mend(self, winners, plies) -> None:
        """Deliver the pending rows' answers, ``winners[i]`` /
        ``plies[i]`` row ``i``'s, in Python: those the kernel refuses, a
        ply count outside the loop's table among them (a corrupted
        answer the screen let through).  Each row's tree is charged
        ``iteration_time`` itself, on the loop's clock."""
        loop = self.loop
        m = loop.rows
        self.store.backprop_winners(
            loop.leaves[:m].tolist(), winners[:m].tolist()
        )
        clock = loop.clock
        for t, depth, n in zip(
            loop.trees[:m].tolist(),
            loop.row_depths[:m].tolist(),
            plies[:m].tolist(),
        ):
            clock[t] += self._iteration_time(depth, n)
        loop.winners_at = loop.answer_plies_at = None
        loop.answers = None
        loop.rows = 0

    def sync(self) -> None:
        """Write the loop's counts and clocks back to the session."""
        loop, live = self.loop, self.live
        done = loop.iterations
        if self.counts_delivered:
            done -= loop.rows
        live["iterations"] += done - self._counted
        live["simulations"] += done - self._counted
        self._counted = done
        self._sync_clocks()

    def _sync_clocks(self) -> None:
        raise NotImplementedError

    def _boundary(self) -> None:
        """The iteration boundary after a delivery or a sub-round."""
        raise NotImplementedError


class SequentialRound(Round):
    """``sequential``: one select / playout / backprop per iteration,
    the engine clock charged per iteration."""

    @classmethod
    def open(cls, engine: "Engine") -> Round:
        if compiled_arena(engine._live["tree"]):
            return SequentialLoop(engine)
        return cls(engine)

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine, engine._live["tree"])

    def wants(self) -> "Sequence[int] | None":
        live = self.live
        if (
            self.requests
            or self.engine.clock.now - live["start_s"] >= live["budget_s"]
            or live["iterations"] >= self.cap
        ):
            return None
        return _TREE0

    def took(self, refs, depths, states, terminal) -> None:
        node, depth = refs[0], depths[0]
        if terminal[0]:
            # A terminal leaf is its own answer: no playout.
            self.store.backprop_winner(node, self.store.winner_of(node))
            self._charge(depth, 0)
        else:
            self.leaf = node, depth
            self.requests = states

    def credits(self, answers: "PlayoutResults") -> tuple[list, list]:
        ((winner, _),) = answers
        return [self.leaf[0]], [winner]

    def settle(self, answers: "PlayoutResults") -> None:
        ((_, plies),) = answers
        self._charge(self.leaf[1], plies)

    def _charge(self, depth: int, plies: int) -> None:
        live = self.live
        self.engine.clock.advance(self._iteration_time(depth, plies))
        live["iterations"] += 1
        live["simulations"] += 1
        self.engine._after_iteration(live["iterations"])

    def finish(self) -> "SearchResult":
        engine = self.engine
        return engine._finish(
            self.store, engine.clock.now - self.live["start_s"]
        )


class SequentialLoop(LoopRound):
    """``sequential`` as a one-tree loop: its clock is the engine
    clock, a tree selecting while ``clock - start_s < budget``."""

    counts_delivered = True

    def __init__(self, engine: "Engine") -> None:
        live = engine._live
        super().__init__(
            engine,
            live["tree"],
            [engine.clock.now],
            [live["iterations"]],
            live["start_s"],
        )

    def now(self) -> float:
        return self.loop.clock.item(0)

    def _sync_clocks(self) -> None:
        # The loop's clock only ever grows from the engine's.
        self.engine.clock.advance_to(self.loop.clock.item(0))

    def _boundary(self) -> None:
        self.engine._after_iteration(self.live["iterations"])

    def finish(self) -> "SearchResult":
        self.sync()
        engine = self.engine
        return engine._finish(
            self.store, engine.clock.now - self.live["start_s"]
        )


class RootRound(Round):
    """``root:N``: every tree with budget left selects in one lockstep
    sub-round; each tree's core clock is charged its own iterations,
    and the search takes as long as the slowest core.  The Python body
    (pointer forests, arenas without kernels) of :class:`RootLoop`."""

    @classmethod
    def open(cls, engine: "Engine") -> Round:
        if compiled_arena(engine._live["forest"]):
            return RootLoopRound(engine)
        return cls(engine)

    def __init__(self, engine: "Engine") -> None:
        live = engine._live
        super().__init__(engine, live["forest"])
        self.core_time = live["core_time"]
        self.per_tree_iters = live["per_tree_iters"]
        self.budget_s = live["budget_s"]
        self.trees = range(engine.n_trees)

    def wants(self) -> "Sequence[int] | None":
        if self.requests:
            return None
        core_time, per_tree_iters = self.core_time, self.per_tree_iters
        budget_s, cap = self.budget_s, self.cap
        active = [
            i
            for i in self.trees
            if core_time[i] < budget_s and per_tree_iters[i] < cap
        ]
        if not active:
            return None
        self.active = active
        return active

    def took(self, refs, depths, states, terminal) -> None:
        # Independent trees: selecting them all first, then resolving
        # terminals, is identical to the interleaved order (no tree
        # ever observes another's statistics).
        live, forest, active = self.live, self.store, self.active
        live["iterations"] += len(active)
        live["simulations"] += len(active)
        per_tree_iters = self.per_tree_iters
        for i in active:
            per_tree_iters[i] += 1
        if any(terminal):
            # A terminal leaf is its own answer; the other rows go on
            # to a playout.
            iteration_time = self._iteration_time
            for i, node, depth, over in zip(active, refs, depths, terminal):
                if over:
                    forest.backprop_winner(node, forest.winner_of(node))
                    self.core_time[i] += iteration_time(depth, 0)
            active, refs, depths, states = (
                [x for x, over in zip(column, terminal) if not over]
                for column in (active, refs, depths, states)
            )
        if states:
            self.active, self.refs, self.depths = active, refs, depths
            self.requests = states
        else:
            self.engine._after_iteration(live["iterations"], forest)

    def credits(self, answers: "PlayoutResults") -> tuple[list, list]:
        return self.refs, [winner for winner, _ in answers]

    def credit(self, leaves, winners) -> None:
        # Distinct trees: one compiled call on an arena.
        self.store.backprop_winners(leaves, winners)

    def settle(self, answers: "PlayoutResults") -> None:
        core_time = self.core_time
        iteration_time = self._iteration_time
        for i, depth, (_, n) in zip(self.active, self.depths, answers):
            core_time[i] += iteration_time(depth, n)
        self.engine._after_iteration(self.live["iterations"], self.store)

    def finish(self) -> "SearchResult":
        # Wall time of the parallel search = the slowest core.
        elapsed = max(self.core_time)
        self.engine.clock.advance(elapsed)
        return self.engine._finish(self.store, elapsed)


class RootLoopRound(LoopRound):
    """``root:N`` as a loop: one clock per tree (its core clock), a tree
    selecting while its clock is under budget (``start`` 0.0: ``clock -
    0.0`` is the clock's own double)."""

    def __init__(self, engine: "Engine") -> None:
        live = engine._live
        self.core_time = live["core_time"]
        self.per_tree_iters = live["per_tree_iters"]
        super().__init__(
            engine,
            live["forest"],
            self.core_time,
            self.per_tree_iters,
            0.0,
        )

    def _sync_clocks(self) -> None:
        loop = self.loop
        self.core_time[:] = loop.clock.tolist()
        self.per_tree_iters[:] = loop.iters.tolist()

    def _boundary(self) -> None:
        self.engine._after_iteration(self.live["iterations"], self.store)

    def finish(self) -> "SearchResult":
        self.sync()
        # Wall time of the parallel search = the slowest core.
        elapsed = max(self.core_time)
        self.engine.clock.advance(elapsed)
        return self.engine._finish(self.store, elapsed)


class TreeRound(Round):
    """``tree:N``: the workers with budget left select one after the
    other from the one shared tree, each path marked in flight
    (virtual loss / WU-UCT) so the next worker spreads out; the
    markers come off when the round's answers land."""

    def __init__(self, engine: "Engine") -> None:
        live = engine._live
        super().__init__(engine, live["tree"])
        self.worker_time = live["worker_time"]
        self.budget_s = live["budget_s"]
        #: The next worker to select, ``None`` between rounds.
        self.worker: "int | None" = None

    def wants(self) -> "Sequence[int] | None":
        live, worker_time = self.live, self.worker_time
        budget_s = self.budget_s
        n_workers = self.engine.n_workers
        while not self.requests:
            if self.worker is None:
                if not (
                    min(worker_time) < budget_s
                    and live["iterations"] < self.cap
                ):
                    return None
                self.worker = 0
                self.instant, self.pending, self.asked = [], [], []
            while (
                self.worker < n_workers
                and worker_time[self.worker] >= budget_s
            ):
                self.worker += 1
            if self.worker < n_workers:
                return _TREE0
            self.worker = None
            if self.asked:
                self.requests = self.asked
            else:
                self.deliver(())
        return None

    def took(self, refs, depths, states, terminal) -> None:
        node, depth = refs[0], depths[0]
        self.store.apply_virtual_loss(node, self.engine.virtual_loss)
        if terminal[0]:
            self.instant.append((self.worker, node, depth))
        else:
            self.asked.append(states[0])
            self.pending.append((self.worker, node, depth))
        self.worker += 1

    def credits(self, answers: "PlayoutResults") -> tuple[list, list]:
        """Terminal selections, then the answered ones."""
        tree = self.store
        leaves = [node for _, node, _ in chain(self.instant, self.pending)]
        winners = [tree.winner_of(node) for _, node, _ in self.instant]
        winners += [winner for winner, _ in answers]
        return leaves, winners

    def settle(self, answers: "PlayoutResults") -> None:
        """Markers off, each worker charged its iteration."""
        live, tree = self.live, self.store
        marker = self.engine.virtual_loss
        iteration_time = self._iteration_time
        plies = chain(
            repeat(0, len(self.instant)), (n for _, n in answers)
        )
        for (w, node, depth), n in zip(
            chain(self.instant, self.pending), plies
        ):
            tree.revert_virtual_loss(node, marker)
            self.worker_time[w] += iteration_time(depth, n)
            live["iterations"] += 1
            live["simulations"] += 1
        # Round end: every in-flight marker reverted -- a clean
        # checkpoint boundary.
        self.engine._after_iteration(live["iterations"], tree)

    def finish(self) -> "SearchResult":
        elapsed = max(self.worker_time)
        self.engine.clock.advance(elapsed)
        return self.engine._finish(self.store, elapsed)


class PipelineRound(Round):
    """``pipeline:N``: round ``k``'s select overlaps round ``k-1``'s
    device playouts, whose answers are held and backed up one round
    late (stage timing in :mod:`repro.core.pipeline`)."""

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine, engine._live["tree"])
        #: The next of the round's ``N`` selections, ``None`` between
        #: rounds.
        self.worker: "int | None" = None

    def wants(self) -> "Sequence[int] | None":
        live = self.live
        while not self.requests:
            if self.worker is None:
                if not (
                    max(live["cpu_t"], live["dev_done"]) < live["budget_s"]
                    and live["iterations"] < self.cap
                ):
                    return None
                # Stage 1 -- select+expand round k's leaves from the
                # stale tree (round k-1's results are still in
                # flight), charging CPU time that overlaps the
                # in-flight device batch.
                self.worker = 0
                self.sel_t = 0.0
                self.instant, self.fresh, self.asked = [], [], []
            if self.worker < self.engine.n_workers:
                return _TREE0
            self.worker = None
            self._backprop_stage()
            # Stage 3 -- issue round k's playouts (deliver); the
            # device starts once it is free and the selections exist.
            if self.asked:
                self.requests = self.asked
            else:
                live["pending"] = []
                live["held"] = []
                self._end_round()
        return None

    def took(self, refs, depths, states, terminal) -> None:
        ref, depth = refs[0], depths[0]
        self.store.apply_virtual_loss(ref, self.engine.virtual_loss)
        self.sel_t += self.cost.selection_time(depth)
        if terminal[0]:
            self.instant.append((ref, depth))
        else:
            self.sel_t += self.cost.expand_s
            self.asked.append(states[0])
            self.fresh.append((ref, depth))
        self.worker += 1

    def _backprop_stage(self) -> None:
        """Stage 2 -- backprop: round k-1's held results (gated on the
        device finishing their batch) plus round k's terminal
        selections."""
        live, tree = self.live, self.store
        self.sel_done = sel_done = live["cpu_t"] + self.sel_t
        live["select_s"] += self.sel_t
        bp_t = self._retire(
            chain(
                (
                    (ref, depth, winner)
                    for (ref, depth), (winner, _) in zip(
                        live["pending"], live["held"]
                    )
                ),
                ((ref, depth, tree.winner_of(ref))
                 for ref, depth in self.instant),
            )
        )
        bp_start = (
            max(sel_done, live["dev_done"]) if live["pending"] else sel_done
        )
        live["cpu_t"] = bp_start + bp_t
        live["backprop_s"] += bp_t

    def settle(self, answers: "PlayoutResults") -> None:
        # No credit: the answers are held for the next round.
        live = self.live
        launch = max(self.sel_done, live["dev_done"])
        play_t = max(self.cost.playout_time(plies) for _, plies in answers)
        live["dev_done"] = launch + play_t
        live["playout_s"] += play_t
        # Results are *held*: they back up at round k+1's stage 2.
        live["pending"] = self.fresh
        live["held"] = list(answers)
        self._end_round()

    def _end_round(self) -> None:
        live = self.live
        live["rounds"] += 1
        # Round boundary: the new batch is in flight (its markers
        # outstanding), everything else is consistent -- snapshots
        # here encode the in-flight refs as stable tokens.
        self.engine._after_iteration(live["iterations"], self.store)

    def _retire(self, rows) -> float:
        """Back up ``(ref, depth, winner)`` rows, markers off; their
        CPU time, summed in row order."""
        live, tree, cost = self.live, self.store, self.cost
        marker = self.engine.virtual_loss
        bp_t = 0.0
        for ref, depth, winner in rows:
            tree.revert_virtual_loss(ref, marker)
            tree.backprop_winner(ref, winner)
            bp_t += cost.backprop_time(depth) + cost.fixed_per_iteration_s
            live["iterations"] += 1
            live["simulations"] += 1
        return bp_t

    def finish(self) -> "SearchResult":
        live = self.live
        # Drain: retire the final in-flight batch.
        bp_t = self._retire(
            (ref, depth, winner)
            for (ref, depth), (winner, _) in zip(
                live["pending"], live["held"]
            )
        )
        live["pending"] = []
        live["held"] = []
        live["cpu_t"] = max(live["cpu_t"], live["dev_done"]) + bp_t
        live["backprop_s"] += bp_t

        elapsed = max(live["cpu_t"], live["dev_done"])
        self.engine.clock.advance(elapsed)
        cpu_busy = live["select_s"] + live["backprop_s"]
        extras = {
            "pipeline.rounds": live["rounds"],
            "pipeline.select_s": live["select_s"],
            "pipeline.backprop_s": live["backprop_s"],
            "pipeline.playout_s": live["playout_s"],
            "pipeline.cpu_occupancy": (
                cpu_busy / elapsed if elapsed > 0 else 0.0
            ),
            "pipeline.device_occupancy": (
                live["playout_s"] / elapsed if elapsed > 0 else 0.0
            ),
        }
        return self.engine._finish(self.store, elapsed, extras)


class BlockRound(Round):
    """``block:BxT``, the paper's loop: every tree selects in one
    ``select_expand_all``, the leaves' positions are the requests --
    one kernel, block ``b``'s threads playing out from tree ``b``'s
    leaf -- and each tree is credited its block's tally.  The one
    controlling CPU charges the clock each walk's
    ``tree_control_time``.  A session runs at least one iteration."""

    #: The ``_live`` key of the session's store.
    store_key = "forest"

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine, engine._live[self.store_key])
        self.config = engine.config
        #: Playouts per leaf: a block's threads (the grid for ``leaf``).
        self.lanes = self.config.total_threads // self.store.n_trees
        self.prof = engine.profiler
        self.guard = self.live.get("integrity")
        # The engine's own device answers; ``screen`` stays None, as
        # :meth:`launch` screens inside its one ``playout`` phase.
        self.executor = self.launch

    def select(self) -> bool:
        live, store, clock = self.live, self.store, self.engine.clock
        self.requests = ()
        while live["iterations"] == 0 or (
            clock.now - live["start_s"] < live["budget_s"]
            and live["iterations"] < self.cap
        ):
            with self.prof.phase("select"):
                self.leaves, depths = store.select_expand_all()
                self._charge_control(depths)
                if self._answered():
                    continue
                self.requests = store.positions_of(self.leaves)
            return True
        return False

    def _charge_control(self, depths) -> None:
        """Each tree's control time, added to the clock in tree order:
        the same float additions one ``Clock.advance`` per tree makes,
        summed locally and set once."""
        times, clock = self._control_times, self.engine.clock
        # Plain ints: an ``np.int64`` key costs the look-up 3-4x.
        if isinstance(depths, np.ndarray):
            depths = depths.tolist()
        now = clock.now
        for depth in depths:
            t = times.get(depth)
            if t is None:
                t = self.cost.tree_control_time(depth)
                if not t >= 0.0:
                    raise ClockError(
                        f"cannot advance by a negative duration: {t}"
                    )
                times[depth] = t
            now += t
        clock.advance_to(now)

    def _answered(self) -> bool:
        """Whether the selected leaves were answered without a launch
        (never here: the kernel plays terminal leaves out too)."""
        return False

    def launch(self, positions) -> np.ndarray:
        """The session's executor: one kernel from ``positions`` on the
        engine's device, one row of lane winners per position.  Every
        attempt is charged; a guarded readback is screened here."""
        with self.prof.phase("playout"):
            answers = self._kernel(positions)
            if self.guard is not None:
                answers = _screen_results(
                    self, answers, self.guard, self._kernel
                )
        return answers

    def _kernel(self, positions) -> np.ndarray:
        result = self.engine.gpu.run_playouts(positions, self.config)
        self.live["simulations"] += result.playouts
        return result.winners.reshape(len(positions), self.lanes)

    def screen_answers(self, guard, answers):
        winners, ok = guard.screen_block(answers.ravel(), *answers.shape)
        return winners.reshape(answers.shape), ok

    def neutral(self) -> np.ndarray:
        return np.zeros((len(self.requests), self.lanes), dtype=np.int8)

    def credits(self, answers) -> tuple:
        return self.leaves, answers

    def credit(self, leaves, winners) -> None:
        with self.prof.phase("backprop"):
            self.store.backprop_block(leaves, self.lanes, winners)

    def settle(self, answers) -> None:
        self._end_iteration()

    def _end_iteration(self) -> None:
        live = self.live
        live["iterations"] += 1
        self.engine._after_iteration(
            live["iterations"], self.store, float(self.lanes)
        )

    def finish(self) -> "SearchResult":
        engine = self.engine
        elapsed = engine.clock.now - self.live["start_s"]
        return engine._finish(self.store, elapsed, self._extras())

    def _extras(self) -> dict:
        return {"gpu.kernels": self.engine.gpu.stats.kernels_launched}


class LeafRound(BlockRound):
    """``leaf:BxT``: the block round on a forest of one tree, the whole
    grid playing out from its leaf.  A terminal leaf is credited the
    grid's playouts without a launch (every lane would return its
    winner).  Not profiled."""

    store_key = "tree"

    def __init__(self, engine: "Engine") -> None:
        super().__init__(engine)
        self.prof = NULL_PROFILER

    def _answered(self) -> bool:
        store = self.store
        (leaf,) = self.leaves
        if not store.terminal_of(leaf):
            return False
        store.backprop_winner(leaf, store.winner_of(leaf), self.lanes)
        self.live["simulations"] += self.lanes
        self._end_iteration()
        return True


class HybridRound(BlockRound):
    """``hybrid:BxT`` (the paper's Figure 4): the block round with its
    kernel launched asynchronously.  While it flies, the CPU runs plain
    sequential iterations over the same trees, round-robin on the
    shared playout RNG, each charged to the engine clock."""

    def launch(self, positions) -> np.ndarray:
        engine, live, store = self.engine, self.live, self.store
        gpu = engine.gpu
        event = gpu.launch_async(positions, self.config)
        playout, playout_rng = engine.game.playout, live["playout_rng"]
        iteration_time = self._iteration_time
        advance = engine.clock.advance
        t, done = live["next_tree"], 0
        with self.prof.phase("cpu_overlap"):
            while not gpu.stream.query(event):
                node, depth = store.select_expand(t)
                t = (t + 1) % store.n_trees
                if store.terminal_of(node):
                    store.backprop_winner(node, store.winner_of(node))
                    plies = 0
                else:
                    winner, plies = playout(store.state_of(node), playout_rng)
                    store.backprop_winner(node, winner)
                advance(iteration_time(depth, plies))
                done += 1
        result = gpu.stream.synchronize(event)
        live["next_tree"] = t
        live["cpu_iterations"] += done
        live["simulations"] += done + result.playouts
        return result.winners.reshape(len(positions), self.lanes)

    def _extras(self) -> dict:
        return {
            "cpu.iterations": self.live["cpu_iterations"],
            **super()._extras(),
        }
