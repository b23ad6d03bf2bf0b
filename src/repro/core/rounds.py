"""One round of a CPU engine's search, written once per kind.

A CPU engine's search is a loop of rounds: select leaves, have their
playouts run, back the answers up, charge the round's virtual time.
A :class:`Round` is that loop's body with the playout cut out, as two
calls around it:

* :meth:`Round.select` runs the session up to its next playout demand
  -- one position per leaf in :attr:`Round.requests` -- and returns
  True; or returns False once the session's budget is spent.  A round
  that needs no playout (every selected leaf terminal) is finished
  inside the call, and the next one selected.
* :meth:`Round.deliver` takes one ``(winner, plies)`` answer per
  request, backs them up and charges the round.

:meth:`Round.finish` then ends the session with its result.

Selecting is itself a loop of *sub-rounds*, each one
``select_round`` on the session's store: :meth:`Round.wants` names
the trees of the next one (``None``: none left -- the round is
selected, or the session is over) and :meth:`Round.took` reads its
answer.  A root round is one sub-round over its trees with budget
left; a ``tree:N`` or ``pipeline:N`` round is ``N`` one-row sub-rounds
on the shared tree, each path marked in flight before the next; a
terminal leaf that needs no playout starts another.  Splitting the
select this way lets :func:`select_rounds` run the sub-rounds of many
sessions together: one ``select_round_many`` per sub-round, which
walks every compiled arena of a game in one kernel call.

One driver runs every policy.  :func:`advance_rounds` delivers a
tick's answers to many rounds at once -- one credit call, each round
settled in order, the next rounds selected together -- and
:func:`run_rounds` loops it: one executor call over every session's
requests per round, until each session is out of budget.  An engine's
``search()`` / ``resume()`` is ``run_rounds`` over a set of one, the
arena cohort runs it over every CPU mover of a move, and the search
service's tick calls ``advance_rounds`` itself, all tenants' requests
riding one launch per tick (docs/serving.md, step 8).

A policy keeps nothing a checkpoint needs: the session lives in the
engine's ``_live`` dict, which the policy reads and writes, so a
snapshot taken at any iteration hook restores into a fresh policy.
"""

from __future__ import annotations

from itertools import chain, repeat
from typing import TYPE_CHECKING, Callable, Sequence

from repro.core.arena import (
    MANY_SELECT_MIN,
    backprop_winners_many,
    compiled_arena,
    select_round_many,
)

if TYPE_CHECKING:  # pragma: no cover
    from repro.core.base import Engine, PlayoutBatch, PlayoutResults
    from repro.core.results import SearchResult

    Executor = Callable[[PlayoutBatch], PlayoutResults]

#: The one-row sub-round of a single-tree session.
_TREE0 = (0,)

#: ``CpuCostModel.iteration_time`` memoised per cost model, keyed by
#: ``(depth, plies)``.  A pure function of its arguments: the memo hands
#: back the very floats it would compute, so every clock sum is
#: unchanged (as ``Engine._charge_tree_control``'s memo).  Held by
#: ``id`` beside the model itself -- hashing the frozen dataclass costs
#: more than the memo saves on a short search.
_ITERATION_TIMES: dict = {}
#: Keys one cost model's memo holds at most (corrupted answers can
#: carry any ply count).
_MEMO_CAP = 1 << 14
#: Fewest compiled arenas :func:`credit_rounds` credits in one call:
#: below it the call's fixed cost outweighs the calls it replaces.
MANY_CREDIT_MIN = 4


def select_rounds(rounds: "Sequence[Round]") -> None:
    """:meth:`Round.select` of every round in ``rounds``, their
    sub-rounds run together: each tree changes exactly as its own
    ``select`` would change it (sessions share no tree), so a caller
    that needs no order between the sessions' side effects -- no
    iteration hook among them -- may select them all at once."""
    if len(rounds) < MANY_SELECT_MIN:
        for rnd in rounds:
            rnd.select()
        return
    for rnd in rounds:
        rnd.requests = ()
    asking = list(rounds)
    while asking:
        trees = [rnd.wants() for rnd in asking]
        asking = [rnd for rnd, ts in zip(asking, trees) if ts is not None]
        answers = select_round_many(
            [rnd.store for rnd in asking],
            [ts for ts in trees if ts is not None],
        )
        for rnd, answer in zip(asking, answers):
            rnd.took(*answer)


def credit_rounds(rounds: "Sequence[Round]", answers) -> None:
    """The credit half of :meth:`Round.deliver` for every round in
    ``rounds``, ``answers[j]`` round ``j``'s: one
    ``backprop_winners_many`` when at least :data:`MANY_CREDIT_MIN` of
    them hold compiled arenas, else each round's own
    :meth:`Round.credit`.  Credits only add and sessions share no tree,
    so each round then settles (:meth:`Round.settle`) as its own
    ``deliver`` would have left it."""
    credits = [rnd.credits(answer) for rnd, answer in zip(rounds, answers)]
    batched = sum(
        1
        for rnd, (rows, _) in zip(rounds, credits)
        if rows and compiled_arena(rnd.store)
    )
    if batched < MANY_CREDIT_MIN:
        for rnd, (rows, outcomes) in zip(rounds, credits):
            if rows:
                rnd.credit(rows, outcomes)
        return
    backprop_winners_many(
        [rnd.store for rnd in rounds],
        [rows for rows, _ in credits],
        [outcomes for _, outcomes in credits],
    )


def advance_rounds(rounds: "Sequence[Round]", answers) -> None:
    """Deliver ``answers[j]`` to round ``j`` and select every round's
    next: all their leaves credited in one call, then each round
    settled, in order.  A round whose engine has an iteration hook
    (journal checkpoints, a planned crash) selects at its turn, so
    hooks fire in the order one round after the other would fire
    them; the rest select together after the loop -- no other round
    can see when they do."""
    credit_rounds(rounds, answers)
    together = []
    for rnd, answer in zip(rounds, answers):
        rnd.settle(answer)
        if rnd.engine.iteration_hook is None:
            together.append(rnd)
        else:
            rnd.select()
    select_rounds(together)


def run_rounds(
    rounds: "Sequence[Round]", executor: "Executor"
) -> "list[SearchResult]":
    """Run every round's session to its end, ``executor`` answering
    all their requests in one call per round; each session's result,
    in order.  A session finishes once it selects no requests.  A
    self-driven round (:attr:`Round.screen` set) has its answers
    screened before they are delivered."""
    for rnd in rounds:
        if rnd.engine.iteration_hook is not None:
            rnd.select()
    select_rounds(
        [rnd for rnd in rounds if rnd.engine.iteration_hook is None]
    )
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
        flat = [state for rnd in asking for state in rnd.requests]
        answers = _checked(flat, executor(flat))
        per_round, lo = [], 0
        for rnd in asking:
            hi = lo + len(rnd.requests)
            answer = answers[lo:hi]
            if rnd.screen is not None:
                answer = _screen_results(
                    rnd.requests, answer, rnd.screen, executor
                )
            per_round.append(answer)
            lo = hi
        advance_rounds(asking, per_round)


def _checked(requests, answers):
    """``answers``, once they answer ``requests`` one for one: a
    short or long list is refused before any round is credited."""
    if len(answers) != len(requests):
        raise ValueError(
            f"{len(answers)} playout answers for "
            f"{len(requests)} requests"
        )
    return answers


def _screen_results(requests, answers, guard, executor):
    """Screen one round's playout answers; a rejected batch is asked
    of ``executor`` again (fresh draws) up to the policy's retry
    budget, then degraded to neutral ``(0, 0)`` answers -- the
    dropped-playout-batch model."""
    retries = guard.policy.max_result_retries
    for attempt in range(retries + 1):
        answers, ok = guard.screen_answers(list(answers))
        if ok:
            return answers
        if attempt < retries:
            answers = _checked(requests, executor(requests))
    guard.give_up()
    return [(0, 0)] * len(requests)


class Round:
    """The round logic of one live engine session (base class)."""

    def __init__(self, engine: "Engine", store) -> None:
        self.engine = engine
        self.live = live = engine._live
        #: The session's trees: what each sub-round selects on.
        self.store = store
        self.cost = engine.cost
        self.cap = engine._iteration_cap()
        #: The integrity guard that screens this session's answers:
        #: only when the engine drives its own executor.  Externally
        #: driven sessions (the service) are screened once at the
        #: merged-launch readback -- screening here too would
        #: double-draw corruption.
        self.screen = (
            live.get("integrity")
            if live.get("executor") is not None
            else None
        )
        #: The positions whose playouts the selected round waits for.
        self.requests: Sequence = ()
        entry = _ITERATION_TIMES.get(id(self.cost))
        if entry is None or entry[0] is not self.cost:
            entry = _ITERATION_TIMES[id(self.cost)] = (self.cost, {})
        self._times = entry[1]

    def _iteration_time(self, depth: int, plies: int) -> float:
        """``cost.iteration_time(depth, plies)``, memoised."""
        times = self._times
        t = times.get((depth, plies))
        if t is None:
            t = self.cost.iteration_time(depth, plies)
            if len(times) < _MEMO_CAP:
                times[depth, plies] = t
        return t

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

    def finish(self) -> "SearchResult":
        """End the session: the engine's search result."""
        raise NotImplementedError


class SequentialRound(Round):
    """``sequential``: one select / playout / backprop per iteration,
    the engine clock charged per iteration."""

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


class RootRound(Round):
    """``root:N``: every tree with budget left selects in one lockstep
    sub-round; each tree's core clock is charged its own iterations,
    and the search takes as long as the slowest core."""

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
        self.active = active = [
            i
            for i in self.trees
            if core_time[i] < budget_s and per_tree_iters[i] < cap
        ]
        return active or None

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
