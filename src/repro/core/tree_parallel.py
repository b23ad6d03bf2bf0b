"""Tree-parallel MCTS on one shared tree (virtual loss / WU-UCT).

Chaslot et al.'s third scheme, which the paper cites and rules out for
GPUs (it needs fine-grained shared-memory synchronisation a SIMT device
cannot provide cheaply).  We implement it as an ablation baseline:
``n_workers`` select concurrently from one shared tree; playouts are
batched; real results replace the in-flight markers at the end of each
round.  Two accounting modes govern how in-flight selections bias
later selections in the same round:

* ``mode="vloss"`` (default, ``tree:N@vloss``) -- classic virtual
  loss: each in-flight path carries ``virtual_loss`` phantom *losing*
  visits, dragging down both the mean and the exploration term until
  the real result arrives.
* ``mode="wuct"`` (``tree:N@wuct``) -- WU-UCT (Liu et al., "Watch the
  Unobserved"): in-flight selections are counted as *unobserved
  samples* ``O(s,a)``.  The exploration term uses ``N+O`` and
  ``n_i+O_i`` (so concurrent workers still spread out) while the mean
  stays the average over **completed** playouts -- no phantom losses
  polluting value estimates, which matters as ``N`` grows.
"""

from __future__ import annotations

from repro.core.base import Engine, SearchGenerator
from repro.core.checkpoint import CheckpointError
from repro.core.policy import validate_parallel_mode
from repro.core.results import INTEGRITY_EXTRA_KEYS, register_extra_keys
from repro.games.base import GameState


def resolve_shared_tree_mode(
    mode: str, virtual_loss: "float | None"
) -> tuple[str, float]:
    """Validate a shared-tree engine's ``(mode, virtual_loss)`` pair
    and return ``(mode, marker_amount)``.

    Under ``vloss`` the marker is the virtual-loss weight and must be
    strictly positive -- ``virtual_loss=0`` silently disables the
    spreading mechanism and collapses every worker onto one leaf.
    Under ``wuct`` each in-flight playout is exactly one unobserved
    sample, so a ``virtual_loss`` parameter is meaningless and
    rejected."""
    validate_parallel_mode(mode)
    if mode == "wuct":
        if virtual_loss is not None:
            raise ValueError(
                "virtual_loss is a @vloss parameter; @wuct counts "
                "each in-flight playout as one unobserved sample -- "
                "drop virtual_loss or use mode='vloss'"
            )
        return mode, 1.0
    amount = 1.0 if virtual_loss is None else float(virtual_loss)
    if amount <= 0:
        raise ValueError(
            f"virtual_loss must be > 0 under @vloss (got {amount}): "
            "zero virtual loss lets every worker collapse onto the "
            "same leaf"
        )
    return mode, amount


def check_snapshot_mode(payload: dict, mode: str) -> None:
    """Refuse a shared-tree session payload written under the other
    in-flight accounting mode (its tree carries that mode's markers)."""
    snap_mode = payload.get("mode", "vloss")
    if snap_mode != mode:
        raise CheckpointError(
            f"snapshot parallel mode mismatch: snapshot has "
            f"{snap_mode!r}, engine has {mode!r}"
        )


class TreeParallelMcts(Engine):
    """One shared tree, ``n_workers`` concurrent selectors."""

    name = "tree_parallel"

    def __init__(
        self,
        game,
        seed,
        n_workers: int,
        mode: str = "vloss",
        virtual_loss: "float | None" = None,
        injector=None,
        integrity=None,
        **kwargs,
    ) -> None:
        if n_workers <= 0:
            raise ValueError(f"n_workers must be positive: {n_workers}")
        self.mode, marker = resolve_shared_tree_mode(mode, virtual_loss)
        super().__init__(game, seed, **kwargs)
        self.n_workers = n_workers
        #: Per-in-flight-path marker weight (phantom losses under
        #: vloss, unobserved-sample count -- always 1 -- under wuct).
        self.virtual_loss = marker
        self.injector = injector
        self.integrity = integrity

    search = Engine._search_batched

    def search_steps(
        self, state: GameState, budget_s: float
    ) -> SearchGenerator:
        self._check_budget(budget_s, state)
        self._live = {
            "mode": self.mode,
            "tree": self._make_forest(
                state, [self.rng.fork("tree")], parallel_mode=self.mode
            ),
            "worker_time": [0.0] * self.n_workers,
            "budget_s": budget_s,
            "iterations": 0,
            "simulations": 0,
            "executor": self._take_pending_executor(),
            "integrity": self._make_guard(1),
        }
        return self._session_steps()

    def _session_steps(self) -> SearchGenerator:
        live = self._live
        tree = live["tree"]
        worker_time = live["worker_time"]
        budget_s = live["budget_s"]
        cap = self._iteration_cap()
        iterations = live["iterations"]
        simulations = live["simulations"]
        guard = live.get("integrity")
        screen = guard if live.get("executor") is not None else None

        while min(worker_time) < budget_s and iterations < cap:
            requests = []
            pending = []  # (worker, node, depth)
            instant = []  # terminal selections: (worker, node, depth)
            for w in range(self.n_workers):
                if worker_time[w] >= budget_s:
                    continue
                node, depth = tree.select_expand()
                tree.apply_virtual_loss(node, self.virtual_loss)
                if tree.terminal_of(node):
                    instant.append((w, node, depth))
                else:
                    requests.append(tree.state_of(node))
                    pending.append((w, node, depth))
            results = (yield requests) if requests else []
            if screen is not None and requests:
                results = yield from self._screen_results(
                    requests, results, screen
                )
            for w, node, depth in instant:
                tree.revert_virtual_loss(node, self.virtual_loss)
                tree.backprop_winner(node, tree.winner_of(node))
                worker_time[w] += self.cost.iteration_time(depth, 0)
                iterations += 1
                simulations += 1
            for (w, node, depth), (winner, plies) in zip(
                pending, self._answers(pending, results)
            ):
                tree.revert_virtual_loss(node, self.virtual_loss)
                tree.backprop_winner(node, winner)
                worker_time[w] += self.cost.iteration_time(depth, plies)
                iterations += 1
                simulations += 1
            live["iterations"] = iterations
            live["simulations"] = simulations
            # Round end: every in-flight marker reverted -- a clean
            # checkpoint boundary.
            self._after_iteration(iterations, tree)

        self.clock.advance(max(worker_time))
        return self._finish(tree, max(worker_time))

    # -- checkpointing -------------------------------------------------------

    def _restore_payload(self, payload: dict) -> dict:
        check_snapshot_mode(payload, self.mode)
        return super()._restore_payload(payload)


register_extra_keys(
    TreeParallelMcts.name,
    {
        "tree.depth": list,
        "tree.nodes": list,
        **INTEGRITY_EXTRA_KEYS,
    },
)
