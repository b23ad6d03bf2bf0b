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

from repro.core.base import Engine
from repro.core.checkpoint import CheckpointError
from repro.core.policy import validate_parallel_mode
from repro.core.results import INTEGRITY_EXTRA_KEYS, register_extra_keys
from repro.core.rounds import TreeRound
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
    round_policy = TreeRound

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

    def _begin_session(
        self, state: GameState, budget_s: float, executor
    ) -> None:
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
            "executor": executor,
            "integrity": self._make_guard(1),
        }

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
