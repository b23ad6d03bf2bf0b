"""Merged scheduling primitives: the lane batchers.

The service, the arena cohort and every round engine's ``search()``
advance the engines' round policies through ``repro.core.rounds``;
this module turns the merged playout demand into launches.

* :class:`LaneBatcher` converts one tick's merged playout demand (all
  outstanding leaf states, one lane per leaf, grouped per game) into
  wide vectorised kernel launches placed on a shared
  :class:`~repro.gpu.lease.DevicePool`, and returns the per-lane
  ``(winner, plies)`` results along with the leases to synchronise on.

Results are deterministic *and geometry-independent*: lane ``i`` of
game ``g``'s merged demand on that game's round ``r`` always draws
from stream ``i`` of the ``derive_seed(batcher_seed, g, r)`` family,
no matter how the batch was chunked across devices or fused with other
games' lanes.  The same submitted workload therefore produces the same
per-request search results under every launch geometry -- the property
the fused-vs-unfused identity tests pin.

:class:`FusedBatcher` is the cross-tenant fusion variant: instead of
one launch per game per tick it packs every game's lane demand into a
single power-of-two-padded virtual megakernel, paying the launch and
readback latencies once per tick instead of once per game.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Hashable, Mapping, Sequence

from repro.core.base import PlayoutResults
from repro.core.backend import default_stack
from repro.core.executors import Launch, playout_launcher, validate_playout
from repro.games import make_batch_game
from repro.gpu.kernel import (
    KernelSpec,
    LaunchConfig,
    playout_kernel_spec,
)
from repro.gpu.lease import DeviceLease, DevicePool
from repro.gpu.timing import kernel_time
from repro.faults import KIND_CORRUPT_RESULT
from repro.integrity import IntegrityState
from repro.serve.resilience import LaunchOutcome, ResilientLauncher
from repro.util.seeding import SeedLadder, derive_seed

import numpy as np


class GeneratorPool:
    """A set of keyed search generators advanced in merged rounds.

    ``add`` primes each generator to its first playout request; each
    round, callers gather ``requests_for`` every pending key, execute
    the merged batch however they like, and ``step`` each key with its
    slice of answers.  Finished searches land in :attr:`results`.

    No product code calls it: every engine session advances through
    ``repro.core.rounds``.  It stays only because the benchmark's
    traced run imports it and wraps ``add`` / ``step``.
    """

    def __init__(self) -> None:
        self._gens: dict[Hashable, object] = {}
        self._requests: dict[Hashable, list] = {}
        self.results: dict[Hashable, object] = {}

    def add(self, key: Hashable, gen) -> bool:
        """Prime ``gen``; returns False if it finished immediately."""
        if key in self._gens or key in self.results:
            raise ValueError(f"duplicate generator key: {key!r}")
        try:
            self._requests[key] = list(next(gen))
        except StopIteration as stop:
            self.results[key] = stop.value
            return False
        self._gens[key] = gen
        return True

    @property
    def pending(self) -> tuple[Hashable, ...]:
        """Keys still searching, in insertion order."""
        return tuple(self._gens)

    def __len__(self) -> int:
        return len(self._gens)

    def requests_for(self, key: Hashable) -> list:
        return self._requests[key]

    def step(self, key: Hashable, answers: PlayoutResults) -> bool:
        """Deliver one round of answers; returns True if finished."""
        gen = self._gens[key]
        try:
            self._requests[key] = list(gen.send(answers))
        except StopIteration as stop:
            self.results[key] = stop.value
            del self._gens[key]
            del self._requests[key]
            return True
        return False

    def cancel(self, key: Hashable) -> None:
        """Abandon a search (deadline miss); no result is recorded."""
        gen = self._gens.pop(key)
        self._requests.pop(key)
        gen.close()


# ---------------------------------------------------------------------------
# Lane batching: merged playout demand -> wide kernel launches
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LaunchRecord:
    """One merged kernel this tick: where it ran and what it cost."""

    game: str
    lanes: int
    #: Full retry-chain outcome; its lease is the successful placement
    #: (None when the chain was lost and its lanes' results dropped).
    outcome: LaunchOutcome
    #: Every ``(game, lo, hi)`` span of the merged per-game batches
    #: this launch covered (one for a single-game launch, several for a
    #: fused one).
    segments: tuple[tuple[str, int, int], ...]

    @property
    def lease(self) -> DeviceLease | None:
        return self.outcome.lease

    @property
    def delivered(self) -> bool:
        return self.outcome.delivered

    @property
    def ready_s(self) -> float:
        """When the host has (or gives up on) this launch's results."""
        return self.outcome.ready_s


def block_maxima(finish_steps: np.ndarray, tpb: int) -> list:
    """The slowest lane of each ``tpb``-lane block of ``finish_steps``
    (the last block may be short): what a launch's blocks cost.  Step
    counts are non-negative, so this equals the maxima of the lanes
    zero-padded to whole blocks."""
    return np.maximum.reduceat(
        finish_steps, np.arange(0, len(finish_steps), tpb)
    ).tolist()


def launch_config_for(lanes: int, warp_size: int = 32) -> LaunchConfig:
    """The grid a merged launch of ``lanes`` one-playout lanes uses:
    warp-aligned blocks of at most 128 threads (the paper's sweet spot
    for block width), as many blocks as needed."""
    if lanes <= 0:
        raise ValueError(f"lanes must be positive: {lanes}")
    tpb = min(128, -(-lanes // warp_size) * warp_size)
    blocks = -(-lanes // tpb)
    return LaunchConfig(blocks=blocks, threads_per_block=tpb)


class LaneBatcher:
    """Executes merged per-game playout batches on a device pool.

    One instance per service run: it owns the batch-game caches, the
    per-game round counters that seed each round's lane RNG family,
    and the policy for splitting very wide batches across devices.
    """

    #: Below this many lanes a batch is never split across devices
    #: (launch latency would dominate the win).
    MIN_LANES_PER_DEVICE = 64

    def __init__(
        self,
        pool: DevicePool,
        seed: int,
        launcher: ResilientLauncher | None = None,
        integrity: IntegrityState | None = None,
        playout: str | None = None,
    ) -> None:
        self.pool = pool
        self.seed = derive_seed(seed, "lane_batcher")
        #: Every merged launch goes through a resilient launch chain;
        #: without an injector the chain is one clean attempt on the
        #: least-busy device.
        self.launcher = launcher or ResilientLauncher(pool)
        #: Host-boundary result screening for merged launches.  When
        #: set (the service attaches one per run under fault
        #: injection), every delivered readback is corrupted per the
        #: injector's decision and validated; rejects retry through the
        #: resilient launcher.
        self.integrity = integrity
        if playout is not None:
            validate_playout(playout)
        #: Playout executor ("numpy" or "compiled") running the merged
        #: batches, or None: each game's default, resolved at its first
        #: launch.  Bit-identical by contract, so this never changes
        #: which results tenants see.
        self.playout = playout
        self._launchers: dict[str, Launch] = {}
        self.launch_count = 0
        self.lanes_total = 0
        #: Lanes whose launch chain exhausted its retries (results
        #: dropped, requests degraded).
        self.lost_lanes = 0
        #: Fusion accounting (only the FusedBatcher advances these;
        #: they live on the base so reporting is uniform).
        self.fused_launches = 0
        self.pad_lanes = 0
        self.tenant_slices = 0
        #: Per-game round counters: round ``r`` of game ``g`` seeds the
        #: lane stream family ``derive_seed(seed, g, r)``, independent
        #: of how many launches (or which fusion geometry) served it.
        self._rounds: dict[str, int] = {}
        #: ``SeedLadder(seed, g)`` per game: the ``(seed, g)`` prefix of
        #: that derivation is folded once, not once per round.
        self._round_ladders: dict[str, SeedLadder] = {}
        self._batch_games: dict[str, object] = {}

    def _batch_game(self, game: str):
        bg = self._batch_games.get(game)
        if bg is None:
            bg = make_batch_game(game)
            self._batch_games[game] = bg
        return bg

    def _launch(self, game: str) -> Launch:
        """The launch body of ``game``'s merged batches."""
        launch = self._launchers.get(game)
        if launch is None:
            launch = self._launchers[game] = playout_launcher(
                default_stack(game, playout=self.playout)[1]
            )
        return launch

    def _round_seed(self, game: str) -> int:
        """Advance ``game``'s round counter and derive the round's lane
        stream family seed."""
        r = self._rounds.get(game, 0) + 1
        self._rounds[game] = r
        ladder = self._round_ladders.get(game)
        if ladder is None:
            ladder = self._round_ladders[game] = SeedLadder(self.seed, game)
        return ladder.seed(r)

    def _chunks(self, n: int) -> list[tuple[int, int]]:
        """Contiguous (lo, hi) lane spans, one per launch."""
        per_device = max(self.MIN_LANES_PER_DEVICE, -(-n // len(self.pool)))
        spans = []
        lo = 0
        while lo < n:
            hi = min(n, lo + per_device)
            spans.append((lo, hi))
            lo = hi
        return spans

    def _duration_for(self, game: str, finish_steps, lanes: int):
        """Closure mapping a device spec to this chunk's modelled
        kernel time there (re-placement may land on any device).  The
        per-block maxima are taken once per block width, not once per
        attempt."""
        kernel = playout_kernel_spec(game)
        maxima: dict[int, list] = {}

        def duration(spec) -> float:
            config = launch_config_for(lanes, spec.warp_size)
            tpb = config.threads_per_block
            block_steps = maxima.get(tpb)
            if block_steps is None:
                block_steps = maxima[tpb] = block_maxima(finish_steps, tpb)
            return kernel_time(
                spec,
                kernel,
                config,
                block_steps,
                transfer_bytes=4 * lanes,
            ).total_s

        return duration

    def _make_screen(self, slices, answers_by_game):
        """Build the host-boundary validation closure for one launch.

        Each call to the closure models one readback of the launch's
        results: for every ``(game, lo, hi)`` slice the injector
        decides whether *this* delivery is corrupted (fresh draw per
        attempt), the integrity state applies and validates it, and a
        delivery whose every slice is accepted -- clean or carrying an
        escaped corruption -- lands in the returned cell for the caller
        to adopt.  Returns ``(None, None)`` when no integrity state is
        attached, so fault-free service runs stay draw-for-draw
        identical.
        """
        guard = self.integrity
        if guard is None:
            return None, None
        cell: dict = {}

        def screen() -> bool:
            parts = []
            ok_all = True
            for game, lo, hi in slices:
                screened, ok = guard.screen_answers(
                    answers_by_game[game][lo:hi]
                )
                parts.append((game, lo, hi, screened))
                ok_all = ok_all and ok
            if ok_all:
                cell["parts"] = parts
            return ok_all

        return screen, cell

    def _launch_group(
        self,
        holder: str,
        label: str,
        game: str,
        duration_for,
        segments: Sequence[tuple[str, int, int]],
        slices: Sequence[tuple[str, int, int]],
        answers_by_game: dict[str, list],
        **trace_args,
    ) -> LaunchRecord:
        """Launch one group of lanes through the resilient chain and
        settle its answers in place.

        ``segments`` are the ``(game, lo, hi)`` lane spans riding the
        launch, ``slices`` the units the integrity screen validates
        (one per tenant under fusion).  A delivered launch adopts the
        screened slices of the accepted readback (possibly carrying an
        escaped corruption); a chain that exhausted its retries yields
        neutral ``(0, 0)`` answers for every lane -- the
        dropped-playout-batch degradation contract.
        """
        lanes = sum(hi - lo for _, lo, hi in segments)
        screen, cell = self._make_screen(slices, answers_by_game)
        outcome = self.launcher.launch(
            holder,
            duration_for,
            label=label,
            screen=screen,
            lanes=lanes,
            game=game,
            **trace_args,
        )
        if not outcome.delivered:
            for sgame, lo, hi in segments:
                answers_by_game[sgame][lo:hi] = [(0, 0)] * (hi - lo)
            self.lost_lanes += lanes
            if (
                self.integrity is not None
                and outcome.attempts
                and outcome.attempts[-1].fault == KIND_CORRUPT_RESULT
            ):
                # The chain died rejecting corrupt readbacks, not
                # launching -- that is a dropped batch in the
                # integrity accounting.
                self.integrity.give_up()
        elif cell is not None:
            for sgame, lo, hi, part in cell["parts"]:
                answers_by_game[sgame][lo:hi] = part
        return LaunchRecord(
            game=game,
            lanes=lanes,
            outcome=outcome,
            segments=tuple(segments),
        )

    def execute(
        self, game: str, states: Sequence, holder: str = "merged"
    ) -> tuple[PlayoutResults, list[LaunchRecord]]:
        """Run one game's merged lane batch; one playout per state.

        Returns per-lane ``(winner, plies)`` aligned with ``states``
        and the launch records (wait on their ``ready_s`` / leases to
        charge the kernel time to the clock).
        """
        if not states:
            return [], []
        bg = self._batch_game(game)
        round_seed = self._round_seed(game)
        answers: list[tuple[int, int]] = []
        records: list[LaunchRecord] = []
        for lo, hi in self._chunks(len(states)):
            lanes = hi - lo
            self.launch_count += 1
            self.lanes_total += lanes
            # Geometry-independent streams: chunk lane j is merged lane
            # lo + j, and always gets that lane's stream of this
            # round's family regardless of the chunking.
            winners, finish_steps = self._launch(game)(
                bg, states[lo:hi], round_seed, lo
            )
            answers.extend(zip(winners.tolist(), finish_steps.tolist()))
            chunk_span = ((game, lo, hi),)
            records.append(
                self._launch_group(
                    holder,
                    f"{game}_playouts",
                    game,
                    self._duration_for(game, finish_steps, lanes),
                    chunk_span,
                    chunk_span,
                    {game: answers},
                )
            )
        return answers, records

    def execute_demand(
        self,
        demand: Mapping[str, Sequence],
        spans: Mapping[Hashable, tuple[str, int, int]] | None = None,
        holder: str = "merged",
    ) -> tuple[dict[str, PlayoutResults], list[LaunchRecord]]:
        """Run one tick's full merged demand (game -> states).

        Returns per-game answer lists (aligned with each game's
        states) and all launch records issued.  ``spans`` maps tenant
        keys to their ``(game, lo, hi)`` slice of the merged per-game
        batches; the base batcher ignores it (it exists for interface
        parity with :meth:`FusedBatcher.execute_demand`, which screens
        and accounts per tenant).
        """
        answers_by_game: dict[str, PlayoutResults] = {}
        records: list[LaunchRecord] = []
        for game, states in demand.items():
            answers, launches = self.execute(game, states, holder)
            answers_by_game[game] = answers
            records.extend(launches)
        return answers_by_game, records

    @property
    def mean_lanes_per_launch(self) -> float:
        if self.launch_count == 0:
            return 0.0
        return self.lanes_total / self.launch_count

    @property
    def mean_tenants_per_launch(self) -> float:
        """Mean distinct tenant slices sharing one fused launch."""
        if self.fused_launches == 0:
            return 0.0
        return self.tenant_slices / self.fused_launches


def _next_pow2(n: int) -> int:
    """Smallest power of two >= ``n`` (n >= 1)."""
    return 1 << (n - 1).bit_length()


def fused_kernel_spec(games: Sequence[str]) -> KernelSpec:
    """Conservative kernel spec for a fused cross-game megakernel.

    A fused launch runs every game's playout loop in one grid, so its
    per-step cost, dependent-latency floor and per-thread resources
    are the worst case over the fused games -- the occupancy and
    timing model then never underestimate the fused kernel.  One spec
    object per set of games: the timing model's launch-shape memo keys
    on it.
    """
    return _fused_kernel_spec(tuple(dict.fromkeys(games)))


@functools.lru_cache(maxsize=None)
def _fused_kernel_spec(games: tuple[str, ...]) -> KernelSpec:
    specs = [playout_kernel_spec(g) for g in games]
    if len(specs) == 1:
        return specs[0]
    return KernelSpec(
        name="fused_playout",
        cycles_per_step=max(s.cycles_per_step for s in specs),
        latency_cycles_per_step=max(
            s.latency_cycles_per_step for s in specs
        ),
        registers_per_thread=max(
            s.registers_per_thread for s in specs
        ),
        shared_mem_per_block=max(
            s.shared_mem_per_block for s in specs
        ),
        divergence_overhead=max(
            s.divergence_overhead for s in specs
        ),
    )


#: Real-lane capacity of one fused launch; wider demand rolls over
#: into additional fused launches.
MAX_FUSED_LANES = 1 << 16


class FusedBatcher(LaneBatcher):
    """Cross-tenant kernel fusion: one padded megakernel per tick.

    Packs every game's merged lane demand into a single virtual launch
    per tick: per-game block-aligned segments are concatenated and the
    grid is padded up to a power-of-two thread count (pad blocks carry
    zero steps, so they cost no compute -- only the wasted lanes the
    fusion metrics report).  The kernel-launch and readback latencies
    are paid once per tick instead of once per game, which is where
    the p50 win at high tenant counts comes from.

    The identity contract of :class:`LaneBatcher` is preserved
    exactly: lane ``i`` of game ``g``'s merged demand draws from the
    same per-(game, round) stream family under fusion as without it,
    so per-request results are bit-identical fused vs unfused.
    """

    #: Uniform block width of a fused launch (the paper's block-size
    #: sweet spot; keeps pad granularity and occupancy predictable).
    FUSED_TPB = 128

    def __init__(
        self,
        pool: DevicePool,
        seed: int,
        launcher: ResilientLauncher | None = None,
        integrity: IntegrityState | None = None,
        playout: str | None = None,
    ) -> None:
        super().__init__(
            pool,
            seed,
            launcher=launcher,
            integrity=integrity,
            playout=playout,
        )

    # -- packing -----------------------------------------------------------

    def _segments(
        self, lane_counts: Mapping[str, int]
    ) -> list[list[tuple[str, int, int]]]:
        """Group per-game lane demand into fused launch groups.

        Each game is cut into block-capacity pieces, then pieces are
        packed greedily (in game insertion order) into groups of at
        most ``MAX_FUSED_LANES`` real lanes -- one group per fused
        launch.
        """
        cap = (MAX_FUSED_LANES // self.FUSED_TPB) * self.FUSED_TPB
        pieces: list[tuple[str, int, int]] = []
        for game, n in lane_counts.items():
            lo = 0
            while lo < n:
                hi = min(n, lo + cap)
                pieces.append((game, lo, hi))
                lo = hi
        groups: list[list[tuple[str, int, int]]] = []
        current: list[tuple[str, int, int]] = []
        current_lanes = 0
        for piece in pieces:
            lanes = piece[2] - piece[1]
            if current and current_lanes + lanes > MAX_FUSED_LANES:
                groups.append(current)
                current = []
                current_lanes = 0
            current.append(piece)
            current_lanes += lanes
        if current:
            groups.append(current)
        return groups

    def _group_geometry(
        self, segments: list[tuple[str, int, int]]
    ) -> tuple[int, int, int]:
        """``(real_blocks, padded_blocks, real_lanes)`` of one group:
        each segment occupies whole blocks, and the block count is
        padded to the next power of two."""
        tpb = self.FUSED_TPB
        real_blocks = sum(
            -(-(hi - lo) // tpb) for _, lo, hi in segments
        )
        real_lanes = sum(hi - lo for _, lo, hi in segments)
        return real_blocks, _next_pow2(real_blocks), real_lanes

    def _fused_duration(
        self,
        segments: list[tuple[str, int, int]],
        maxima_by_game: Mapping[str, list],
    ):
        """Closure mapping a device spec to the fused launch's modelled
        kernel time (re-placement may land on any pooled device).

        ``maxima_by_game`` holds each game's :func:`block_maxima` at
        :attr:`FUSED_TPB`; a segment starts on a block boundary (what
        :meth:`_segments` cuts), so its blocks are a slice of its
        game's, and the pad blocks cost zero steps.  The grid, the
        kernel spec and the block list are built once per launch."""
        tpb = self.FUSED_TPB
        _, padded_blocks, real_lanes = self._group_geometry(segments)
        config = LaunchConfig(blocks=padded_blocks, threads_per_block=tpb)
        kernel = fused_kernel_spec([g for g, _, _ in segments])
        block_steps: list = []
        for game, lo, hi in segments:
            block_steps += maxima_by_game[game][lo // tpb : -(-hi // tpb)]
        block_steps += [0] * (padded_blocks - len(block_steps))

        def duration(spec) -> float:
            return kernel_time(
                spec,
                kernel,
                config,
                block_steps,
                transfer_bytes=4 * real_lanes,
            ).total_s

        return duration

    # -- tenant-sliced integrity screening ---------------------------------

    def _tenant_slices(
        self,
        segments: list[tuple[str, int, int]],
        spans: Mapping[Hashable, tuple[str, int, int]] | None,
    ) -> list[tuple[str, int, int]]:
        """The per-tenant ``(game, lo, hi)`` slices of one fused
        launch's readback, in tenant submission order.

        Each tenant whose lanes fall inside the launch gets exactly
        one slice per launch -- the unit the integrity screen
        validates.  Without tenant spans (direct batcher use) each
        whole segment is one slice.
        """
        if spans is None:
            return list(segments)
        # One game's pieces inside one group are consecutive and
        # contiguous (`_segments` cuts [0, cap), [cap, 2 cap), ... and
        # packs in order), so they cover one lane range per game.
        covered: dict[str, tuple[int, int]] = {}
        for game, lo, hi in segments:
            first_lo, _ = covered.get(game, (lo, hi))
            covered[game] = (first_lo, hi)
        slices = []
        for game, lo, hi in spans.values():
            glo, ghi = covered.get(game, (0, 0))
            olo, ohi = max(lo, glo), min(hi, ghi)
            if ohi > olo:
                slices.append((game, olo, ohi))
        return slices

    # -- execution ---------------------------------------------------------

    def execute_demand(
        self,
        demand: Mapping[str, Sequence],
        spans: Mapping[Hashable, tuple[str, int, int]] | None = None,
        holder: str = "merged",
    ) -> tuple[dict[str, PlayoutResults], list[LaunchRecord]]:
        """Run one tick's full merged demand as fused launches.

        The playouts themselves run per game (the vectorised batch
        games share no state layout), with the identical per-(game,
        round) lane streams the unfused path uses; what fuses is the
        *launch*: all games' lanes ride one padded grid whose launch
        and readback latencies are paid once.
        """
        demand = {g: s for g, s in demand.items() if s}
        if not demand:
            return {}, []
        answers_by_game: dict[str, list] = {}
        maxima_by_game: dict[str, list] = {}
        for game, states in demand.items():
            winners, finish_steps = self._launch(game)(
                self._batch_game(game), states, self._round_seed(game)
            )
            maxima_by_game[game] = block_maxima(
                finish_steps, self.FUSED_TPB
            )
            answers_by_game[game] = list(
                zip(winners.tolist(), finish_steps.tolist())
            )

        records: list[LaunchRecord] = []
        lane_counts = {g: len(s) for g, s in demand.items()}
        for segments in self._segments(lane_counts):
            _, padded_blocks, real_lanes = self._group_geometry(
                segments
            )
            self.launch_count += 1
            self.fused_launches += 1
            self.lanes_total += real_lanes
            self.pad_lanes += padded_blocks * self.FUSED_TPB - real_lanes
            tenant_slices = self._tenant_slices(segments, spans)
            self.tenant_slices += len(tenant_slices)
            games_label = "+".join(dict.fromkeys(g for g, _, _ in segments))
            records.append(
                self._launch_group(
                    holder,
                    f"fused_{games_label}_playouts",
                    games_label,
                    self._fused_duration(segments, maxima_by_game),
                    segments,
                    tenant_slices,
                    answers_by_game,
                    fused_tenants=len(tenant_slices),
                )
            )
        return answers_by_game, records
