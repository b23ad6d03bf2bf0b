"""Figure 5: playouts/second vs GPU threads, leaf vs block parallelism.

For every (scheme, thread count) point we run a short real search from
the Reversi opening and report ``simulations / virtual elapsed``.  The
virtual elapsed includes the kernel time *and* the CPU sequential part
(one tree walk per block per iteration) -- the term that makes
block(32)'s curve sag below leaf(64)'s at high thread counts in the
paper, because 448 tiny trees cost the single controlling CPU more than
112 larger ones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.core.spec import make_engine
from repro.games import Reversi
from repro.gpu import TESLA_C2050, DeviceSpec
from repro.harness.common import (
    PAPER_SCHEMES,
    PAPER_THREAD_SWEEP,
    Scheme,
    resolve_tier,
)
from repro.util.seeding import derive_seed
from repro.util.tables import format_series


@dataclass(frozen=True)
class Fig5Config:
    thread_counts: tuple[int, ...] = PAPER_THREAD_SWEEP
    schemes: tuple[Scheme, ...] = PAPER_SCHEMES
    iterations_per_point: int = 4
    device: DeviceSpec = TESLA_C2050
    seed: int = 50_2011

    @staticmethod
    def for_tier(tier: str | None = None) -> "Fig5Config":
        tier = resolve_tier(tier)
        if tier == "quick":
            return Fig5Config(
                thread_counts=(32, 256, 1024),
                iterations_per_point=2,
            )
        if tier == "full":
            return Fig5Config(iterations_per_point=8)
        return Fig5Config()


@dataclass
class Fig5Result:
    config: Fig5Config
    #: scheme label -> list of playouts/s aligned with thread_counts.
    series: dict[str, list[float]] = field(default_factory=dict)

    def render(self) -> str:
        return format_series(
            "threads",
            list(self.config.thread_counts),
            {k: [f"{v:.3g}" for v in vs] for k, vs in self.series.items()},
            title=(
                "Figure 5 reproduction: playouts/second vs GPU threads "
                f"({self.config.device.name})"
            ),
        )


def _engine_for(scheme: Scheme, threads: int, cfg: Fig5Config):
    blocks, tpb = scheme.grid_for(threads)
    return make_engine(
        f"{scheme.kind}:{blocks}x{tpb}",
        Reversi(),
        derive_seed(cfg.seed, scheme.label, threads),
        device=cfg.device,
        max_iterations=cfg.iterations_per_point,
    )


def measure_point(
    scheme: Scheme, threads: int, cfg: Fig5Config
) -> float:
    """Sustained playouts/second for one configuration."""
    subject = _engine_for(scheme, threads, cfg)
    game = subject.game
    result = subject.search(game.initial_state(), budget_s=1e9)
    return result.simulations / result.elapsed_s


def run_fig5(config: Fig5Config | None = None) -> Fig5Result:
    cfg = config or Fig5Config.for_tier()
    out = Fig5Result(config=cfg)
    for scheme in cfg.schemes:
        out.series[scheme.label] = [
            measure_point(scheme, threads, cfg)
            for threads in cfg.thread_counts
        ]
    return out
