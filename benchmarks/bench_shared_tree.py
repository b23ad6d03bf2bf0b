"""Shared-tree shootout bench: WU-UCT / pipeline / baselines strength.

Pytest runs the tier-scaled shootout and checks structure (quick tier
has too few games for statistical claims; richer tiers additionally
require WU-UCT to hold its own against virtual loss at the largest
worker count).

``python benchmarks/bench_shared_tree.py --smoke`` runs only the
seconds-scale CI gate, through bench_serve.py's ``main``: a
wuct-vs-vloss head-to-head at N=16 on connect4 where WU-UCT's win
ratio must stay within tolerance of -- or beat -- virtual loss.
Without the flag it runs every test here at ``REPRO_TIER``.
"""

import sys

from repro.harness.shared_tree import ShootoutConfig, run_shootout

try:
    from benchmarks.bench_serve import main
except ImportError:  # standalone `python benchmarks/bench_shared_tree.py`
    from bench_serve import main

#: The smoke gate's slack: wuct may trail vloss by at most this much.
SMOKE_TOLERANCE = 0.25


def test_shared_tree_shootout(run_once):
    cfg = ShootoutConfig.for_tier()
    result = run_once(run_shootout, cfg)
    print()
    print(result.render())

    for game_name in cfg.games:
        for label in cfg.contenders:
            ratios = result.win_ratio[(game_name, label)]
            assert len(ratios) == len(cfg.worker_counts)
            for ratio in ratios:
                assert 0.0 <= ratio <= 1.0

    if cfg.games_per_point >= 8 and 16 in cfg.worker_counts:
        # With enough games WU-UCT's headline claim must show: at the
        # large worker count it matches or beats virtual loss on at
        # least one game.
        assert any(
            result.ratio(g, "tree@wuct", 16)
            >= result.ratio(g, "tree@vloss", 16)
            for g in cfg.games
        )


def test_shared_tree_smoke_wuct_within_tolerance_of_vloss(headline):
    cfg = ShootoutConfig.smoke()
    result = run_shootout(cfg)
    print()
    print(result.render())
    game, n = cfg.games[0], cfg.worker_counts[0]
    wuct = result.ratio(game, "tree@wuct", n)
    vloss = result.ratio(game, "tree@vloss", n)
    headline.append(f"wuct {wuct:.2f} vs vloss {vloss:.2f} at N={n} on {game}")
    assert wuct >= vloss - SMOKE_TOLERANCE


if __name__ == "__main__":  # pragma: no cover
    modes = ("shared_tree_smoke",) if "--smoke" in sys.argv else ()
    sys.exit(main(__file__, sys.argv[1:], modes))
