"""Shared-tree shootout: WU-UCT / pipeline / baselines strength.

``test_shared_tree_shootout`` runs the tier-scaled shootout and checks
structure (the quick tier has too few games for statistical claims;
richer tiers additionally require WU-UCT to hold its own against
virtual loss at the largest worker count).  The smoke gate (``-k
smoke``, seconds-scale) is a wuct-vs-vloss head-to-head at N=16 on
connect4 where WU-UCT's win ratio must stay within
``SMOKE_TOLERANCE`` of -- or beat -- virtual loss.
"""

from repro.harness.shared_tree import ShootoutConfig, run_shootout

#: The smoke gate's slack: wuct may trail vloss by at most this much.
SMOKE_TOLERANCE = 0.25


def test_shared_tree_shootout():
    cfg = ShootoutConfig.for_tier()
    result = run_shootout(cfg)
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
