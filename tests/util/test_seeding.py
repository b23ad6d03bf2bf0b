"""Tests for deterministic seed derivation."""

from hypothesis import given
from hypothesis import strategies as st

from repro.util.seeding import (
    SeedLadder,
    derive_seed,
    fold_seed,
    splitmix64,
)
from repro.util.seeding import _GOLDEN as GOLDEN

seeds = st.integers(min_value=0, max_value=2**64 - 1)


@given(seeds)
def test_derive_is_deterministic(root):
    assert derive_seed(root, "a", 1) == derive_seed(root, "a", 1)


@given(seeds)
def test_derive_depends_on_path(root):
    assert derive_seed(root, "a") != derive_seed(root, "b")
    assert derive_seed(root, 0) != derive_seed(root, 1)


@given(seeds)
def test_derive_never_zero(root):
    assert derive_seed(root) != 0
    assert derive_seed(root, 0, 0, 0) != 0


@given(seeds, seeds)
def test_distinct_roots_distinct_streams(a, b):
    if a != b:
        assert derive_seed(a, "x") != derive_seed(b, "x")


@given(seeds)
def test_splitmix_stays_in_64_bits(x):
    assert 0 <= splitmix64(x) < 2**64


def test_seed_ladder_prefix_isolation():
    fig6 = SeedLadder(7, "fig6")
    fig7 = SeedLadder(7, "fig7")
    assert fig6.seed("game", 0) != fig7.seed("game", 0)


def test_seed_ladder_child_extends_path():
    ladder = SeedLadder(7, "exp")
    child = ladder.child("rank", 3)
    assert child.seed("x") == ladder.seed("rank", 3, "x")


def test_seed_ladder_batch():
    ladder = SeedLadder(11)
    batch = ladder.seeds("game", 16)
    assert len(batch) == 16
    assert len(set(batch)) == 16


paths = st.lists(
    st.one_of(st.text(max_size=6), st.integers(-(2**70), 2**70)), max_size=4
)


@given(seeds, paths, paths)
def test_folding_a_prefix_once_equals_deriving_whole(root, prefix, rest):
    """The continuation spellings against `derive_seed` on the whole
    path: `fold_seed` by hand, and `SeedLadder`, which caches the fold
    of its prefix."""
    whole = derive_seed(root, *prefix, *rest)
    state = fold_seed(splitmix64(root), prefix)
    assert (fold_seed(state, rest) or GOLDEN) == whole
    ladder = SeedLadder(root, *prefix)
    assert ladder.seed(*rest) == whole
    assert ladder.child(*rest).seed() == whole


def _unmix(z):
    """Inverse of `splitmix64` (a bijection of 64-bit words)."""
    mask = 2**64 - 1
    z ^= z >> 31 ^ z >> 62
    z = z * pow(0x94D0_49BB_1331_11EB, -1, 2**64) & mask
    z ^= z >> 27 ^ z >> 54
    z = z * pow(0xBF58_476D_1CE4_E5B9, -1, 2**64) & mask
    z ^= z >> 30 ^ z >> 60
    return (z - GOLDEN) & mask


@given(seeds, st.integers(0, 2**64 - 1))
def test_zero_fold_becomes_golden_in_every_spelling(x, part):
    """Roots built so the fold ends on the all-zero word, which every
    spelling must replace."""
    assert splitmix64(_unmix(x)) == x
    root = _unmix(_unmix(0) ^ part)
    assert fold_seed(splitmix64(root), [part]) == 0
    assert derive_seed(root, part) == GOLDEN
    assert SeedLadder(root).seed(part) == GOLDEN
    assert SeedLadder(root, part).seed() == GOLDEN
