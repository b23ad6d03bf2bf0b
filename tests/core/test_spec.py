"""Tests for the declarative engine-spec API (repro.core.spec)."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import (
    BlockParallelMcts,
    EngineSpec,
    HybridMcts,
    LeafParallelMcts,
    MultiGpuMcts,
    PipelineMcts,
    RootParallelMcts,
    SequentialMcts,
    TreeParallelMcts,
    engine_kinds,
    make_engine,
    spec_modifiers,
    with_stack,
)
from repro.games import TicTacToe

BUDGET = 0.002

#: kind -> (small spec string, equivalent direct construction).
EQUIVALENTS = {
    "sequential": (
        "sequential",
        lambda g, s: SequentialMcts(g, s),
    ),
    "leaf": (
        "leaf:2x32",
        lambda g, s: LeafParallelMcts(g, s, blocks=2, threads_per_block=32),
    ),
    "block": (
        "block:2x32",
        lambda g, s: BlockParallelMcts(g, s, blocks=2, threads_per_block=32),
    ),
    "hybrid": (
        "hybrid:2x32",
        lambda g, s: HybridMcts(g, s, blocks=2, threads_per_block=32),
    ),
    "root": (
        "root:2",
        lambda g, s: RootParallelMcts(g, s, n_trees=2),
    ),
    "tree": (
        "tree:2",
        lambda g, s: TreeParallelMcts(g, s, n_workers=2),
    ),
    "pipeline": (
        "pipeline:2",
        lambda g, s: PipelineMcts(g, s, n_workers=2),
    ),
    "multigpu": (
        "multigpu:2x2x32",
        lambda g, s: MultiGpuMcts(
            g, s, n_gpus=2, blocks=2, threads_per_block=32
        ),
    ),
}


def test_every_registered_kind_has_an_equivalence_case():
    assert {k.name for k in engine_kinds()} == set(EQUIVALENTS)


@pytest.mark.parametrize("kind", sorted(EQUIVALENTS))
def test_spec_build_matches_direct_construction(kind):
    """Same seed + budget => byte-identical SearchResult either way."""
    text, direct = EQUIVALENTS[kind]
    game = TicTacToe()
    seed = 7
    via_spec = make_engine(text, game, seed).search(
        game.initial_state(), BUDGET
    )
    via_class = direct(game, seed).search(game.initial_state(), BUDGET)
    assert via_spec.move == via_class.move
    assert via_spec.simulations == via_class.simulations
    assert via_spec.iterations == via_class.iterations
    assert via_spec.elapsed_s == via_class.elapsed_s
    assert dict(via_spec.stats) == dict(via_class.stats)


@pytest.mark.parametrize("kind", sorted(EQUIVALENTS))
def test_string_round_trip(kind):
    text, _ = EQUIVALENTS[kind]
    spec = EngineSpec.parse(text)
    assert spec.kind == kind
    assert spec.canonical() == text
    assert EngineSpec.parse(spec.canonical()) == spec


def test_dict_form_equivalent_to_string_form():
    game = TicTacToe()
    a = make_engine("block:2x32", game, 3)
    b = make_engine(
        {"kind": "block", "blocks": 2, "threads_per_block": 32}, game, 3
    )
    ra = a.search(game.initial_state(), BUDGET)
    rb = b.search(game.initial_state(), BUDGET)
    assert ra.move == rb.move
    assert ra.simulations == rb.simulations


def test_dict_form_carries_keyword_parameters():
    game = TicTacToe()
    engine = make_engine(
        {"kind": "sequential", "ucb_c": 0.7}, game, 1
    )
    assert engine.ucb_c == 0.7


def test_overrides_win_over_spec_params():
    game = TicTacToe()
    engine = make_engine("root:2", game, 1, n_trees=4)
    assert engine.n_trees == 4


def test_device_resolved_from_string():
    from repro.gpu import get_device_spec

    game = TicTacToe()
    engine = make_engine(
        {"kind": "block", "blocks": 2, "threads_per_block": 32,
         "device": "gtx_580"},
        game,
        1,
    )
    assert engine.gpu.spec == get_device_spec("gtx_580")


def test_coerce_passthrough_and_rejects_junk():
    spec = EngineSpec("sequential")
    assert EngineSpec.coerce(spec) is spec
    with pytest.raises(ValueError, match="int"):
        EngineSpec.coerce(42)
    with pytest.raises(ValueError, match="kind"):
        EngineSpec.coerce({"blocks": 2})


def test_canonical_rejects_keyword_only_params():
    spec = EngineSpec("sequential", {"ucb_c": 0.5})
    with pytest.raises(ValueError, match="ucb_c"):
        spec.canonical()


class TestBackendSuffix:
    """The ``@backend`` suffix of the string grammar."""

    def test_parse_backend_suffix(self):
        spec = EngineSpec.parse("block:2x8@arena")
        assert spec.kind == "block"
        assert spec.params["backend"] == "arena"
        assert spec.params["blocks"] == 2

    def test_parse_backend_on_parameterless_kind(self):
        spec = EngineSpec.parse("sequential@arena")
        assert spec.params == {"backend": "arena"}

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="@cuda"):
            EngineSpec.parse("block:2x8@cuda")

    def test_round_trip_keeps_backend(self):
        for text in ("block:2x8@arena", "sequential@arena"):
            assert EngineSpec.parse(text).canonical() == text

    def test_node_backend_is_emitted(self):
        """No backend is the default of every game, so the canonical
        form keeps the one a spec names -- and names none when the spec
        carries none."""
        spec = EngineSpec.parse("block:2x8@node")
        assert spec.params["backend"] == "node"
        assert spec.canonical() == "block:2x8@node"
        assert EngineSpec.parse("block:2x8").canonical() == "block:2x8"

    def test_with_stack_helper(self):
        assert (
            with_stack("root:4", "arena", "compiled").canonical()
            == "root:4@arena@compiled"
        )
        assert (
            with_stack("root:4", "node", "numpy").canonical()
            == "root:4@node@numpy"
        )
        # The spec's own explicit backend wins over the one applied.
        kept = with_stack("root:4@node", "arena", "compiled")
        assert kept.params["backend"] == "node"
        assert kept.canonical() == "root:4@node@compiled"
        # Nothing applies: the very same object comes back.
        assert with_stack("root:4", None, None) == "root:4"
        for spec in ("root:4", "root:4@node@compiled"):
            assert with_stack(spec, None, None) is spec
        assert with_stack("root:4@node@compiled", "node", "numpy") == (
            "root:4@node@compiled"
        )
        spelled = "tree:2@arena@wuct"
        assert with_stack(spelled, "arena", None) is spelled

    def test_built_engine_carries_backend(self):
        from repro.core.backend import default_stack

        game = TicTacToe()
        engine = make_engine("block:2x8@arena", game, 1)
        assert engine.backend == "arena"
        assert make_engine("block:2x8@node", game, 1).backend == "node"
        assert (
            make_engine("block:2x8", game, 1).backend
            == default_stack(game.name)[0]
        )


class TestMalformedSpecs:
    """Every malformed spec raises ValueError naming the bad token."""

    KNOWN = {k.name for k in engine_kinds()}

    @given(
        kind=st.text(
            alphabet=st.characters(whitelist_categories=("Ll",)),
            min_size=1,
            max_size=12,
        ).filter(lambda s: s not in {k.name for k in engine_kinds()})
    )
    @settings(max_examples=50, deadline=None)
    def test_unknown_kind_named_in_error(self, kind):
        with pytest.raises(ValueError) as err:
            EngineSpec.parse(kind)
        assert repr(kind) in str(err.value)

    @given(
        kind=st.sampled_from(["block", "leaf", "hybrid", "root", "tree"]),
        token=st.text(
            alphabet=st.characters(whitelist_categories=("Ll",)),
            min_size=1,
            max_size=6,
        ).filter(lambda s: "x" not in s and not s.isdigit()),
    )
    @settings(max_examples=50, deadline=None)
    def test_non_integer_token_named_in_error(self, kind, token):
        with pytest.raises(ValueError) as err:
            EngineSpec.parse(f"{kind}:{token}")
        assert repr(token) in str(err.value) or "parameter" in str(
            err.value
        )

    @given(extra=st.integers(min_value=1, max_value=4))
    @settings(max_examples=20, deadline=None)
    def test_wrong_arity_reports_expectation(self, extra):
        args = "x".join(["8"] * (2 + extra))
        with pytest.raises(ValueError) as err:
            EngineSpec.parse(f"block:{args}")
        msg = str(err.value)
        assert "block" in msg and "2" in msg

    def test_missing_params_names_example(self):
        with pytest.raises(ValueError, match="block:16x32"):
            EngineSpec.parse("block")

    def test_empty_spec(self):
        with pytest.raises(ValueError, match="empty"):
            EngineSpec.parse("   ")


class TestModifierGrammar:
    """The composable ``@modifier`` grammar (order-independent,
    registered table, loud errors)."""

    def test_unknown_modifier_names_token_and_candidates(self):
        with pytest.raises(ValueError) as err:
            EngineSpec.parse("tree:4@warp")
        msg = str(err.value)
        assert "@warp" in msg and "@wuct" in msg

    def test_modifier_on_wrong_kind_rejected(self):
        with pytest.raises(ValueError, match="does not apply"):
            EngineSpec.parse("sequential@wuct")
        with pytest.raises(ValueError, match="does not apply"):
            EngineSpec.parse("block:2x8@wuct")

    def test_duplicate_modifier_rejected(self):
        with pytest.raises(ValueError, match="duplicate modifier @wuct"):
            EngineSpec.parse("tree:4@wuct@wuct")

    def test_conflicting_modifiers_rejected(self):
        with pytest.raises(ValueError, match="conflicting modifiers"):
            EngineSpec.parse("tree:4@wuct@vloss")
        with pytest.raises(ValueError, match="conflicting modifiers"):
            EngineSpec.parse("tree:4@node@arena")

    def test_order_independence(self):
        a = EngineSpec.parse("tree:8@wuct@arena")
        b = EngineSpec.parse("tree:8@arena@wuct")
        assert a == b
        assert a.canonical() == b.canonical() == "tree:8@wuct@arena"

    def test_value_modifier_parses_and_round_trips(self):
        spec = EngineSpec.parse("tree:4@vloss=1.5")
        assert spec.params["mode"] == "vloss"
        assert spec.params["virtual_loss"] == 1.5
        assert spec.canonical() == "tree:4@vloss=1.5"
        # Integral values render without a trailing .0.
        assert (
            EngineSpec.parse("tree:4@vloss=2").canonical()
            == "tree:4@vloss=2"
        )

    def test_bare_value_modifier_rejected(self):
        with pytest.raises(ValueError, match="needs a value"):
            EngineSpec.parse("root:4@vote")

    def test_flag_modifier_rejects_value(self):
        with pytest.raises(ValueError, match="takes no value"):
            EngineSpec.parse("tree:4@arena=2")

    def test_wuct_engine_rejects_virtual_loss(self):
        game = TicTacToe()
        with pytest.raises(ValueError, match="virtual_loss"):
            TreeParallelMcts(game, 1, n_workers=2, mode="wuct",
                             virtual_loss=2.0)
        with pytest.raises(ValueError, match="virtual_loss"):
            PipelineMcts(game, 1, n_workers=2, mode="wuct",
                         virtual_loss=2.0)

    def test_vloss_rejects_nonpositive_virtual_loss(self):
        game = TicTacToe()
        for bad in (0.0, -1.0):
            with pytest.raises(ValueError, match="virtual_loss"):
                TreeParallelMcts(game, 1, n_workers=2, virtual_loss=bad)
            with pytest.raises(ValueError, match="virtual_loss"):
                PipelineMcts(game, 1, n_workers=2, virtual_loss=bad)


class TestSpecGrammarLint:
    """Every registered default spec round-trips through canonical()
    -- and so do modifier-decorated variants of every kind."""

    @pytest.mark.parametrize(
        "kind", sorted(k.name for k in engine_kinds())
    )
    def test_registered_example_round_trips(self, kind):
        example = next(
            k.example for k in engine_kinds() if k.name == kind
        )
        spec = EngineSpec.parse(example)
        assert spec.canonical() == example
        assert EngineSpec.parse(spec.canonical()) == spec

    @pytest.mark.parametrize(
        "kind", sorted(k.name for k in engine_kinds())
    )
    def test_every_applicable_modifier_round_trips(self, kind):
        example = next(
            k.example for k in engine_kinds() if k.name == kind
        )
        for mod in spec_modifiers():
            if mod.kinds is not None and kind not in mod.kinds:
                continue
            if mod.flag_params is None:
                if mod.name != "vote":
                    continue
                text = f"{example}@{mod.name}=majority"
            else:
                text = f"{example}@{mod.name}"
            # Canonical form is a fixed point: parsing it and
            # re-canonicalising changes nothing (defaults such as
            # @vloss may be dropped on the first pass).
            canonical = EngineSpec.parse(text).canonical()
            assert EngineSpec.parse(canonical).canonical() == canonical
        # The four stack cells: spelled in table order, each keeps both
        # modifiers, whether parsed or applied with ``with_stack``.
        for backend in ("node", "arena"):
            for playout in ("numpy", "compiled"):
                text = f"{example}@{backend}@{playout}"
                assert EngineSpec.parse(text).canonical() == text
                cell = with_stack(example, backend, playout)
                assert cell.canonical() == text
                assert EngineSpec.parse(text) == cell


def test_the_default_stack_is_named_once():
    """Every constructor, config and CLI flag that takes a backend or a
    playout executor defaults to None, and what a game's engine and
    executors are built on is ``default_stack``'s answer: the one place
    a default stack is chosen."""
    import inspect

    from repro.cli import build_parser
    from repro.core.backend import default_stack
    from repro.core.base import BatchExecutor, Engine
    from repro.games import make_game
    from repro.gpu import VirtualGpu
    from repro.serve import (
        FusedBatcher,
        LaneBatcher,
        SearchService,
        WorkloadConfig,
    )

    for owner in (
        Engine,
        BatchExecutor,
        VirtualGpu,
        LaneBatcher,
        FusedBatcher,
        SearchService,
        WorkloadConfig,
    ):
        params = inspect.signature(owner).parameters
        taken = {"backend", "playout"} & params.keys()
        assert taken, owner
        for name in taken:
            assert params[name].default is None, (owner, name)
    for command in (["play"], ["serve-bench"]):
        args = build_parser().parse_args(command)
        assert (args.backend, args.playout) == (None, None)
    for name in ("reversi", "tictactoe", "breakthrough"):
        backend, playout = default_stack(name)
        engine = make_engine("block:2x2", make_game(name), 1)
        assert (engine.backend, engine.playout) == (backend, playout)
        assert engine.gpu.playout == playout
        assert BatchExecutor(make_game(name)).playout == playout
    spec = {"kind": "block", "blocks": 2, "threads_per_block": 2}
    assert EngineSpec.coerce(spec).canonical() == "block:2x2"
