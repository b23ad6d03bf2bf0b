"""Declarative engine specifications and the engine factory.

An :class:`EngineSpec` names an engine *kind* plus its grid/shape
parameters, and can be written three ways::

    make_engine("block:16x32", game, seed=1)          # string
    make_engine({"kind": "root", "n_trees": 64,       # dict
                 "vote": "majority"}, game, seed=1)
    make_engine(EngineSpec("sequential"), game, seed=1)

The string grammar is ``kind[:AxBxC][@mod[=value]]*`` -- the colon
suffix holds the kind's positional integers joined with ``x``
(``block:16x32`` is 16 blocks of 32 threads) and each ``@`` token is a
*modifier*.  Modifiers are order-independent and composable
(``tree:8@wuct@arena`` == ``tree:8@arena@wuct``); unknown modifiers,
duplicates, and two modifiers fighting over the same slot (``@node``
plus ``@arena``) are errors naming the offending token.  The modifier
table:

========== ============================ ==========================
modifier   sets                          applies to
========== ============================ ==========================
``@node``   ``backend="node"``           every kind
``@arena``  ``backend="arena"``          every kind
``@vloss``  ``mode="vloss"`` (optional   ``tree``, ``pipeline``
            ``=X`` sets ``virtual_loss``)
``@wuct``   ``mode="wuct"``              ``tree``, ``pipeline``
``@vote``   ``=sum|majority|trimmed``    ``root``, ``block``
``@numpy``  ``playout="numpy"``          every kind
``@compiled`` ``playout="compiled"``     every kind
========== ============================ ==========================

A spec that names no backend or playout runs the default stack of the
game it is built for (:func:`repro.core.backend.default_stack`): arena
+ compiled where the game has C kernels and the library loads, node +
numpy elsewhere.  An unnamed playout follows the backend, so
``@node`` alone is the reference stack (node + numpy) on every game.

:meth:`EngineSpec.canonical` renders the unique canonical string --
positional args, then modifiers in table order with the ``@vloss`` /
``@vote=sum`` defaults omitted and every stack modifier the spec
carries kept -- and round-trips through :meth:`EngineSpec.parse` for
every registered kind.  Every spec string the old positional-suffix
grammar accepted (``kind[:AxB][@backend]``) is a strict subset of this
grammar and still parses to the same engine.

Construction through a spec is *exactly equivalent* to calling the
engine class directly: same constructor arguments, same RNG streams,
same :class:`~repro.core.results.SearchResult` for the same seed and
budget.  The serving layer (:mod:`repro.serve`) and the CLI construct
every engine through this factory.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass, field
from typing import Callable, Mapping

from repro.core.backend import validate_backend
from repro.core.base import Engine, validate_vote
from repro.core.block_parallel import BlockParallelMcts
from repro.core.executors import validate_playout
from repro.core.hybrid import HybridMcts
from repro.core.leaf_parallel import LeafParallelMcts
from repro.core.multigpu import MultiGpuMcts
from repro.core.pipeline import PipelineMcts
from repro.core.root_parallel import RootParallelMcts
from repro.core.sequential import SequentialMcts
from repro.core.tree_parallel import TreeParallelMcts
from repro.games.base import Game


@dataclass(frozen=True)
class EngineKind:
    """One engine family: class + positional grammar."""

    name: str
    cls: type
    #: Names of the ``x``-separated integers in the string form, in
    #: order (empty for kinds like ``sequential`` that take none).
    positional: tuple[str, ...]
    #: A canonical example spec string, used in docs and error text.
    example: str


_KINDS: dict[str, EngineKind] = {
    kind.name: kind
    for kind in (
        EngineKind("sequential", SequentialMcts, (), "sequential"),
        EngineKind(
            "leaf", LeafParallelMcts, ("blocks", "threads_per_block"),
            "leaf:2x64",
        ),
        EngineKind(
            "block", BlockParallelMcts, ("blocks", "threads_per_block"),
            "block:16x32",
        ),
        EngineKind(
            "hybrid", HybridMcts, ("blocks", "threads_per_block"),
            "hybrid:16x32",
        ),
        EngineKind("root", RootParallelMcts, ("n_trees",), "root:64"),
        EngineKind("tree", TreeParallelMcts, ("n_workers",), "tree:8"),
        EngineKind("pipeline", PipelineMcts, ("n_workers",), "pipeline:8"),
        EngineKind(
            "multigpu",
            MultiGpuMcts,
            ("n_gpus", "blocks", "threads_per_block"),
            "multigpu:4x112x64",
        ),
    )
}


def engine_kinds() -> tuple[EngineKind, ...]:
    """All engine kinds, sorted by name."""
    return tuple(_KINDS[k] for k in sorted(_KINDS))


@dataclass(frozen=True)
class SpecModifier:
    """One ``@`` token of the spec grammar."""

    name: str
    #: Modifiers sharing a group fight over the same engine slot; a
    #: spec may carry at most one modifier per group (``@node@arena``
    #: is a conflict, not a composition).
    group: str
    #: Constructor params a bare ``@name`` sets; None means the
    #: modifier cannot appear without ``=value`` (e.g. ``@vote``).
    flag_params: "Mapping[str, object] | None" = None
    #: Constructor param an ``@name=value`` suffix sets; None means
    #: the modifier takes no value (``@arena=2`` is an error).
    value_param: str | None = None
    #: Parser/validator for the value token; raises ValueError on bad
    #: input (the message is wrapped with the spec context).
    value_parse: "Callable[[str], object] | None" = None
    #: Engine kinds the modifier applies to; None means every kind.
    kinds: "frozenset[str] | None" = None

    def applies_to(self, kind: str) -> bool:
        return self.kinds is None or kind in self.kinds


def _parse_virtual_loss(token: str) -> float:
    try:
        return float(token)
    except ValueError:
        raise ValueError(
            f"invalid virtual-loss value {token!r} (expected a number)"
        ) from None


#: Kinds sharing one search tree among concurrent selectors; only
#: these take the in-flight accounting (@vloss/@wuct) modifiers.
_SHARED_TREE_KINDS = frozenset({"tree", "pipeline"})

#: The modifier table; canonical strings emit modifiers in this order.
_MODIFIERS: dict[str, SpecModifier] = {
    mod.name: mod
    for mod in (
        SpecModifier(
            name="vloss",
            group="in-flight accounting mode",
            flag_params={"mode": "vloss"},
            value_param="virtual_loss",
            value_parse=_parse_virtual_loss,
            kinds=_SHARED_TREE_KINDS,
        ),
        SpecModifier(
            name="wuct",
            group="in-flight accounting mode",
            flag_params={"mode": "wuct"},
            kinds=_SHARED_TREE_KINDS,
        ),
        SpecModifier(
            name="vote",
            group="root vote",
            value_param="vote",
            value_parse=validate_vote,
            kinds=frozenset({"root", "block"}),
        ),
        SpecModifier(
            name="node",
            group="tree backend",
            flag_params={"backend": "node"},
        ),
        SpecModifier(
            name="arena",
            group="tree backend",
            flag_params={"backend": "arena"},
        ),
        SpecModifier(
            name="numpy",
            group="playout executor",
            flag_params={"playout": "numpy"},
        ),
        SpecModifier(
            name="compiled",
            group="playout executor",
            flag_params={"playout": "compiled"},
        ),
    )
}


def spec_modifiers() -> tuple[SpecModifier, ...]:
    """All modifiers, in table (= canonical) order."""
    return tuple(_MODIFIERS.values())


def _modifiers_for(kind: str) -> list[str]:
    return [
        f"@{m.name}" for m in _MODIFIERS.values() if m.applies_to(kind)
    ]


def _fmt_value(value: object) -> str:
    if isinstance(value, float) and value.is_integer():
        return str(int(value))
    return str(value)


@dataclass(frozen=True)
class EngineSpec:
    """A parsed, buildable engine description."""

    kind: str
    params: Mapping[str, object] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ValueError(
                f"unknown engine kind {self.kind!r}; "
                f"available: {sorted(_KINDS)}"
            )

    @staticmethod
    def parse(text: str) -> "EngineSpec":
        """Parse the string form (``"kind[:AxB][@mod[=value]]*"``)."""
        if not isinstance(text, str) or not text.strip():
            raise ValueError(f"empty engine spec: {text!r}")
        body, *mod_tokens = text.strip().split("@")
        kind_token, sep, arg_token = body.partition(":")
        kind = _KINDS.get(kind_token)
        if kind is None:
            raise ValueError(
                f"unknown engine kind {kind_token!r} in spec {text!r}; "
                f"available: {sorted(_KINDS)}"
            )
        params: dict[str, object] = {}
        if sep:
            tokens = arg_token.split("x")
            if len(tokens) != len(kind.positional):
                raise ValueError(
                    f"engine spec {text!r} has {len(tokens)} parameter(s) "
                    f"in {arg_token!r}; {kind.name} takes "
                    f"{len(kind.positional)} "
                    f"({' x '.join(kind.positional) or 'none'}), "
                    f"e.g. {kind.example!r}"
                )
            for pname, token in zip(kind.positional, tokens):
                try:
                    params[pname] = int(token)
                except ValueError:
                    raise ValueError(
                        f"invalid integer {token!r} for {pname} in engine "
                        f"spec {text!r}"
                    ) from None
        elif kind.positional:
            raise ValueError(
                f"engine spec {text!r} is missing its parameters; "
                f"expected e.g. {kind.example!r}"
            )
        params.update(
            _parse_modifiers(kind.name, mod_tokens, text)
        )
        return EngineSpec(kind.name, params)

    @staticmethod
    def coerce(spec: "EngineSpec | str | Mapping") -> "EngineSpec":
        """Accept a spec in any supported form."""
        if isinstance(spec, EngineSpec):
            return spec
        if isinstance(spec, str):
            return EngineSpec.parse(spec)
        if isinstance(spec, Mapping):
            if "kind" not in spec:
                raise ValueError(
                    f"dict engine spec needs a 'kind' key: {dict(spec)!r}"
                )
            params = {k: v for k, v in spec.items() if k != "kind"}
            return EngineSpec(str(spec["kind"]), params)
        raise ValueError(
            f"engine spec must be a string, dict or EngineSpec, "
            f"got {type(spec).__name__}: {spec!r}"
        )

    def canonical(self) -> str:
        """The unique canonical string form: positional parameters,
        then modifiers in table order with the ``mode`` / ``vote``
        defaults omitted and exactly the stack modifiers the spec
        carries (``canonical(parse(s))`` is a fixed point for every
        string ``s`` the grammar accepts).

        Raises ``ValueError`` if the spec holds keyword parameters the
        string grammar cannot carry.
        """
        kind = _KINDS[self.kind]
        expressible = set(kind.positional)
        for mod in _MODIFIERS.values():
            if not mod.applies_to(self.kind):
                continue
            if mod.flag_params is not None:
                expressible.update(mod.flag_params)
            if mod.value_param is not None:
                expressible.add(mod.value_param)
        extra = set(self.params) - expressible
        if extra:
            raise ValueError(
                f"spec has non-positional parameters {sorted(extra)}; "
                "only dict form can express them"
            )
        missing = [p for p in kind.positional if p not in self.params]
        if missing:
            raise ValueError(
                f"spec is missing positional parameters {missing}"
            )
        head = self.kind
        if kind.positional:
            head += ":" + "x".join(
                str(self.params[p]) for p in kind.positional
            )
        return head + _emit_modifiers(self.kind, self.params)

    def build(self, game: Game, seed: int, **overrides) -> Engine:
        """Construct the engine (``overrides`` win over spec params)."""
        kind = _KINDS[self.kind]
        kwargs = _resolve_params(self.params)
        kwargs.update(overrides)
        return kind.cls(game, seed, **kwargs)


@functools.lru_cache(maxsize=256)
def canonical_spec(text: str) -> str:
    """``EngineSpec.parse(text).canonical()``, remembered per string: a
    stream of requests spells a handful of specs thousands of times
    (the cache and routing key of each carries the canonical form).
    Registering an engine kind or a modifier forgets every answer."""
    return EngineSpec.parse(text).canonical()


def _parse_modifiers(
    kind: str, tokens: "list[str]", text: str
) -> dict[str, object]:
    """Resolve the ``@`` tokens of one spec string into params."""
    params: dict[str, object] = {}
    claimed: dict[str, str] = {}  # group -> modifier name
    for token in tokens:
        name, eq, value = token.partition("=")
        mod = _MODIFIERS.get(name)
        if mod is None or not mod.applies_to(kind):
            applicable = _modifiers_for(kind)
            detail = (
                f"does not apply to engine kind {kind!r}"
                if mod is not None
                else "is not registered"
            )
            raise ValueError(
                f"unknown modifier @{name or token} in engine spec "
                f"{text!r}: @{name or token} {detail}; modifiers for "
                f"{kind}: {applicable or 'none'}"
            )
        holder = claimed.get(mod.group)
        if holder == mod.name:
            raise ValueError(
                f"duplicate modifier @{mod.name} in engine spec {text!r}"
            )
        if holder is not None:
            raise ValueError(
                f"conflicting modifiers @{holder} and @{mod.name} in "
                f"engine spec {text!r} (both set the {mod.group})"
            )
        claimed[mod.group] = mod.name
        if eq:
            if mod.value_param is None:
                raise ValueError(
                    f"modifier @{mod.name} takes no value in engine "
                    f"spec {text!r}"
                )
            try:
                parsed = mod.value_parse(value) if mod.value_parse else value
            except ValueError as exc:
                raise ValueError(
                    f"bad value for modifier @{mod.name} in engine "
                    f"spec {text!r}: {exc}"
                ) from None
            params[mod.value_param] = parsed
            if mod.flag_params is not None:
                params.update(mod.flag_params)
        else:
            if mod.flag_params is None:
                raise ValueError(
                    f"modifier @{mod.name} needs a value "
                    f"(@{mod.name}=...) in engine spec {text!r}"
                )
            params.update(mod.flag_params)
    return params


#: Default parameter values the canonical form omits.  The stack
#: (``backend``, ``playout``) has no entry: its default depends on the
#: game (:func:`repro.core.backend.default_stack`), so a spec spells
#: exactly the stack modifiers it carries.
_CANONICAL_DEFAULTS = {
    "mode": "vloss",
    "vote": "sum",
}


def _emit_modifiers(kind: str, params: Mapping[str, object]) -> str:
    """Render the canonical modifier suffix for ``params``."""
    out = []
    for mod in _MODIFIERS.values():
        if not mod.applies_to(kind):
            continue
        if mod.value_param is not None and mod.value_param in params:
            out.append(
                f"@{mod.name}={_fmt_value(params[mod.value_param])}"
            )
            continue
        if mod.flag_params is None:
            continue
        match = all(
            params.get(p) == v for p, v in mod.flag_params.items()
        )
        explicit = any(p in params for p in mod.flag_params)
        is_default = all(
            _CANONICAL_DEFAULTS.get(p) == v
            for p, v in mod.flag_params.items()
        )
        if match and explicit and not is_default:
            out.append(f"@{mod.name}")
    return "".join(out)


def _resolve_params(params: Mapping[str, object]) -> dict:
    """Turn serialisable spec values into constructor arguments."""
    out = dict(params)
    device = out.get("device")
    if isinstance(device, str):
        from repro.gpu.device import get_device_spec

        out["device"] = get_device_spec(device)
    cost_model = out.get("cost_model")
    if isinstance(cost_model, str):
        from repro.cpu.costmodel import cpu_cost_model

        out["cost_model"] = cpu_cost_model(cost_model)
    return out


def with_stack(
    spec: "EngineSpec | str | Mapping",
    backend: str | None,
    playout: str | None,
) -> "EngineSpec | str | Mapping":
    """Apply a tree backend and playout executor to ``spec``; a backend
    or playout the spec names itself wins, and ``None`` applies nothing
    (the engine resolves it for its game).  When nothing applies,
    ``spec`` itself comes back -- a string stays that very string, so
    printed names and request strings keep their spelling; otherwise a
    new :class:`EngineSpec`."""
    stack = {}
    if backend is not None:
        stack["backend"] = validate_backend(backend)
    if playout is not None:
        stack["playout"] = validate_playout(playout)
    if not stack:
        return spec
    parsed = EngineSpec.coerce(spec)
    params = {**stack, **parsed.params}
    if len(params) == len(parsed.params):
        return spec
    return EngineSpec(parsed.kind, params)


def make_engine(
    spec: EngineSpec | str | Mapping,
    game: Game,
    seed: int,
    **overrides,
) -> Engine:
    """Build an engine from a declarative spec.

    Equivalent to constructing the engine class directly with the same
    arguments -- byte-for-byte identical search results for the same
    seed and budget.
    """
    return EngineSpec.coerce(spec).build(game, seed, **overrides)
