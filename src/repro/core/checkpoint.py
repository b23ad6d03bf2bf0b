"""Engine checkpoints: snapshot, restore, and the on-disk format.

Every engine exposes ``snapshot()`` (a cheap, picklable
:class:`EngineSnapshot` of the live search: trees, RNG states, virtual
clock, iteration counters) and ``restore()`` + ``resume()`` (or, for
a session a driver answers, ``open_round()`` advanced through
``repro.core.rounds``) to continue the search *bit-identically* --
same chosen move, same root statistics, same virtual elapsed time --
as if the interruption never happened.  The determinism contract that makes
this testable is the same one behind the node/arena backend
equivalence: fixed RNG consumption order and explicit state
everywhere.

A snapshot deliberately does **not** self-describe how to build its
engine: constructing the engine is the caller's job (the serving
journal stores the originating request, which carries the engine
spec), and ``restore()`` refuses snapshots taken from a different
engine kind, backend or game.

On disk, :func:`save_checkpoint` / :func:`load_checkpoint` wrap the
snapshot in a versioned, CRC-checksummed pickle envelope; loading
rejects unknown format versions, foreign payloads and *any* byte
corruption.  Two checksums cover the whole blob: a trailing CRC over
the serialised envelope (so even framing bytes the pickle codec would
forgive -- e.g. the protocol byte -- are protected) and an inner CRC
over the nested snapshot pickle.  A single flipped bit anywhere
surfaces as a :class:`CheckpointError`, never as silently-adopted
poisoned state.  See docs/checkpointing.md.
"""

from __future__ import annotations

import pickle
import struct
import zlib
from dataclasses import dataclass, field
from pathlib import Path

#: Bump on any incompatible change to snapshot payload layout.
CHECKPOINT_FORMAT_VERSION = 1

#: Bump on any incompatible change to the on-disk envelope shape.
#: Version 2 nests the snapshot pickle as checksummed bytes.
ENVELOPE_VERSION = 2

#: Magic key identifying our checkpoint envelopes on disk.
_ENVELOPE_KEY = "repro-mcts-checkpoint"


class CheckpointError(RuntimeError):
    """Raised on invalid checkpoint use: restoring a snapshot into a
    mismatched engine, loading an unknown format version, resuming an
    engine that holds no session."""


def check_selection_rule(snap: dict) -> None:
    """Refuse a tree or arena snapshot selected under any in-tree rule
    but UCB1, the only one there is.  Snapshots still write the field,
    so format version 1 payloads read unchanged."""
    rule = snap.get("selection_rule")
    if rule != "ucb1":
        raise CheckpointError(
            f"snapshot selection rule {rule!r} unsupported "
            "(trees select with 'ucb1')"
        )


@dataclass(frozen=True)
class EngineSnapshot:
    """One engine's live search state, frozen mid-iteration.

    ``payload`` is the engine-kind-specific session dict (trees,
    counters, executor state, device state); the surrounding fields
    identify what may restore it.
    """

    #: :data:`CHECKPOINT_FORMAT_VERSION` at capture time.
    format_version: int
    #: Engine class name ("sequential", "block_parallel", ...).
    kind: str
    #: Tree backend the search ran on ("node" | "arena").
    backend: str
    #: Game name the search is over.
    game: str
    #: Engine seed (restore sanity check, not used to re-derive state).
    seed: int
    #: Virtual time on the engine clock at capture.
    clock_s: float
    #: Iterations completed at capture (engine-defined granularity).
    iterations: int
    #: Engine-specific live-session state.
    payload: dict = field(default_factory=dict)


def _pack(snapshot: EngineSnapshot) -> bytes:
    """The checksummed envelope: the snapshot pickle nested as bytes
    with its CRC alongside, so corruption of any body byte is caught
    by the checksum and corruption of the envelope itself is caught by
    the unpickle / magic / version checks."""
    if not isinstance(snapshot, EngineSnapshot):
        raise CheckpointError(
            f"can only save EngineSnapshot, got "
            f"{type(snapshot).__name__}"
        )
    body = pickle.dumps(snapshot, protocol=pickle.HIGHEST_PROTOCOL)
    blob = pickle.dumps(
        {
            "magic": _ENVELOPE_KEY,
            "envelope_version": ENVELOPE_VERSION,
            "format_version": snapshot.format_version,
            "crc": zlib.crc32(body),
            "snapshot_pickle": body,
        },
        protocol=pickle.HIGHEST_PROTOCOL,
    )
    # Trailing whole-blob CRC: the envelope pickle has framing bytes
    # (protocol marker, memo opcodes) a flip of which the codec may
    # forgive; checksumming the serialised form closes that hole.
    return blob + struct.pack("<I", zlib.crc32(blob))


def _unpack(data: bytes, source: str) -> EngineSnapshot:
    """Inverse of :func:`_pack`; every failure mode -- including any
    single flipped byte -- raises :class:`CheckpointError`."""
    if len(data) < 5:
        raise CheckpointError(
            f"{source}: truncated checkpoint ({len(data)} bytes)"
        )
    blob, trailer = data[:-4], data[-4:]
    if zlib.crc32(blob) != struct.unpack("<I", trailer)[0]:
        raise CheckpointError(
            f"{source}: checkpoint CRC mismatch -- corrupted on disk "
            f"or not an engine checkpoint"
        )
    try:
        envelope = pickle.loads(blob)
    except Exception as exc:
        raise CheckpointError(
            f"{source}: corrupt checkpoint envelope "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if (
        not isinstance(envelope, dict)
        or envelope.get("magic") != _ENVELOPE_KEY
    ):
        raise CheckpointError(f"{source} is not an engine checkpoint")
    envelope_version = envelope.get("envelope_version")
    if envelope_version != ENVELOPE_VERSION:
        raise CheckpointError(
            f"{source}: checkpoint envelope version "
            f"{envelope_version!r} unsupported (this build reads "
            f"{ENVELOPE_VERSION})"
        )
    version = envelope.get("format_version")
    if version != CHECKPOINT_FORMAT_VERSION:
        raise CheckpointError(
            f"{source}: checkpoint format {version!r} unsupported "
            f"(this build reads version {CHECKPOINT_FORMAT_VERSION})"
        )
    body = envelope.get("snapshot_pickle")
    if not isinstance(body, (bytes, bytearray)):
        raise CheckpointError(
            f"{source}: envelope carries no snapshot payload"
        )
    stored = envelope.get("crc")
    actual = zlib.crc32(bytes(body))
    if stored != actual:
        raise CheckpointError(
            f"{source}: checkpoint CRC mismatch (stored {stored!r}, "
            f"computed {actual}) -- corrupted on disk"
        )
    try:
        snapshot = pickle.loads(bytes(body))
    except Exception as exc:  # pragma: no cover - CRC catches first
        raise CheckpointError(
            f"{source}: corrupt snapshot payload "
            f"({type(exc).__name__}: {exc})"
        ) from exc
    if not isinstance(snapshot, EngineSnapshot):
        raise CheckpointError(
            f"{source}: envelope payload is not an EngineSnapshot"
        )
    return snapshot


def save_checkpoint(
    snapshot: EngineSnapshot, path: str | Path
) -> Path:
    """Write ``snapshot`` to ``path`` in the checksummed envelope."""
    path = Path(path)
    data = _pack(snapshot)
    tmp = path.with_suffix(path.suffix + ".tmp")
    with open(tmp, "wb") as fh:
        fh.write(data)
    tmp.replace(path)
    return path


def load_checkpoint(path: str | Path) -> EngineSnapshot:
    """Read a snapshot back; rejects foreign files, unknown versions
    and corrupted bytes (CRC) with :class:`CheckpointError`."""
    with open(path, "rb") as fh:
        data = fh.read()
    return _unpack(data, str(path))


def snapshot_bytes(snapshot: EngineSnapshot) -> bytes:
    """The checksummed envelope as bytes (what the serving journal
    embeds)."""
    return _pack(snapshot)


def snapshot_from_bytes(data: bytes) -> EngineSnapshot:
    """Inverse of :func:`snapshot_bytes`, with the same checks as
    :func:`load_checkpoint`."""
    return _unpack(data, "blob")
