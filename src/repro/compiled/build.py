"""Build-and-cache layer for the compiled playout kernels.

The kernels live in ``playout.c`` next to this module and are compiled
on first use with the system C compiler into a content-addressed shared
library under a cache directory.  No build step, no new dependency:
when no toolchain is available (or ``REPRO_COMPILED=0``), loading
reports unavailable and callers fall back to the pure-NumPy path.
A cold build takes ≈ 2.8 s (GCC 12 on an Intel Xeon; ≈ 1.4 s when the
playout exports had one body -- ``playout.c`` now compiles them twice,
portable and AVX2 + BMI2).  The flags carry no ``-m`` option: the
library picks its body on the CPU that loads it (:func:`kernel_body`),
so one cache can serve different hosts.

Environment knobs:

``REPRO_COMPILED``
    ``0``/``never`` disables the compiled path entirely (forces the
    NumPy fallback -- what CI uses to prove the fallback leg);
    anything else (or unset) means auto-detect.  Read by the first
    :func:`load_library` after start-up or :func:`reset_cache`.
``REPRO_COMPILED_CACHE``
    Cache directory for built libraries (default
    ``~/.cache/repro-compiled``).
``CC``
    Compiler to use (default: first of ``cc``/``gcc``/``clang`` on
    ``PATH``).
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import shutil
import subprocess
import tempfile
from pathlib import Path

_SOURCE = Path(__file__).with_name("playout.c")
#: ``-ffp-contract=off``: the tree kernels score children with
#: ``p + c * sqrt(log_total / n_i)`` and must agree with the Python body
#: bit for bit; on FMA targets (aarch64, ``-march=native``) GCC's default
#: contraction would fuse the multiply-add and round once instead of
#: twice.  Everything else in ``playout.c`` is integer arithmetic.
#: ``-pthread``: the block exports play on a pool of helper threads
#: (:func:`block_workers`).
_CFLAGS = ("-O2", "-shared", "-fPIC", "-ffp-contract=off", "-pthread")
#: After the source on the command line: ``log`` / ``sqrt`` for the same
#: scores -- the libm ``math.log`` itself calls.
_LDLIBS = ("-lm",)

#: Load-once cache: ``False`` = not attempted, ``None`` = unavailable.
_LIB: "ctypes.CDLL | None | bool" = False
#: Human-readable reason the compiled path is unavailable (diagnostics).
_UNAVAILABLE_REASON: str | None = None


def compiled_disabled() -> bool:
    """Did the environment explicitly turn the compiled path off?"""
    return os.environ.get("REPRO_COMPILED", "").lower() in (
        "0",
        "never",
        "off",
        "false",
    )


def _find_compiler() -> str | None:
    cc = os.environ.get("CC")
    if cc:
        return cc if shutil.which(cc) else None
    for candidate in ("cc", "gcc", "clang"):
        if shutil.which(candidate):
            return candidate
    return None


def _cache_dir() -> Path:
    override = os.environ.get("REPRO_COMPILED_CACHE")
    if override:
        return Path(override)
    return Path.home() / ".cache" / "repro-compiled"


def _cache_key(compiler: str, source: bytes) -> str:
    digest = hashlib.sha256()
    digest.update(compiler.encode())
    digest.update(b"\0")
    digest.update(" ".join(_CFLAGS + _LDLIBS).encode())
    digest.update(b"\0")
    digest.update(source)
    return digest.hexdigest()[:16]


def build_library() -> Path | None:
    """Compile (or reuse) the playout kernel library; ``None`` when no
    toolchain is available or compilation fails."""
    global _UNAVAILABLE_REASON
    try:
        source = _SOURCE.read_bytes()
    except OSError as exc:
        _UNAVAILABLE_REASON = f"kernel source missing: {exc}"
        return None
    compiler = _find_compiler()
    if compiler is None:
        _UNAVAILABLE_REASON = "no C compiler on PATH (cc/gcc/clang)"
        return None
    cache = _cache_dir()
    target = cache / f"playout-{_cache_key(compiler, source)}.so"
    if target.exists():
        return target
    try:
        cache.mkdir(parents=True, exist_ok=True)
        # Build to a private temp file, then atomically publish, so
        # concurrent first-use builds never observe a half-written .so.
        fd, tmp = tempfile.mkstemp(
            suffix=".so", prefix="playout-", dir=cache
        )
        os.close(fd)
        proc = subprocess.run(
            [compiler, *_CFLAGS, "-o", tmp, str(_SOURCE), *_LDLIBS],
            capture_output=True,
            text=True,
            timeout=120,
        )
        if proc.returncode != 0:
            os.unlink(tmp)
            _UNAVAILABLE_REASON = (
                f"{compiler} failed: {proc.stderr.strip()[:500]}"
            )
            return None
        os.replace(tmp, target)
    except (OSError, subprocess.SubprocessError) as exc:
        _UNAVAILABLE_REASON = f"build error: {exc}"
        return None
    return target


def _bind(lib: ctypes.CDLL) -> ctypes.CDLL:
    # Array arguments are raw addresses (``ndarray.ctypes.data``): the
    # runner owns dtype and contiguity, and a typed POINTER cast per
    # argument costs more than a small launch's playouts.
    ptr = ctypes.c_void_p
    i64 = ctypes.c_int64
    f64 = ctypes.c_double
    lib.repro_reversi_playouts.restype = ctypes.c_int
    lib.repro_reversi_playouts.argtypes = [i64] + [ptr] * 10 + [i64, i64, f64]
    for name in ("repro_tictactoe_playouts", "repro_connect4_playouts"):
        fn = getattr(lib, name)
        fn.restype = ctypes.c_int
        fn.argtypes = [i64] + [ptr] * 9 + [i64, i64, f64]
    lib.repro_rng_advance.restype = None
    lib.repro_rng_advance.argtypes = [i64, ptr, ptr, i64]
    lib.repro_reversi_mobility.restype = None
    lib.repro_reversi_mobility.argtypes = [i64, ptr, ptr, ptr]
    lib.repro_reversi_flips.restype = None
    lib.repro_reversi_flips.argtypes = [i64, ptr, ptr, ptr, ptr]
    lib.repro_log.restype = None
    lib.repro_log.argtypes = [i64, ptr, ptr]
    return lib


#: Signatures declared on first use, by kind: ``(restype, argtypes)``;
#: arrays cross as raw addresses, as in :func:`_bind`.
_LAZY_SIGNATURES = {
    # (n, p1, p2, to_move, base, lo, winners, finish, max_steps)
    "launch": (
        ctypes.c_int,
        [ctypes.c_int64]
        + [ctypes.c_void_p] * 3
        + [ctypes.c_uint64, ctypes.c_int64]
        + [ctypes.c_void_p] * 2
        + [ctypes.c_int64],
    ),
    # (k, p1, p2, to_move, lanes, s0, s1, winners, scores, finish,
    #  max_steps, min_compact, thr)
    "block": (
        ctypes.c_int,
        [ctypes.c_int64]
        + [ctypes.c_void_p] * 3
        + [ctypes.c_int64]
        + [ctypes.c_void_p] * 5
        + [ctypes.c_int64, ctypes.c_int64, ctypes.c_double],
    ),
    # (n, base, lo, s0, s1)
    "lane_states": (
        None,
        [ctypes.c_int64, ctypes.c_uint64, ctypes.c_int64]
        + [ctypes.c_void_p] * 2,
    ),
    # (k, rows, arena_t*)
    "expand": (ctypes.c_int, [ctypes.c_int64] + [ctypes.c_void_p] * 2),
    # (k, trees, arena_t*, leaves, depths, root_loop_t* or NULL) -> 0 |
    #  capacity needed | error | BAD_PLIES
    "select_expand": (
        ctypes.c_int64, [ctypes.c_int64] + [ctypes.c_void_p] * 5
    ),
    # (k, leaves, sims, wins_b, wins_w, draws, arena_t*)
    "backprop": (
        ctypes.c_int,
        [ctypes.c_int64, ctypes.c_void_p, ctypes.c_double]
        + [ctypes.c_void_p] * 4,
    ),
    # (k, leaves, winners, arena_t*)
    "backprop_winners": (
        ctypes.c_int, [ctypes.c_int64] + [ctypes.c_void_p] * 3
    ),
    # (n, arena_t**, bounds, trees, leaves, depths, plane1, plane2,
    #  to_move, terminal, root_loop_t** (entries may be NULL), winners,
    #  plies, answer_at (NULL: no answers), at) -> 0 | capacity needed |
    #  error | BAD_PLIES; *at the first tenant not done
    "select_expand_many": (
        ctypes.c_int64, [ctypes.c_int64] + [ctypes.c_void_p] * 14
    ),
    # (n, root_loop_t**, at, lanes, plane1, plane2, to_move) -> 0 | -1
    "loop_positions": (
        ctypes.c_int,
        [ctypes.c_int64] + [ctypes.c_void_p] * 2 + [ctypes.c_int64]
        + [ctypes.c_void_p] * 3,
    ),
    # (n, arena_t**, bounds, leaves, winners, at) -> 0 | -2; *at the
    #  first tenant not done
    "backprop_winners_many": (
        ctypes.c_int, [ctypes.c_int64] + [ctypes.c_void_p] * 5
    ),
    # () -> the playout exports' body, by name
    "kernel_body": (ctypes.c_char_p, []),
    # () -> how many of KERNEL_BODIES this CPU can run
    "kernel_bodies": (ctypes.c_int, []),
    # (index into KERNEL_BODIES, or -1: the loading CPU's) -> 0 | -1
    "pin_kernel_body": (ctypes.c_int, [ctypes.c_int64]),
    # (n, masks, ranks, out)
    "nth_bits": (None, [ctypes.c_int64] + [ctypes.c_void_p] * 3),
    # () -> workers a block launch uses, the caller included
    "block_workers": (ctypes.c_int64, []),
    # (at most this many workers, or -1: all of them) -> 0 | -1
    "pin_block_workers": (ctypes.c_int, [ctypes.c_int64]),
    # (n, times, 0 < slots < n) -> the makespan | -1 (a negative time) |
    #  -2 (allocation) | -3 (slots out of range)
    "greedy_makespan": (
        ctypes.c_double, [ctypes.c_int64, ctypes.c_void_p, ctypes.c_int64]
    ),
}


def lazy_export(lib: ctypes.CDLL, kind: str, game_name: str | None = None):
    """``lib``'s export ``repro_[<game>_]<kind>`` -- a tree kernel, a
    launch entry or a test helper.  Signatures are declared on first
    use, not in :func:`_bind`: a process that never launches or searches
    a tree of that game does not pay for the binding at load."""
    prefix = f"repro_{game_name}_" if game_name else "repro_"
    fn = getattr(lib, prefix + kind)
    if fn.argtypes is None:
        fn.restype, fn.argtypes = _LAZY_SIGNATURES[kind]
    return fn


def load_library() -> ctypes.CDLL | None:
    """The bound kernel library, building it on first call; ``None``
    when the compiled path is disabled or unavailable."""
    global _LIB, _UNAVAILABLE_REASON
    if _LIB is False:
        # ``REPRO_COMPILED`` is read here, once per :func:`reset_cache`.
        _UNAVAILABLE_REASON = None
        path = None
        if compiled_disabled():
            _UNAVAILABLE_REASON = "disabled via REPRO_COMPILED"
        else:
            path = build_library()
        if path is None:
            _LIB = None
        else:
            try:
                _LIB = _bind(ctypes.CDLL(str(path)))
            except OSError as exc:
                _UNAVAILABLE_REASON = f"dlopen failed: {exc}"
                _LIB = None
    return _LIB


def unavailable_reason() -> str | None:
    """Why :func:`load_library` returned ``None`` (``None`` = it
    didn't)."""
    return _UNAVAILABLE_REASON


#: The two bodies of the playout exports (``playout.c``, "The two
#: bodies"), in the library's order: a CPU runs the first, or both.
KERNEL_BODIES = ("portable", "avx2+bmi2")


def kernel_body() -> str | None:
    """Which of :data:`KERNEL_BODIES` the playout exports run -- picked
    once, when the library loads, from the CPU that loads it; ``None``
    without a library.  A diagnostic, like :func:`unavailable_reason`."""
    lib = load_library()
    if lib is None:
        return None
    return lazy_export(lib, "kernel_body")().decode()


def kernel_bodies() -> tuple[str, ...]:
    """The bodies this CPU can run (none without a library)."""
    lib = load_library()
    if lib is None:
        return ()
    return KERNEL_BODIES[: lazy_export(lib, "kernel_bodies")()]


@contextlib.contextmanager
def pinned_kernel_body(body: str):
    """Test hook: the playout exports run ``body`` inside the block,
    and the loading CPU's body again after it.  Nothing else reaches the
    pin -- no environment variable, argument or flag.  Raises
    ``LookupError`` when this host cannot run ``body``."""
    if body not in kernel_bodies():
        raise LookupError(f"this host cannot run the {body!r} kernel body")
    pin = lazy_export(load_library(), "pin_kernel_body")
    pin(KERNEL_BODIES.index(body))
    try:
        yield
    finally:
        pin(-1)


def block_workers() -> int | None:
    """How many workers a block launch (``repro_<game>_block``) plays
    on: the calling thread and one helper per further CPU of the
    process's affinity mask, so ``taskset`` is the control.  Starts the
    pool; ``None`` without a library.  A diagnostic, like
    :func:`kernel_body`."""
    lib = load_library()
    if lib is None:
        return None
    return lazy_export(lib, "block_workers")()


@contextlib.contextmanager
def pinned_block_workers(workers: int):
    """Test hook, the twin of :func:`pinned_kernel_body`: block launches
    use at most ``workers`` workers inside the block (1: the caller
    alone), and all of them again after it.  Raises ``LookupError``
    when this host has fewer."""
    lib = load_library()
    pin = None if lib is None else lazy_export(lib, "pin_block_workers")
    if pin is None or workers < 1 or pin(workers):
        raise LookupError(f"this host cannot run {workers} block workers")
    try:
        yield
    finally:
        pin(-1)


def reset_cache() -> None:
    """Forget the loaded library so the next :func:`load_library`
    re-resolves it, ``REPRO_COMPILED`` included (tests set the variable
    and then call this)."""
    global _LIB
    _LIB = False
