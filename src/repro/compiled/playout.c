/* Compiled per-lane playout kernels for the `playout="compiled"` executor.
 *
 * Each function replays the exact per-lane semantics of the vectorised
 * NumPy batch games (the `<game>_batch.py` modules of repro/games) one
 * lane at a time: xorshift128+ draws in the same order, the same
 * multiply-shift `randbelow` reduction, the same n-th-set-bit move
 * pick.  A lane's outcome depends only on its private RNG stream, so
 * sequential replication is bit-identical to the lockstep kernel.
 *
 * Same results, different algorithm: the Reversi move generator is a
 * parallel-prefix (Kogge-Stone) fill, three doubling steps per
 * direction where reversi_batch.py walks five single steps, so the
 * NumPy driver is an independent oracle for it (docs/fusion.md, "How
 * the kernels generate moves").  Plain C only -- no ISA-specific
 * flags or intrinsics: the built library is cached by content and the
 * cache may be shared between hosts.
 *
 * RNG side-effect contract: the NumPy driver (`run_playouts_tracked`)
 * advances the *caller's* generator in lockstep until the batch first
 * compacts (after which a selected child generator advances instead).
 * These kernels reproduce that observable state: after playing, every
 * lane's (s0, s1) is rewritten to its initial state advanced by the
 * step at which the first compaction would have fired (or by the full
 * playout length when no compaction triggers).
 *
 * Built at runtime by repro.compiled.build via the system C compiler;
 * absence of a toolchain falls back to the NumPy path.
 */

#include <stdint.h>
#include <stdlib.h>

#define POPCOUNT(x) ((int64_t)__builtin_popcountll(x))
/* The move generator has two call sites each (the playout loop and a
 * test helper), which stops -O2 inlining it on its own; out of line it
 * costs the playout loop 5-8%. */
#define FORCE_INLINE static inline __attribute__((always_inline))

/* -- xorshift128+ (must match repro/rng/batch.py) ----------------------- */

static inline uint64_t next_u64(uint64_t *s0, uint64_t *s1)
{
    uint64_t a = *s0, b = *s1;
    uint64_t r = a + b;
    *s0 = b;
    a ^= a << 23;
    *s1 = a ^ b ^ (a >> 17) ^ (b >> 26);
    return r;
}

/* randbelow: multiply-shift reduction on the high 32 bits. */
static inline uint64_t draw_below(uint64_t *s0, uint64_t *s1, int64_t bound)
{
    uint64_t r32 = next_u64(s0, s1) >> 32;
    return (r32 * (uint64_t)bound) >> 32;
}

/* The k-th (0-based) set bit of m, as a one-bit mask (k < popcount). */
static inline uint64_t nth_bit(uint64_t m, uint64_t k)
{
    while (k--)
        m &= m - 1;
    return m & -m;
}

/* -- first-compaction step (must match run_playouts_tracked) ------------ */

/* The lockstep driver compacts after step k when the live count A_k
 * (= lanes with finish_step > k) first satisfies 0 < A_k < thr * n for
 * an n >= min_compact batch; the caller's generator stops advancing
 * there.  Returns the number of steps the caller's generator ran, or
 * -1 when the finish-step histogram cannot be allocated. */
static int64_t first_compact_step(int64_t n, const int64_t *finish,
                                  int64_t min_compact, double thr)
{
    int64_t K = 0;
    for (int64_t i = 0; i < n; i++)
        if (finish[i] > K)
            K = finish[i];
    if (K == 0 || n < min_compact)
        return K;
    int64_t *ended = calloc((size_t)K + 1, sizeof(int64_t));
    if (!ended)
        return -1;
    for (int64_t i = 0; i < n; i++)
        ended[finish[i]]++;
    int64_t alive = n - ended[0], steps = K;
    for (int64_t k = 1; k < K; k++) {
        alive -= ended[k];
        if (alive > 0 && (double)alive < thr * (double)n) {
            steps = k;
            break;
        }
    }
    free(ended);
    return steps;
}

/* Rewrite (s0, s1) to the initial states advanced `steps` times. */
static void settle_rng(int64_t n, uint64_t *s0, uint64_t *s1,
                       const uint64_t *init_s0, const uint64_t *init_s1,
                       int64_t steps)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t a = init_s0[i], b = init_s1[i];
        for (int64_t k = 0; k < steps; k++)
            next_u64(&a, &b);
        s0[i] = a;
        s1[i] = b;
    }
}

static int finalize(int64_t n, uint64_t *s0, uint64_t *s1,
                    uint64_t *init_s0, uint64_t *init_s1,
                    const int64_t *finish, int64_t min_compact,
                    double thr, int err)
{
    int rc = err ? -1 : 0;
    if (!err) {
        int64_t steps = first_compact_step(n, finish, min_compact, thr);
        if (steps < 0)
            rc = -2;
        else
            settle_rng(n, s0, s1, init_s0, init_s1, steps);
    }
    free(init_s0);
    free(init_s1);
    return rc;
}

static uint64_t *copy_u64(const uint64_t *src, int64_t n)
{
    uint64_t *out = malloc((size_t)n * sizeof(uint64_t));
    if (out)
        for (int64_t i = 0; i < n; i++)
            out[i] = src[i];
    return out;
}

/* -- Reversi (must match repro/games/reversi_batch.py) ------------------ */

/* Opponent discs a horizontal or diagonal run may pass through.  A
 * run cannot continue past column 0 or 7, so dropping the edge columns
 * from the opponent board up front stops every wrap-around that
 * reversi_batch.py stops with a mask after each shift. */
#define INNER_COLS 0x7E7E7E7E7E7E7E7EULL

/* Discs of `o` in an unbroken run starting next to a disc of `p`, in
 * the direction of a left (fill_up) or right (fill_down) shift by `s`.
 * Runs of 1, 2, 4 and 6 are reached in turn -- 6 is the longest an 8x8
 * board can bracket, and what the NumPy driver's 5-step fill reaches.
 * `pre` marks discs whose predecessor along the run is also in `o`. */
FORCE_INLINE uint64_t fill_up(uint64_t p, uint64_t o, int s)
{
    uint64_t x = o & (p << s);
    x |= o & (x << s);
    uint64_t pre = o & (o << s);
    x |= pre & (x << 2 * s);
    x |= pre & (x << 2 * s);
    return x;
}

FORCE_INLINE uint64_t fill_down(uint64_t p, uint64_t o, int s)
{
    uint64_t x = o & (p >> s);
    x |= o & (x >> s);
    uint64_t pre = o & (o >> s);
    x |= pre & (x >> 2 * s);
    x |= pre & (x >> 2 * s);
    return x;
}

FORCE_INLINE uint64_t rev_mobility(uint64_t own, uint64_t opp)
{
    uint64_t mo = opp & INNER_COLS;
    /* Eight independent chains: the compiler interleaves them. */
    uint64_t moves = fill_up(own, mo, 1) << 1 | fill_down(own, mo, 1) >> 1
                   | fill_up(own, mo, 7) << 7 | fill_down(own, mo, 7) >> 7
                   | fill_up(own, mo, 9) << 9 | fill_down(own, mo, 9) >> 9
                   | fill_up(own, opp, 8) << 8 | fill_down(own, opp, 8) >> 8;
    return moves & ~(own | opp);
}

/* The run, kept only when the square after it holds an own disc. */
FORCE_INLINE uint64_t bracketed_up(uint64_t own, uint64_t move,
                                   uint64_t o, int s)
{
    uint64_t x = fill_up(move, o, s);
    return x & -(uint64_t)(((x << s) & own) != 0);
}

FORCE_INLINE uint64_t bracketed_down(uint64_t own, uint64_t move,
                                     uint64_t o, int s)
{
    uint64_t x = fill_down(move, o, s);
    return x & -(uint64_t)(((x >> s) & own) != 0);
}

FORCE_INLINE uint64_t rev_flips(uint64_t own, uint64_t opp, uint64_t move)
{
    uint64_t mo = opp & INNER_COLS;
    return bracketed_up(own, move, mo, 1) | bracketed_down(own, move, mo, 1)
         | bracketed_up(own, move, mo, 7) | bracketed_down(own, move, mo, 7)
         | bracketed_up(own, move, mo, 9) | bracketed_down(own, move, mo, 9)
         | bracketed_up(own, move, opp, 8) | bracketed_down(own, move, opp, 8);
}

int repro_reversi_playouts(
    int64_t n, uint64_t *own, uint64_t *opp, int8_t *to_move,
    uint8_t *passed, uint8_t *done, uint64_t *s0, uint64_t *s1,
    int8_t *winners, int16_t *scores, int64_t *finish,
    int64_t max_steps, int64_t min_compact, double thr)
{
    uint64_t *init_s0 = copy_u64(s0, n), *init_s1 = copy_u64(s1, n);
    if (!init_s0 || !init_s1) {
        free(init_s0);
        free(init_s1);
        return -2;
    }
    int err = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t a = s0[i], b = s1[i];
        uint64_t ow = own[i], op = opp[i];
        int tm = to_move[i];
        int pa = passed[i] != 0;
        int64_t steps = 0;
        if (!done[i]) {
            for (;;) {
                if (steps >= max_steps) {
                    err = 1;
                    break;
                }
                uint64_t moves = rev_mobility(ow, op);
                int64_t pop = POPCOUNT(moves);
                uint64_t pick = draw_below(&a, &b, pop);
                uint64_t move = pop ? nth_bit(moves, pick) : 0;
                steps++;
                uint64_t fl = move ? rev_flips(ow, op, move) : 0;
                uint64_t new_own = ow | move | fl;
                uint64_t new_opp = op & ~fl;
                ow = new_opp;
                op = new_own;
                tm = -tm;
                int pass_now = move == 0;
                if (pass_now && pa)
                    break;
                pa = pass_now;
            }
        }
        finish[i] = steps;
        uint64_t black = tm == 1 ? ow : op;
        uint64_t white = tm == 1 ? op : ow;
        int16_t diff = (int16_t)(POPCOUNT(black) - POPCOUNT(white));
        scores[i] = diff;
        winners[i] = diff > 0 ? 1 : diff < 0 ? -1 : 0;
    }
    return finalize(n, s0, s1, init_s0, init_s1, finish, min_compact,
                    thr, err);
}

/* -- TicTacToe (must match repro/games/tictactoe_batch.py) -------------- */

#define TTT_FULL 0x1FFULL

static const uint64_t TTT_LINES[8] = {
    0x007, 0x038, 0x1C0, 0x049, 0x092, 0x124, 0x111, 0x054,
};

static inline int ttt_has_line(uint64_t m)
{
    for (int i = 0; i < 8; i++)
        if ((m & TTT_LINES[i]) == TTT_LINES[i])
            return 1;
    return 0;
}

int repro_tictactoe_playouts(
    int64_t n, uint64_t *x, uint64_t *o, int8_t *to_move, uint8_t *done,
    uint64_t *s0, uint64_t *s1, int8_t *winners, int16_t *scores,
    int64_t *finish, int64_t max_steps, int64_t min_compact, double thr)
{
    uint64_t *init_s0 = copy_u64(s0, n), *init_s1 = copy_u64(s1, n);
    if (!init_s0 || !init_s1) {
        free(init_s0);
        free(init_s1);
        return -2;
    }
    int err = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t a = s0[i], b = s1[i];
        uint64_t bx = x[i], bo = o[i];
        int tm = to_move[i];
        int64_t steps = 0;
        if (!done[i]) {
            for (;;) {
                if (steps >= max_steps) {
                    err = 1;
                    break;
                }
                uint64_t empty = ~(bx | bo) & TTT_FULL;
                int64_t pop = POPCOUNT(empty);
                uint64_t pick = draw_below(&a, &b, pop);
                uint64_t bit = pop ? nth_bit(empty, pick) : 0;
                steps++;
                if (tm == 1)
                    bx |= bit;
                else
                    bo |= bit;
                tm = -tm;
                if (ttt_has_line(bx) || ttt_has_line(bo)
                    || (bx | bo) == TTT_FULL)
                    break;
            }
        }
        finish[i] = steps;
        int8_t w = 0;
        if (ttt_has_line(bx))
            w = 1;
        if (ttt_has_line(bo))
            w = -1;
        winners[i] = w;
        scores[i] = w;
    }
    return finalize(n, s0, s1, init_s0, init_s1, finish, min_compact,
                    thr, err);
}

/* -- Connect-4 (must match repro/games/connect4_batch.py) --------------- */

#define C4_BOTTOM ((1ULL << 0) | (1ULL << 7) | (1ULL << 14) | (1ULL << 21) \
                   | (1ULL << 28) | (1ULL << 35) | (1ULL << 42))
#define C4_BOARD (C4_BOTTOM * 0x3FULL)

static const int C4_DIRS[4] = {1, 7, 8, 6};

static inline int c4_has_four(uint64_t m)
{
    for (int d = 0; d < 4; d++) {
        uint64_t y = m & (m >> C4_DIRS[d]);
        if ((y & (y >> (2 * C4_DIRS[d]))) != 0)
            return 1;
    }
    return 0;
}

int repro_connect4_playouts(
    int64_t n, uint64_t *p1, uint64_t *p2, int8_t *to_move, uint8_t *done,
    uint64_t *s0, uint64_t *s1, int8_t *winners, int16_t *scores,
    int64_t *finish, int64_t max_steps, int64_t min_compact, double thr)
{
    uint64_t *init_s0 = copy_u64(s0, n), *init_s1 = copy_u64(s1, n);
    if (!init_s0 || !init_s1) {
        free(init_s0);
        free(init_s1);
        return -2;
    }
    int err = 0;
    for (int64_t i = 0; i < n; i++) {
        uint64_t a = s0[i], b = s1[i];
        uint64_t b1 = p1[i], b2 = p2[i];
        int tm = to_move[i];
        int64_t steps = 0;
        if (!done[i]) {
            for (;;) {
                if (steps >= max_steps) {
                    err = 1;
                    break;
                }
                uint64_t mask = b1 | b2;
                uint64_t landings = (mask + C4_BOTTOM) & ~mask & C4_BOARD;
                int64_t pop = POPCOUNT(landings);
                uint64_t pick = draw_below(&a, &b, pop);
                uint64_t bit = pop ? nth_bit(landings, pick) : 0;
                steps++;
                if (tm == 1)
                    b1 |= bit;
                else
                    b2 |= bit;
                tm = -tm;
                if (c4_has_four(b1) || c4_has_four(b2)
                    || (b1 | b2) == C4_BOARD)
                    break;
            }
        }
        finish[i] = steps;
        int8_t w = 0;
        if (c4_has_four(b1))
            w = 1;
        if (c4_has_four(b2))
            w = -1;
        winners[i] = w;
        scores[i] = w;
    }
    return finalize(n, s0, s1, init_s0, init_s1, finish, min_compact,
                    thr, err);
}

/* Advance each lane's generator `steps` times in place (shared helper
 * for tests and for replaying lockstep RNG consumption). */
void repro_rng_advance(int64_t n, uint64_t *s0, uint64_t *s1, int64_t steps)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t a = s0[i], b = s1[i];
        for (int64_t k = 0; k < steps; k++)
            next_u64(&a, &b);
        s0[i] = a;
        s1[i] = b;
    }
}

/* Test helpers: the Reversi move generator on arbitrary board pairs. */
void repro_reversi_mobility(int64_t n, const uint64_t *own,
                            const uint64_t *opp, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = rev_mobility(own[i], opp[i]);
}

void repro_reversi_flips(int64_t n, const uint64_t *own, const uint64_t *opp,
                         const uint64_t *move, uint64_t *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = rev_flips(own[i], opp[i], move[i]);
}
