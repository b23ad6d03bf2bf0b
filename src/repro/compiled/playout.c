/* Compiled per-lane playout kernels for the `playout="compiled"` executor,
 * and the tree arena's kernels: expansion, descent + expansion, a
 * `root:N` session's select loop, and backprop (the last four sections).
 *
 * Each game has one move loop (`<game>_lane`) behind three exports.
 * `repro_<game>_launch` takes absolute planes and a lane-seed range (the
 * serving batchers' and `BatchExecutor`'s launches); `repro_<game>_block`
 * takes absolute planes, a lane count per position and the caller's
 * generator (the virtual GPU's launches: block b plays from position b),
 * and plays its blocks on every CPU of the affinity mask (section "Block
 * workers"); everything else runs on the calling thread.  Both derive
 * what a playout starts from -- the mover's perspective, over at entry
 * -- here, once per position (`<game>_entry`).
 * `repro_<game>_playouts` takes a NumPy batch object's fields, already
 * derived, and the caller's generator (benchmark ladder and tests).
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
 * the kernels generate moves").
 *
 * The nine playout exports have two bodies, the same move loops
 * compiled twice: portable C, and one under a `popcnt,bmi,bmi2` target
 * attribute with `POPCOUNT` one instruction and the n-th-set-bit pick
 * one `pdep` (section "The two bodies").  A constructor picks one when
 * the library loads, from the CPU that loads it, so the build flags
 * carry no `-m` option and a library from a cache shared between hosts
 * runs on each of them.  The tree kernels have one body.
 *
 * RNG side-effect contract: the NumPy driver (`run_playouts_tracked`)
 * advances the *caller's* generator in lockstep until the batch first
 * compacts (after which a selected child generator advances instead).
 * The `*_block` and `*_playouts` exports reproduce that observable
 * state: after playing, every lane's (s0, s1) is rewritten to its
 * initial state advanced by the step at which the first compaction
 * would have fired (or by the full playout length when no compaction
 * triggers).  The `*_launch` exports seed their own lanes and have no
 * caller generator to settle.
 *
 * Built at runtime by repro.compiled.build via the system C compiler;
 * absence of a toolchain falls back to the NumPy path.
 */

#define _GNU_SOURCE /* sched_getaffinity, CPU_COUNT */
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <stdlib.h>
#include <unistd.h>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
/* The second body of the playout exports exists on x86-64 only. */
#define FAST_BODY 1
#define FAST_TARGET __attribute__((target("popcnt,bmi,bmi2")))
#endif

/* One `popcnt` inside the fast body; a libgcc call in the portable one. */
#define POPCOUNT(x) ((int64_t)__builtin_popcountll(x))
/* The move generator has several call sites each (the playout loop,
 * the expansion kernel and a test helper), which stops -O2 inlining it
 * on its own; out of line it costs the playout loop 5-8%. */
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

/* The k-th (0-based) set bit of m, as a one-bit mask (k < popcount):
 * the portable body's pick, one loop trip per skipped bit. */
static inline uint64_t nth_bit(uint64_t m, uint64_t k)
{
    while (k--)
        m &= m - 1;
    return m & -m;
}

#ifdef FAST_BODY
/* The same bit in one instruction: deposit 1 << k into m's set bits. */
FAST_TARGET static inline uint64_t nth_bit_pdep(uint64_t m, uint64_t k)
{
    return _pdep_u64(1ULL << k, m);
}
#endif

/* A body's n-th-set-bit pick, handed down the FORCE_INLINE chain to the
 * move loops (as `entry_fn` / `from_fn` are) so each body inlines its
 * own. */
typedef uint64_t (*nth_fn)(uint64_t m, uint64_t k);

static inline int8_t sign_of(int score)
{
    return (int8_t)((score > 0) - (score < 0));
}

/* -- lane seeding (must match repro/rng/batch.py::_lane_states) --------- */

#define GOLDEN 0x9E3779B97F4A7C15ULL

static inline uint64_t splitmix64(uint64_t x)
{
    uint64_t z = x + GOLDEN;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

/* Lane `lane` of the stream family whose derived seed is `base`; all
 * arithmetic wraps at 64 bits, as the uint64 arrays do. */
static inline void lane_state(uint64_t base, uint64_t lane, uint64_t *s0,
                              uint64_t *s1)
{
    *s0 = splitmix64(base + 2 * lane);
    *s1 = splitmix64(base + 2 * lane + 1);
    /* xorshift128+ must never start at the all-zero state.  (It cannot:
     * the finaliser is a bijection, zero only at one argument, and the
     * two arguments differ.  Kept because `_lane_states` has the rule.) */
    if (*s0 == 0 && *s1 == 0)
        *s1 = GOLDEN;
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

/* -- entries from absolute positions ------------------------------------ */

/* What a game's playouts from one absolute position (p1, p2, side to
 * move) start from: the two boards as its `*_lane` takes them --
 * Reversi's from the mover's perspective -- and whether the game is over
 * before the first ply, as the game's `make_batch` decides it.
 * `<game>_entry` derives it, once per position; `<game>_from` plays one
 * lane from it.  `passed` (Reversi: the last ply was a pass) is only
 * ever set by a batch object's lane. */
typedef struct {
    uint64_t a, b;
    int over, passed;
} entry_t;

typedef entry_t (*entry_fn)(uint64_t p1, uint64_t p2, int tm);
typedef int64_t (*from_fn)(entry_t e, int tm, uint64_t s0, uint64_t s1,
                           int64_t max_steps, int *score, nth_fn nth);

/* The launch entry (must match repro/core/executors.py::launch_numpy):
 * one playout per position (p1[i], p2[i], to_move[i]) on lane lo + i of
 * the family `base`; writes winners[i] and finish[i], allocates
 * nothing.  Returns 0, or -1 when a lane exceeds `max_steps`. */
FORCE_INLINE int launch_lanes(int64_t n, const uint64_t *p1,
                              const uint64_t *p2, const int8_t *to_move,
                              uint64_t base, int64_t lo, int8_t *winners,
                              int64_t *finish, int64_t max_steps,
                              entry_fn entry, from_fn from, nth_fn nth)
{
    for (int64_t i = 0; i < n; i++) {
        uint64_t s0, s1;
        lane_state(base, (uint64_t)lo + (uint64_t)i, &s0, &s1);
        int score;
        finish[i] = from(entry(p1[i], p2[i], to_move[i]), to_move[i], s0,
                         s1, max_steps, &score, nth);
        if (finish[i] < 0)
            return -1;
        winners[i] = sign_of(score);
    }
    return 0;
}

/* The block entry (must match
 * repro/core/executors.py::launch_block_numpy): `lanes` playouts per
 * position, lanes [i * lanes, (i + 1) * lanes) of the caller's k * lanes
 * wide generator (s0, s1) playing from position i -- a kernel launch in
 * which block i's threads play from tree i's leaf.  Blocks are
 * independent until the generator is settled, so they are played on the
 * block workers (next section), each written straight into its own lanes
 * of winners / scores / finish; `finalize` then runs once, on the
 * caller, after every block has landed.  What a block writes depends
 * only on its position and its lanes' generator states, and `finalize`
 * reads only the finish steps, so outputs and generator are the same
 * bytes for any worker count (docs/block_parallelism.md). */
typedef struct block_job block_job_t;
struct block_job {
    const uint64_t *p1, *p2;
    const int8_t *to_move;
    int64_t lanes;
    const uint64_t *s0, *s1;
    int8_t *winners;
    int16_t *scores;
    int64_t *finish;
    int64_t max_steps;
    /* Plays block i of this launch (one per body and game). */
    int (*play)(const block_job_t *job, int64_t i);
};

/* Block i of `job`.  Returns 0, or -1 when a lane exceeds `max_steps`. */
FORCE_INLINE int play_block(const block_job_t *job, int64_t i,
                            entry_fn entry, from_fn from, nth_fn nth)
{
    entry_t e = entry(job->p1[i], job->p2[i], job->to_move[i]);
    for (int64_t j = i * job->lanes; j < (i + 1) * job->lanes; j++) {
        int score;
        int64_t steps = from(e, job->to_move[i], job->s0[j], job->s1[j],
                             job->max_steps, &score, nth);
        if (steps < 0)
            return -1;
        job->finish[j] = steps;
        job->scores[j] = (int16_t)score;
        job->winners[j] = sign_of(score);
    }
    return 0;
}

/* -- Block workers ------------------------------------------------------- */

/* The host's stand-in for a GPU's streaming multiprocessors: the caller
 * of a block export and one persistent helper thread per further CPU
 * of the process's affinity mask, started on first use.  A launch of
 * k >= 2 blocks wakes the helpers once; then every worker, the caller
 * first, claims the next unplayed block from one shared word and plays
 * it, until none is left (docs/block_parallelism.md).
 *
 * The word packs the open launch's number (high half) and its next
 * unclaimed block (low half); a claim is one compare-and-swap that
 * checks both, so a helper that wakes after its launch closed claims
 * nothing and touches nothing of it.  The caller closes the launch by
 * swapping the low half to CLOSED, which returns how many blocks were
 * claimed, and then waits only for claimed blocks to land: a helper
 * that holds no block is never waited on, and one whose core is taken
 * away costs at most the block it holds.  One caller at a time uses the
 * pool; a second concurrent caller, a launch of one block, and a forked
 * child play alone. */

#define CLOSED 0xFFFFFFFFULL

static struct {
    pthread_mutex_t mu;
    pthread_cond_t wake;    /* helpers: a launch opened */
    pthread_cond_t landed;  /* the caller: a helper's block landed */
    /* Under mu: launches opened, the open one's job, the workers it
     * may use (caller included) and the blocks helpers have landed; is
     * the caller asleep on `landed`? */
    uint64_t opened;
    const block_job_t *job;
    int64_t cap, landed_blocks;
    int waiting;
    /* Set once, by start_pool (or by a fork, to 0). */
    int64_t helpers;
    _Atomic uint64_t word;     /* (launch << 32) | next unclaimed block */
    _Atomic int64_t limit;     /* blocks in the open launch */
    _Atomic int failed;        /* a lane of the open launch ran too long */
    _Atomic int64_t pinned;    /* workers a launch may use; < 1: all */
    atomic_flag busy;          /* a caller holds the pool */
} pool = {
    .mu = PTHREAD_MUTEX_INITIALIZER,
    .wake = PTHREAD_COND_INITIALIZER,
    .landed = PTHREAD_COND_INITIALIZER,
    .busy = ATOMIC_FLAG_INIT,
};

static pthread_once_t pool_once = PTHREAD_ONCE_INIT;

/* The next block of launch `launch`, or -1 once that launch is fully
 * claimed, has failed, is closed, or is no longer the open one.  A
 * successful claim keeps the launch -- and `pool.job` -- alive until
 * the block lands. */
static int64_t claim(uint32_t launch)
{
    uint64_t w = atomic_load_explicit(&pool.word, memory_order_acquire);
    for (;;) {
        uint64_t next = w & CLOSED;
        if ((uint32_t)(w >> 32) != launch
            || (int64_t)next
                   >= atomic_load_explicit(&pool.limit, memory_order_relaxed)
            || atomic_load_explicit(&pool.failed, memory_order_relaxed))
            return -1;
        if (atomic_compare_exchange_weak_explicit(
                &pool.word, &w, w + 1, memory_order_acq_rel,
                memory_order_acquire))
            return (int64_t)next;
    }
}

/* Play one claimed block of the open launch. */
static void play_claimed(int64_t i)
{
    const block_job_t *job = pool.job;
    if (job->play(job, i))
        atomic_store_explicit(&pool.failed, 1, memory_order_relaxed);
}

static void *helper_main(void *arg)
{
    int64_t index = (int64_t)(intptr_t)arg;  /* 1 .. helpers */
    uint64_t seen = 0;
    pthread_mutex_lock(&pool.mu);
    for (;;) {
        while (pool.opened == seen)
            pthread_cond_wait(&pool.wake, &pool.mu);
        seen = pool.opened;
        int plays = index < pool.cap;
        pthread_mutex_unlock(&pool.mu);
        int64_t i;
        while (plays && (i = claim((uint32_t)seen)) >= 0) {
            play_claimed(i);
            pthread_mutex_lock(&pool.mu);
            pool.landed_blocks++;
            if (pool.waiting)
                pthread_cond_signal(&pool.landed);
            pthread_mutex_unlock(&pool.mu);
        }
        pthread_mutex_lock(&pool.mu);
    }
    return NULL;
}

/* No helper thread survives a fork: the child plays alone. */
static void before_fork(void)
{
    pthread_mutex_lock(&pool.mu);
}

static void after_fork_in_parent(void)
{
    pthread_mutex_unlock(&pool.mu);
}

static void after_fork_in_child(void)
{
    pthread_mutex_init(&pool.mu, NULL);
    pthread_cond_init(&pool.wake, NULL);
    pthread_cond_init(&pool.landed, NULL);
    pool.helpers = 0;
    atomic_flag_clear(&pool.busy);
}

static int64_t affinity_cpus(void)
{
#ifdef __linux__
    cpu_set_t cpus;
    if (sched_getaffinity(0, sizeof cpus, &cpus) == 0)
        return CPU_COUNT(&cpus);
#endif
    long online = sysconf(_SC_NPROCESSORS_ONLN);
    return online > 0 ? online : 1;
}

/* One helper per CPU the process may run on, minus the caller's; with
 * every signal blocked, so signals reach the interpreter's threads. */
static void start_pool(void)
{
    pthread_attr_t attr;
    sigset_t all, old;
    if (pthread_attr_init(&attr))
        return;
    pthread_attr_setdetachstate(&attr, PTHREAD_CREATE_DETACHED);
    sigfillset(&all);
    pthread_sigmask(SIG_BLOCK, &all, &old);
    for (int64_t h = 1, n = affinity_cpus(); h < n; h++) {
        pthread_t thread;
        if (pthread_create(&thread, &attr, helper_main, (void *)(intptr_t)h))
            break;
        pool.helpers++;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
    pthread_attr_destroy(&attr);
    pthread_atfork(before_fork, after_fork_in_parent, after_fork_in_child);
}

/* Workers a launch uses, the caller included. */
static int64_t launch_workers(void)
{
    pthread_once(&pool_once, start_pool);
    int64_t all = pool.helpers + 1;
    int64_t pin = atomic_load_explicit(&pool.pinned, memory_order_relaxed);
    return pin >= 1 && pin < all ? pin : all;
}

/* Play blocks [0, k) of `job` on the block workers.  Returns 0, or 1
 * when a lane ran past `max_steps` (blocks after it may be skipped). */
static int run_blocks(const block_job_t *job, int64_t k)
{
    int64_t cap = k >= 2 && k < (int64_t)CLOSED ? launch_workers() : 1;
    if (cap < 2
        || atomic_flag_test_and_set_explicit(&pool.busy,
                                             memory_order_acquire)) {
        for (int64_t i = 0; i < k; i++)
            if (job->play(job, i))
                return 1;
        return 0;
    }
    pthread_mutex_lock(&pool.mu);
    uint32_t launch = (uint32_t)++pool.opened;
    pool.job = job;
    pool.cap = cap;
    pool.landed_blocks = 0;
    atomic_store_explicit(&pool.failed, 0, memory_order_relaxed);
    atomic_store_explicit(&pool.limit, k, memory_order_relaxed);
    atomic_store_explicit(&pool.word, (uint64_t)launch << 32,
                          memory_order_release);
    pthread_cond_broadcast(&pool.wake);
    pthread_mutex_unlock(&pool.mu);

    int64_t mine = 0, i;
    while ((i = claim(launch)) >= 0) {
        play_claimed(i);
        mine++;
    }
    uint64_t last = atomic_exchange_explicit(
        &pool.word, ((uint64_t)launch << 32) | CLOSED, memory_order_acq_rel);
    int64_t claimed = (int64_t)(last & CLOSED);
    if (claimed > mine) {
        pthread_mutex_lock(&pool.mu);
        pool.waiting = 1;
        while (pool.landed_blocks < claimed - mine)
            pthread_cond_wait(&pool.landed, &pool.mu);
        pool.waiting = 0;
        pthread_mutex_unlock(&pool.mu);
    }
    int failed = atomic_load_explicit(&pool.failed, memory_order_relaxed);
    atomic_flag_clear_explicit(&pool.busy, memory_order_release);
    return failed;
}

/* Every lane of winners / scores / finish, and the generator settled
 * where the lockstep driver would leave it.  Returns 0; -1 when a lane
 * exceeds `max_steps`; -2 when an allocation fails (generator untouched
 * either way). */
static int block_lanes(int64_t k, const uint64_t *p1, const uint64_t *p2,
                       const int8_t *to_move, int64_t lanes, uint64_t *s0,
                       uint64_t *s1, int8_t *winners, int16_t *scores,
                       int64_t *finish, int64_t max_steps,
                       int64_t min_compact, double thr,
                       int (*play)(const block_job_t *, int64_t))
{
    int64_t n = k * lanes;
    uint64_t *init_s0 = copy_u64(s0, n), *init_s1 = copy_u64(s1, n);
    if (!init_s0 || !init_s1) {
        free(init_s0);
        free(init_s1);
        return -2;
    }
    block_job_t job = {p1,      p2,     to_move, lanes,     s0,  s1,
                       winners, scores, finish,  max_steps, play};
    int err = run_blocks(&job, k);
    return finalize(n, s0, s1, init_s0, init_s1, finish, min_compact, thr,
                    err);
}

/* The batch-object entry (must match repro/games/batch.py::
 * run_playouts_tracked): lane i of a batch the game's `make_batch`
 * already derived -- boards (a[i], b[i]) as its `*_lane` takes them,
 * `done[i]`, and Reversi's `passed[i]` (NULL for the other games) -- on
 * the caller's generator.  Writes and returns as `block_lanes`. */
FORCE_INLINE int batch_lanes(int64_t n, const uint64_t *a, const uint64_t *b,
                             const int8_t *to_move, const uint8_t *passed,
                             const uint8_t *done, uint64_t *s0, uint64_t *s1,
                             int8_t *winners, int16_t *scores,
                             int64_t *finish, int64_t max_steps,
                             int64_t min_compact, double thr, from_fn from,
                             nth_fn nth)
{
    uint64_t *init_s0 = copy_u64(s0, n), *init_s1 = copy_u64(s1, n);
    if (!init_s0 || !init_s1) {
        free(init_s0);
        free(init_s1);
        return -2;
    }
    int err = 0;
    for (int64_t i = 0; i < n; i++) {
        entry_t e = {a[i], b[i], done[i] != 0, passed && passed[i] != 0};
        int score;
        int64_t steps = from(e, to_move[i], s0[i], s1[i], max_steps, &score,
                             nth);
        if (steps < 0) {
            err = 1;
            break;
        }
        finish[i] = steps;
        scores[i] = (int16_t)score;
        winners[i] = sign_of(score);
    }
    return finalize(n, s0, s1, init_s0, init_s1, finish, min_compact,
                    thr, err);
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

/* One lane played to the end from the mover's perspective: the finish
 * step (0 when `over` at entry), or -1 past `max_steps`; *score gets
 * black's discs minus white's. */
FORCE_INLINE int64_t rev_lane(uint64_t ow, uint64_t op, int tm, int pa,
                              int over, uint64_t a, uint64_t b,
                              int64_t max_steps, int *score, nth_fn nth)
{
    int64_t steps = 0;
    if (!over) {
        for (;;) {
            if (steps >= max_steps)
                return -1;
            uint64_t moves = rev_mobility(ow, op);
            int64_t pop = POPCOUNT(moves);
            uint64_t pick = draw_below(&a, &b, pop);
            uint64_t move = pop ? nth(moves, pick) : 0;
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
    uint64_t black = tm == 1 ? ow : op;
    uint64_t white = tm == 1 ? op : ow;
    *score = (int)(POPCOUNT(black) - POPCOUNT(white));
    return steps;
}

/* The mover's perspective; over at entry when neither side has a move
 * (finish step 0, not two passes), as `BatchReversi.make_batch` sets
 * `done`. */
static inline entry_t rev_entry(uint64_t black, uint64_t white, int tm)
{
    entry_t e = {tm == 1 ? black : white, tm == 1 ? white : black, 0, 0};
    e.over = !rev_mobility(e.a, e.b) && !rev_mobility(e.b, e.a);
    return e;
}

FORCE_INLINE int64_t rev_from(entry_t e, int tm, uint64_t s0, uint64_t s1,
                              int64_t max_steps, int *score, nth_fn nth)
{
    return rev_lane(e.a, e.b, tm, e.passed, e.over, s0, s1, max_steps, score,
                    nth);
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

static inline int ttt_over(uint64_t x, uint64_t o)
{
    return ttt_has_line(x) || ttt_has_line(o) || (x | o) == TTT_FULL;
}

/* One lane played to the end: the finish step (0 when `over` at
 * entry), or -1 past `max_steps`; *score gets the winner. */
FORCE_INLINE int64_t ttt_lane(uint64_t bx, uint64_t bo, int tm, int over,
                              uint64_t a, uint64_t b, int64_t max_steps,
                              int *score, nth_fn nth)
{
    int64_t steps = 0;
    if (!over) {
        for (;;) {
            if (steps >= max_steps)
                return -1;
            uint64_t empty = ~(bx | bo) & TTT_FULL;
            int64_t pop = POPCOUNT(empty);
            uint64_t pick = draw_below(&a, &b, pop);
            uint64_t bit = pop ? nth(empty, pick) : 0;
            steps++;
            if (tm == 1)
                bx |= bit;
            else
                bo |= bit;
            tm = -tm;
            if (ttt_over(bx, bo))
                break;
        }
    }
    *score = ttt_has_line(bo) ? -1 : ttt_has_line(bx);
    return steps;
}

static inline entry_t ttt_entry(uint64_t x, uint64_t o, int tm)
{
    (void)tm;
    entry_t e = {x, o, ttt_over(x, o), 0};
    return e;
}

FORCE_INLINE int64_t ttt_from(entry_t e, int tm, uint64_t s0, uint64_t s1,
                              int64_t max_steps, int *score, nth_fn nth)
{
    return ttt_lane(e.a, e.b, tm, e.over, s0, s1, max_steps, score, nth);
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

static inline int c4_over(uint64_t p1, uint64_t p2)
{
    return c4_has_four(p1) || c4_has_four(p2) || (p1 | p2) == C4_BOARD;
}

/* One lane played to the end: the finish step (0 when `over` at
 * entry), or -1 past `max_steps`; *score gets the winner. */
FORCE_INLINE int64_t c4_lane(uint64_t b1, uint64_t b2, int tm, int over,
                             uint64_t a, uint64_t b, int64_t max_steps,
                             int *score, nth_fn nth)
{
    int64_t steps = 0;
    if (!over) {
        for (;;) {
            if (steps >= max_steps)
                return -1;
            uint64_t mask = b1 | b2;
            uint64_t landings = (mask + C4_BOTTOM) & ~mask & C4_BOARD;
            int64_t pop = POPCOUNT(landings);
            uint64_t pick = draw_below(&a, &b, pop);
            uint64_t bit = pop ? nth(landings, pick) : 0;
            steps++;
            if (tm == 1)
                b1 |= bit;
            else
                b2 |= bit;
            tm = -tm;
            if (c4_over(b1, b2))
                break;
        }
    }
    *score = c4_has_four(b2) ? -1 : c4_has_four(b1);
    return steps;
}

static inline entry_t c4_entry(uint64_t p1, uint64_t p2, int tm)
{
    (void)tm;
    entry_t e = {p1, p2, c4_over(p1, p2), 0};
    return e;
}

FORCE_INLINE int64_t c4_from(entry_t e, int tm, uint64_t s0, uint64_t s1,
                             int64_t max_steps, int *score, nth_fn nth)
{
    return c4_lane(e.a, e.b, tm, e.over, s0, s1, max_steps, score, nth);
}

/* -- The two bodies ------------------------------------------------------ */

/* Every export above the tree kernels is the FORCE_INLINE chain
 * entry -> `*_from` -> `*_lane` under one of two bodies: `portable`, and
 * on x86-64 `fast`, compiled under FAST_TARGET.  Inlined there, the move
 * loops pick up the target's ISA -- `POPCOUNT` is one `popcnt` -- and
 * take `nth_bit_pdep` for their pick; nothing else differs, so both
 * bodies play every lane alike, draw for draw.  `body` is picked once,
 * when the library loads (`pick_body`); the exports call through it. */

#define REV_PLAYOUTS_PARAMS                                                  \
    int64_t n, uint64_t *own, uint64_t *opp, int8_t *to_move,                \
        uint8_t *passed, uint8_t *done, uint64_t *s0, uint64_t *s1,          \
        int8_t *winners, int16_t *scores, int64_t *finish,                   \
        int64_t max_steps, int64_t min_compact, double thr
#define REV_PLAYOUTS_ARGS                                                    \
    n, own, opp, to_move, passed, done, s0, s1, winners, scores, finish,     \
        max_steps, min_compact, thr
#define PLAYOUTS_PARAMS                                                      \
    int64_t n, uint64_t *p1, uint64_t *p2, int8_t *to_move, uint8_t *done,   \
        uint64_t *s0, uint64_t *s1, int8_t *winners, int16_t *scores,        \
        int64_t *finish, int64_t max_steps, int64_t min_compact, double thr
#define PLAYOUTS_ARGS                                                        \
    n, p1, p2, to_move, done, s0, s1, winners, scores, finish, max_steps,    \
        min_compact, thr
#define LAUNCH_PARAMS                                                        \
    int64_t n, const uint64_t *p1, const uint64_t *p2,                       \
        const int8_t *to_move, uint64_t base, int64_t lo, int8_t *winners,   \
        int64_t *finish, int64_t max_steps
#define LAUNCH_ARGS n, p1, p2, to_move, base, lo, winners, finish, max_steps
#define BLOCK_PARAMS                                                         \
    int64_t k, const uint64_t *p1, const uint64_t *p2,                       \
        const int8_t *to_move, int64_t lanes, uint64_t *s0, uint64_t *s1,    \
        int8_t *winners, int16_t *scores, int64_t *finish,                   \
        int64_t max_steps, int64_t min_compact, double thr
#define BLOCK_ARGS                                                           \
    k, p1, p2, to_move, lanes, s0, s1, winners, scores, finish, max_steps,   \
        min_compact, thr
#define NTH_PARAMS                                                           \
    int64_t n, const uint64_t *masks, const uint64_t *ranks, uint64_t *out
#define NTH_ARGS n, masks, ranks, out

typedef struct {
    const char *name;
    int (*reversi_playouts)(REV_PLAYOUTS_PARAMS);
    int (*tictactoe_playouts)(PLAYOUTS_PARAMS);
    int (*connect4_playouts)(PLAYOUTS_PARAMS);
    int (*reversi_launch)(LAUNCH_PARAMS);
    int (*tictactoe_launch)(LAUNCH_PARAMS);
    int (*connect4_launch)(LAUNCH_PARAMS);
    int (*reversi_block)(BLOCK_PARAMS);
    int (*tictactoe_block)(BLOCK_PARAMS);
    int (*connect4_block)(BLOCK_PARAMS);
    void (*nth_bits)(NTH_PARAMS);
} body_t;

/* One game's launch and block exports in body B. */
#define GAME_BODY(B, TARGET, NTH, GAME, ENTRY, FROM)                         \
    TARGET static int B##_##GAME##_launch(LAUNCH_PARAMS)                     \
    {                                                                        \
        return launch_lanes(LAUNCH_ARGS, ENTRY, FROM, NTH);                  \
    }                                                                        \
    TARGET static int B##_##GAME##_play(const block_job_t *job, int64_t i)   \
    {                                                                        \
        return play_block(job, i, ENTRY, FROM, NTH);                         \
    }                                                                        \
    static int B##_##GAME##_block(BLOCK_PARAMS)                              \
    {                                                                        \
        return block_lanes(BLOCK_ARGS, B##_##GAME##_play);                   \
    }

/* Body B, named NAME: the nine playout exports, and the pick alone on
 * (mask, rank) rows for its tests, compiled with TARGET and picking
 * moves with NTH. */
#define BODY(B, NAME, TARGET, NTH)                                           \
    GAME_BODY(B, TARGET, NTH, reversi, rev_entry, rev_from)                  \
    GAME_BODY(B, TARGET, NTH, tictactoe, ttt_entry, ttt_from)                \
    GAME_BODY(B, TARGET, NTH, connect4, c4_entry, c4_from)                   \
    TARGET static int B##_reversi_playouts(REV_PLAYOUTS_PARAMS)              \
    {                                                                        \
        return batch_lanes(n, own, opp, to_move, passed, done, s0, s1,       \
                           winners, scores, finish, max_steps, min_compact,  \
                           thr, rev_from, NTH);                              \
    }                                                                        \
    TARGET static int B##_tictactoe_playouts(PLAYOUTS_PARAMS)                \
    {                                                                        \
        return batch_lanes(n, p1, p2, to_move, NULL, done, s0, s1, winners,  \
                           scores, finish, max_steps, min_compact, thr,      \
                           ttt_from, NTH);                                   \
    }                                                                        \
    TARGET static int B##_connect4_playouts(PLAYOUTS_PARAMS)                 \
    {                                                                        \
        return batch_lanes(n, p1, p2, to_move, NULL, done, s0, s1, winners,  \
                           scores, finish, max_steps, min_compact, thr,      \
                           c4_from, NTH);                                    \
    }                                                                        \
    TARGET static void B##_nth_bits(NTH_PARAMS)                              \
    {                                                                        \
        for (int64_t i = 0; i < n; i++)                                      \
            out[i] = NTH(masks[i], ranks[i]);                                \
    }                                                                        \
    static const body_t B##_body = {                                         \
        NAME,                                                                \
        B##_reversi_playouts, B##_tictactoe_playouts, B##_connect4_playouts, \
        B##_reversi_launch, B##_tictactoe_launch, B##_connect4_launch,       \
        B##_reversi_block, B##_tictactoe_block, B##_connect4_block,          \
        B##_nth_bits,                                                        \
    };

BODY(portable, "portable", , nth_bit)
#ifdef FAST_BODY
BODY(fast, "popcnt+bmi2", FAST_TARGET, nth_bit_pdep)
#endif

static const body_t *body = &portable_body;

/* Can this CPU run the fast body?  BMI1 as well as popcnt and BMI2:
 * under FAST_TARGET the compiler may emit `blsr` / `tzcnt`. */
static int can_run_fast(void)
{
#ifdef FAST_BODY
    __builtin_cpu_init();
    return __builtin_cpu_supports("popcnt") && __builtin_cpu_supports("bmi")
        && __builtin_cpu_supports("bmi2");
#else
    return 0;
#endif
}

/* The loading CPU's body: the fast one wherever it runs, except on AMD
 * Zen 1 / Zen 2, where `pdep` is microcoded -- tens of cycles, slower
 * than the loop it replaces. */
static const body_t *loading_cpu_body(void)
{
#ifdef FAST_BODY
    if (can_run_fast() && !__builtin_cpu_is("znver1")
        && !__builtin_cpu_is("znver2"))
        return &fast_body;
#endif
    return &portable_body;
}

__attribute__((constructor)) static void pick_body(void)
{
    body = loading_cpu_body();
}

int repro_reversi_playouts(REV_PLAYOUTS_PARAMS)
{
    return body->reversi_playouts(REV_PLAYOUTS_ARGS);
}

int repro_tictactoe_playouts(PLAYOUTS_PARAMS)
{
    return body->tictactoe_playouts(PLAYOUTS_ARGS);
}

int repro_connect4_playouts(PLAYOUTS_PARAMS)
{
    return body->connect4_playouts(PLAYOUTS_ARGS);
}

int repro_reversi_launch(LAUNCH_PARAMS)
{
    return body->reversi_launch(LAUNCH_ARGS);
}

int repro_tictactoe_launch(LAUNCH_PARAMS)
{
    return body->tictactoe_launch(LAUNCH_ARGS);
}

int repro_connect4_launch(LAUNCH_PARAMS)
{
    return body->connect4_launch(LAUNCH_ARGS);
}

int repro_reversi_block(BLOCK_PARAMS)
{
    return body->reversi_block(BLOCK_ARGS);
}

int repro_tictactoe_block(BLOCK_PARAMS)
{
    return body->tictactoe_block(BLOCK_ARGS);
}

int repro_connect4_block(BLOCK_PARAMS)
{
    return body->connect4_block(BLOCK_ARGS);
}

/* Diagnostic: the name of the body the playout exports run. */
const char *repro_kernel_body(void)
{
    return body->name;
}

/* How many bodies this CPU can run: 1 (portable) or 2 (and fast). */
int repro_kernel_bodies(void)
{
    return 1 + can_run_fast();
}

/* Test helpers.  Pin body i (0 portable, 1 fast) for every later call,
 * or the loading CPU's again (i < 0); -1, pinning nothing, when this CPU
 * cannot run body i.  And the body's pick alone: out[i] = the
 * ranks[i]-th set bit of masks[i] (ranks[i] < popcount(masks[i])). */
int repro_pin_kernel_body(int64_t i)
{
    if (i < 0)
        body = loading_cpu_body();
    else if (i == 0)
        body = &portable_body;
#ifdef FAST_BODY
    else if (i == 1 && can_run_fast())
        body = &fast_body;
#endif
    else
        return -1;
    return 0;
}

void repro_nth_bits(NTH_PARAMS)
{
    body->nth_bits(NTH_ARGS);
}

/* Diagnostic: how many workers a block launch uses, the caller
 * included (starts the pool). */
int64_t repro_block_workers(void)
{
    return launch_workers();
}

/* Test helper, the twin of `repro_pin_kernel_body`: let every later
 * launch use at most n workers (n = 1: the caller alone), or all of
 * them again (n < 0); -1, pinning nothing, when n is 0 or more than the
 * pool has. */
int repro_pin_block_workers(int64_t n)
{
    pthread_once(&pool_once, start_pool);
    if (n == 0 || n > pool.helpers + 1)
        return -1;
    atomic_store_explicit(&pool.pinned, n, memory_order_relaxed);
    return 0;
}

/* -- Batch node expansion (must match repro/core/arena.py) --------------- */

/* The tree arena's columns by address; repro.compiled.runner.ArenaColumns
 * mirrors this struct field for field.  Per-node columns have `capacity`
 * rows, the four per-tree ones and the per-call rows `n_trees`. */
typedef struct {
    int64_t *parent;
    int32_t *move;
    int8_t *mover;
    int8_t *to_move;
    uint8_t *terminal;
    int8_t *winner;
    int32_t *child_count;
    int32_t *n_legal;
    int32_t *untried_count;
    uint64_t *untried_mask;  /* capacity x mask_words */
    uint64_t *plane1;
    uint64_t *plane2;
    uint8_t *untried_order;  /* capacity x order_width */
    uint64_t *rng_state;
    int64_t *tree_node_count;
    int64_t *tree_max_depth;
    int64_t *roots;
    double *visits;
    double *wins;
    double *vloss;
    int64_t *child_start;
    int64_t capacity, n_trees, mask_words, order_width;
    /* Slots handed out: set by the caller before `*_select_expand`,
     * which advances it past the spans it reserves. */
    int64_t allocated;
    /* The selection policy: UCB constant, `wuct`? */
    double ucb_c;
    int64_t wuct;
    /* Per-call rows of `*_select_expand`, `n_trees` slots each: row i's
     * leaf position and terminal flag, written with leaves[i]. */
    uint64_t *leaf_plane1;
    uint64_t *leaf_plane2;
    int8_t *leaf_to_move;
    uint8_t *leaf_terminal;
    /* Scratch of its distinct-trees check; all zero between calls. */
    uint8_t *seen;
} arena_t;

/* What a game's `*_play` reports about the position after a move. */
typedef struct {
    uint64_t p1, p2;    /* absolute occupancy planes */
    uint64_t legal[2];  /* `legal_mask` words */
    int over;           /* terminal? */
    int winner;         /* +1 / -1 / 0 when over */
} child_t;

#define XS64_MULT 0x2545F4914F6CDD1DULL

/* High word of r * bound, the `(next_u64() * n) >> 64` reduction of
 * repro/rng/scalar.py, in 32-bit halves (bound < 2^32: no carry). */
static inline uint64_t mul_shift64(uint64_t r, uint64_t bound)
{
    return ((r >> 32) * bound + (((r & 0xFFFFFFFFULL) * bound) >> 32)) >> 32;
}

/* Fill the virgin slot `child` the way `TreeArena._init_node` does --
 * links, position, mask words, terminal / winner, and the untried order:
 * mask bits ascending (`bits_of`), then `XorShift64Star.shuffle` on tree
 * `t`'s generator word -- and pop `mv` from `node` the way
 * `TreeArena._expand` does. */
static void link_child(const arena_t *a, int64_t node, int64_t child,
                       int64_t t, int64_t depth, int mv, const child_t *c)
{
    int tm = a->to_move[node];
    a->parent[child] = node;
    a->move[child] = mv;
    a->mover[child] = (int8_t)tm;
    a->to_move[child] = (int8_t)-tm;
    a->plane1[child] = c->p1;
    a->plane2[child] = c->p2;
    a->terminal[child] = (uint8_t)c->over;
    a->winner[child] = (int8_t)(c->over ? c->winner : 0);

    uint64_t *mask = a->untried_mask + a->mask_words * child;
    uint8_t *order = a->untried_order + a->order_width * child;
    int32_t n = 0;
    for (int64_t w = 0; w < a->mask_words; w++) {
        mask[w] = c->legal[w];
        for (uint64_t m = mask[w]; m; m &= m - 1)
            order[n++] = (uint8_t)(64 * w + __builtin_ctzll(m));
    }
    a->n_legal[child] = n;
    a->untried_count[child] = n;
    uint64_t x = a->rng_state[t];
    for (int32_t i = n - 1; i > 0; i--) {
        x ^= x >> 12;
        x ^= x << 25;
        x ^= x >> 27;
        uint64_t j = mul_shift64(x * XS64_MULT, (uint64_t)i + 1);
        uint8_t tmp = order[i];
        order[i] = order[j];
        order[j] = tmp;
    }
    a->rng_state[t] = x;

    a->untried_count[node]--;
    a->untried_mask[a->mask_words * node + (mv >> 6)] &= ~(1ULL << (mv & 63));
    a->child_count[node]++;
    a->tree_node_count[t]++;
    if (depth > a->tree_max_depth[t])
        a->tree_max_depth[t] = depth;
}

typedef int (*play_fn)(uint64_t, uint64_t, int, int, child_t *);

static inline int fits_game(const arena_t *a, int num_moves)
{
    return a->mask_words == (num_moves + 63) / 64
        && a->order_width >= num_moves;
}

/* Expand `node` (of tree `t`) into the virgin slot `child` at `depth`,
 * playing the last move of the node's untried order.  Returns 0; 1 when
 * that move is one the scalar game's `apply` rejects; -2 when the
 * untried count is outside the order row.  Nothing is written unless
 * it returns 0. */
FORCE_INLINE int expand_one(const arena_t *a, int64_t node, int64_t child,
                            int64_t t, int64_t depth, play_fn play)
{
    int32_t left = a->untried_count[node];
    if (left < 1 || left > a->order_width)
        return -2;
    int mv = a->untried_order[a->order_width * node + left - 1];
    child_t c;
    if (!play(a->plane1[node], a->plane2[node], a->to_move[node], mv, &c))
        return 1;
    link_child(a, node, child, t, depth, mv, &c);
    return 0;
}

/* `rows` is a 4 x k matrix: row i of the call expands node rows[0][i]
 * into slot rows[1][i], for tree rows[2][i], at depth rows[3][i].
 * Returns 0; i + 1 when row i's move is one the scalar game's `apply`
 * rejects (earlier rows are done, row i and later untouched); -1 when
 * the arena's row widths do not fit the game; -2 when a row's indices
 * or untried count fall outside the arena. */
FORCE_INLINE int expand_rows(int64_t k, const int64_t *rows,
                             const arena_t *a, int num_moves, play_fn play)
{
    const int64_t *nodes = rows, *children = rows + k;
    const int64_t *ts = rows + 2 * k, *depths = rows + 3 * k;
    if (!fits_game(a, num_moves))
        return -1;
    for (int64_t i = 0; i < k; i++) {
        int64_t node = nodes[i], child = children[i], t = ts[i];
        if (node < 0 || node >= a->capacity || child < 0
            || child >= a->capacity || t < 0 || t >= a->n_trees)
            return -2;
        int rc = expand_one(a, node, child, t, depths[i], play);
        if (rc)
            return rc < 0 ? rc : (int)(i + 1);
    }
    return 0;
}

#define REV_PASS 64

static inline int rev_play(uint64_t black, uint64_t white, int tm, int mv,
                           child_t *c)
{
    uint64_t own = tm == 1 ? black : white;
    uint64_t opp = tm == 1 ? white : black;
    if (mv == REV_PASS) {
        if (rev_mobility(own, opp))
            return 0;
    } else {
        if (mv > REV_PASS)
            return 0;
        uint64_t bit = 1ULL << mv;
        uint64_t fl = bit & (own | opp) ? 0 : rev_flips(own, opp, bit);
        if (!fl)
            return 0;
        own |= bit | fl;
        opp &= ~fl;
    }
    /* `opp` moves next: it must pass (move id 64, second mask word)
     * when only `own` has a move; the game is over when neither has. */
    c->legal[0] = rev_mobility(opp, own);
    c->legal[1] = 0;
    c->over = 0;
    if (!c->legal[0]) {
        if (rev_mobility(own, opp))
            c->legal[1] = 1;
        else
            c->over = 1;
    }
    c->p1 = tm == 1 ? own : opp;
    c->p2 = tm == 1 ? opp : own;
    int64_t diff = POPCOUNT(c->p1) - POPCOUNT(c->p2);
    c->winner = (diff > 0) - (diff < 0);
    return 1;
}

static inline int ttt_play(uint64_t x, uint64_t o, int tm, int mv,
                           child_t *c)
{
    uint64_t bit = mv < 9 ? (1ULL << mv) & ~(x | o) : 0;
    if (!bit)
        return 0;
    if (tm == 1)
        x |= bit;
    else
        o |= bit;
    int x_wins = ttt_has_line(x), o_wins = ttt_has_line(o);
    c->p1 = x;
    c->p2 = o;
    c->over = x_wins || o_wins || (x | o) == TTT_FULL;
    c->winner = x_wins ? 1 : o_wins ? -1 : 0;
    c->legal[0] = c->over ? 0 : ~(x | o) & TTT_FULL;
    c->legal[1] = 0;
    return 1;
}

static inline int c4_play(uint64_t p1, uint64_t p2, int tm, int mv,
                          child_t *c)
{
    if (mv >= 7)
        return 0;
    /* The lowest empty cell of column mv; none when it is full. */
    uint64_t occ = p1 | p2;
    uint64_t bit = (occ + (1ULL << (7 * mv))) & ~occ & C4_BOARD
                 & (0x7FULL << (7 * mv));
    if (!bit)
        return 0;
    if (tm == 1)
        p1 |= bit;
    else
        p2 |= bit;
    occ |= bit;
    int p1_wins = c4_has_four(p1), p2_wins = c4_has_four(p2);
    c->p1 = p1;
    c->p2 = p2;
    c->over = p1_wins || p2_wins || occ == C4_BOARD;
    c->winner = p1_wins ? 1 : p2_wins ? -1 : 0;
    /* Column col is open iff its top playable cell (7 col + 5) is empty. */
    c->legal[0] = 0;
    c->legal[1] = 0;
    if (!c->over)
        for (int col = 0; col < 7; col++)
            c->legal[0] |= (~occ >> (7 * col + 5) & 1) << col;
    return 1;
}

int repro_reversi_expand(int64_t k, const int64_t *rows, const arena_t *a)
{
    return expand_rows(k, rows, a, 65, rev_play);
}

int repro_tictactoe_expand(int64_t k, const int64_t *rows, const arena_t *a)
{
    return expand_rows(k, rows, a, 9, ttt_play);
}

int repro_connect4_expand(int64_t k, const int64_t *rows, const arena_t *a)
{
    return expand_rows(k, rows, a, 7, c4_play);
}

/* -- Tree descent + expansion (must match repro/core/arena.py) ----------- */

/* `TreeArena._best_child`: the UCB1 argmax over `node`'s
 * filled child span -- the first unvisited child if there is one, else
 * the first maximum of the UCB score.  Every expression is evaluated
 * in the Python body's operation order on IEEE doubles (the build
 * passes -ffp-contract=off so no multiply-add is fused), `sqrt` is
 * correctly rounded everywhere and `log` is the libm function
 * `math.log` itself calls, so both bodies pick the same child bit for
 * bit.  Returns -2 when the span is not inside the allocation. */
static inline int64_t best_child(const arena_t *a, int64_t node)
{
    int64_t start = a->child_start[node], count = a->child_count[node];
    /* Spans are reserved after their parent: one at or below `node` is
     * corrupt (and following it could loop for ever). */
    if (start <= node || start >= a->allocated || count < 1
        || count > a->allocated - start)
        return -2;
    double total = a->visits[node] + a->vloss[node];
    double log_total = total > 1.0 ? log(total) : 0.0;
    double c = a->ucb_c;
    int64_t best = start;
    double best_score = 0.0;
    for (int64_t i = start; i < start + count; i++) {
        double completed = a->visits[i];
        double n_i = completed + a->vloss[i];
        if (n_i <= 0.0)
            return i;
        /* vloss: in-flight visits count as losses in the mean.  WU-UCT:
         * the mean is over completed visits only; the in-flight counts
         * widen just the exploration denominator. */
        double p = !a->wuct        ? a->wins[i] / n_i
                 : completed > 0.0 ? a->wins[i] / completed
                                   : 0.5;
        double score = p + c * sqrt(log_total / n_i);
        if (i == start || score > best_score) {
            best = i;
            best_score = score;
        }
    }
    return best;
}

/* Are trees[0 .. k) distinct trees of the arena?  A tree walked twice
 * in one round would overrun the span its first walk reserves.  Marks
 * `seen` and clears it again: nothing the caller can read changes. */
static inline int distinct_trees(const arena_t *a, int64_t k,
                                 const int64_t *trees)
{
    int64_t i = 0;
    for (; i < k; i++) {
        int64_t t = trees[i];
        if (t < 0 || t >= a->n_trees || a->seen[t])
            break;
        a->seen[t] = 1;
    }
    for (int64_t j = 0; j < i; j++)
        a->seen[trees[j]] = 0;
    return i == k;
}

/* `*_select_expand`'s answer to rows that are not distinct trees of the
 * arena; no row number i makes -3 - i reach it. */
#define BAD_TREES INT64_MIN

/* Can a round run on this arena at all?  0; -1 when the row widths do
 * not fit the game; -2 when the allocation cursor lies outside it. */
static inline int64_t check_arena(const arena_t *a, int num_moves)
{
    if (!fits_game(a, num_moves))
        return -1;
    if (a->allocated < 0 || a->allocated > a->capacity)
        return -2;
    return 0;
}

/* Where a round hands back row i's leaf position and terminal flag: the
 * arena's own per-call rows (`*_select_expand`), or a caller's tick-wide
 * columns (`*_select_expand_many`). */
typedef struct {
    uint64_t *plane1;
    uint64_t *plane2;
    int8_t *to_move;
    uint8_t *terminal;
} leaf_rows_t;

/* One lockstep round of `TreeArena.select_round` over the k trees
 * `trees[]`: per tree, descend from the root to a terminal node or one
 * with untried moves, then expand one child of every such node.
 * leaves[i] / depths[i] receive tree trees[i]'s leaf and its depth, and
 * row i of `out` the leaf's position and terminal flag -- what the
 * caller's playout of it starts from.
 *
 * Child spans are reserved in the order the lockstep Python walk
 * reserves them -- expansion depth ascending, then row -- so node ids
 * do not depend on which body ran.  Descents only read and trees share
 * no nodes, so all of them run before the first write.
 *
 * The caller has checked the arena (check_arena) and that the rows are
 * distinct trees of it.  Returns 0; the capacity needed, when a level's
 * spans would overrun `capacity` -- nothing is written to the arena, the
 * caller grows it and calls again; -2 when a node or child span lies
 * outside the arena (arena untouched); -3 - i when row i's move is one
 * the scalar game's `apply` rejects (rows before it in span order are
 * done, leaves[i] holds ~node). */
FORCE_INLINE int64_t select_expand_rows(
    int64_t k, const int64_t *trees, arena_t *a, int64_t *leaves,
    int64_t *depths, const leaf_rows_t *out, play_fn play)
{
    /* 1. Descend.  A row that will expand parks as ~node (negative). */
    int64_t lo = INT64_MAX, hi = -1;
    for (int64_t i = 0; i < k; i++) {
        int64_t node = a->roots[trees[i]], depth = 0;
        if (node < 0 || node >= a->allocated)
            return -2;
        while (!a->terminal[node] && a->untried_count[node] <= 0) {
            node = best_child(a, node);
            if (node < 0)
                return -2;
            depth++;
        }
        depths[i] = depth;
        leaves[i] = node;
        if (a->terminal[node])
            continue;
        /* The child lands at start + filled, inside the node's span. */
        int64_t start = a->child_start[node];
        int32_t width = a->n_legal[node], filled = a->child_count[node];
        if (filled < 0 || filled + a->untried_count[node] != width
            || width > a->order_width)
            return -2;
        if (start < 0 ? filled != 0
                      : start <= node || start >= a->allocated
                            || width > a->allocated - start)
            return -2;
        leaves[i] = ~node;
        if (depth < lo)
            lo = depth;
        if (depth > hi)
            hi = depth;
    }

    /* 2. Plan: would every level's fresh spans fit? */
    int64_t cursor = a->allocated;
    for (int64_t d = lo; d <= hi; d++) {
        for (int64_t i = 0; i < k; i++)
            if (leaves[i] < 0 && depths[i] == d
                && a->child_start[~leaves[i]] < 0)
                cursor += a->n_legal[~leaves[i]];
        if (cursor > a->capacity)
            return cursor;
    }

    /* 3. Commit, level by level. */
    for (int64_t d = lo; d <= hi; d++)
        for (int64_t i = 0; i < k; i++) {
            if (leaves[i] >= 0 || depths[i] != d)
                continue;
            int64_t node = ~leaves[i];
            if (a->child_start[node] < 0) {
                a->child_start[node] = a->allocated;
                a->allocated += a->n_legal[node];
            }
            int64_t child = a->child_start[node] + a->child_count[node];
            int rc = expand_one(a, node, child, trees[i], d + 1, play);
            if (rc)
                return rc < 0 ? rc : -3 - i;
            leaves[i] = child;
            depths[i] = d + 1;
        }

    /* 4. Hand back what each row found, for its playout. */
    for (int64_t i = 0; i < k; i++) {
        int64_t leaf = leaves[i];
        out->plane1[i] = a->plane1[leaf];
        out->plane2[i] = a->plane2[leaf];
        out->to_move[i] = a->to_move[leaf];
        out->terminal[i] = a->terminal[leaf];
    }
    return 0;
}

/* -- The root select loop (`RootRound` in repro/core/rounds.py) --------- */

/* `TreeArena.backprop` along the path from `leaf` to its root: `sims`
 * visits per node, `black` or `white` wins by the node's mover.
 * Returns 0; -2 when a parent link does not point below its child
 * (parents are allocated first; the check also bounds the walk). */
static inline int credit_path(const arena_t *a, int64_t leaf, double sims,
                              double black, double white)
{
    for (int64_t node = leaf; node >= 0;) {
        a->visits[node] += sims;
        a->wins[node] += a->mover[node] == 1 ? black : white;
        int64_t up = a->parent[node];
        if (up >= node)
            return -2;
        node = up;
    }
    return 0;
}

/* A `root:N` session's select loop, handed to a select kernel so that one
 * call runs the session to its next playout demand.  repro.compiled.runner
 * .RootLoop mirrors this struct field for field. */
typedef struct {
    double *clock;               /* the trees' core clocks, n_trees */
    int64_t *iters;              /* the trees' iteration counts, n_trees */
    int64_t n_trees;             /* rows of clock and iters */
    const double *terminal_time; /* `iteration_time(d, 0)` at row d */
    int64_t depths;              /* rows of terminal_time */
    double budget, cap;          /* a tree selects while clock < budget
                                  * and iters < cap */
    int64_t once;                /* stop after one sub-round */
    int64_t sub_rounds, iterations; /* added to by every call */
    int64_t rows;                /* the call's playout rows */
} root_loop_t;

/* `RootRound.select` on arena `a`, rows [0, room) its room: sub-rounds of
 * `select_expand_rows` over the trees with budget left, in tree order,
 * each selected tree's iteration counted; a terminal leaf is its own
 * answer -- credited its winner, its tree's clock charged
 * `iteration_time(depth, 0)` -- and the other rows go on to a playout.
 * Repeats while every leaf was terminal and `once` is not set.  The
 * playout rows end compacted to the front, in row order, trees[] naming
 * their trees, and r->rows counts them.
 *
 * Returns 0 (no tree left with budget: no rows); else the code of the
 * sub-round that stopped, the ones before it done and counted: a
 * positive one is the capacity it needs -- grow the arena, call again,
 * and the loop resumes where it stopped, as it reads its trees from the
 * clocks and counts; -2 also when the loop's trees are not the arena's,
 * when more trees have budget left than there is room or a tree could
 * grow past the table's depths. */
FORCE_INLINE int64_t root_loop(int64_t room, int64_t *trees, arena_t *a,
                               int64_t *leaves, int64_t *depths,
                               const leaf_rows_t *out, root_loop_t *r,
                               play_fn play)
{
    r->rows = 0;
    if (r->n_trees != a->n_trees)
        return -2;
    for (;;) {
        /* `RootRound.wants`.  A leaf lies at most one level below its
         * tree's deepest node. */
        int64_t k = 0;
        for (int64_t t = 0; t < a->n_trees; t++) {
            if (!(r->clock[t] < r->budget && (double)r->iters[t] < r->cap))
                continue;
            if (k == room || a->tree_max_depth[t] + 1 >= r->depths)
                return -2;
            trees[k++] = t;
        }
        if (!k)
            return 0;
        int64_t rc = select_expand_rows(k, trees, a, leaves, depths, out,
                                        play);
        if (rc)
            return rc;
        /* `RootRound.took`. */
        r->sub_rounds++;
        r->iterations += k;
        int64_t m = 0;
        for (int64_t i = 0; i < k; i++) {
            int64_t t = trees[i], leaf = leaves[i];
            r->iters[t]++;
            if (out->terminal[i]) {
                int w = a->winner[leaf];
                double half = 0.5 * (w == 0);
                if (credit_path(a, leaf, 1.0, (w == 1) + half,
                                (w == -1) + half))
                    return -2;
                r->clock[t] += r->terminal_time[depths[i]];
                continue;
            }
            trees[m] = t;
            leaves[m] = leaf;
            depths[m] = depths[i];
            out->plane1[m] = out->plane1[i];
            out->plane2[m] = out->plane2[i];
            out->to_move[m] = out->to_move[i];
            out->terminal[m] = 0;
            m++;
        }
        if (m || r->once) {
            r->rows = m;
            return 0;
        }
    }
}

/* A tenant's round: `root_loop` when it has a loop, else one sub-round. */
FORCE_INLINE int64_t select_tenant(int64_t k, int64_t *trees, arena_t *a,
                                   int64_t *leaves, int64_t *depths,
                                   const leaf_rows_t *out, root_loop_t *r,
                                   play_fn play)
{
    if (r)
        return root_loop(k, trees, a, leaves, depths, out, r, play);
    return select_expand_rows(k, trees, a, leaves, depths, out, play);
}

/* One arena's round into its own per-call rows: `select_tenant` after the
 * checks, which answer -1 / -2 as check_arena and BAD_TREES when a tree
 * is repeated or not one of the arena's (nothing at all written).  With
 * a loop, trees[0 .. k) are only its room: each sub-round writes its
 * trees there. */
FORCE_INLINE int64_t select_expand_own(
    int64_t k, int64_t *trees, arena_t *a, int64_t *leaves,
    int64_t *depths, root_loop_t *loop, int num_moves, play_fn play)
{
    int64_t rc = check_arena(a, num_moves);
    if (rc)
        return rc;
    if (!loop && !distinct_trees(a, k, trees))
        return BAD_TREES;
    leaf_rows_t out = {a->leaf_plane1, a->leaf_plane2, a->leaf_to_move,
                       a->leaf_terminal};
    return select_tenant(k, trees, a, leaves, depths, &out, loop, play);
}

#define SELECT_PARAMS                                                        \
    int64_t k, int64_t *trees, arena_t *a, int64_t *leaves,                  \
        int64_t *depths, root_loop_t *loop
#define SELECT_ARGS k, trees, a, leaves, depths, loop

int64_t repro_reversi_select_expand(SELECT_PARAMS)
{
    return select_expand_own(SELECT_ARGS, 65, rev_play);
}

int64_t repro_tictactoe_select_expand(SELECT_PARAMS)
{
    return select_expand_own(SELECT_ARGS, 9, ttt_play);
}

int64_t repro_connect4_select_expand(SELECT_PARAMS)
{
    return select_expand_own(SELECT_ARGS, 7, c4_play);
}

/* -- Many arenas, one call (`select_round_many` in repro/core/arena.py) -- */

/* Tenant j of a many-arena call owns rows [bounds[j], bounds[j + 1]) and
 * the arena arenas[j].  Are the bounds ascending, every arena there and
 * fit for a round, and every row's tree a distinct tree of its arena --
 * across tenants too, so an arena listed twice cannot walk one tree
 * twice?  (A tenant with a loop has rows only as room, and no trees to
 * check.)  Returns 0; else *at is the first tenant that fails and the
 * code says why: -2 for a bound or a missing arena, check_arena's code,
 * BAD_TREES for a tree.  Marks `seen` and clears it again: nothing the
 * caller can read changes. */
static int64_t check_tenants(int64_t n, arena_t *const *arenas,
                             const int64_t *bounds, const int64_t *trees,
                             root_loop_t *const *loops, int num_moves,
                             int64_t *at)
{
    for (int64_t j = 0; j < n; j++) {
        *at = j;
        if (!arenas[j] || bounds[j] < 0 || bounds[j + 1] < bounds[j])
            return -2;
        int64_t rc = check_arena(arenas[j], num_moves);
        if (rc)
            return rc;
    }
    int64_t j = 0, i = 0;
    for (; j < n; j++)
        for (i = bounds[j]; !loops[j] && i < bounds[j + 1]; i++) {
            int64_t t = trees[i];
            if (t < 0 || t >= arenas[j]->n_trees || arenas[j]->seen[t])
                goto clear;
            arenas[j]->seen[t] = 1;
        }
clear:
    *at = j;
    for (int64_t c = 0; c < n && c <= j; c++)
        for (int64_t r = bounds[c];
             !loops[c] && r < (c == j ? i : bounds[c + 1]); r++)
            arenas[c]->seen[trees[r]] = 0;
    return j == n ? 0 : BAD_TREES;
}

/* `*_select_expand` over n tenants' arenas in one call: tenant j's round
 * walks trees[bounds[j] .. bounds[j + 1]) of arenas[j] -- or, when
 * loops[j] is set, runs that select loop in those rows (`root_loop`) --
 * and row i's leaf, depth, position and terminal flag land in row i of
 * the caller's columns.  Tenants run in order.  Returns 0 with *at = n
 * when every round is done.  Otherwise *at = j, the first tenant that
 * stopped, and the code is `*_select_expand`'s for its round (-3 - i
 * names its own row i): tenants before j are done and tenants after it
 * untouched -- a positive code is the capacity arenas[j] needs, with
 * tenant j untouched too (or its loop stopped between sub-rounds), so
 * the caller grows that arena and calls again from tenant j.  A bad
 * bound or arena and rows that are not distinct trees of their arenas
 * are refused for every tenant before anything is written
 * (check_tenants). */
FORCE_INLINE int64_t select_expand_many(
    int64_t n, arena_t *const *arenas, const int64_t *bounds,
    int64_t *trees, int64_t *leaves, int64_t *depths, uint64_t *plane1,
    uint64_t *plane2, int8_t *to_move, uint8_t *terminal,
    root_loop_t *const *loops, int64_t *at, int num_moves, play_fn play)
{
    int64_t rc =
        check_tenants(n, arenas, bounds, trees, loops, num_moves, at);
    if (rc)
        return rc;
    for (int64_t j = 0; j < n; j++) {
        int64_t lo = bounds[j];
        leaf_rows_t out = {plane1 + lo, plane2 + lo, to_move + lo,
                           terminal + lo};
        rc = select_tenant(bounds[j + 1] - lo, trees + lo, arenas[j],
                           leaves + lo, depths + lo, &out, loops[j], play);
        if (rc) {
            *at = j;
            return rc;
        }
    }
    *at = n;
    return 0;
}

#define SELECT_MANY_PARAMS                                                   \
    int64_t n, arena_t *const *arenas, const int64_t *bounds,                \
        int64_t *trees, int64_t *leaves, int64_t *depths, uint64_t *plane1,  \
        uint64_t *plane2, int8_t *to_move, uint8_t *terminal,                \
        root_loop_t *const *loops, int64_t *at
#define SELECT_MANY_ARGS                                                     \
    n, arenas, bounds, trees, leaves, depths, plane1, plane2, to_move,       \
        terminal, loops, at

int64_t repro_reversi_select_expand_many(SELECT_MANY_PARAMS)
{
    return select_expand_many(SELECT_MANY_ARGS, 65, rev_play);
}

int64_t repro_tictactoe_select_expand_many(SELECT_MANY_PARAMS)
{
    return select_expand_many(SELECT_MANY_ARGS, 9, ttt_play);
}

int64_t repro_connect4_select_expand_many(SELECT_MANY_PARAMS)
{
    return select_expand_many(SELECT_MANY_ARGS, 7, c4_play);
}

/* Do the k leaves lie inside the allocation?  (Negative ones are rows
 * with nothing to add.) */
static inline int leaves_inside(const arena_t *a, int64_t k,
                                const int64_t *leaves)
{
    if (a->allocated < 0 || a->allocated > a->capacity)
        return 0;
    for (int64_t i = 0; i < k; i++)
        if (leaves[i] >= a->allocated)
            return 0;
    return 1;
}

/* `TreeArena.backprop_many`: for k leaves of distinct trees, `sims`
 * visits along each path and, for a node's mover, its side's wins plus
 * half the draws.  Returns 0; -2 when a leaf lies outside the
 * allocation (nothing written) or a walk meets a bad parent link. */
int repro_backprop(int64_t k, const int64_t *leaves, double sims,
                   const double *wins_b, const double *wins_w,
                   const double *draws, const arena_t *a)
{
    if (!leaves_inside(a, k, leaves))
        return -2;
    for (int64_t i = 0; i < k; i++) {
        double half = 0.5 * draws[i];
        if (credit_path(a, leaves[i], sims, wins_b[i] + half,
                        wins_w[i] + half))
            return -2;
    }
    return 0;
}

/* `TreeArena.backprop_winners`: one playout per leaf, winners[i] its
 * outcome -- a visit along the path, a win for the winner's side, half
 * a win each for a draw (0).  Anything else -- NaN, a bit-flipped byte
 * -- compares false three times: a visit and no win, as the Python
 * body credits it.  Returns as `repro_backprop`. */
static inline int credit_winners(int64_t k, const int64_t *leaves,
                                 const double *winners, const arena_t *a)
{
    for (int64_t i = 0; i < k; i++) {
        double w = winners[i], half = 0.5 * (w == 0.0);
        if (credit_path(a, leaves[i], 1.0, (w == 1.0) + half,
                        (w == -1.0) + half))
            return -2;
    }
    return 0;
}

int repro_backprop_winners(int64_t k, const int64_t *leaves,
                           const double *winners, const arena_t *a)
{
    if (!leaves_inside(a, k, leaves))
        return -2;
    return credit_winners(k, leaves, winners, a);
}

/* `repro_backprop_winners` over n tenants' arenas in one call: tenant j's
 * rows are leaves[bounds[j] .. bounds[j + 1]) of arenas[j] -- any number,
 * several on one tree too: credits only add -- and winners[i] is row
 * i's outcome.  Returns 0 with *at = n.  -2 with *at = j when tenant j's
 * arena is missing, its bounds are bad or its leaves lie outside its
 * allocation -- checked for every tenant first, nothing written -- or
 * when one of its walks meets a bad parent link (tenants before it
 * done). */
int repro_backprop_winners_many(int64_t n, const arena_t *const *arenas,
                                const int64_t *bounds, const int64_t *leaves,
                                const double *winners, int64_t *at)
{
    for (int64_t j = 0; j < n; j++) {
        *at = j;
        int64_t lo = bounds[j], k = bounds[j + 1] - bounds[j];
        if (!arenas[j] || lo < 0 || k < 0
            || !leaves_inside(arenas[j], k, leaves + lo))
            return -2;
    }
    for (int64_t j = 0; j < n; j++) {
        int64_t lo = bounds[j];
        if (credit_winners(bounds[j + 1] - lo, leaves + lo, winners + lo,
                           arenas[j])) {
            *at = j;
            return -2;
        }
    }
    *at = n;
    return 0;
}

/* Test helper: libm's `log`, to pin it against `math.log`. */
void repro_log(int64_t n, const double *x, double *out)
{
    for (int64_t i = 0; i < n; i++)
        out[i] = log(x[i]);
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

/* Test helper: the initial states `*_launch` gives lanes lo .. lo + n. */
void repro_lane_states(int64_t n, uint64_t base, int64_t lo, uint64_t *s0,
                       uint64_t *s1)
{
    for (int64_t i = 0; i < n; i++)
        lane_state(base, (uint64_t)lo + (uint64_t)i, &s0[i], &s1[i]);
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
