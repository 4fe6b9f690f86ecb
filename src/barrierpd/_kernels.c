/* Compiled per-stage kernels of the four solvers, split across the host's CPUs.
 *
 * A kernel, and each form of one, exists only for a stage that a solver
 * iteration or a logged row runs; a one-off evaluation, such as D or D*
 * alone, runs the numpy code unless it shares such a form, as a dual value
 * shares dual_fb's z - D* p.  Each kernel does, on every element, the
 * operations of the numpy code it replaces in the same order, so its
 * results are bit-identical to that code's.  The build flags keep it so:
 * -ffp-contract=off stops a*b + c from becoming a fused multiply-add, and
 * no -ffast-math.  Of the reductions, tv_dual's minimum is exact in any
 * order, and metric_sums, primal_step, grad_sumsq and h1_dual's norm add
 * their terms in numpy's own pairwise order.  Stages the numpy code makes
 * as passes of their own ride in a neighbouring kernel's pass: in
 * grad_adjoint dual_fb's x = z - D* p and pdhgm's whole primal step, its
 * prox and extrapolation.  pedi's whole primal step is one call,
 * primal_step, whose leaves of numpy's tree each form x - tau K* y row
 * segment by row segment, take the prox, write x in place and square the
 * new x for the solver's finiteness check.  pedi's whole dual step is one
 * kernel call: on TV, tv_dual forms each pixel's tail of K x, its squared
 * norm, the dual solve and the soc rule's minimum in one visit; on H1,
 * whose one block needs the norm of all of K x first, h1_dual sums its
 * squares formed on the fly, solves for the block's scalars and then
 * writes y.  Both store K x and d's heads only when asked, since only the
 * final iterate's are read.  The baselines' whole dual step, the projection
 * of the ascent p + s D v, is one call in the same way, writing p in place
 * and storing no ascent: on TV project_tv forms and projects each pixel's
 * ascent in one visit; on H1 project_h1 sums the ascent's squares formed on
 * the fly and then writes it, scaled, with ascend.  Every kernel that forms D
 * does so through one stencil, STENCIL, and every sum walks numpy's tree
 * through one walker, WALKER, over a leaf.
 *
 * The kernels are plain functions of restrict pointers and scalars, which
 * gcc vectorises; the sums' leaves read theirs from a job.  On x86-64 each
 * is cloned for AVX-512, AVX2 and the baseline ISA and picked at load
 * time.  The clones carry real weight: on 2 CPUs with AVX-512, a
 * pedi-general TV iteration at 256 x 256 took 457-461 us built for the
 * baseline ISA alone (KERNEL defined empty) against 285-300 us with the
 * clones, and 1.51-1.70 ms against 1.06-1.13 ms at 512 x 512 (3 alternating
 * runs of 300 iterations, best of 5).  A build may define KERNEL itself,
 * which is how the tests run the clones the host never picks.  The wrappers
 * below the kernels unpack C-contiguous float64 buffers, check shapes and
 * overlap, and raise ValueError for anything else: they never copy an
 * array.  An image may also come flat, as the primal vector it is, when a
 * field in the same call gives its shape.
 *
 * Every element is computed independently of the others, so a call splits
 * into contiguous chunks without changing any result.  A sum splits by the
 * subtrees of its pairwise tree, whose sums the caller adds in the tree's
 * order (see pairwise), so it too is the same for any thread count.  A
 * call whose parts would each cover at least MIN_PART pixels runs on a
 * pool of worker threads (see run); a smaller one, and every metric_sums
 * call, runs on the calling thread alone.  The pool has one thread per
 * CPU in the process's affinity mask, at most MAX_THREADS, counting the
 * caller; taskset or any other affinity mask is what restricts it, and
 * the BLAS thread variables do not.  The workers start on the first call
 * that splits, sleep on a condition variable between calls, and never
 * spin.  A wrapper holds the interpreter lock for its whole call, which
 * is what lets Python threads share the one pool.
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <pthread.h>
#include <sched.h>
#include <signal.h>
#include <stdatomic.h>
#include <stdint.h>
#include <string.h>

#ifndef KERNEL
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define KERNEL __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define KERNEL
#endif
#endif

typedef Py_ssize_t idx;

/* ----- kernels ----------------------------------------------------------- */

/* Runs the PIXEL body, the arguments after hi, on each pixel k = lo..hi-1
 * of the (n1, n2) array v in row-major order, with (g0, g1) the pixel's
 * entries of the forward differences with Neumann boundary: the entries
 * imaging._grad gives, zero in the last row (g0) and the last column (g1).
 * A kernel whose planar outputs each need one entry runs it once per
 * plane, reading g0 or g1 alone: pairing the planes per pixel made a plain
 * gradient pass 2.1 times as slow at 256 x 256 on one CPU, and h1_dual 1.6
 * times. */
#define STENCIL(v, n1, n2, lo, hi, ...)                                         \
    for (idx k = (lo), i_ = k / (n2); k < (hi); i_++) {                         \
        /* the row ends at r_; pixels before m_ have a right neighbour, and     \
         * the one from m_ to e_, if any, is the row's last */                  \
        idx r_ = (i_ + 1) * (n2), e_ = (hi) < r_ ? (hi) : r_;                   \
        idx m_ = e_ < r_ - 1 ? e_ : r_ - 1;                                     \
        if (i_ < (n1) - 1) {                                                    \
            for (; k < m_; k++)                                                 \
                PIXEL((v)[k + (n2)] - (v)[k], (v)[k + 1] - (v)[k], __VA_ARGS__) \
            if (k < e_)                                                         \
                PIXEL((v)[k + (n2)] - (v)[k], 0.0, __VA_ARGS__)                 \
        } else {                                                                \
            for (; k < m_; k++)                                                 \
                PIXEL(0.0, (v)[k + 1] - (v)[k], __VA_ARGS__)                    \
            if (k < e_)                                                         \
                PIXEL(0.0, 0.0, __VA_ARGS__)                                    \
        }                                                                       \
        k = e_;                                                                 \
    }
#define PIXEL(G0, G1, ...)                                                      \
    {                                                                           \
        const double g0 = (G0), g1 = (G1);                                      \
        (void)g0, (void)g1;                                                     \
        __VA_ARGS__;                                                            \
    }

/* Columns j0..j1-1 of row i of c times the adjoint of grad on the planes
 * g0 and g1, into o: the axis-0 terms first, then + g1[j-1] and - g1[j],
 * then the product with c, as imaging._grad_adjoint followed by a
 * multiplication by c. */
static inline void grad_adjoint_row(const double *restrict g0, const double *restrict g1,
                                    double *restrict o, idx n1, idx n2, idx i, idx j0, idx j1,
                                    double c)
{
    const double *restrict cur = g0 + i * n2;
    const double *restrict h = g1 + i * n2;
    if (i == 0 && n1 > 1)
        for (idx j = j0; j < j1; j++)
            o[j - j0] = 0.0 - cur[j];
    else if (i == 0)
        for (idx j = j0; j < j1; j++)
            o[j - j0] = 0.0;
    else if (i < n1 - 1)
        for (idx j = j0; j < j1; j++)
            o[j - j0] = cur[j - n2] - cur[j];
    else
        for (idx j = j0; j < j1; j++)
            o[j - j0] = cur[j - n2];
    if (n2 == 1) {
        o[0] = o[0] * c;
        return;
    }
    idx lo = j0, inner = j1 < n2 - 1 ? j1 : n2 - 1;
    if (j0 == 0) {
        o[0] = (o[0] - h[0]) * c;
        lo = 1;
    }
    for (idx j = lo; j < inner; j++)
        o[j - j0] = ((o[j - j0] + h[j - 1]) - h[j]) * c;
    if (j1 == n2)
        o[n2 - 1 - j0] = (o[n2 - 1 - j0] + h[n2 - 2]) * c;
}

/* Rows r0..r1-1 of the baselines' dual ascent a = (grad v) s + p, as
 * imaging._grad makes it with an addend, times f, written over the planes
 * (p0, p1) of p: the write of the H1 projection, f being 1 inside the
 * ball, where the numpy code copies a. */
KERNEL static void ascend(const double *restrict v, double *restrict p0, double *restrict p1, idx n1,
                          idx n2, idx r0, idx r1, double s, double f)
{
    idx lo = r0 * n2, hi = r1 * n2;
    STENCIL(v, n1, n2, lo, hi, p0[k] = (g0 * s + p0[k]) * f);
    STENCIL(v, n1, n2, lo, hi, p1[k] = (g1 * s + p1[k]) * f);
}

/* Rows r0..r1-1 of a minuend m minus the adjoint of grad, into out:
 * baselines.dual_fb_run's x = z - D* p.  With z as well, out is instead
 * pdhgm's primal step, the prox ((m - (D* g) t) + z t) / (1 + t) of the
 * point m - (D* g) t, and xb its extrapolation (out - m) theta + out. */
KERNEL static void grad_adjoint(const double *restrict g0, const double *restrict g1,
                                const double *restrict m, const double *restrict z,
                                double *restrict xb, double *restrict out, idx n1, idx n2, idx r0,
                                idx r1, double t, double theta)
{
    double s = 1.0 + t;
    for (idx i = r0; i < r1; i++) {
        double *restrict o = out + i * n2;
        const double *restrict mi = m + i * n2;
        grad_adjoint_row(g0, g1, o, n1, n2, i, 0, n2, 1.0);
        if (z) {
            const double *restrict zi = z + i * n2;
            double *restrict bi = xb + i * n2;
            for (idx j = 0; j < n2; j++) {
                double w = ((mi[j] - o[j] * t) + zi[j] * t) / s;
                o[j] = w;
                bi[j] = (w - mi[j]) * theta + w;
            }
        } else
            for (idx j = 0; j < n2; j++)
                o[j] = mi[j] - o[j];
    }
}

/* Rows r0..r1-1 of pedi's dual step on TV, each pixel in one visit: its
 * block's tail (g0, g1) of K x = grad v; the squared norm
 * t = g0^2 + g1^2; the closed-form dual solve of pedi._dual_update, the
 * head d = (sqrt(t b0^2 + mu^2) + mu) / b0 of d and the tail
 * (g0, g1) (b0/2) / d of y, zero where d is not positive.  It writes
 * y's tails into (y0, y1), and with keep also K x into (k0, k1) and d's heads
 * into d0.  The least and greatest bit patterns of the norms t go into *lo
 * and *hi: such a sum is +0 or positive unless NaN, and non-negative doubles
 * order like their bit patterns, so the minimum is an unsigned integer
 * reduction, exact in any order; NaN patterns of either sign lie above
 * +inf's. */
KERNEL static void tv_dual(const double *restrict v, double *restrict k0, double *restrict k1,
                           double *restrict d0, double *restrict y0, double *restrict y1, idx n1,
                           idx n2, idx r0, idx r1, double b0, double mu, int keep, uint64_t *lo,
                           uint64_t *hi)
{
    double bb = b0 * b0, mm = mu * mu, hb = b0 / 2.0;
    uint64_t l = UINT64_MAX, h = 0;
    STENCIL(v, n1, n2, r0 * n2, r1 * n2, {
        double t = g0 * g0 + g1 * g1;
        double d = (sqrt(t * bb + mm) + mu) / b0, q = hb / d;
        double s = d > 0.0 ? q : 0.0;
        uint64_t b;
        memcpy(&b, &t, sizeof b);
        l = b < l ? b : l;
        h = b > h ? b : h;
        y0[k] = g0 * s;
        y1[k] = g1 * s;
        if (keep) {
            k0[k] = g0;
            k1[k] = g1;
            d0[k] = d;
        }
    });
    *lo = l;
    *hi = h;
}

/* Rows r0..r1-1 of the write of pedi's dual step on H1, whose one block
 * has the factor s = (b0/2) / d: y = (grad v) s into the planes (y0, y1),
 * as pedi._dual_update's product forms it, and with keep K x = grad v
 * itself into (k0, k1), each plane in a pass of its own. */
KERNEL static void h1_write(const double *restrict v, double *restrict k0, double *restrict k1,
                            double *restrict y0, double *restrict y1, idx n1, idx n2, idx r0,
                            idx r1, double s, int keep)
{
    idx lo = r0 * n2, hi = r1 * n2;
    STENCIL(v, n1, n2, lo, hi, y0[k] = g0 * s);
    STENCIL(v, n1, n2, lo, hi, y1[k] = g1 * s);
    if (keep) {
        STENCIL(v, n1, n2, lo, hi, k0[k] = g0);
        STENCIL(v, n1, n2, lo, hi, k1[k] = g1);
    }
}

/* Rows r0..r1-1 of the baselines' whole dual step on TV, p = P(p + s D v),
 * in one visit per pixel: the ascent a = (grad v) s + p, formed as
 * imaging._grad forms it with an addend, and its projection onto the ball
 * of radius alpha, a alpha / max(||a||, floor) as
 * DenoiseProblem.project_dual makes it, written back over (p0, p1). */
KERNEL static void project_tv(const double *restrict v, double *restrict p0, double *restrict p1,
                              idx n1, idx n2, idx r0, idx r1, double alpha, double floor, double s)
{
    STENCIL(v, n1, n2, r0 * n2, r1 * n2, {
        double a0 = g0 * s + p0[k], a1 = g1 * s + p1[k], r = sqrt(a0 * a0 + a1 * a1);
        r = r < floor ? floor : r;
        r = alpha / r;
        p0[k] = a0 * r;
        p1[k] = a1 * r;
    });
}

/* ----- the worker pool --------------------------------------------------- */

#define MAX_THREADS 8
#define CHUNKS_PER_THREAD 2
#define MAX_CHUNKS (MAX_THREADS * CHUNKS_PER_THREAD)
/* A split sum adds the subtrees NODE_DEPTH levels down numpy's pairwise
 * tree, at most MAX_NODES of them (see pairwise) */
#define NODE_DEPTH 4
#define MAX_NODES (1 << NODE_DEPTH)
/* The fewest pixels a thread's part of a split call may cover.  Pixels,
 * not array entries, so that all of an iteration's kernels split or none
 * do (a gradient field holds two entries per pixel): an image split in
 * some stages only, or at 128 x 128, ran slower than on one thread, with
 * its data moving between the cores' caches. */
#define MIN_PART 32768
/* the most times a caller yields its CPU waiting for claimed chunks */
#define WAIT_YIELDS 200

/* One kernel call: its arrays, scalars and shape, and the task that runs
 * units lo..hi-1 of it as chunk c.  A walk puts into s the sums of terms
 * lo..lo+n-1 of the job's arrays (see WALKER). */
typedef struct Job Job;
typedef void Task(Job *j, idx lo, idx hi, int c);
typedef void Walk(const Job *j, idx lo, idx n, double *s);
struct Job {
    double *a[5];
    double s[3];
    idx n1, n2;
    Task *task;
    idx units;
    int chunks;
    uint64_t lo[MAX_CHUNKS], hi[MAX_CHUNKS];
    /* a split sum's walker puts the sum of terms node[u]..node[u+1]-1, its
     * node u, into sum[u] */
    Walk *walk;
    idx node[MAX_NODES + 1];
    double sum[MAX_NODES];
};

/* The job being run is published by a store to claim, which packs the
 * job's generation, seq (bits 32-63), its chunk count (16-31) and the next
 * unclaimed chunk (0-15).  A thread takes a chunk by a compare-and-swap
 * that advances the next chunk, so a thread still holding a word of an
 * earlier job claims nothing, and a job's fields stay put while any of its
 * chunks is claimed and not done. */
static struct {
    pthread_mutex_t lock;
    pthread_cond_t wake, finished;
    uint32_t seq;  /* calls published, the generation of the last; under lock */
    int cpus;      /* threads a split may use, the caller included */
    int workers;   /* threads started; -1 before the first split */
    Job *job;
    _Atomic uint64_t claim;
    atomic_int done;
} pool = {PTHREAD_MUTEX_INITIALIZER, PTHREAD_COND_INITIALIZER, PTHREAD_COND_INITIALIZER,
          0, 1, -1, NULL, 0, 0};

/* Claims and runs chunks of the published job until none is left; a worker
 * that finishes the job's last chunk wakes the caller. */
static void work(int worker)
{
    for (;;) {
        uint64_t w = atomic_load_explicit(&pool.claim, memory_order_acquire);
        int chunks, c;
        do {
            chunks = (int)(w >> 16 & 0xffff);
            c = (int)(w & 0xffff);
            if (c >= chunks)
                return;
        } while (!atomic_compare_exchange_weak_explicit(&pool.claim, &w, w + 1, memory_order_acq_rel,
                                                        memory_order_acquire));
        Job *j = pool.job;
        j->task(j, j->units * c / chunks, j->units * (c + 1) / chunks, c);
        if (atomic_fetch_add_explicit(&pool.done, 1, memory_order_acq_rel) + 1 == chunks && worker) {
            pthread_mutex_lock(&pool.lock);
            pthread_cond_signal(&pool.finished);
            pthread_mutex_unlock(&pool.lock);
        }
    }
}

/* A worker sleeps until a call is published after the one it last saw;
 * seen starts at the count when it was created, so it takes part in the
 * call that started it. */
static void *worker(void *arg)
{
    uint32_t seen = (uint32_t)(uintptr_t)arg;
    pthread_mutex_lock(&pool.lock);
    for (;;) {
        while (pool.seq == seen)
            pthread_cond_wait(&pool.wake, &pool.lock);
        seen = pool.seq;
        pthread_mutex_unlock(&pool.lock);
        work(1);
        pthread_mutex_lock(&pool.lock);
    }
    return NULL;
}

/* Starts the workers with every signal blocked, so that signals go to the
 * interpreter's threads; as many as the system allows, none meaning that
 * calls run serially. */
static void start(void)
{
    sigset_t all, old;
    sigfillset(&all);
    pthread_sigmask(SIG_SETMASK, &all, &old);
    pool.workers = 0;
    for (int i = 1; i < pool.cpus; i++) {
        pthread_t t;
        if (pthread_create(&t, NULL, worker, (void *)(uintptr_t)pool.seq) != 0)
            break;
        pthread_detach(t);
        pool.workers++;
    }
    pthread_sigmask(SIG_SETMASK, &old, NULL);
}

/* A forked child has none of the parent's workers, and its lock and
 * condition variables may still record them (locked, or counting a
 * sleeper); it starts afresh on its first split. */
static void after_fork_in_child(void)
{
    pthread_mutex_init(&pool.lock, NULL);
    pthread_cond_init(&pool.wake, NULL);
    pthread_cond_init(&pool.finished, NULL);
    pool.workers = -1;
}

/* Runs task over units 0..units-1 of the job, which cover the given
 * number of pixels.  When every thread's part would cover at least
 * MIN_PART pixels the units are cut into CHUNKS_PER_THREAD contiguous
 * chunks per thread, which the caller and the workers claim; the caller
 * then waits only for chunks already claimed.  Otherwise the caller runs
 * the task alone, as one chunk. */
static void run(Job *j, Task *task, idx units, idx pixels)
{
    idx parts = pixels / MIN_PART;
    int threads = parts < pool.cpus ? (int)parts : pool.cpus;
    if (threads > 1 && pool.workers < 0)
        start();
    if (threads > pool.workers + 1)
        threads = pool.workers + 1;
    j->task = task;
    j->units = units;
    j->chunks = units < threads * CHUNKS_PER_THREAD ? (int)units : threads * CHUNKS_PER_THREAD;
    if (threads < 2 || j->chunks < 2) {
        j->chunks = 1;
        task(j, 0, units, 0);
        return;
    }
    pool.job = j;
    atomic_store_explicit(&pool.done, 0, memory_order_relaxed);
    pthread_mutex_lock(&pool.lock);
    pool.seq++;
    atomic_store_explicit(&pool.claim, (uint64_t)pool.seq << 32 | (uint64_t)j->chunks << 16,
                          memory_order_release);
    pthread_cond_broadcast(&pool.wake);
    pthread_mutex_unlock(&pool.lock);
    work(0);
    /* the chunks not yet done are running on workers; each takes about as
     * long as one of the caller's, and waking a sleeping caller costs about
     * as much, so yield a bounded number of times before sleeping */
    for (int i = 0; i < WAIT_YIELDS && atomic_load_explicit(&pool.done, memory_order_acquire) != j->chunks; i++)
        sched_yield();
    if (atomic_load_explicit(&pool.done, memory_order_acquire) != j->chunks) {
        pthread_mutex_lock(&pool.lock);
        while (atomic_load_explicit(&pool.done, memory_order_acquire) != j->chunks)
            pthread_cond_wait(&pool.finished, &pool.lock);
        pthread_mutex_unlock(&pool.lock);
    }
}

/* ----- sums in numpy's pairwise order ------------------------------------ */

/* numpy's summation order for float64: its pairwise_sum, which add.reduce
 * (so .sum() of a C-contiguous array of any shape) applies to the whole
 * array.  Fewer than 8 terms are added in order; up to LEAF terms go into 8
 * interleaved accumulators, combined as ((r0+r1)+(r2+r3))+((r4+r5)+(r6+r7)),
 * and the rest is added in order; a longer range splits at half its
 * length rounded down to a multiple of 8.  leaf_sum adds t's entries, or
 * with squares set their squares, each formed as np.square forms it. */
#define LEAF 128

static inline double leaf_sum(const double *restrict t, idx n, int squares)
{
#define TERM(k) (squares ? t[k] * t[k] : t[k])
    if (n < 8) {
        double s = 0.0;
        for (idx k = 0; k < n; k++)
            s += TERM(k);
        return s;
    }
    double r[8];
    for (int q = 0; q < 8; q++)
        r[q] = TERM(q);
    idx k = 8;
    for (; k < n - n % 8; k += 8)
        for (int q = 0; q < 8; q++)
            r[q] += TERM(k + q);
    double s = ((r[0] + r[1]) + (r[2] + r[3])) + ((r[4] + r[5]) + (r[6] + r[7]));
    for (; k < n; k++)
        s += TERM(k);
    return s;
#undef TERM
}

static inline idx left_half(idx n)
{
    idx h = n / 2;
    return h - h % 8;
}

/* The leaves, of at most LEAF terms from lo on, each leaf-summed into s. */

/* The terms of imaging.metrics' four sums at pixels lo..lo+n-1 of the
 * job's (x, z, xh, p), with tv its s[0]: (x - z)^2, with tv the TV norm
 * sqrt(g0*g0 + g1*g1) of grad x (else 0), (z - w)^2 with w = D* p, and
 * (x - xh)^2, with numpy's operations in numpy's order.  D* runs row
 * segment by row segment. */
KERNEL static void metric_leaf(const Job *j, idx lo, idx n, double *s)
{
    const double *restrict x = j->a[0], *restrict z = j->a[1], *restrict xh = j->a[2];
    idx n1 = j->n1, n2 = j->n2;
    int tv = j->s[0] != 0.0;
    double t[4][LEAF], w[LEAF];
    if (tv)
        STENCIL(x, n1, n2, lo, lo + n, t[1][k - lo] = sqrt(g0 * g0 + g1 * g1));
    for (idx k = 0; k < n;) {
        idx i = (lo + k) / n2, j0 = (lo + k) % n2, j1 = j0 + (n - k) < n2 ? j0 + (n - k) : n2;
        grad_adjoint_row(j->a[3], j->a[3] + n1 * n2, w + k, n1, n2, i, j0, j1, 1.0);
        k += j1 - j0;
    }
    x += lo;
    z += lo;
    xh += lo;
    for (idx k = 0; k < n; k++) {
        double r = x[k] - z[k], e = x[k] - xh[k], q = z[k] - w[k];
        t[0][k] = r * r;
        t[2][k] = q * q;
        t[3][k] = e * e;
    }
    for (int q = 0; q < 4; q++)
        s[q] = q == 1 && !tv ? 0.0 : leaf_sum(t[q], n, 0);
}

/* Pixels lo..lo+n-1 of pedi's primal step on the job's (y, z, x) with
 * tau its s[0]: the point m = x - (2 D* y) tau, as imaging._grad_adjoint
 * makes it with a minuend, then the prox (z tau + m) / (1 + tau) of
 * G(x) = ||x - z||^2 / 2, as DenoiseProblem's prox_G makes it, written
 * over x, and the squares of the new x, as np.square(x).sum() adds them.
 * D* runs row segment by row segment. */
KERNEL static void primal_leaf(const Job *j, idx lo, idx n, double *s)
{
    const double *restrict y = j->a[0], *restrict z = j->a[1] + lo;
    double *restrict x = j->a[2] + lo;
    idx n1 = j->n1, n2 = j->n2;
    double t = j->s[0], d = 1.0 + t, w[LEAF];
    for (idx k = 0; k < n;) {
        idx i = (lo + k) / n2, j0 = (lo + k) % n2, j1 = j0 + (n - k) < n2 ? j0 + (n - k) : n2;
        grad_adjoint_row(y, y + n1 * n2, w + k, n1, n2, i, j0, j1, 2.0);
        k += j1 - j0;
    }
    for (idx k = 0; k < n; k++)
        x[k] = (z[k] * t + (x[k] - w[k] * t)) / d;
    *s = leaf_sum(x, n, 1);
}

/* The squares of entries lo..lo+n-1 of grad v in planar (2, n1, n2)
 * order, v the job's (n1, n2) array, as np.square(_grad(v)).sum() adds
 * them.  The leaf may straddle the planes: its first m entries are plane
 * 0's at pixels lo..lo+m-1, the rest plane 1's. */
KERNEL static void grad_sumsq_leaf(const Job *j, idx lo, idx n, double *s)
{
    const double *restrict v = j->a[0];
    idx n1 = j->n1, n2 = j->n2, p = n1 * n2, m = lo >= p ? 0 : lo + n <= p ? n : p - lo;
    double t[LEAF];
    if (m > 0)
        STENCIL(v, n1, n2, lo, lo + m, t[k - lo] = g0);
    if (m < n)
        STENCIL(v, n1, n2, lo + m - p, lo + n - p, t[k - lo + p] = g1);
    *s = leaf_sum(t, n, 1);
}

/* The same for the baselines' dual ascent a = (grad v) s + p, the job's
 * (v, p, s[1]), as np.square(a).sum() adds the entries imaging._grad
 * forms. */
KERNEL static void ascent_sumsq_leaf(const Job *j, idx lo, idx n, double *s)
{
    const double *restrict v = j->a[0], *restrict a = j->a[1];
    double c = j->s[1];
    idx n1 = j->n1, n2 = j->n2, p = n1 * n2, m = lo >= p ? 0 : lo + n <= p ? n : p - lo;
    double t[LEAF];
    if (m > 0)
        STENCIL(v, n1, n2, lo, lo + m, t[k - lo] = g0 * c + a[k]);
    if (m < n)
        STENCIL(v, n1, n2, lo + m - p, lo + n - p, t[k - lo + p] = g1 * c + a[k + p]);
    *s = leaf_sum(t, n, 1);
}

/* Defines NAME(j, lo, n, s), the NS sums of terms lo..lo+n-1, a node of
 * numpy's pairwise tree, from LEAF_FN's sums at its leaves.  One walker per
 * leaf, so that each calls its leaf directly: one walker calling its leaf
 * through a function pointer made a sum of squares and grad_sumsq 2-8 %
 * slower at 256 x 256 on one CPU. */
#define WALKER(NAME, LEAF_FN, NS)                                               \
    static void NAME(const Job *j, idx lo, idx n, double *s)                    \
    {                                                                           \
        if (n <= LEAF) {                                                        \
            LEAF_FN(j, lo, n, s);                                               \
            return;                                                             \
        }                                                                       \
        double a[NS], b[NS];                                                    \
        idx h = left_half(n);                                                   \
        NAME(j, lo, h, a);                                                      \
        NAME(j, lo + h, n - h, b);                                              \
        for (int q = 0; q < NS; q++)                                            \
            s[q] = a[q] + b[q];                                                 \
    }

WALKER(walk_metric, metric_leaf, 4)
WALKER(walk_primal, primal_leaf, 1)
WALKER(walk_grad_sumsq, grad_sumsq_leaf, 1)
WALKER(walk_ascent_sumsq, ascent_sumsq_leaf, 1)

/* Puts into node the bounds of the subtrees of numpy's pairwise tree over
 * terms lo..lo+n-1 that lie depth levels down, or of the leaves above
 * them, in order; returns their number. */
static int split(idx *node, idx lo, idx n, int depth)
{
    if (depth == 0 || n <= LEAF) {
        *node = lo;
        return 1;
    }
    idx h = left_half(n);
    int a = split(node, lo, h, depth - 1);
    return a + split(node + a, lo + h, n - h, depth - 1);
}

/* The sum of the node sums from *u on over a tree of n terms, added in
 * the tree's order, as split laid the nodes out. */
static double join(const double *sum, idx n, int depth, int *u)
{
    if (depth == 0 || n <= LEAF)
        return sum[(*u)++];
    idx h = left_half(n);
    double a = join(sum, h, depth - 1, u);
    return a + join(sum, n - h, depth - 1, u);
}

static void t_sum(Job *j, idx lo, idx hi, int c)
{
    for (idx u = lo; u < hi; u++)
        j->walk(j, j->node[u], j->node[u + 1] - j->node[u], &j->sum[u]);
}

/* The sum of n terms in numpy's pairwise order, which covers the given
 * number of pixels: walk sums the terms of the tree's nodes NODE_DEPTH
 * levels down, each as a unit of run, and the caller adds the node sums in
 * the tree's order.  Each node's sum is the same on any thread, so the
 * result is bit for bit the whole tree's for any thread count. */
static double pairwise(Job *j, Walk *walk, idx n, idx pixels)
{
    int nodes = split(j->node, 0, n, NODE_DEPTH), u = 0;
    j->node[nodes] = n;
    j->walk = walk;
    run(j, t_sum, nodes, pixels);
    return join(j->sum, n, NODE_DEPTH, &u);
}

/* ----- tasks ------------------------------------------------------------- */

/* Units are rows. */
static void t_ascend(Job *j, idx lo, idx hi, int c)
{
    ascend(j->a[0], j->a[1], j->a[1] + j->n1 * j->n2, j->n1, j->n2, lo, hi, j->s[1], j->s[2]);
}

static void t_grad_adjoint(Job *j, idx lo, idx hi, int c)
{
    grad_adjoint(j->a[0], j->a[0] + j->n1 * j->n2, j->a[2], j->a[3], j->a[4], j->a[1], j->n1, j->n2, lo,
                 hi, j->s[0], j->s[1]);
}

static void t_tv_dual(Job *j, idx lo, idx hi, int c)
{
    idx n = j->n1 * j->n2;
    tv_dual(j->a[0], j->a[1], j->a[1] + n, j->a[2], j->a[3], j->a[3] + n, j->n1, j->n2, lo, hi,
            j->s[0], j->s[1], j->s[2] != 0.0, &j->lo[c], &j->hi[c]);
}

static void t_h1_write(Job *j, idx lo, idx hi, int c)
{
    idx n = j->n1 * j->n2;
    h1_write(j->a[0], j->a[1], j->a[1] + n, j->a[3], j->a[3] + n, j->n1, j->n2, lo, hi, j->s[0],
             j->s[2] != 0.0);
}

static void t_project_tv(Job *j, idx lo, idx hi, int c)
{
    project_tv(j->a[0], j->a[1], j->a[1] + j->n1 * j->n2, j->n1, j->n2, lo, hi, j->s[0], j->s[1],
               j->s[2]);
}

/* ----- wrappers ---------------------------------------------------------- */

/* The buffers of one call, released together by finish. */
typedef struct {
    Py_buffer b[5];
    int n;
} Bufs;

static int fail(const char *msg)
{
    PyErr_SetString(PyExc_ValueError, msg);
    return 0;
}

/* Unpacks args: one array per letter of spec, 'r' read and 'w' written,
 * into j->a, then the remaining arguments as floats into j->s.  Each array
 * must be a C-contiguous float64 buffer and a written one may share no byte
 * with another; otherwise ValueError, and 0 is returned.  No array is ever
 * copied. */
static int unpack(Bufs *bs, Job *j, PyObject *const *args, Py_ssize_t nargs, const char *spec, int ns)
{
    int na = (int)strlen(spec);
    if (nargs != na + ns) {
        PyErr_Format(PyExc_TypeError, "expected %d arguments, got %zd", na + ns, nargs);
        return 0;
    }
    for (int i = 0; i < na; i++) {
        Py_buffer *b = &bs->b[i];
        int flags = PyBUF_C_CONTIGUOUS | PyBUF_FORMAT | (spec[i] == 'w' ? PyBUF_WRITABLE : 0);
        if (PyObject_GetBuffer(args[i], b, flags) < 0) {
            PyErr_Clear();
            return fail("expected a C-contiguous float64 array, writable for an output");
        }
        bs->n++;
        if (b->itemsize != 8 || strcmp(b->format, "d") != 0)
            return fail("expected a float64 array");
        j->a[i] = b->buf;
    }
    for (int i = 0; i < na; i++)
        for (int k = 0; k < na; k++) {
            const char *p = bs->b[i].buf, *q = bs->b[k].buf;
            if (spec[i] == 'w' && k != i && p < q + bs->b[k].len && q < p + bs->b[i].len)
                return fail("an output array overlaps another array");
        }
    for (int i = 0; i < ns; i++) {
        j->s[i] = PyFloat_AsDouble(args[na + i]);
        if (j->s[i] == -1.0 && PyErr_Occurred())
            return 0;
    }
    return 1;
}

/* 1 if buffer f is a nonempty (2, n1, n2) field, which sets the job's n1
 * and n2, and buffer i an image on it: an (n1, n2) array or its row-major
 * flattening, (n1 n2,), the layout of a primal vector; else 0 with
 * ValueError. */
static int image_and_field(const Bufs *bs, int i, int f, Job *j)
{
    const Py_buffer *v = &bs->b[i], *g = &bs->b[f];
    if (g->ndim != 3 || g->shape[0] != 2 || g->len == 0 ||
        !(v->ndim == 2 ? v->shape[0] == g->shape[1] && v->shape[1] == g->shape[2]
                       : v->ndim == 1 && v->shape[0] == g->shape[1] * g->shape[2]))
        return fail("expected a (2, n1, n2) field and an (n1, n2) image or its flattening");
    j->n1 = g->shape[1];
    j->n2 = g->shape[2];
    return 1;
}

static idx size(const Bufs *bs, int i)
{
    return bs->b[i].len / 8;
}

static void release(Bufs *bs)
{
    for (int i = 0; i < bs->n; i++)
        PyBuffer_Release(&bs->b[i]);
}

/* Releases the buffers; None, or NULL if the call raised. */
static PyObject *finish(Bufs *bs)
{
    release(bs);
    if (PyErr_Occurred())
        return NULL;
    Py_RETURN_NONE;
}

#define WRAPPER(name) \
    static PyObject *w_##name(PyObject *Py_UNUSED(self), PyObject *const *args, Py_ssize_t nargs)

/* grad_adjoint(g, out, m) or grad_adjoint(g, out, m, z, xb, t, theta): g a
 * (2, n1, n2) array, out, the minuend m, z and xb (n1, n2) images or their
 * flattenings; out = m - D* g, or with z and xb pdhgm's primal step,
 * out = ((m - (D* g) t) + z t) / (1 + t) and xb = (out - m) theta + out. */
WRAPPER(grad_adjoint)
{
    Bufs bs = {.n = 0};
    Job j;
    j.a[3] = j.a[4] = NULL;
    j.s[0] = j.s[1] = 0.0;
    int pdhgm = nargs == 7;
    if (unpack(&bs, &j, args, nargs, pdhgm ? "rwrrw" : "rwr", pdhgm ? 2 : 0)) {
        int ok = 1;
        for (int i = 1; i < bs.n && ok; i++)
            ok = image_and_field(&bs, i, 0, &j);
        if (ok)
            run(&j, t_grad_adjoint, j.n1, j.n1 * j.n2);
    }
    return finish(&bs);
}

/* tv_dual(v, kx, d0, y, b0, mu, keep) -> the least squared norm of K x's
 * tails, NaN if any is NaN, like np.min: v an (n1, n2) image, kx a
 * (2, n1, n2) field, d0 an (n,) array and y planar (2, n) tails, n = n1 n2.
 * It writes y, and with keep true also kx = grad v and d0. */
WRAPPER(tv_dual)
{
    Bufs bs = {.n = 0};
    Job j;
    double m = 0.0;
    if (unpack(&bs, &j, args, nargs, "rwww", 3) && image_and_field(&bs, 0, 1, &j)) {
        const Py_buffer *d = &bs.b[2], *y = &bs.b[3];
        idx n = size(&bs, 0);
        if (d->ndim != 1 || size(&bs, 2) != n || y->ndim != 2 || y->shape[0] != 2 || y->shape[1] != n)
            fail("tv_dual needs an (n,) d0 and (2, n) y, n = n1 n2");
        else {
            run(&j, t_tv_dual, j.n1, n);
            uint64_t lo = UINT64_MAX, hi = 0;
            for (int c = 0; c < j.chunks; c++) {
                lo = j.lo[c] < lo ? j.lo[c] : lo;
                hi = j.hi[c] > hi ? j.hi[c] : hi;
            }
            if (hi > 0x7ff0000000000000u)
                m = NAN;
            else
                memcpy(&m, &lo, sizeof m);
        }
    }
    release(&bs);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(m);
}

/* project_tv(v, p, alpha, floor, s), the baselines' dual step on TV,
 * which projects p + s D v into p itself: v an (n1, n2) image, p a
 * (2, n1, n2) field. */
WRAPPER(project_tv)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rw", 3) && image_and_field(&bs, 0, 1, &j))
        run(&j, t_project_tv, j.n1, j.n1 * j.n2);
    return finish(&bs);
}

/* project_h1(v, p, alpha, s), the baselines' dual step on H1, which
 * projects a = p + s D v onto the ball of radius alpha into p itself: v an
 * (n1, n2) image, p a (2, n1, n2) field.  It sums the squares of a formed
 * on the fly, as np.square(a).sum() adds them, and then writes a times
 * alpha / ||a||, or a itself when ||a|| <= alpha, as
 * DenoiseProblem.project_dual does. */
WRAPPER(project_h1)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rw", 2) && image_and_field(&bs, 0, 1, &j)) {
        idx n = j.n1 * j.n2;
        /* add.reduce starts from its identity, 0 */
        double r = sqrt(0.0 + pairwise(&j, walk_ascent_sumsq, 2 * n, n)), alpha = j.s[0];
        /* the factor t_ascend reads */
        j.s[2] = r <= alpha ? 1.0 : alpha / r;
        run(&j, t_ascend, j.n1, n);
    }
    return finish(&bs);
}

/* h1_dual(v, kx, d0, y, b0, mu, keep) -> t, the squared norm of K x's one
 * tail, pedi's whole dual step on H1: v an (n1, n2) image, kx a
 * (2, n1, n2) field, d0 a (1,) array and y the (1, 2 n) tail, n = n1 n2.
 * It sums t over grad v on the fly, as np.square(_grad(v)).sum() adds it,
 * storing no field; solves d = (sqrt(t b0^2 + mu^2) + mu) / b0 and the
 * factor s = (b0/2) / d, 0 where d is not positive, as pedi._dual_update
 * does; and then writes y = (grad v) s, and with keep true also kx = grad v
 * and d0 = d. */
WRAPPER(h1_dual)
{
    Bufs bs = {.n = 0};
    Job j;
    double t = 0.0;
    if (unpack(&bs, &j, args, nargs, "rwww", 3) && image_and_field(&bs, 0, 1, &j)) {
        const Py_buffer *d = &bs.b[2], *y = &bs.b[3];
        idx n = size(&bs, 0);
        if (d->ndim != 1 || size(&bs, 2) != 1 || y->ndim != 2 || y->shape[0] != 1 || y->shape[1] != 2 * n)
            fail("h1_dual needs a (1,) d0 and a (1, 2 n) y, n = n1 n2");
        else {
            /* add.reduce starts from its identity, 0 */
            t = 0.0 + pairwise(&j, walk_grad_sumsq, 2 * n, n);
            double b0 = j.s[0], mu = j.s[1];
            double dh = (sqrt(t * (b0 * b0) + mu * mu) + mu) / b0, q = (b0 / 2.0) / dh;
            if (j.s[2] != 0.0)
                *(double *)j.a[2] = dh;
            /* the factor t_h1_write reads */
            j.s[0] = dh > 0.0 ? q : 0.0;
            run(&j, t_h1_write, j.n1, n);
        }
    }
    release(&bs);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(t);
}

/* primal_step(y, z, x, tau) -> the sum of the squares of the new x, in
 * numpy's summation order: pedi's whole primal step, y a (2, n1, n2)
 * field, z and x (n1, n2) images or their flattenings.  It writes
 * x = (z tau + (x - (2 D* y) tau)) / (1 + tau) in place, the prox step of
 * DenoiseProblem's G at x - tau K* y, and sums the squares of the new x as
 * np.square(x).sum() adds them, storing no other array. */
WRAPPER(primal_step)
{
    Bufs bs = {.n = 0};
    Job j;
    double s = 0.0;
    if (unpack(&bs, &j, args, nargs, "rrw", 1) && image_and_field(&bs, 1, 0, &j) &&
        image_and_field(&bs, 2, 0, &j))
        s = pairwise(&j, walk_primal, j.n1 * j.n2, j.n1 * j.n2);
    release(&bs);
    /* add.reduce starts from its identity, 0 */
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(0.0 + s);
}

/* grad_sumsq(v) -> the sum of the squares of grad v's entries, bit for bit
 * np.square(_grad(v)).sum() of the planar (2, n1, n2) field, which it
 * forms on the fly and never stores: v an (n1, n2) array. */
WRAPPER(grad_sumsq)
{
    Bufs bs = {.n = 0};
    Job j;
    double s = 0.0;
    if (unpack(&bs, &j, args, nargs, "r", 0)) {
        const Py_buffer *v = &bs.b[0];
        if (v->ndim != 2 || v->len == 0)
            fail("grad_sumsq needs an (n1, n2) array");
        else {
            j.n1 = v->shape[0];
            j.n2 = v->shape[1];
            s = pairwise(&j, walk_grad_sumsq, 2 * j.n1 * j.n2, j.n1 * j.n2);
        }
    }
    release(&bs);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(0.0 + s);
}

/* metric_sums(x, z, xhat, p, tv) -> (sum (x - z)^2, the TV of x if tv else
 * 0, sum (z - D* p)^2, sum (x - xhat)^2), each in numpy's summation order:
 * x, z and xhat of one shape and n1 n2 entries, p a planar (2, n1, n2)
 * field.  It runs on the calling thread, as one chunk. */
WRAPPER(metric_sums)
{
    Bufs bs = {.n = 0};
    Job j;
    double s[4];
    if (unpack(&bs, &j, args, nargs, "rrrr", 1)) {
        const Py_buffer *x = &bs.b[0], *p = &bs.b[3];
        int ok = p->ndim == 3 && p->shape[0] == 2 && p->len > 0 && size(&bs, 0) * 2 == size(&bs, 3);
        for (int i = 1; i < 3 && ok; i++)
            ok = bs.b[i].ndim == x->ndim && !memcmp(bs.b[i].shape, x->shape, x->ndim * sizeof *x->shape);
        if (!ok)
            fail("metric_sums needs x, z and xhat of one shape and a planar (2, n1, n2) p of their size");
        else {
            j.n1 = p->shape[1];
            j.n2 = p->shape[2];
            walk_metric(&j, 0, j.n1 * j.n2, s);
        }
    }
    release(&bs);
    if (PyErr_Occurred())
        return NULL;
    /* add.reduce starts from its identity, 0 */
    return Py_BuildValue("(dddd)", 0.0 + s[0], 0.0 + s[1], 0.0 + s[2], 0.0 + s[3]);
}

static PyMethodDef methods[] = {
    {"grad_adjoint", (PyCFunction)(void (*)(void))w_grad_adjoint, METH_FASTCALL,
     "grad_adjoint(g, out, m) or grad_adjoint(g, out, m, z, xb, t, theta)"},
    {"tv_dual", (PyCFunction)(void (*)(void))w_tv_dual, METH_FASTCALL,
     "tv_dual(v, kx, d0, y, b0, mu, keep) -> min"},
    {"project_tv", (PyCFunction)(void (*)(void))w_project_tv, METH_FASTCALL,
     "project_tv(v, p, alpha, floor, s)"},
    {"project_h1", (PyCFunction)(void (*)(void))w_project_h1, METH_FASTCALL,
     "project_h1(v, p, alpha, s)"},
    {"h1_dual", (PyCFunction)(void (*)(void))w_h1_dual, METH_FASTCALL,
     "h1_dual(v, kx, d0, y, b0, mu, keep) -> t"},
    {"primal_step", (PyCFunction)(void (*)(void))w_primal_step, METH_FASTCALL,
     "primal_step(y, z, x, tau) -> sum of the squares of the new x"},
    {"grad_sumsq", (PyCFunction)(void (*)(void))w_grad_sumsq, METH_FASTCALL,
     "grad_sumsq(v) -> sum of the squares of grad v"},
    {"metric_sums", (PyCFunction)(void (*)(void))w_metric_sums, METH_FASTCALL,
     "metric_sums(x, z, xhat, p, tv) -> (xz2, tv, zp2, xxhat2)"},
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

/* The module, with THREADS the number of threads a split uses: the CPUs of
 * the process's affinity mask, at most MAX_THREADS. */
PyMODINIT_FUNC PyInit__kernels(void)
{
#ifdef __linux__
    cpu_set_t set;
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        pool.cpus = CPU_COUNT(&set) < MAX_THREADS ? CPU_COUNT(&set) : MAX_THREADS;
#endif
    if (pool.cpus > 1 && pthread_atfork(NULL, NULL, after_fork_in_child) != 0)
        pool.cpus = 1;
    PyObject *m = PyModule_Create(&module);
    if (m && PyModule_AddIntConstant(m, "THREADS", pool.cpus) < 0)
        Py_CLEAR(m);
    return m;
}
