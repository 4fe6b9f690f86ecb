/* Compiled per-stage kernels of the four solvers, split across the host's CPUs.
 *
 * Each kernel does, on every element, the operations of the numpy code it
 * replaces in the same order, so its results are bit-identical to that
 * code's.  The build flags keep it so: -ffp-contract=off stops a*b + c from
 * becoming a fused multiply-add, and no -ffast-math.  The one reduction,
 * the minimum of tail_norms, is exact in any order.
 *
 * The kernels are plain functions of restrict pointers and scalars, which
 * gcc vectorises; on x86-64 each is cloned for AVX-512, AVX2 and the
 * baseline ISA and picked at load time.  The wrappers below them unpack
 * C-contiguous float64 buffers, check shapes and overlap, and raise
 * ValueError for anything else: they never copy an array.
 *
 * Every element is computed independently of the others, so a call splits
 * into contiguous chunks without changing any result.  A call whose parts
 * would each cover at least MIN_PART pixels runs on a pool of worker
 * threads (see run); a smaller one runs on the calling thread alone.  The
 * pool has one thread per CPU in the process's affinity mask, at most
 * MAX_THREADS, counting the caller; taskset or any other affinity mask is
 * what restricts it, and the BLAS thread variables do not.  The workers
 * start on the first call that splits, sleep on a condition variable
 * between calls, and never spin.  A wrapper holds the interpreter lock for
 * its whole call, which is what lets Python threads share the one pool.
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

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define KERNEL __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define KERNEL
#endif

typedef Py_ssize_t idx;

/* ----- kernels ----------------------------------------------------------- */

/* Rows r0..r1-1 of the forward differences with Neumann boundary of the
 * (n1, n2) array v into the planes g0 (axis 0) and g1 (axis 1).  g1's pass
 * runs across row ends and the last column is then zeroed, as in
 * imaging._grad. */
KERNEL static void grad(const double *restrict v, double *restrict g0, double *restrict g1,
                        idx n1, idx n2, idx r0, idx r1)
{
    idx lo = r0 * n2, hi = r1 * n2, mid = (r1 < n1 ? r1 : n1 - 1) * n2;
    for (idx k = lo; k < mid; k++)
        g0[k] = v[k + n2] - v[k];
    for (idx k = mid > lo ? mid : lo; k < hi; k++)
        g0[k] = 0.0;
    for (idx k = lo; k < hi - 1; k++)
        g1[k] = v[k + 1] - v[k];
    for (idx i = r0; i < r1; i++)
        g1[i * n2 + n2 - 1] = 0.0;
}

/* Rows r0..r1-1 of c times the adjoint of grad: the axis-0 terms first,
 * then + g1[j-1] and - g1[j], then the product with c, as
 * imaging._grad_adjoint followed by a multiplication by c. */
KERNEL static void grad_adjoint(const double *restrict g0, const double *restrict g1,
                                double *restrict out, idx n1, idx n2, idx r0, idx r1, double c)
{
    for (idx i = r0; i < r1; i++) {
        double *restrict o = out + i * n2;
        const double *restrict cur = g0 + i * n2;
        const double *restrict h = g1 + i * n2;
        if (i == 0 && n1 > 1)
            for (idx j = 0; j < n2; j++)
                o[j] = 0.0 - cur[j];
        else if (i == 0)
            for (idx j = 0; j < n2; j++)
                o[j] = 0.0;
        else if (i < n1 - 1)
            for (idx j = 0; j < n2; j++)
                o[j] = cur[j - n2] - cur[j];
        else
            for (idx j = 0; j < n2; j++)
                o[j] = cur[j - n2];
        if (n2 > 1) {
            o[0] = (o[0] - h[0]) * c;
            for (idx j = 1; j < n2 - 1; j++)
                o[j] = ((o[j] + h[j - 1]) - h[j]) * c;
            o[n2 - 1] = (o[n2 - 1] + h[n2 - 2]) * c;
        } else {
            o[0] = o[0] * c;
        }
    }
}

/* Squared norms a0^2 + a1^2 of n two-entry tails into tn2, and the least
 * and greatest of their bit patterns into *lo and *hi.  Such a sum is +0 or
 * positive unless NaN, and non-negative doubles order like their bit
 * patterns, so the minimum is an unsigned integer reduction, exact in any
 * order; NaN patterns of either sign lie above +inf's. */
KERNEL static void tail_norms(const double *restrict a0, const double *restrict a1,
                              double *restrict tn2, idx n, uint64_t *lo, uint64_t *hi)
{
    uint64_t l = UINT64_MAX, h = 0;
    for (idx k = 0; k < n; k++) {
        double t = a0[k] * a0[k] + a1[k] * a1[k];
        uint64_t b;
        memcpy(&b, &t, sizeof b);
        tn2[k] = t;
        l = b < l ? b : l;
        h = b > h ? b : h;
    }
    *lo = l;
    *hi = h;
}

/* The closed-form dual solve of pedi._dual_update on two-entry tails: the
 * head d0 = (sqrt(tn2 b0^2 + mu^2) + mu) / b0 and the tail k (b0/2) / d0,
 * zero where d0 is not positive. */
KERNEL static void dual_solve(const double *restrict tn2, const double *restrict k0,
                              const double *restrict k1, double *restrict d0,
                              double *restrict y0, double *restrict y1, idx n, double b0,
                              double mu)
{
    double bb = b0 * b0, mm = mu * mu, hb = b0 / 2.0;
    for (idx k = 0; k < n; k++) {
        double d = (sqrt(tn2[k] * bb + mm) + mu) / b0;
        double q = hb / d;
        double s = d > 0.0 ? q : 0.0;
        d0[k] = d;
        y0[k] = k0[k] * s;
        y1[k] = k1[k] * s;
    }
}

/* v = x - v tau, pedi's argument of the prox. */
KERNEL static void x_minus_tau_v(const double *restrict x, double *restrict v, idx n, double tau)
{
    for (idx k = 0; k < n; k++)
        v[k] = x[k] - v[k] * tau;
}

/* out = (z tau + v) / (1 + tau), the prox of tau G(x) = tau ||x - z||^2 / 2. */
KERNEL static void prox(const double *restrict z, const double *restrict v, double *restrict out,
                        idx n, double tau)
{
    double s = 1.0 + tau;
    for (idx k = 0; k < n; k++)
        out[k] = (z[k] * tau + v[k]) / s;
}

/* g = g s + p, the baselines' dual ascent step before the projection. */
KERNEL static void scale_add(double *restrict g, const double *restrict p, idx n, double s)
{
    for (idx k = 0; k < n; k++)
        g[k] = g[k] * s + p[k];
}

/* Per-pixel projection of (p0, p1) onto the ball of radius alpha:
 * p alpha / max(||p||, floor), as DenoiseProblem.project_dual for TV. */
KERNEL static void project_tv(const double *restrict p0, const double *restrict p1,
                              double *restrict o0, double *restrict o1, idx n, double alpha,
                              double floor)
{
    for (idx k = 0; k < n; k++) {
        double s = sqrt(p0[k] * p0[k] + p1[k] * p1[k]);
        s = s < floor ? floor : s;
        s = alpha / s;
        o0[k] = p0[k] * s;
        o1[k] = p1[k] * s;
    }
}

/* pdhgm's primal step and extrapolation, with w = D* p on entry:
 * w = ((x - w tau) + z tau) / (1 + tau), then xb = (w - x) theta + w. */
KERNEL static void pdhgm_primal(const double *restrict x, double *restrict w,
                                double *restrict xb, const double *restrict z, idx n, double tau,
                                double theta)
{
    double s = 1.0 + tau;
    for (idx k = 0; k < n; k++) {
        double wn = ((x[k] - w[k] * tau) + z[k] * tau) / s;
        w[k] = wn;
        xb[k] = (wn - x[k]) * theta + wn;
    }
}

/* out = p s, or a copy of p when s is 1: the H1 dual projection and pedi's
 * one-block dual tails.  A product with 1 differs from a copy only on a
 * signalling NaN, which it quiets. */
KERNEL static void scale(const double *restrict p, double *restrict out, idx n, double s)
{
    if (s == 1.0) {
        memcpy(out, p, n * sizeof *out);
        return;
    }
    for (idx k = 0; k < n; k++)
        out[k] = p[k] * s;
}

/* The planes p0 and p1 interleaved into out, (n1, n2, 2) element order. */
KERNEL static void interleave(const double *restrict p0, const double *restrict p1,
                              double *restrict out, idx n)
{
    for (idx k = 0; k < n; k++) {
        out[2 * k] = p0[k];
        out[2 * k + 1] = p1[k];
    }
}

/* ----- the worker pool --------------------------------------------------- */

#define MAX_THREADS 8
#define CHUNKS_PER_THREAD 2
#define MAX_CHUNKS (MAX_THREADS * CHUNKS_PER_THREAD)
/* The fewest pixels a thread's part of a split call may cover.  Pixels,
 * not array entries, so that all of an iteration's kernels split or none
 * do (a gradient field holds two entries per pixel): an image split in
 * some stages only, or at 128 x 128, ran slower than on one thread, with
 * its data moving between the cores' caches. */
#define MIN_PART 32768
/* the most times a caller yields its CPU waiting for claimed chunks */
#define WAIT_YIELDS 200

/* One kernel call: its arrays, scalars and shape, and the task that runs
 * units lo..hi-1 of it as chunk c. */
typedef struct Job Job;
typedef void Task(Job *j, idx lo, idx hi, int c);
struct Job {
    double *a[4];
    double s[2];
    idx n1, n2;
    Task *task;
    idx units;
    int chunks;
    uint64_t lo[MAX_CHUNKS], hi[MAX_CHUNKS];
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

/* The tasks: units are rows for the gradient pair, elements or tails for
 * the rest. */
static void t_grad(Job *j, idx lo, idx hi, int c)
{
    grad(j->a[0], j->a[1], j->a[1] + j->n1 * j->n2, j->n1, j->n2, lo, hi);
}

static void t_grad_adjoint(Job *j, idx lo, idx hi, int c)
{
    grad_adjoint(j->a[0], j->a[0] + j->n1 * j->n2, j->a[1], j->n1, j->n2, lo, hi, j->s[0]);
}

static void t_tail_norms(Job *j, idx lo, idx hi, int c)
{
    tail_norms(j->a[0] + lo, j->a[0] + j->units + lo, j->a[1] + lo, hi - lo, &j->lo[c], &j->hi[c]);
}

static void t_dual_solve(Job *j, idx lo, idx hi, int c)
{
    idx n = j->units;
    dual_solve(j->a[0] + lo, j->a[1] + lo, j->a[1] + n + lo, j->a[2] + lo, j->a[3] + lo,
               j->a[3] + n + lo, hi - lo, j->s[0], j->s[1]);
}

static void t_x_minus_tau_v(Job *j, idx lo, idx hi, int c)
{
    x_minus_tau_v(j->a[0] + lo, j->a[1] + lo, hi - lo, j->s[0]);
}

static void t_prox(Job *j, idx lo, idx hi, int c)
{
    prox(j->a[0] + lo, j->a[1] + lo, j->a[2] + lo, hi - lo, j->s[0]);
}

static void t_scale_add(Job *j, idx lo, idx hi, int c)
{
    scale_add(j->a[0] + lo, j->a[1] + lo, hi - lo, j->s[0]);
}

static void t_project_tv(Job *j, idx lo, idx hi, int c)
{
    idx n = j->units;
    project_tv(j->a[0] + lo, j->a[0] + n + lo, j->a[1] + lo, j->a[1] + n + lo, hi - lo, j->s[0], j->s[1]);
}

static void t_pdhgm_primal(Job *j, idx lo, idx hi, int c)
{
    pdhgm_primal(j->a[0] + lo, j->a[1] + lo, j->a[2] + lo, j->a[3] + lo, hi - lo, j->s[0], j->s[1]);
}

static void t_scale(Job *j, idx lo, idx hi, int c)
{
    scale(j->a[0] + lo, j->a[1] + lo, hi - lo, j->s[0]);
}

static void t_interleave(Job *j, idx lo, idx hi, int c)
{
    interleave(j->a[0] + lo, j->a[0] + j->units + lo, j->a[1] + 2 * lo, hi - lo);
}

/* ----- wrappers ---------------------------------------------------------- */

/* The buffers of one call, released together by finish. */
typedef struct {
    Py_buffer b[4];
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

/* 1 if all buffers have one nonempty shape, else 0 with ValueError. */
static int same_shape(const Bufs *bs)
{
    const Py_buffer *a = &bs->b[0];
    for (int i = 1; i < bs->n; i++) {
        const Py_buffer *b = &bs->b[i];
        if (b->ndim != a->ndim || (a->ndim && memcmp(b->shape, a->shape, a->ndim * sizeof *a->shape)))
            return fail("array shapes differ");
    }
    return a->len > 0 || fail("empty arrays");
}

/* 1 if buffer i is a nonempty planar (2, ...) array, else 0 with ValueError. */
static int planar(const Bufs *bs, int i)
{
    const Py_buffer *b = &bs->b[i];
    return (b->ndim >= 2 && b->shape[0] == 2 && b->len > 0) || fail("expected a planar (2, ...) array");
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

/* grad(v, out): v an (n1, n2) array, out a (2, n1, n2) array. */
WRAPPER(grad)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rw", 0)) {
        const Py_buffer *v = &bs.b[0], *g = &bs.b[1];
        if (v->ndim != 2 || g->ndim != 3 || g->shape[0] != 2 || g->shape[1] != v->shape[0] ||
            g->shape[2] != v->shape[1] || v->len == 0)
            fail("grad needs an (n1, n2) array and a (2, n1, n2) out");
        else {
            j.n1 = v->shape[0];
            j.n2 = v->shape[1];
            run(&j, t_grad, j.n1, j.n1 * j.n2);
        }
    }
    return finish(&bs);
}

/* grad_adjoint(g, out, c): g a (2, n1, n2) array, out an (n1, n2) array. */
WRAPPER(grad_adjoint)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rw", 1)) {
        const Py_buffer *g = &bs.b[0], *o = &bs.b[1];
        if (o->ndim != 2 || g->ndim != 3 || g->shape[0] != 2 || g->shape[1] != o->shape[0] ||
            g->shape[2] != o->shape[1] || o->len == 0)
            fail("grad_adjoint needs a (2, n1, n2) array and an (n1, n2) out");
        else {
            j.n1 = o->shape[0];
            j.n2 = o->shape[1];
            run(&j, t_grad_adjoint, j.n1, j.n1 * j.n2);
        }
    }
    return finish(&bs);
}

/* tail_norms(kx, tn2) -> min: kx the planar (2, n) tails, tn2 an (n,) out.
 * The minimum is NaN if any norm is NaN, like np.min. */
WRAPPER(tail_norms)
{
    Bufs bs = {.n = 0};
    Job j;
    double m = 0.0;
    if (unpack(&bs, &j, args, nargs, "rw", 0) && planar(&bs, 0)) {
        idx n = size(&bs, 1);
        if (bs.b[0].ndim != 2 || bs.b[0].shape[1] != n)
            fail("tn2 must hold one entry per tail of a (2, n) array");
        else {
            run(&j, t_tail_norms, n, n);
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

/* dual_solve(tn2, kx, d0, y, b0, mu): kx and y planar (2, n), tn2 and d0 (n,). */
WRAPPER(dual_solve)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rrww", 2) && planar(&bs, 1)) {
        idx n = size(&bs, 0);
        if (bs.b[1].ndim != 2 || bs.b[1].shape[1] != n || size(&bs, 2) != n || size(&bs, 3) != 2 * n)
            fail("dual_solve needs (n,) tn2 and d0 and (2, n) kx and y");
        else
            run(&j, t_dual_solve, n, n);
    }
    return finish(&bs);
}

/* x_minus_tau_v(x, v, tau): v = x - v tau. */
WRAPPER(x_minus_tau_v)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rw", 1) && same_shape(&bs))
        run(&j, t_x_minus_tau_v, size(&bs, 0), size(&bs, 0));
    return finish(&bs);
}

/* prox(z, v, out, tau): out = (z tau + v) / (1 + tau). */
WRAPPER(prox)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rrw", 1) && same_shape(&bs))
        run(&j, t_prox, size(&bs, 0), size(&bs, 0));
    return finish(&bs);
}

/* scale_add(g, p, s): g = g s + p, on gradient fields of two entries per pixel. */
WRAPPER(scale_add)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "wr", 1) && same_shape(&bs))
        run(&j, t_scale_add, size(&bs, 0), size(&bs, 0) / 2);
    return finish(&bs);
}

/* project_tv(p, out, alpha, floor): p and out planar (2, ...) fields. */
WRAPPER(project_tv)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rw", 2) && same_shape(&bs) && planar(&bs, 0))
        run(&j, t_project_tv, size(&bs, 0) / 2, size(&bs, 0) / 2);
    return finish(&bs);
}

/* pdhgm_primal(x, w, xb, z, tau, theta). */
WRAPPER(pdhgm_primal)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rwwr", 2) && same_shape(&bs))
        run(&j, t_pdhgm_primal, size(&bs, 0), size(&bs, 0));
    return finish(&bs);
}

/* scale(p, out, s): out = p s, a copy of p when s is 1, on gradient fields
 * or tails of two entries per pixel. */
WRAPPER(scale)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rw", 1) && same_shape(&bs))
        run(&j, t_scale, size(&bs, 0), size(&bs, 0) / 2);
    return finish(&bs);
}

/* interleave(p, out): p a planar (2, ...) field, out an array of its size. */
WRAPPER(interleave)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack(&bs, &j, args, nargs, "rw", 0) && planar(&bs, 0)) {
        if (size(&bs, 1) != size(&bs, 0))
            fail("interleave needs an out of the field's size");
        else
            run(&j, t_interleave, size(&bs, 0) / 2, size(&bs, 0) / 2);
    }
    return finish(&bs);
}

static PyMethodDef methods[] = {
    {"grad", (PyCFunction)(void (*)(void))w_grad, METH_FASTCALL, "grad(v, out)"},
    {"grad_adjoint", (PyCFunction)(void (*)(void))w_grad_adjoint, METH_FASTCALL,
     "grad_adjoint(g, out, c)"},
    {"tail_norms", (PyCFunction)(void (*)(void))w_tail_norms, METH_FASTCALL,
     "tail_norms(kx, tn2) -> min"},
    {"dual_solve", (PyCFunction)(void (*)(void))w_dual_solve, METH_FASTCALL,
     "dual_solve(tn2, kx, d0, y, b0, mu)"},
    {"x_minus_tau_v", (PyCFunction)(void (*)(void))w_x_minus_tau_v, METH_FASTCALL,
     "x_minus_tau_v(x, v, tau)"},
    {"prox", (PyCFunction)(void (*)(void))w_prox, METH_FASTCALL, "prox(z, v, out, tau)"},
    {"scale_add", (PyCFunction)(void (*)(void))w_scale_add, METH_FASTCALL, "scale_add(g, p, s)"},
    {"project_tv", (PyCFunction)(void (*)(void))w_project_tv, METH_FASTCALL,
     "project_tv(p, out, alpha, floor)"},
    {"pdhgm_primal", (PyCFunction)(void (*)(void))w_pdhgm_primal, METH_FASTCALL,
     "pdhgm_primal(x, w, xb, z, tau, theta)"},
    {"scale", (PyCFunction)(void (*)(void))w_scale, METH_FASTCALL, "scale(p, out, s)"},
    {"interleave", (PyCFunction)(void (*)(void))w_interleave, METH_FASTCALL, "interleave(p, out)"},
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
