/* Compiled per-stage kernels of the four solvers, split across the host's CPUs.
 *
 * A kernel, and each form of one, exists only for a stage that a solver
 * iteration or a logged row runs; a one-off evaluation, such as D, D* or a
 * dual value's z - D* p alone, runs the numpy code unless it shares such a
 * form, as the duality gap shares a logged row's.  Each kernel does, on
 * every element, the
 * operations of the numpy code it replaces in the same order, so its
 * results are bit-identical to that code's.  The build flags keep it so:
 * -ffp-contract=off stops a*b + c from becoming a fused multiply-add, and
 * no -ffast-math.  Of the reductions, tv_dual's minimum is exact in any
 * order, and metric_sums, primal_step, grad_sumsq and h1_dual's norm add
 * their terms in numpy's own pairwise order.  Stages the numpy code makes
 * as passes of their own ride in a neighbouring kernel's pass: the
 * baselines' primal step, dual_fb's x = z - D* p or pdhgm's prox and
 * extrapolation, is written right behind their projection, tile by tile in
 * project_tv's sweep and block of rows by block of rows in project_h1's
 * write, so that a whole baseline iteration is one call.  pedi's whole
 * primal step is one call,
 * primal_step, whose leaves of numpy's tree each form x - tau K* y row
 * segment by row segment, take the prox, write x in place and square the
 * new x for the solver's finiteness check.  pedi's whole dual step is one
 * kernel call: on TV, tv_dual forms each pixel's tail of K x, its squared
 * norm, the dual solve and the soc rule's minimum in one visit; on H1,
 * whose one block needs the norm of all of K x first, h1_dual sums its
 * squares formed on the fly, solves for the block's scalars and then
 * writes y.  Both write y alone, planar like every other field, and store
 * no K x.  The baselines' dual step, the projection of the ascent
 * p + s D v, writes p in place and stores no ascent: on TV project_tv forms
 * and projects each pixel's ascent in one visit; on H1 project_h1 sums the
 * ascent's squares formed on the fly and then writes it, scaled, with
 * ascend.  A logged row's four sums
 * are one call too, metric_sums, which visits each pixel once: on TV one
 * loop per row segment forms all four terms, D* p among them, and D* p is
 * multiplied last by a factor c, 2 for pedi's p = 2 tail(y), so the pass
 * reads y's tails as they lie and nothing unlifts them.  Every kernel forms
 * D through GRAD0 and GRAD1 and D* through GRAD_ADJOINT, walking pixels
 * with STENCIL or row segments with ROW, and every sum walks numpy's tree
 * through one walker, WALKER, over a leaf.
 *
 * The divider, not memory, bounds these passes: over 65,536 pixels on one
 * thread of a 2-CPU AVX-512 Xeon, a sqrt and 2 divisions took 171-177 us, a
 * sqrt and 1 division 121-126 us and a sqrt alone 73-78 us.  So a kernel
 * makes only the divisions its algebra needs: a loop-invariant divisor
 * becomes its reciprocal, taken once per call, and a per-pixel quotient is
 * formed once.  tv_dual and project_tv divide once per pixel; primal_step
 * and pdhgm's primal step multiply by 1 / (1 + tau).  The numpy references
 * use the same expressions.
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
 * into contiguous chunks without changing any result.  The one element
 * that reads another chunk's output, x in the first row of a chunk of a
 * baseline's iteration, is made by the caller after the join.  A sum splits
 * by the subtrees of its pairwise tree, each summed once, whose sums the
 * caller adds in the tree's order (see pairwise), so it too is the same for
 * any thread count.  A call whose parts would each cover at least MIN_PART
 * pixels runs on a pool of worker threads (see run); a smaller one, and
 * every metric_sums call, runs on the calling thread alone.  The pool has
 * one thread per CPU in the process's affinity mask, at most MAX_THREADS,
 * counting the caller; taskset or any other affinity mask is what restricts
 * it, and the BLAS thread variables do not.  Each thread takes the chunks
 * of its own band of rows first, the same band in every call, and a sum's
 * subtree goes with the rows of its first term, so one core keeps the same
 * rows in its cache through an iteration's calls (see work).  An H1
 * iteration of pedi makes three split calls, its dual step's sum and write
 * and then its primal step, and one of a baseline two, its sum and then its
 * write with the primal step behind it, all bound by memory: at 256 x 256
 * an H1 dual_fb iteration took 102-117 us on 2 CPUs against 136-137 us on
 * one; as three calls it took 102-112 us against 149-159 us, and 194-209 us
 * against 146-173 us when the first thread to come took each chunk
 * (300-iteration loops, median of 7, three alternations).  The workers
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

#ifndef KERNEL
#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define KERNEL __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define KERNEL
#endif
#endif

typedef Py_ssize_t idx;

/* ----- kernels ----------------------------------------------------------- */

/* The entries (g0, g1) of grad v at pixel k of an (n1, n2) array v, the
 * forward differences with Neumann boundary, as imaging._grad makes them:
 * down and right say whether the pixel has a neighbour below and to its
 * right, and an entry without one is zero.  Every kernel that forms D forms
 * it here, with down and right constants in each copy of its loop body. */
#define GRAD0(v, n2, k, down) ((down) ? (v)[(k) + (n2)] - (v)[k] : 0.0)
#define GRAD1(v, k, right) ((right) ? (v)[(k) + 1] - (v)[k] : 0.0)

/* The entry at pixel k of the adjoint of grad on the planes g0 and g1 of a
 * field, with up and left saying as well whether the pixel has a neighbour
 * above and to its left: the axis-0 terms g0[k-n2] - g0[k] first, then
 * + g1[k-1] and - g1[k], as imaging._grad_adjoint adds them, each term
 * without its neighbour left out; the first row starts from 0 - g0[k], as
 * that code subtracts from zeros.  Every kernel that forms D* forms it
 * here. */
#define AXIS0_ADJOINT(g0, n2, k, up, down)                                      \
    ((up) ? (down) ? (g0)[(k) - (n2)] - (g0)[k] : (g0)[(k) - (n2)]              \
          : (down) ? 0.0 - (g0)[k] : 0.0)
#define GRAD_ADJOINT(g0, g1, n2, k, up, down, left, right)                      \
    ((left) ? (right) ? (AXIS0_ADJOINT(g0, n2, k, up, down) + (g1)[(k) - 1]) - (g1)[k] \
                      : AXIS0_ADJOINT(g0, n2, k, up, down) + (g1)[(k) - 1]      \
            : (right) ? AXIS0_ADJOINT(g0, n2, k, up, down) - (g1)[k]            \
                      : AXIS0_ADJOINT(g0, n2, k, up, down))

/* Runs the PIXEL body, the arguments after hi, on each pixel k = lo..hi-1
 * of the (n1, n2) array v in row-major order, with (g0, g1) the pixel's
 * entries of grad v.  A kernel whose planar outputs each need one entry
 * runs it once per plane, reading g0 or g1 alone: pairing the planes per
 * pixel made a plain gradient pass 2.1 times as slow at 256 x 256 on one
 * CPU, and h1_dual 1.6 times. */
#define STENCIL(v, n1, n2, lo, hi, ...)                                         \
    for (idx k = (lo), i_ = k / (n2); k < (hi); i_++) {                         \
        /* the row ends at r_; pixels before m_ have a right neighbour, and     \
         * the one from m_ to e_, if any, is the row's last */                  \
        idx r_ = (i_ + 1) * (n2), e_ = (hi) < r_ ? (hi) : r_;                   \
        idx m_ = e_ < r_ - 1 ? e_ : r_ - 1;                                     \
        if (i_ < (n1) - 1) {                                                    \
            for (; k < m_; k++)                                                 \
                PIXEL(v, n2, 1, 1, __VA_ARGS__)                                 \
            if (k < e_)                                                         \
                PIXEL(v, n2, 1, 0, __VA_ARGS__)                                 \
        } else {                                                                \
            for (; k < m_; k++)                                                 \
                PIXEL(v, n2, 0, 1, __VA_ARGS__)                                 \
            if (k < e_)                                                         \
                PIXEL(v, n2, 0, 0, __VA_ARGS__)                                 \
        }                                                                       \
        k = e_;                                                                 \
    }
#define PIXEL(v, n2, down, right, ...)                                          \
    {                                                                           \
        const double g0 = GRAD0(v, n2, k, down), g1 = GRAD1(v, k, right);       \
        (void)g0, (void)g1;                                                     \
        __VA_ARGS__;                                                            \
    }

/* Runs the AT body, the arguments after j1, on the pixels k of columns
 * j0..j1-1 of row i of an (n1, n2) grid, with up, down, left and right
 * saying whether k has a neighbour above, below, to its left and to its
 * right, for GRAD0, GRAD1 and GRAD_ADJOINT.  They are constants in each
 * copy of the body, so their branches fold away and the loop over the
 * inner columns vectorises. */
#define ROW(n1, n2, i, j0, j1, ...)                                             \
    {                                                                           \
        const idx b_ = (i) * (n2);                                              \
        if ((i) == 0 && (n1) > 1)                                               \
            COLUMNS(n2, j0, j1, 0, 1, __VA_ARGS__)                              \
        else if ((i) == 0)                                                      \
            COLUMNS(n2, j0, j1, 0, 0, __VA_ARGS__)                              \
        else if ((i) < (n1) - 1)                                                \
            COLUMNS(n2, j0, j1, 1, 1, __VA_ARGS__)                              \
        else                                                                    \
            COLUMNS(n2, j0, j1, 1, 0, __VA_ARGS__)                              \
    }
#define COLUMNS(n2, j0, j1, up, down, ...)                                      \
    if ((n2) == 1)                                                              \
        AT(b_, up, down, 0, 0, __VA_ARGS__)                                     \
    else {                                                                      \
        idx q_ = (j0), e_ = (j1) < (n2) - 1 ? (j1) : (n2) - 1;                  \
        if (q_ == 0) {                                                          \
            AT(b_, up, down, 0, 1, __VA_ARGS__)                                 \
            q_ = 1;                                                             \
        }                                                                       \
        for (; q_ < e_; q_++)                                                   \
            AT(b_ + q_, up, down, 1, 1, __VA_ARGS__)                            \
        if ((j1) == (n2))                                                       \
            AT(b_ + (n2) - 1, up, down, 1, 0, __VA_ARGS__)                      \
    }
#define AT(K, UP, DOWN, LEFT, RIGHT, ...)                                       \
    {                                                                           \
        const idx k = (K);                                                      \
        const int up = (UP), down = (DOWN), left = (LEFT), right = (RIGHT);     \
        (void)up, (void)down, (void)left, (void)right;                          \
        __VA_ARGS__;                                                            \
    }

/* Columns j0..j1-1 of row i of c times the adjoint of grad on the planes
 * g0 and g1, into o, the product with c last, as imaging._grad_adjoint
 * makes it with scale c.  Always inlined, so that each ISA clone of a
 * kernel vectorises it for its own ISA. */
__attribute__((always_inline))
static inline void grad_adjoint_row(const double *restrict g0, const double *restrict g1,
                                    double *restrict o, idx n1, idx n2, idx i, idx j0, idx j1,
                                    double c)
{
    const idx b = i * n2 + j0;
    ROW(n1, n2, i, j0, j1, o[k - b] = GRAD_ADJOINT(g0, g1, n2, k, up, down, left, right) * c);
}

/* Columns j0..j1-1 of row i of the baselines' primal step from the planes
 * (p0, p1) of the new p, as imaging._grad_adjoint makes it with a minuend:
 * dual_fb's v = z - D* p; or, with x, pdhgm's prox
 * xn = ((x - (D* p) t) + z t) r of the point x - (D* p) t, r = 1 / (1 + t),
 * and its extrapolation v = (xn - x) theta + xn.  Always inlined, like
 * grad_adjoint_row. */
__attribute__((always_inline))
static inline void primal_row(const double *restrict p0, const double *restrict p1, const double *restrict z,
                              const double *restrict x, double *restrict xn, double *restrict v, idx n1,
                              idx n2, idx i, idx j0, idx j1, double t, double r, double theta)
{
    const idx b = i * n2 + j0, m = j1 - j0;
    if (!x) {
        grad_adjoint_row(p0, p1, v + b, n1, n2, i, j0, j1, 1.0);
        for (idx q = b; q < b + m; q++)
            v[q] = z[q] - v[q];
        return;
    }
    double *restrict o = xn + b;
    grad_adjoint_row(p0, p1, o, n1, n2, i, j0, j1, 1.0);
    /* the extrapolation in a loop of its own: in the prox's loop, the pass
     * at 256 x 256 took 1.08-1.12 times as long as that loop with a
     * division by 1 + t (one CPU, AVX-512); split, 0.95 times on one CPU
     * and 0.83 on two */
    for (idx q = 0; q < m; q++)
        o[q] = ((x[b + q] - o[q] * t) + z[b + q] * t) * r;
    for (idx q = 0; q < m; q++)
        v[b + q] = (o[q] - x[b + q]) * theta + o[q];
}

/* The rows of one block of project_h1's write, which primal_row follows
 * over the same rows.  Blocks of 4, 8 and 16 rows were within the noise of
 * one another in the H1 baselines' loops, and 8 read best on one CPU at
 * 256 x 256 (pdhgm 200 against 210-213 us, dual_fb 136 against 143-145).
 * A whole band, the primal pass after all of the write, took 1.14-1.21
 * times as long on one CPU at 256 x 256, 1.20-1.49 times at 512 x 512, and
 * 1.15 times for pdhgm at 512 x 512 on two (300-iteration loops, best of 3
 * rounds of a median of 7, 2 CPUs, AVX-512). */
#define BLOCK 8

/* Rows r0..r1-1 of the write of the baselines' dual step on H1 and of
 * their primal step behind it, in blocks of BLOCK rows: the ascent
 * a = (grad v) s + p, as imaging._grad makes it with an addend, times f,
 * written over the planes (p0, p1) of p, f being 1 inside the ball, where
 * the numpy code copies a; then the block's rows of primal_row from the new
 * p over v.  A row of p reads v in its own row and the next, and a row of
 * v reads p in its own row and the one before, so no v is read after it is
 * overwritten and D* reads only the new p.  Except in the first chunk,
 * r0 > 0, row r0's v is left to the caller: its D* reads row r0-1's p, and
 * the chunk before reads row r0's old v. */
KERNEL static void ascend(double *restrict v, double *restrict p0, double *restrict p1, const double *restrict z,
                          const double *restrict x, double *restrict xn, idx n1, idx n2, idx r0, idx r1,
                          double s, double f, double t, double theta)
{
    double r = 1.0 / (1.0 + t);
    for (idx b = r0; b < r1; b += BLOCK) {
        idx e = r1 - b < BLOCK ? r1 : b + BLOCK;
        STENCIL(v, n1, n2, b * n2, e * n2, p0[k] = (g0 * s + p0[k]) * f);
        STENCIL(v, n1, n2, b * n2, e * n2, p1[k] = (g1 * s + p1[k]) * f);
        for (idx i = b > 0 && b == r0 ? b + 1 : b; i < e; i++)
            primal_row(p0, p1, z, x, xn, v, n1, n2, i, 0, n2, t, r, theta);
    }
}

/* Rows r0..r1-1 of pedi's dual step on TV, each pixel in one visit: its
 * block's tail (g0, g1) of K x = grad v; the squared norm
 * t = g0^2 + g1^2; the closed-form dual solve of pedi._dual_update, with
 * e = sqrt(t b0^2 + mu^2) + mu and the tail (g0, g1) s of y,
 * s = (b0^2/2) / e and zero where e is not positive, written into the
 * planes (y0, y1).  The least and greatest bit patterns of the norms t go
 * into *lo and *hi: such a sum is +0 or positive unless NaN, and
 * non-negative doubles order like their bit patterns, so the minimum is an
 * unsigned integer reduction, exact in any order; NaN patterns of either
 * sign lie above +inf's. */
KERNEL static void tv_dual(const double *restrict v, double *restrict y0, double *restrict y1, idx n1,
                           idx n2, idx r0, idx r1, double b0, double mu, uint64_t *lo, uint64_t *hi)
{
    double bb = b0 * b0, mm = mu * mu, hbb = bb / 2.0;
    uint64_t l = UINT64_MAX, h = 0;
    STENCIL(v, n1, n2, r0 * n2, r1 * n2, {
        double t = g0 * g0 + g1 * g1;
        double e = sqrt(t * bb + mm) + mu, q = hbb / e;
        double s = e > 0.0 ? q : 0.0;
        uint64_t b;
        memcpy(&b, &t, sizeof b);
        l = b < l ? b : l;
        h = b > h ? b : h;
        y0[k] = g0 * s;
        y1[k] = g1 * s;
    });
    *lo = l;
    *hi = h;
}

/* Rows r0..r1-1 of the write of pedi's dual step on H1, whose one block
 * has the factor s = (b0^2/2) / e: y = (grad v) s into the planes (y0, y1),
 * as pedi._dual_update's product forms it, each plane in a pass of its
 * own. */
KERNEL static void h1_write(const double *restrict v, double *restrict y0, double *restrict y1, idx n1,
                            idx n2, idx r0, idx r1, double s)
{
    idx lo = r0 * n2, hi = r1 * n2;
    STENCIL(v, n1, n2, lo, hi, y0[k] = g0 * s);
    STENCIL(v, n1, n2, lo, hi, y1[k] = g1 * s);
}

/* The pixels of one tile of project_tv's sweep with z.  At 256 x 256 on
 * one CPU the sweep took 121-139 us in tiles of 64 pixels and about as
 * long in tiles of 32, 146-150 us in tiles of 128 and 149-177 us in whole
 * rows, against 159-177 us for its two calls before. */
#define TILE 64

/* Rows r0..r1-1 of the baselines' whole iteration on TV.  Their dual step
 * p = P(p + s D v) makes one visit per pixel: the ascent a = (grad v) s + p,
 * formed as imaging._grad forms it with an addend, and its projection onto
 * the ball of radius alpha, a alpha / max(||a||, floor) as
 * DenoiseProblem.project_dual makes it, written back over (p0, p1).  The
 * rows are swept in tiles of TILE pixels, and after each tile's projection
 * primal_row writes the primal step from the new p over the same tile:
 * dual_fb's v = z - D* p, or with x pdhgm's prox into xn and its
 * extrapolation into v.  p at pixel k reads v at k, k+1 and k+n2, and v at
 * k reads p at k-n2, k-1 and k, so no v is read after it is overwritten and
 * D* reads only the new p.  Except in the first chunk, r0 > 0, row r0's v is
 * left to the caller: its D* reads row r0-1's p, and the chunk before reads
 * row r0's old v.  Always inlined into project_tv. */
__attribute__((always_inline))
static inline void sweep_tv(double *restrict v, double *restrict p0, double *restrict p1,
                            const double *restrict z, const double *restrict x, double *restrict xn, idx n1,
                            idx n2, idx r0, idx r1, double alpha, double floor, double s, double t,
                            double theta)
{
    double rt = 1.0 / (1.0 + t);
    idx hi = r1 * n2, from = (r0 > 0 ? r0 + 1 : r0) * n2;
    for (idx lo = r0 * n2; lo < hi; lo += TILE) {
        idx e = hi - lo < TILE ? hi : lo + TILE;
        STENCIL(v, n1, n2, lo, e, {
            double a0 = g0 * s + p0[k], a1 = g1 * s + p1[k], r = sqrt(a0 * a0 + a1 * a1);
            r = r < floor ? floor : r;
            r = alpha / r;
            p0[k] = a0 * r;
            p1[k] = a1 * r;
        });
        for (idx k = lo > from ? lo : from; k < e;) {
            idx i = k / n2, j0 = k % n2, j1 = j0 + (e - k) < n2 ? j0 + (e - k) : n2;
            primal_row(p0, p1, z, x, xn, v, n1, n2, i, j0, j1, t, rt, theta);
            k += j1 - j0;
        }
    }
}

/* sweep_tv in a copy per primal step, so that dual_fb's runs its own loops
 * alone: as one copy for both, dual_fb's sweep took 1.03-1.10 times its
 * time before pdhgm's step joined it (one CPU, 64 x 64 to 512 x 512). */
KERNEL static void project_tv(double *restrict v, double *restrict p0, double *restrict p1,
                              const double *restrict z, const double *restrict x, double *restrict xn, idx n1,
                              idx n2, idx r0, idx r1, double alpha, double floor, double s, double t,
                              double theta)
{
    if (x)
        sweep_tv(v, p0, p1, z, x, xn, n1, n2, r0, r1, alpha, floor, s, t, theta);
    else
        sweep_tv(v, p0, p1, z, NULL, NULL, n1, n2, r0, r1, alpha, floor, s, 0.0, 0.0);
}

/* ----- the worker pool --------------------------------------------------- */

#define MAX_THREADS 8
#define CHUNKS_PER_THREAD 2
#define MAX_CHUNKS (MAX_THREADS * CHUNKS_PER_THREAD)
/* the fields of pool.claim that hold them */
_Static_assert(MAX_CHUNKS <= 16, "the unclaimed-chunk mask has 16 bits");
_Static_assert(MAX_THREADS < 256 && MAX_CHUNKS < 256, "the thread and chunk counts have 8 bits each");
/* A split sum adds the subtrees NODE_DEPTH levels down numpy's pairwise
 * tree, at most MAX_NODES of them (see pairwise) */
#define NODE_DEPTH 4
#define MAX_NODES (1 << NODE_DEPTH)
/* The fewest pixels a thread's part of a split call may cover.  Pixels,
 * not array entries, so that all of an iteration's kernels split or none
 * do (a gradient field holds two entries per pixel): an image split in
 * some stages only ran slower than on one thread.  So does an image split
 * at 128 x 128, where the arrays fit one core's L2, even with each thread
 * keeping its own rows: an H1 iteration took 1.0-1.8 times its time on one
 * thread (1.4-2.1 when the first thread to come took each chunk), a TV
 * pedi or pdhgm iteration 1.0-1.5 times (0.7-1.2), and only TV dual_fb
 * gained, at 0.7-1.1 times (300-iteration loops of pedi-general, pdhgm and
 * dual_fb, median of 9, six alternations, 2 CPUs, a build with MIN_PART
 * 8192). */
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
    double s[5];
    idx n1, n2;
    Task *task;
    idx units;
    int chunks;
    uint64_t lo[MAX_CHUNKS], hi[MAX_CHUNKS];
    /* a split sum's walker puts the sum of terms node[u]..node[u+1]-1, its
     * node u of nodes, into sum[u] */
    Walk *walk;
    int nodes;
    idx node[MAX_NODES + 1];
    double sum[MAX_NODES];
};

/* The job being run is published by a store to claim, which packs the
 * job's generation, seq (bits 32-63), its thread count (24-31), its chunk
 * count (16-23) and a mask of its unclaimed chunks (0-15).  A thread takes a
 * chunk by a compare-and-swap that clears the chunk's bit, so a thread still
 * holding a word of an earlier job claims nothing, and a job's fields stay
 * put while any of its chunks is claimed and not done. */
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

/* Claims and runs chunks of the published job until none is left, thread
 * t (0 for the caller, i for worker i) taking the chunks of its own band,
 * chunks * t / threads up to chunks * (t + 1) / threads, before any left
 * over: so a thread runs the same rows in every call, and a late thread
 * delays no other.  A worker that finishes the job's last chunk wakes the
 * caller. */
static void work(int t)
{
    for (;;) {
        uint64_t w = atomic_load_explicit(&pool.claim, memory_order_acquire);
        int chunks, c;
        do {
            int threads = (int)(w >> 24 & 0xff);
            uint32_t left = (uint32_t)(w & 0xffff), own = 0;
            chunks = (int)(w >> 16 & 0xff);
            if (!left)
                return;
            if (t < threads)
                own = left & ((1u << chunks * (t + 1) / threads) - (1u << chunks * t / threads));
            c = __builtin_ctz(own ? own : left);
        } while (!atomic_compare_exchange_weak_explicit(&pool.claim, &w, w & ~((uint64_t)1 << c),
                                                        memory_order_acq_rel, memory_order_acquire));
        Job *j = pool.job;
        j->task(j, j->units * c / chunks, j->units * (c + 1) / chunks, c);
        if (atomic_fetch_add_explicit(&pool.done, 1, memory_order_acq_rel) + 1 == chunks && t) {
            pthread_mutex_lock(&pool.lock);
            pthread_cond_signal(&pool.finished);
            pthread_mutex_unlock(&pool.lock);
        }
    }
}

/* Worker t sleeps until a call is published after the one it last saw.
 * It counts the latest call when it first takes the lock as unseen, so it
 * takes part in the call that started it, or in a later one; a call whose
 * chunks are all claimed gives it nothing to do. */
static void *worker(void *arg)
{
    int t = (int)(uintptr_t)arg;
    pthread_mutex_lock(&pool.lock);
    for (uint32_t seen = pool.seq - 1;;) {
        while (pool.seq == seen)
            pthread_cond_wait(&pool.wake, &pool.lock);
        seen = pool.seq;
        pthread_mutex_unlock(&pool.lock);
        work(t);
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
        if (pthread_create(&t, NULL, worker, (void *)(uintptr_t)i) != 0)
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
 * chunks per thread, and each thread claims its own band of them first
 * (see work), so that a thread's rows stay in its core's cache from one
 * call to the next; the caller then waits only for chunks already
 * claimed.  Otherwise the caller runs the task alone, as one chunk. */
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
    atomic_store_explicit(&pool.claim,
                          (uint64_t)pool.seq << 32 | (uint64_t)threads << 24 | (uint64_t)j->chunks << 16 |
                              ((1u << j->chunks) - 1),
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
 * job's (x, z, xh, p), with tv its s[0] and c its s[1]: (x - z)^2, with tv
 * the TV norm sqrt(g0*g0 + g1*g1) of grad x (else 0), (z - w)^2 with
 * w = (D* p) c, and (x - xh)^2, with numpy's operations in numpy's order.
 * With tv all four terms of a row segment are formed in one loop, D*
 * included, in 0.80-0.95 times the time of separate passes for the TV
 * norms, D* and the rest (32 x 32 to 256 x 256, one CPU, AVX-512).
 * Without tv, which leaves the loop no square root, that fused loop took
 * 1.0-1.3 times as long as storing w first, so there w is stored row
 * segment by row segment and the other terms follow in one loop over the
 * leaf.  tv picks the loop: a flag inside it kept gcc from vectorising
 * it. */
#define METRIC_TERMS(w)                                                         \
    {                                                                           \
        double r = x[k] - z[k], e = x[k] - xh[k], q = z[k] - (w);               \
        t[0][k - lo] = r * r;                                                   \
        t[2][k - lo] = q * q;                                                   \
        t[3][k - lo] = e * e;                                                   \
    }
KERNEL static void metric_leaf(const Job *j, idx lo, idx n, double *s)
{
    idx n1 = j->n1, n2 = j->n2;
    const double *restrict x = j->a[0], *restrict z = j->a[1], *restrict xh = j->a[2];
    const double *restrict p0 = j->a[3], *restrict p1 = p0 + n1 * n2;
    int tv = j->s[0] != 0.0;
    double c = j->s[1], t[4][LEAF], w[LEAF];
    for (idx m = lo; m < lo + n;) {
        idx i = m / n2, j0 = m % n2, j1 = j0 + (lo + n - m) < n2 ? j0 + (lo + n - m) : n2;
        if (tv)
            ROW(n1, n2, i, j0, j1, {
                double g0 = GRAD0(x, n2, k, down), g1 = GRAD1(x, k, right);
                t[1][k - lo] = sqrt(g0 * g0 + g1 * g1);
                METRIC_TERMS(GRAD_ADJOINT(p0, p1, n2, k, up, down, left, right) * c);
            })
        else
            ROW(n1, n2, i, j0, j1, w[k - lo] = GRAD_ADJOINT(p0, p1, n2, k, up, down, left, right) * c);
        m += j1 - j0;
    }
    if (!tv)
        for (idx k = lo; k < lo + n; k++)
            METRIC_TERMS(w[k - lo]);
    for (int q = 0; q < 4; q++)
        s[q] = q == 1 && !tv ? 0.0 : leaf_sum(t[q], n, 0);
}
#undef METRIC_TERMS

/* Pixels lo..lo+n-1 of pedi's primal step on the job's (y, z, x) with
 * tau its s[0] and r = 1 / (1 + tau) its s[1]: the point
 * m = x - (2 D* y) tau, as imaging._grad_adjoint makes it with a minuend,
 * then the prox (z tau + m) r of G(x) = ||x - z||^2 / 2, as
 * DenoiseProblem's prox_G makes it, written over x, and the squares of the
 * new x, as np.square(x).sum() adds them.  D* runs row segment by row
 * segment. */
KERNEL static void primal_leaf(const Job *j, idx lo, idx n, double *s)
{
    const double *restrict y = j->a[0], *restrict z = j->a[1] + lo;
    double *restrict x = j->a[2] + lo;
    idx n1 = j->n1, n2 = j->n2;
    double t = j->s[0], r = j->s[1], w[LEAF];
    for (idx k = 0; k < n;) {
        idx i = (lo + k) / n2, j0 = (lo + k) % n2, j1 = j0 + (n - k) < n2 ? j0 + (n - k) : n2;
        grad_adjoint_row(y, y + n1 * n2, w + k, n1, n2, i, j0, j1, 2.0);
        k += j1 - j0;
    }
    for (idx k = 0; k < n; k++)
        x[k] = (z[k] * t + (x[k] - w[k] * t)) * r;
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

/* Units are pixels: a chunk sums each node whose first term, counted
 * within its plane, lies in its pixels, so that a planar sum's nodes of
 * plane 1 run on the thread that runs the same pixels' nodes of plane 0. */
static void t_sum(Job *j, idx lo, idx hi, int c)
{
    for (int u = 0; u < j->nodes; u++) {
        idx first = j->node[u] % j->units;
        if (lo <= first && first < hi)
            j->walk(j, j->node[u], j->node[u + 1] - j->node[u], &j->sum[u]);
    }
}

/* The sum of n terms in numpy's pairwise order, which cover the given
 * number of pixels, once or as two planes: walk sums the terms of the
 * tree's nodes NODE_DEPTH levels down, each once, on the thread whose
 * pixels hold the node's first term, and the caller adds the node sums in
 * the tree's order.  Each node's sum is the same on any thread, so the
 * result is bit for bit the whole tree's for any thread count. */
static double pairwise(Job *j, Walk *walk, idx n, idx pixels)
{
    int u = 0;
    j->nodes = split(j->node, 0, n, NODE_DEPTH);
    j->node[j->nodes] = n;
    j->walk = walk;
    run(j, t_sum, pixels, pixels);
    return join(j->sum, n, NODE_DEPTH, &u);
}

/* ----- tasks ------------------------------------------------------------- */

/* Units are rows.  The arrays are (v, p, z, x, xn), as unpack_iteration
 * lays them out; t_ascend's scalars are (alpha, s, t, theta, f). */
static void t_ascend(Job *j, idx lo, idx hi, int c)
{
    ascend(j->a[0], j->a[1], j->a[1] + j->n1 * j->n2, j->a[2], j->a[3], j->a[4], j->n1, j->n2, lo, hi, j->s[1],
           j->s[4], j->s[2], j->s[3]);
}

static void t_tv_dual(Job *j, idx lo, idx hi, int c)
{
    tv_dual(j->a[0], j->a[1], j->a[1] + j->n1 * j->n2, j->n1, j->n2, lo, hi, j->s[0], j->s[1], &j->lo[c],
            &j->hi[c]);
}

static void t_h1_write(Job *j, idx lo, idx hi, int c)
{
    h1_write(j->a[0], j->a[1], j->a[1] + j->n1 * j->n2, j->n1, j->n2, lo, hi, j->s[0]);
}

static void t_project_tv(Job *j, idx lo, idx hi, int c)
{
    project_tv(j->a[0], j->a[1], j->a[1] + j->n1 * j->n2, j->a[2], j->a[3], j->a[4], j->n1, j->n2, lo, hi,
               j->s[0], j->s[1], j->s[2], j->s[3], j->s[4]);
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

/* Unpacks the arrays of a baselines' iteration, (v, p, z) or with pdhgm's
 * prox (v, p, z, x, xn), and then ns scalars, or ns + 2 with the prox, the
 * last two (t, theta); dual_fb's form gets x = xn = NULL and t = theta = 0.
 * v, z, x and xn are images on the field p.  1 on success, else 0 with
 * ValueError or TypeError. */
static int unpack_iteration(Bufs *bs, Job *j, PyObject *const *args, Py_ssize_t nargs, int ns)
{
    int prox = nargs == 5 + ns + 2;
    j->a[3] = j->a[4] = NULL;
    j->s[ns] = j->s[ns + 1] = 0.0;
    if (!unpack(bs, j, args, nargs, prox ? "wwrrw" : "wwr", prox ? ns + 2 : ns))
        return 0;
    for (int i = 0; i < bs->n; i++)
        if (i != 1 && !image_and_field(bs, i, 1, j))
            return 0;
    return 1;
}

/* The first row of each chunk after the first, which the sweep left to the
 * caller, from the p of all chunks. */
KERNEL static void first_rows(const Job *j, double t, double theta)
{
    idx n = j->n1 * j->n2;
    for (int c = 1; c < j->chunks; c++)
        primal_row(j->a[1], j->a[1] + n, j->a[2], j->a[3], j->a[4], j->a[0], j->n1, j->n2,
                   j->n1 * c / j->chunks, 0, j->n2, t, 1.0 / (1.0 + t), theta);
}

/* tv_dual(v, y, b0, mu) -> the least squared norm of K x's tails, NaN if
 * any is NaN, like np.min: pedi's whole dual step on TV, v an (n1, n2)
 * image or its flattening and y a (2, n1, n2) field, the planar tails of
 * y, which it writes. */
WRAPPER(tv_dual)
{
    Bufs bs = {.n = 0};
    Job j;
    double m = 0.0;
    if (unpack(&bs, &j, args, nargs, "rw", 2) && image_and_field(&bs, 0, 1, &j)) {
        run(&j, t_tv_dual, j.n1, j.n1 * j.n2);
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
    release(&bs);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(m);
}

/* project_tv(v, p, z, alpha, floor, s), dual_fb's whole iteration on TV:
 * v an (n1, n2) image or its flattening, p a (2, n1, n2) field and z an
 * image.  It projects p + s D v into p itself and writes v = z - D* p of
 * the new p over v, in one sweep.  project_tv(v, p, z, x, xn, alpha, floor,
 * s, t, theta), with images x and xn, is pdhgm's: the sweep writes instead
 * the prox xn = ((x - (D* p) t) + z t) (1 / (1 + t)) and its extrapolation
 * v = (xn - x) theta + xn over v, the ascent's source. */
WRAPPER(project_tv)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack_iteration(&bs, &j, args, nargs, 3)) {
        run(&j, t_project_tv, j.n1, j.n1 * j.n2);
        first_rows(&j, j.s[3], j.s[4]);
    }
    return finish(&bs);
}

/* project_h1(v, p, z, alpha, s) and project_h1(v, p, z, x, xn, alpha, s,
 * t, theta), the same iterations on H1, which project a = p + s D v onto
 * the ball of radius alpha.  It sums the squares of a formed on the fly, as
 * np.square(a).sum() adds them, and then writes a times alpha / ||a||, or a
 * itself when ||a|| <= alpha, as DenoiseProblem.project_dual does, with
 * the primal step of project_tv's form right behind it. */
WRAPPER(project_h1)
{
    Bufs bs = {.n = 0};
    Job j;
    if (unpack_iteration(&bs, &j, args, nargs, 2)) {
        idx n = j.n1 * j.n2;
        /* add.reduce starts from its identity, 0 */
        double r = sqrt(0.0 + pairwise(&j, walk_ascent_sumsq, 2 * n, n)), alpha = j.s[0];
        /* the factor t_ascend reads */
        j.s[4] = r <= alpha ? 1.0 : alpha / r;
        run(&j, t_ascend, j.n1, n);
        first_rows(&j, j.s[2], j.s[3]);
    }
    return finish(&bs);
}

/* h1_dual(v, y, b0, mu) -> t, the squared norm of K x's one tail, pedi's
 * whole dual step on H1: v an (n1, n2) image or its flattening and y a
 * (2, n1, n2) field, the planar tail of y, which it writes.  It sums t
 * over grad v on the fly, as np.square(_grad(v)).sum() adds it, storing
 * no field; solves e = sqrt(t b0^2 + mu^2) + mu and the factor
 * s = (b0^2/2) / e, 0 where e is not positive, as pedi._dual_update does;
 * and then writes y = (grad v) s. */
WRAPPER(h1_dual)
{
    Bufs bs = {.n = 0};
    Job j;
    double t = 0.0;
    if (unpack(&bs, &j, args, nargs, "rw", 2) && image_and_field(&bs, 0, 1, &j)) {
        idx n = j.n1 * j.n2;
        /* add.reduce starts from its identity, 0 */
        t = 0.0 + pairwise(&j, walk_grad_sumsq, 2 * n, n);
        double b0 = j.s[0], mu = j.s[1], bb = b0 * b0;
        double e = sqrt(t * bb + mu * mu) + mu, q = (bb / 2.0) / e;
        /* the factor t_h1_write reads */
        j.s[0] = e > 0.0 ? q : 0.0;
        run(&j, t_h1_write, j.n1, n);
    }
    release(&bs);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(t);
}

/* primal_step(y, z, x, tau) -> the sum of the squares of the new x, in
 * numpy's summation order: pedi's whole primal step, y a (2, n1, n2)
 * field, z and x (n1, n2) images or their flattenings.  It writes
 * x = (z tau + (x - (2 D* y) tau)) r in place, r = 1 / (1 + tau) taken once,
 * the prox step of DenoiseProblem's G at x - tau K* y, and sums the squares
 * of the new x as np.square(x).sum() adds them, storing no other array. */
WRAPPER(primal_step)
{
    Bufs bs = {.n = 0};
    Job j;
    double s = 0.0;
    if (unpack(&bs, &j, args, nargs, "rrw", 1) && image_and_field(&bs, 1, 0, &j) &&
        image_and_field(&bs, 2, 0, &j)) {
        /* the prox's factor primal_leaf reads */
        j.s[1] = 1.0 / (1.0 + j.s[0]);
        s = pairwise(&j, walk_primal, j.n1 * j.n2, j.n1 * j.n2);
    }
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

/* metric_sums(x, z, xhat, p, tv, c) -> (sum (x - z)^2, the TV of x if tv
 * else 0, sum (z - (D* p) c)^2, sum (x - xhat)^2), each in numpy's summation
 * order: x, z and xhat of one shape and n1 n2 entries, p a planar
 * (2, n1, n2) field, c the factor by which D* p is multiplied last, 2 for
 * pedi's p = 2 tail(y) read from y's tails as they lie.  It runs on the
 * calling thread, as one chunk. */
WRAPPER(metric_sums)
{
    Bufs bs = {.n = 0};
    Job j;
    double s[4];
    if (unpack(&bs, &j, args, nargs, "rrrr", 2)) {
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
    {"tv_dual", (PyCFunction)(void (*)(void))w_tv_dual, METH_FASTCALL,
     "tv_dual(v, y, b0, mu) -> min"},
    {"project_tv", (PyCFunction)(void (*)(void))w_project_tv, METH_FASTCALL,
     "project_tv(v, p, z, alpha, floor, s) or project_tv(v, p, z, x, xn, alpha, floor, s, t, theta)"},
    {"project_h1", (PyCFunction)(void (*)(void))w_project_h1, METH_FASTCALL,
     "project_h1(v, p, z, alpha, s) or project_h1(v, p, z, x, xn, alpha, s, t, theta)"},
    {"h1_dual", (PyCFunction)(void (*)(void))w_h1_dual, METH_FASTCALL,
     "h1_dual(v, y, b0, mu) -> t"},
    {"primal_step", (PyCFunction)(void (*)(void))w_primal_step, METH_FASTCALL,
     "primal_step(y, z, x, tau) -> sum of the squares of the new x"},
    {"grad_sumsq", (PyCFunction)(void (*)(void))w_grad_sumsq, METH_FASTCALL,
     "grad_sumsq(v) -> sum of the squares of grad v"},
    {"metric_sums", (PyCFunction)(void (*)(void))w_metric_sums, METH_FASTCALL,
     "metric_sums(x, z, xhat, p, tv, c) -> (xz2, tv, zp2, xxhat2)"},
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
