/* Compiled per-stage kernels of the four solvers.
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
 */
#define PY_SSIZE_T_CLEAN
#include <Python.h>
#include <math.h>
#include <stdint.h>
#include <string.h>

#if defined(__x86_64__) && defined(__GNUC__) && !defined(__clang__)
#define KERNEL __attribute__((target_clones("arch=x86-64-v4", "arch=x86-64-v3", "default")))
#else
#define KERNEL
#endif

typedef Py_ssize_t idx;

/* ----- kernels ----------------------------------------------------------- */

/* Forward differences with Neumann boundary into the planes g0 (axis 0) and
 * g1 (axis 1); g1's pass runs across row ends and the last column is then
 * zeroed, as in imaging._grad. */
KERNEL static void grad(const double *restrict v, double *restrict g0, double *restrict g1,
                        idx n1, idx n2)
{
    idx n = n1 * n2;
    for (idx k = 0; k < n - n2; k++)
        g0[k] = v[k + n2] - v[k];
    for (idx k = n - n2; k < n; k++)
        g0[k] = 0.0;
    for (idx k = 0; k < n - 1; k++)
        g1[k] = v[k + 1] - v[k];
    for (idx i = 0; i < n1; i++)
        g1[i * n2 + n2 - 1] = 0.0;
}

/* c times the adjoint of grad, row by row: the axis-0 terms first, then
 * + g1[j-1] and - g1[j], then the product with c, as imaging._grad_adjoint
 * followed by a multiplication by c. */
KERNEL static void grad_adjoint(const double *restrict g0, const double *restrict g1,
                                double *restrict out, idx n1, idx n2, double c)
{
    for (idx i = 0; i < n1; i++) {
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

/* Squared norms a0^2 + a1^2 of n two-entry tails into tn2; returns their
 * minimum, NaN if any is NaN, like np.min.  Such a sum is +0 or positive
 * unless NaN, and non-negative doubles order like their bit patterns, so
 * the minimum is an unsigned integer reduction, exact in any order; NaN
 * patterns of either sign lie above +inf's. */
KERNEL static double tail_norms(const double *restrict a0, const double *restrict a1,
                                double *restrict tn2, idx n)
{
    uint64_t lo = UINT64_MAX, hi = 0;
    for (idx k = 0; k < n; k++) {
        double t = a0[k] * a0[k] + a1[k] * a1[k];
        uint64_t b;
        memcpy(&b, &t, sizeof b);
        tn2[k] = t;
        lo = b < lo ? b : lo;
        hi = b > hi ? b : hi;
    }
    if (hi > 0x7ff0000000000000u)
        return NAN;
    double m;
    memcpy(&m, &lo, sizeof m);
    return m;
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
 * then ns floats into sc.  Each array must be a C-contiguous float64 buffer
 * and a written one may share no byte with another; otherwise ValueError,
 * and 0 is returned.  No array is ever copied. */
static int unpack(Bufs *bs, PyObject *const *args, Py_ssize_t nargs, const char *spec,
                  double **arr, int ns, double *sc)
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
        arr[i] = b->buf;
    }
    for (int i = 0; i < na; i++)
        for (int j = 0; j < na; j++) {
            const char *p = bs->b[i].buf, *q = bs->b[j].buf;
            if (spec[i] == 'w' && j != i && p < q + bs->b[j].len && q < p + bs->b[i].len)
                return fail("an output array overlaps another array");
        }
    for (int i = 0; i < ns; i++) {
        sc[i] = PyFloat_AsDouble(args[na + i]);
        if (sc[i] == -1.0 && PyErr_Occurred())
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
    double *a[2];
    if (unpack(&bs, args, nargs, "rw", a, 0, NULL)) {
        const Py_buffer *v = &bs.b[0], *g = &bs.b[1];
        if (v->ndim != 2 || g->ndim != 3 || g->shape[0] != 2 || g->shape[1] != v->shape[0] ||
            g->shape[2] != v->shape[1] || v->len == 0)
            fail("grad needs an (n1, n2) array and a (2, n1, n2) out");
        else
            grad(a[0], a[1], a[1] + size(&bs, 0), v->shape[0], v->shape[1]);
    }
    return finish(&bs);
}

/* grad_adjoint(g, out, c): g a (2, n1, n2) array, out an (n1, n2) array. */
WRAPPER(grad_adjoint)
{
    Bufs bs = {.n = 0};
    double *a[2], c;
    if (unpack(&bs, args, nargs, "rw", a, 1, &c)) {
        const Py_buffer *g = &bs.b[0], *o = &bs.b[1];
        if (o->ndim != 2 || g->ndim != 3 || g->shape[0] != 2 || g->shape[1] != o->shape[0] ||
            g->shape[2] != o->shape[1] || o->len == 0)
            fail("grad_adjoint needs a (2, n1, n2) array and an (n1, n2) out");
        else
            grad_adjoint(a[0], a[0] + size(&bs, 1), a[1], o->shape[0], o->shape[1], c);
    }
    return finish(&bs);
}

/* tail_norms(kx, tn2) -> min: kx the planar (2, n) tails, tn2 an (n,) out. */
WRAPPER(tail_norms)
{
    Bufs bs = {.n = 0};
    double *a[2], m = 0.0;
    if (unpack(&bs, args, nargs, "rw", a, 0, NULL) && planar(&bs, 0)) {
        idx n = size(&bs, 1);
        if (bs.b[0].ndim != 2 || bs.b[0].shape[1] != n)
            fail("tn2 must hold one entry per tail of a (2, n) array");
        else
            m = tail_norms(a[0], a[0] + n, a[1], n);
    }
    release(&bs);
    return PyErr_Occurred() ? NULL : PyFloat_FromDouble(m);
}

/* dual_solve(tn2, kx, d0, y, b0, mu): kx and y planar (2, n), tn2 and d0 (n,). */
WRAPPER(dual_solve)
{
    Bufs bs = {.n = 0};
    double *a[4], sc[2];
    if (unpack(&bs, args, nargs, "rrww", a, 2, sc) && planar(&bs, 1)) {
        idx n = size(&bs, 0);
        if (bs.b[1].ndim != 2 || bs.b[1].shape[1] != n || size(&bs, 2) != n || size(&bs, 3) != 2 * n)
            fail("dual_solve needs (n,) tn2 and d0 and (2, n) kx and y");
        else
            dual_solve(a[0], a[1], a[1] + n, a[2], a[3], a[3] + n, n, sc[0], sc[1]);
    }
    return finish(&bs);
}

/* x_minus_tau_v(x, v, tau): v = x - v tau. */
WRAPPER(x_minus_tau_v)
{
    Bufs bs = {.n = 0};
    double *a[2], tau;
    if (unpack(&bs, args, nargs, "rw", a, 1, &tau) && same_shape(&bs))
        x_minus_tau_v(a[0], a[1], size(&bs, 0), tau);
    return finish(&bs);
}

/* prox(z, v, out, tau): out = (z tau + v) / (1 + tau). */
WRAPPER(prox)
{
    Bufs bs = {.n = 0};
    double *a[3], tau;
    if (unpack(&bs, args, nargs, "rrw", a, 1, &tau) && same_shape(&bs))
        prox(a[0], a[1], a[2], size(&bs, 0), tau);
    return finish(&bs);
}

/* scale_add(g, p, s): g = g s + p. */
WRAPPER(scale_add)
{
    Bufs bs = {.n = 0};
    double *a[2], s;
    if (unpack(&bs, args, nargs, "wr", a, 1, &s) && same_shape(&bs))
        scale_add(a[0], a[1], size(&bs, 0), s);
    return finish(&bs);
}

/* project_tv(p, out, alpha, floor): p and out planar (2, ...) fields. */
WRAPPER(project_tv)
{
    Bufs bs = {.n = 0};
    double *a[2], sc[2];
    if (unpack(&bs, args, nargs, "rw", a, 2, sc) && same_shape(&bs) && planar(&bs, 0)) {
        idx n = size(&bs, 0) / 2;
        project_tv(a[0], a[0] + n, a[1], a[1] + n, n, sc[0], sc[1]);
    }
    return finish(&bs);
}

/* pdhgm_primal(x, w, xb, z, tau, theta). */
WRAPPER(pdhgm_primal)
{
    Bufs bs = {.n = 0};
    double *a[4], sc[2];
    if (unpack(&bs, args, nargs, "rwwr", a, 2, sc) && same_shape(&bs))
        pdhgm_primal(a[0], a[1], a[2], a[3], size(&bs, 0), sc[0], sc[1]);
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
    {NULL, NULL, 0, NULL},
};

static struct PyModuleDef module = {
    PyModuleDef_HEAD_INIT, "_kernels", NULL, -1, methods, NULL, NULL, NULL, NULL,
};

PyMODINIT_FUNC PyInit__kernels(void)
{
    return PyModule_Create(&module);
}
