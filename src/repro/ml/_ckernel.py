"""Optional native acceleration for tree inference, tree growing and
compiled decision tables.

One small C file holds every native kernel of the package: the flat
tree descent (:mod:`repro.ml.kernels`), the exact-greedy tree grower
(:mod:`repro.ml.tree`) and the decision-table lookup
(:mod:`repro.serve.compiled`). It is compiled with the system ``cc``
the first time it is needed and the shared object is cached per
source hash.

The numpy level-wise descent in :mod:`repro.ml.kernels` is already
recursion-free, but advanced indexing costs ~10 ns per (row, tree,
level) visit — the gather loop is index-arithmetic bound. The C
descent below does the same visit in ~1 ns.

The descent's speed comes from four classic tricks:

* **branchless steps** — children are allocated adjacently
  (``right == left + 1``) and leaves carry ``threshold = +inf`` with a
  self-loop base, so one step is ``node = base[node] + (x[f] >
  th[node])`` with no unpredictable branch,
* **fixed-depth descent** — every chain runs exactly ``depth`` steps
  (leaves spin in place), removing the data-dependent loop exit,
* **interleaved chains** — 2 rows x 8 trees = 16 independent descents
  per iteration, hiding the ~4 ns load-to-use latency of the node pool
  behind independent work,
* **loop order + AoS nodes** — each (threshold, child base, feature)
  triple is packed into one 16-byte struct so a step touches a single
  cache line, and the loops are swapped (tree *chunks* outer, rows
  inner) so an 8-tree chunk's few hundred nodes stay L1-resident for
  the entire row sweep instead of being evicted between rows.

The tree grower (``repro_grow_tree``) replaces the numpy
``GradTree._build``: it scans presorted column blocks and stably
partitions them into the children, so no node sorts anything, and it
writes the ``FlatTree`` arrays directly. It reproduces numpy's float
order (pairwise ``sum``, sequential ``cumsum``, ``argmax`` ties), so the
grown trees are the oracle's, bit for bit.

Strictly optional and strictly bit-identical: no compiler, a failed
compile, or ``REPRO_NO_CKERNEL=1`` falls back to the numpy path. The C
loop performs exactly the oracle's ``x[f] <= threshold`` float64
comparisons, and the fused sum mode accumulates in the oracle's round
order with ``-ffp-contract=off`` (no FMA contraction), so every
variant returns the same bits. No kernel keeps global mutable state,
and ``ctypes`` releases the GIL for the call, so threads may run them
concurrently.

No third-party dependency is introduced: only ``ctypes`` + the
toolchain already present on the host (gated, with fallback).
"""

from __future__ import annotations

import ctypes
import hashlib
import logging
import os
import subprocess
import tempfile
from pathlib import Path

import numpy as np

logger = logging.getLogger(__name__)

#: set to "1" to force the pure-numpy paths
ENV_DISABLE = "REPRO_NO_CKERNEL"
#: override the directory holding compiled kernels
ENV_CACHE = "REPRO_KERNEL_CACHE"

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <stdlib.h>
#include <string.h>

/* One node: split threshold, branchless child base (left child id for
 * internal nodes, own id for leaves), gather feature (clamped to 0 at
 * leaves). 16 bytes -> a step touches exactly one cache line. */
typedef struct { double th; int32_t base; int32_t feat; } Node;

/* One branchless step: leaf thresholds are +inf so the comparison
 * contributes 0 there and finished chains spin in place. The x
 * argument lets two rows' chains interleave in one loop body. */
#define STEP(n, x) \
    (n) = nodes[(n)].base + ((x)[nodes[(n)].feat] > nodes[(n)].th)

#define LOAD8(p, n) \
    int32_t p##0 = (n)[0], p##1 = (n)[1], p##2 = (n)[2], p##3 = (n)[3], \
            p##4 = (n)[4], p##5 = (n)[5], p##6 = (n)[6], p##7 = (n)[7]
#define STEP8(p, x) \
    STEP(p##0, x); STEP(p##1, x); STEP(p##2, x); STEP(p##3, x); \
    STEP(p##4, x); STEP(p##5, x); STEP(p##6, x); STEP(p##7, x)

/* Leaf-value matrix: out[i*T + t] = leaf value of tree t for row i.
 *
 * Loop order: 8-tree chunks OUTER, rows INNER — a chunk's few hundred
 * nodes stay L1-resident across the whole row sweep. Two rows advance
 * together, giving 16 independent chains to hide load latency. */
void repro_predict_matrix(
    const double *X, int64_t n_rows, int64_t n_features,
    const Node *nodes, const double *value, const int32_t *roots,
    int64_t n_trees, int64_t depth, double *out)
{
    int64_t t = 0;
    for (; t + 8 <= n_trees; t += 8) {
        const int32_t *r = roots + t;
        int64_t i = 0;
        for (; i + 2 <= n_rows; i += 2) {
            const double *xa = X + i * n_features, *xb = xa + n_features;
            double *oa = out + i * n_trees + t, *ob = oa + n_trees;
            LOAD8(a, r); LOAD8(b, r);
            for (int64_t d = 0; d < depth; ++d) {
                STEP8(a, xa); STEP8(b, xb);
            }
            oa[0] = value[a0]; oa[1] = value[a1];
            oa[2] = value[a2]; oa[3] = value[a3];
            oa[4] = value[a4]; oa[5] = value[a5];
            oa[6] = value[a6]; oa[7] = value[a7];
            ob[0] = value[b0]; ob[1] = value[b1];
            ob[2] = value[b2]; ob[3] = value[b3];
            ob[4] = value[b4]; ob[5] = value[b5];
            ob[6] = value[b6]; ob[7] = value[b7];
        }
        for (; i < n_rows; ++i) {
            const double *x = X + i * n_features;
            double *o = out + i * n_trees + t;
            LOAD8(a, r);
            for (int64_t d = 0; d < depth; ++d) { STEP8(a, x); }
            o[0] = value[a0]; o[1] = value[a1];
            o[2] = value[a2]; o[3] = value[a3];
            o[4] = value[a4]; o[5] = value[a5];
            o[6] = value[a6]; o[7] = value[a7];
        }
    }
    for (; t < n_trees; ++t) {
        for (int64_t i = 0; i < n_rows; ++i) {
            const double *x = X + i * n_features;
            int32_t n = roots[t];
            for (int64_t d = 0; d < depth; ++d) STEP(n, x);
            out[i * n_trees + t] = value[n];
        }
    }
}

/* Fused booster score: out[i] = offset + scale*v_0 + scale*v_1 + ...
 * Chunks are visited in ascending tree order and each row's partial
 * sum is updated sequentially within the chunk, so per row the float
 * additions happen in the oracle's exact round order even though the
 * row loop is inner (rows never share an accumulator). */
void repro_predict_sum(
    const double *X, int64_t n_rows, int64_t n_features,
    const Node *nodes, const double *value, const int32_t *roots,
    int64_t n_trees, int64_t depth, double scale, double offset,
    double *out)
{
    for (int64_t i = 0; i < n_rows; ++i) out[i] = offset;
    int64_t t = 0;
    for (; t + 8 <= n_trees; t += 8) {
        const int32_t *r = roots + t;
        int64_t i = 0;
        for (; i + 2 <= n_rows; i += 2) {
            const double *xa = X + i * n_features, *xb = xa + n_features;
            LOAD8(a, r); LOAD8(b, r);
            for (int64_t d = 0; d < depth; ++d) {
                STEP8(a, xa); STEP8(b, xb);
            }
            double s = out[i];
            s += scale * value[a0]; s += scale * value[a1];
            s += scale * value[a2]; s += scale * value[a3];
            s += scale * value[a4]; s += scale * value[a5];
            s += scale * value[a6]; s += scale * value[a7];
            out[i] = s;
            double u = out[i + 1];
            u += scale * value[b0]; u += scale * value[b1];
            u += scale * value[b2]; u += scale * value[b3];
            u += scale * value[b4]; u += scale * value[b5];
            u += scale * value[b6]; u += scale * value[b7];
            out[i + 1] = u;
        }
        for (; i < n_rows; ++i) {
            const double *x = X + i * n_features;
            LOAD8(a, r);
            for (int64_t d = 0; d < depth; ++d) { STEP8(a, x); }
            double s = out[i];
            s += scale * value[a0]; s += scale * value[a1];
            s += scale * value[a2]; s += scale * value[a3];
            s += scale * value[a4]; s += scale * value[a5];
            s += scale * value[a6]; s += scale * value[a7];
            out[i] = s;
        }
    }
    for (; t < n_trees; ++t) {
        for (int64_t i = 0; i < n_rows; ++i) {
            const double *x = X + i * n_features;
            int32_t n = roots[t];
            for (int64_t d = 0; d < depth; ++d) STEP(n, x);
            out[i] += scale * value[n];
        }
    }
}

/* Branchless decision-table lookup (repro.serve.compiled).
 *
 * A compiled decision table answers one query with three clamped
 * gathers and one masked cell load:
 *
 *   - nodes/ppn clamp into small dense index maps whose final slot is
 *     the overflow cell (-1 = off-table, falls through in Python),
 *   - msize maps to its log2 bucket (bit_length: 0 -> 0, otherwise
 *     64 - clzll), then validates against the bucket's [lo, hi]
 *     admission range — buckets a table cannot answer exactly keep an
 *     empty range (lo > hi), so the same comparison rejects them,
 *   - the (bucket, node, ppn) cell holds the winning config id, -1 for
 *     uncovered cells.
 *
 * out[q] is the config id, or -1 when the table must not answer (the
 * service then falls through to the interpreted path). No branches
 * beyond the loop: rejected queries still gather a (masked) cell. */
void repro_table_lookup(
    const int64_t *nodes, const int64_t *ppn, const int64_t *msize,
    int64_t n_queries,
    const int32_t *node_index, int64_t node_len,
    const int32_t *ppn_index, int64_t ppn_len,
    const int64_t *msize_lo, const int64_t *msize_hi,
    const int32_t *cells, int64_t nn, int64_t np,
    int32_t *out)
{
    for (int64_t q = 0; q < n_queries; ++q) {
        int64_t n = nodes[q], p = ppn[q], m = msize[q];
        int64_t nc = n < 0 ? 0 : (n >= node_len ? node_len - 1 : n);
        int64_t pc = p < 0 ? 0 : (p >= ppn_len ? ppn_len - 1 : p);
        int32_t i = node_index[nc], j = ppn_index[pc];
        int64_t b = m <= 0 ? 0 : 64 - __builtin_clzll((uint64_t)m);
        int ok = (i >= 0) & (j >= 0)
                 & (m >= msize_lo[b]) & (m <= msize_hi[b]);
        int64_t iz = i < 0 ? 0 : i, jz = j < 0 ? 0 : j;
        int32_t cid = cells[(b * nn + iz) * np + jz];
        out[q] = (ok & (cid >= 0)) ? cid : -1;
    }
}

/* ---- exact-greedy tree growing (repro.ml.tree.GradTree) ----------- */

/* numpy's float64 pairwise summation over a[idx[0..n)]: plain loop
 * below 8 items, 8 interleaved accumulators up to 128, otherwise a
 * recursive halving that keeps the first half a multiple of 8. */
static double pairwise_sum(const double *a, const int32_t *idx, int64_t n)
{
    if (n < 8) {
        double res = 0.;
        for (int64_t i = 0; i < n; ++i) res += a[idx[i]];
        return res;
    }
    if (n <= 128) {
        double r[8];
        int64_t i;
        for (int k = 0; k < 8; ++k) r[k] = a[idx[k]];
        for (i = 8; i < n - (n % 8); i += 8)
            for (int k = 0; k < 8; ++k) r[k] += a[idx[i + k]];
        double res = ((r[0] + r[1]) + (r[2] + r[3]))
                     + ((r[4] + r[5]) + (r[6] + r[7]));
        for (; i < n; ++i) res += a[idx[i]];
        return res;
    }
    int64_t n2 = n / 2;
    n2 -= n2 % 8;
    return pairwise_sum(a, idx, n2) + pairwise_sum(a, idx + n2, n - n2);
}

/* ``a[idx].sum()`` bit for bit: the reduction starts from the identity
 * (0.0) and adds one pairwise block. */
double repro_node_sum(const double *a, const int32_t *idx, int64_t n)
{
    return 0.0 + pairwise_sum(a, idx, n);
}

/* A node waiting to be grown: its id and its segment [lo, hi) of every
 * row list. */
typedef struct { int64_t id, lo, hi, depth; } Pending;

/* Grow one tree with XGBoost's exact greedy algorithm, reproducing
 * GradTree._build (the numpy oracle) bit for bit.
 *
 * Row lists: lists[0] holds each node's rows in ascending id order (the
 * oracle's ``idx``), lists[1 + f] the same rows in ascending order of
 * feature f. ``presorted`` seeds list 1 + f with a stable argsort of
 * column f; a stable filter of that global order to a node's rows is
 * exactly the node's own stable argsort, so a split only has to
 * stable-partition every list into its two children — nothing is
 * sorted per node, and each level costs O(n * d).
 *
 * Float order follows the oracle: node G/H via repro_node_sum over
 * lists[0], prefix sums sequential in sorted order, gains evaluated in
 * numpy's expression order, argmax with numpy's first-max / first-NaN
 * rule, and features compared with a strict ``>``.
 *
 * Nodes are numbered as FlatTree.from_node allocates them (a pending
 * stack, children allocated back to back when their parent is popped),
 * so the outputs are the FlatTree arrays. row_value[r] receives the
 * leaf value of training row r. Returns the node count, -1 when the
 * capacity is exceeded or -2 when a workspace allocation fails. All
 * state lives on the stack or in per-call allocations. */
int64_t repro_grow_tree(
    const double *Xt, const int32_t *presorted, int64_t n, int64_t d,
    const double *grad, const double *hess,
    int64_t max_depth, int64_t min_samples_leaf,
    double min_child_weight, double reg_lambda, double gamma,
    int64_t capacity,
    int32_t *feature, double *threshold, int32_t *left, int32_t *right,
    double *value, double *row_value, int64_t *depth_out)
{
    int32_t *lists = malloc((size_t)((d + 1) * n) * sizeof(int32_t));
    int32_t *spill = malloc((size_t)n * sizeof(int32_t));
    unsigned char *goes_left = malloc((size_t)n);
    Pending *stack = malloc((size_t)capacity * sizeof(Pending));
    int64_t count = -2;
    if (!lists || !spill || !goes_left || !stack) goto done;
    for (int64_t i = 0; i < n; ++i) lists[i] = (int32_t)i;
    memcpy(lists + n, presorted, (size_t)(d * n) * sizeof(int32_t));

    int64_t top = 0, depth = 0;
    count = 1;
    stack[top++] = (Pending){0, 0, n, 0};
    while (top > 0) {
        Pending nd = stack[--top];
        int64_t cnt = nd.hi - nd.lo;
        const int32_t *rows = lists + nd.lo;
        double G = repro_node_sum(grad, rows, cnt);
        double H = repro_node_sum(hess, rows, cnt);
        int64_t best_f = -1;
        double best_gain = 0.0, best_th = 0.0;
        if (nd.depth < max_depth && cnt >= 2 * min_samples_leaf) {
            double parent = G * G / (H + reg_lambda);
            int64_t lo = min_samples_leaf - 1, hi = cnt - min_samples_leaf;
            for (int64_t f = 0; f < d; ++f) {
                const int32_t *ord = lists + (f + 1) * n + nd.lo;
                const double *col = Xt + f * n;
                double gl = 0.0, hl = 0.0, mp = 0.0;
                int64_t k = -1;
                int any_ok = 0, nan_seen = 0;
                for (int64_t i = 0; i < hi; ++i) {
                    int32_t r = ord[i];
                    if (i == 0) { gl = grad[r]; hl = hess[r]; }
                    else { gl += grad[r]; hl += hess[r]; }
                    if (i < lo || !(col[r] < col[ord[i + 1]])) continue;
                    double gr = G - gl, hr = H - hl, gain = -INFINITY;
                    if ((hl >= min_child_weight) & (hr >= min_child_weight)) {
                        any_ok = 1;
                        gain = gl * gl / (hl + reg_lambda)
                               + gr * gr / (hr + reg_lambda) - parent;
                    }
                    if (k < 0 || (!nan_seen && !(gain <= mp))) {
                        mp = gain;
                        k = i;
                        nan_seen = isnan(mp);
                    }
                }
                if (!any_ok || !(mp > best_gain + 2 * gamma)) continue;
                best_gain = mp;
                best_f = f;
                best_th = 0.5 * (col[ord[k]] + col[ord[k + 1]]);
            }
        }
        if (best_f < 0) {
            double v = -G / (H + reg_lambda);
            feature[nd.id] = -1;
            threshold[nd.id] = 0.0;
            left[nd.id] = right[nd.id] = (int32_t)nd.id;
            value[nd.id] = v;
            for (int64_t i = 0; i < cnt; ++i) row_value[rows[i]] = v;
            if (nd.depth > depth) depth = nd.depth;
            continue;
        }
        if (count + 2 > capacity) { count = -1; goto done; }
        const double *col = Xt + best_f * n;
        for (int64_t i = 0; i < cnt; ++i)
            goes_left[rows[i]] = col[rows[i]] <= best_th;
        int64_t n_left = 0;
        for (int64_t l = 0; l <= d; ++l) {
            int32_t *seg = lists + l * n + nd.lo;
            int64_t a = 0, b = 0;
            for (int64_t i = 0; i < cnt; ++i) {
                int32_t r = seg[i];
                if (goes_left[r]) seg[a++] = r; else spill[b++] = r;
            }
            memcpy(seg + a, spill, (size_t)b * sizeof(int32_t));
            n_left = a;
        }
        feature[nd.id] = (int32_t)best_f;
        threshold[nd.id] = best_th;
        value[nd.id] = 0.0;
        left[nd.id] = (int32_t)count;
        right[nd.id] = (int32_t)(count + 1);
        stack[top++] = (Pending){count, nd.lo, nd.lo + n_left, nd.depth + 1};
        stack[top++] = (Pending){count + 1, nd.lo + n_left, nd.hi, nd.depth + 1};
        count += 2;
    }
    *depth_out = depth;
done:
    free(lists);
    free(spill);
    free(goes_left);
    free(stack);
    return count;
}
"""

_lib: ctypes.CDLL | None = None
_load_attempted = False


def _cache_dir() -> Path:
    override = os.environ.get(ENV_CACHE)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / "repro-ckernels"


def _compile() -> Path | None:
    """Compile the kernel once per source hash; atomic cache install."""
    digest = hashlib.sha256(_SOURCE.encode()).hexdigest()[:16]
    cache = _cache_dir()
    so_path = cache / f"treekernel-{digest}.so"
    if so_path.exists():
        return so_path
    cache.mkdir(parents=True, exist_ok=True)
    # the .c lands via tmp+replace too: a parallel compiler racing this
    # one must never read a torn source file from the shared cache
    src_path = cache / f"treekernel-{digest}.c"
    tmp_src = cache / f".treekernel-{digest}.{os.getpid()}.c"
    tmp_src.write_text(_SOURCE)
    os.replace(tmp_src, src_path)
    tmp_so = cache / f".treekernel-{digest}.{os.getpid()}.so"
    cmd = [
        "cc", "-O2", "-ffp-contract=off", "-shared", "-fPIC",
        str(src_path), "-o", str(tmp_so),
    ]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=60)
    except (OSError, subprocess.TimeoutExpired):
        return None
    if proc.returncode != 0:
        logger.debug("tree-kernel compile failed: %s", proc.stderr.strip())
        return None
    os.replace(tmp_so, so_path)  # atomic, parallel-safe
    return so_path


def load() -> ctypes.CDLL | None:
    """The compiled kernel library, or ``None`` when unavailable."""
    global _lib, _load_attempted
    if _load_attempted:
        return _lib
    _load_attempted = True
    if os.environ.get(ENV_DISABLE, "") not in ("", "0"):
        return None
    try:
        so_path = _compile()
        if so_path is None:
            return None
        lib = ctypes.CDLL(str(so_path))
        ptr = ctypes.POINTER
        common = [
            ptr(ctypes.c_double), ctypes.c_int64, ctypes.c_int64,
            ctypes.c_void_p, ptr(ctypes.c_double), ptr(ctypes.c_int32),
            ctypes.c_int64, ctypes.c_int64,
        ]
        lib.repro_predict_matrix.restype = None
        lib.repro_predict_matrix.argtypes = common + [ptr(ctypes.c_double)]
        lib.repro_predict_sum.restype = None
        lib.repro_predict_sum.argtypes = common + [
            ctypes.c_double, ctypes.c_double, ptr(ctypes.c_double),
        ]
        # raw-address argtypes: the serve hot path passes precomputed
        # ``arr.ctypes.data`` integers, skipping per-call pointer wrapping
        vp = ctypes.c_void_p
        lib.repro_table_lookup.restype = None
        lib.repro_table_lookup.argtypes = [
            vp, vp, vp, ctypes.c_int64,          # nodes, ppn, msize, nq
            vp, ctypes.c_int64,                  # node_index, node_len
            vp, ctypes.c_int64,                  # ppn_index, ppn_len
            vp, vp,                              # msize_lo, msize_hi
            vp, ctypes.c_int64, ctypes.c_int64,  # cells, nn, np
            vp,                                  # out
        ]
        i64, f64 = ctypes.c_int64, ctypes.c_double
        lib.repro_node_sum.restype = f64
        lib.repro_node_sum.argtypes = [vp, vp, i64]
        lib.repro_grow_tree.restype = i64
        lib.repro_grow_tree.argtypes = [
            vp, vp, i64, i64,                    # Xt, presorted, n, d
            vp, vp,                              # grad, hess
            i64, i64, f64, f64, f64,             # tree params
            i64,                                 # node capacity
            vp, vp, vp, vp, vp,                  # FlatTree arrays
            vp, vp,                              # row_value, depth_out
        ]
        _lib = lib
    except Exception as exc:  # pragma: no cover - environment dependent
        logger.debug("tree-kernel load failed: %s", exc)
        _lib = None
    return _lib


def available() -> bool:
    """Whether the native kernel can be used in this process."""
    return load() is not None


def _as_ptr(arr: np.ndarray, ctype) -> "ctypes._Pointer":
    return arr.ctypes.data_as(ctypes.POINTER(ctype))


def _common_args(X: np.ndarray, ens) -> tuple:
    n_rows, n_features = X.shape
    return (
        _as_ptr(X, ctypes.c_double),
        ctypes.c_int64(n_rows),
        ctypes.c_int64(n_features),
        ctypes.c_void_p(ens.packed_nodes.ctypes.data),
        _as_ptr(ens.value, ctypes.c_double),
        _as_ptr(ens.roots, ctypes.c_int32),
        ctypes.c_int64(ens.n_trees),
        ctypes.c_int64(ens.depth),
    )


def predict_matrix(X: np.ndarray, ens) -> np.ndarray:
    """(n_rows, n_trees) leaf-value matrix via the native descent.

    ``ens`` is a ``FlatEnsemble`` (or anything exposing the same
    branchless-step arrays). Caller guarantees :func:`available` and a
    C-contiguous float64 ``X``.
    """
    lib = load()
    assert lib is not None, "native kernel not available"
    out = np.empty((len(X), ens.n_trees), dtype=np.float64)
    lib.repro_predict_matrix(*_common_args(X, ens), _as_ptr(out, ctypes.c_double))
    return out


def predict_sum(X: np.ndarray, ens, scale: float, offset: float) -> np.ndarray:
    """Fused ``offset + scale * sum_t(tree_t(x))`` in oracle order."""
    lib = load()
    assert lib is not None, "native kernel not available"
    out = np.empty(len(X), dtype=np.float64)
    lib.repro_predict_sum(
        *_common_args(X, ens),
        ctypes.c_double(scale),
        ctypes.c_double(offset),
        _as_ptr(out, ctypes.c_double),
    )
    return out


def node_sum(a: np.ndarray, idx: np.ndarray) -> float:
    """``a[idx].sum()`` via the grower's pairwise sum (parity probe).

    Caller guarantees :func:`available`, a contiguous float64 ``a`` and
    a contiguous int32 ``idx``.
    """
    lib = load()
    assert lib is not None, "native kernel not available"
    return lib.repro_node_sum(a.ctypes.data, idx.ctypes.data, len(idx))


def grow_tree(
    Xt: np.ndarray,
    presorted: np.ndarray,
    grad: np.ndarray,
    hess: np.ndarray,
    params,
) -> tuple[tuple[np.ndarray, ...], np.ndarray, int]:
    """Grow one exact-greedy tree natively.

    ``Xt`` is the (d, n) column-major feature matrix, ``presorted`` its
    per-column stable argsort (int32, same shape), ``params`` a
    ``TreeParams`` with ``min_samples_leaf >= 1`` and no feature
    subsampling. Returns the ``FlatTree`` arrays ``(feature, threshold,
    left, right, value)``, each training row's leaf value, and the
    tree depth. Caller guarantees :func:`available`.
    """
    lib = load()
    assert lib is not None, "native kernel not available"
    d, n = Xt.shape
    # the C loop indexes every buffer by (d, n): check before passing
    # raw pointers
    for arr, dtype, shape in (
        (Xt, np.float64, (d, n)), (presorted, np.int32, (d, n)),
        (grad, np.float64, (n,)), (hess, np.float64, (n,)),
    ):
        if arr.dtype != dtype or arr.shape != shape or not arr.flags.c_contiguous:
            raise ValueError(
                f"grow_tree: need a C-contiguous {np.dtype(dtype)} array of "
                f"shape {shape}, got {arr.dtype} {arr.shape}"
            )
    # every level's internal nodes own disjoint sets of >= 2 rows
    levels = max(params.max_depth, 0)
    internal = min((1 << min(levels, 62)) - 1, levels * (n // 2))
    capacity = 2 * internal + 1
    feature = np.empty(capacity, dtype=np.int32)
    threshold = np.empty(capacity, dtype=np.float64)
    left = np.empty(capacity, dtype=np.int32)
    right = np.empty(capacity, dtype=np.int32)
    value = np.empty(capacity, dtype=np.float64)
    row_value = np.empty(n, dtype=np.float64)
    depth = ctypes.c_int64(0)
    count = lib.repro_grow_tree(
        Xt.ctypes.data, presorted.ctypes.data, n, d,
        grad.ctypes.data, hess.ctypes.data,
        params.max_depth, params.min_samples_leaf,
        params.min_child_weight, params.reg_lambda, params.gamma,
        capacity,
        feature.ctypes.data, threshold.ctypes.data,
        left.ctypes.data, right.ctypes.data, value.ctypes.data,
        row_value.ctypes.data, ctypes.addressof(depth),
    )
    if count < 0:
        raise RuntimeError(f"native tree grower failed (status {count})")
    # copies: a capacity-sized buffer can dwarf the grown tree
    arrays = tuple(
        a[:count].copy() for a in (feature, threshold, left, right, value)
    )
    return arrays, row_value, depth.value


def table_fixed_args(
    node_index: np.ndarray,
    ppn_index: np.ndarray,
    msize_lo: np.ndarray,
    msize_hi: np.ndarray,
    cells: np.ndarray,
) -> tuple:
    """The per-table middle arguments of ``repro_table_lookup``.

    Raw buffer addresses plus lengths, computed once per
    :class:`~repro.serve.compiled.CompiledTable` — the owner must keep
    the arrays alive for as long as it reuses the tuple (the table
    holds them as attributes, so their lifetime brackets every call).
    """
    return (
        node_index.ctypes.data, len(node_index),
        ppn_index.ctypes.data, len(ppn_index),
        msize_lo.ctypes.data, msize_hi.ctypes.data,
        cells.ctypes.data, cells.shape[1], cells.shape[2],
    )


def table_lookup(
    nodes: np.ndarray,
    ppn: np.ndarray,
    msize: np.ndarray,
    fixed: tuple,
) -> np.ndarray:
    """Batched compiled-table lookup; -1 per query = fall through.

    Caller (``repro.serve.compiled.CompiledTable``) guarantees
    :func:`available`, contiguous int64 query columns, and ``fixed``
    from :func:`table_fixed_args` over live table arrays.
    """
    lib = load()
    assert lib is not None, "native kernel not available"
    nq = len(msize)
    out = np.empty(nq, dtype=np.int32)
    lib.repro_table_lookup(
        nodes.ctypes.data, ppn.ctypes.data, msize.ctypes.data, nq,
        *fixed, out.ctypes.data,
    )
    return out
