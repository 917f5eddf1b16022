"""Batched joint-posterior evaluation over a fixed candidate set.

The optimizer re-scores every candidate each iteration. This module keeps
that affordable by maintaining, per candidate x:

* the kernel cross terms against all samples (one new sample per step),
* the joint covariance S(x) = K0(x) - A(x) K^-1 A(x)^T in packed
  upper-triangle form (one contiguous row per entry).

Appending a sample extends the Cholesky factor of K by one row
(L -> [[L, 0], [l~^T, lam]]) and therefore changes S(x) by a rank-1
downdate  S(x) -= v(x) v(x)^T  with

    v(x) = (a_new(x) - A(x) c) / lam,      c = K^-1 k(X, x_new),

where ``a_new(x)`` is the joint kernel column of the new sample. The
same v(x) updates the posterior mean: with z = L^-1 (f - m), the mean is
m + V(x)^T z for V(x) = L^-1 A(x)^T, the rows whose products give the
covariance, so the append adds  v(x) z_new  for the new entry of z. The
product A(x) c is one GEMM against the cross terms, so the per-iteration
cost is O(N k) instead of O(N k^2).

Every per-candidate array is entry-major, one row per joint entry and the
candidates along the last axis: the packed covariances (P, N) in
``acquisition.packed_pairs`` order, the mean (1 + n, N) and the append
GEMM's output (1 + n, N, or per sweep block). The optimum flag reads its
gradient mean from that mean (``gradient_mean_at``); alpha = L^-T z is
formed only in ``state``.

The cross terms take one of two forms, chosen once from the input:

* a dense cache (``_DenseCross``), (capacity, cross_rows, N):
  ``cross_rows`` rows per sample against every candidate, so the GEMM reads
  each row contiguously;
* per-axis factors (``_GridCross``), when the candidates are a tensor grid
  with axes of lengths m_1, ..., m_n and the kernel is ``separable``: per
  sample, the outer product of its factors over the first n - 1 axes
  (M = N / m_n entries) and its factor over the last axis (m_n entries).
  Each GEMM output row is then one (M x k) @ (k x m_n) product, which a
  sweep block of whole grid rows computes for its own rows, and a kernel
  value at a candidate is the product of two factor entries. On the
  1,030,301-point 3-D grid that is k x 10,302 doubles instead of
  k x 1,030,301. The factors are used only where they are the smaller form,
  so a 1-D grid keeps the dense cache.

Both forms give the same posterior up to rounding: the kernel values and
the order of the GEMM's sums differ in the last bits. The dense form runs
its GEMM full width into one buffer it keeps, reused by every append; the
factored form keeps none: each sweep block writes its own rows of the GEMM
output into a block-sized buffer and finishes them in the same call.

The engine never branches on kernel type. The kernel supplies every
kernel-specific batched piece (see ``multibo.kernels``): how many cache rows
it keeps per sample (``cross_rows``), whether its prior block is the same at
every candidate (``stationary``, in which case one packed column is kept
and the block is computed at one candidate), the new sample's cache rows
(``fill_cross``), the raw A(x) @ w GEMM (``joint_dot``) with its gradient
fixup (``finish_dot``), and the new sample's joint column
(``joint_column``); for the factored form, whether it factorises over axes
(``separable``), a sample's per-axis factors (``axis_factors``) and the
GEMM's weight columns (``dot_weights``). The engine keeps the Cholesky
factor, the packed covariances, the mean, the sweep and the acquisition.

If the factor update fails (duplicate or near-duplicate sample), the state
is refit from scratch through the jitter schedule and the cached
covariances are rebuilt exactly.

The arrays that grow with the sample count (the samples, the Cholesky
factor and the cross terms) hold ``capacity`` samples. An append beyond it
doubles the capacity: those arrays are reallocated at twice the size, after
the same physical-memory check as at construction, and their filled rows
are copied over. Nothing is refit, and the per-candidate arrays are kept.

The acquisition is scored by ``multibo.acquisition.values`` directly on
blocks of the packed covariances and the mean; the scalar API makes the
same call with one candidate.

Candidate sweep
---------------
The engine owns the cores. Apart from the BLAS calls, the per-step work is
elementwise numpy over the candidates. At a million candidates, full-width
passes spend their time moving temporaries through memory, so every
per-step pass (the dense cross rows of new samples, the gradient fixups,
the covariance downdate and mean update with the new sample's joint
column, and the whole acquisition) runs block by block instead: the
candidates are split into equal blocks of at most ``_SWEEP`` (65,536)
candidates, and into at least one block per worker when there are more
than ``_CHUNK`` (20,000), and the blocks are spread over a module-level
thread pool with one worker per CPU the process may run on. Over the
factors, a block is a whole number of grid rows, at least two wherever
the grid has two, and its worker runs the append GEMM's products for its
own rows before the downdate. Where the candidates fit in one block,
everything runs in the calling thread.

numpy releases the GIL inside its loops and takes it back between calls,
so the workers hand the GIL over at every call, and ``_SWEEP`` is chosen
so that a call outlasts a hand-off. On a 2-vCPU Xeon VM, a loop of
``np.multiply`` over 2,000 doubles ran at 0.45x the speed of one thread
in two threads, with ~16,000 voluntary context switches, and over 65,536
doubles at 1.9x, with ~60; the bound pass below, at the 3-D grid run's
step-40 state, gained 1.30x from the second worker in 20,000-row blocks
and 1.80x in 65,536-row ones. A row of a block's temporaries is then
512 KB, so a few still fit in a core's L2. The floor of one block per
worker keeps a mid-sized set on the pool: 40,000 candidates would
otherwise form one block, and the joint-PI run on such a 2-D grid took
4.4-4.6 ms per acquisition in one thread against 2.7-2.8 ms in two
pooled, pruned blocks.

The select step needs only the feasible argmax and the value there, and
the gradient band is narrow, so over more than one block, with a
feasibility mask and a family with a band, ``acquisition_values`` scores
exactly only the candidates that can win, in two passes over the pool.
The first, the bound pass, computes per block the bound
``acquisition.improvement_bound`` * ``acquisition.band_bound``, which
skips the gradient solve wherever it can (for joint EI, on diagonally
dominant gradient blocks; derivative-only needs none), -inf where
infeasible and +inf where NaN (a NaN input, hence a NaN value, stays a
candidate). It keeps the bound in the output buffer and returns the
block's top bound, and its top among the candidates whose improvement
factor the bound gives exactly: a bound that tight often marks a higher
value than the loose top does. The largest exact value at those tops,
taken in one call, is at most the feasible maximum. The second pass
writes the exact value wherever the bound reaches it and -inf everywhere
else: no candidate it prunes can reach the maximum or tie it. The argmax
(ties to the lowest index) and the value there are therefore the full
sweep's, whatever the block size; which other candidates read -inf
depends on the block bounds, not on the worker count.
Without a mask, for the vanilla families or within one block, every
candidate is scored, and the mask then sets -inf. Within one block the
bound pass rarely pays. The pruned against the full acquisition on one
block, medians over each run's asks on a 2-vCPU Xeon VM: 0.37-0.39
against 0.15 ms on Shubert's 441 candidates, 2.2-2.7 against 1.1 ms on
the 2-D Griewank grid of 10,201 with joint EI, and 3.4-3.6 against
4.7-5.0 ms on the 19,600 random 4-D candidates of ``asktell-4d``, whose
first two asks took 11-12 ms pruned against ~5 ms full.

OpenBLAS would thread its calls too, and its threads and the pool's workers
then contend for the same cores: its idle threads keep spinning after a
call and slow the sweep that follows, which makes no BLAS call at all. So
importing this module pins every OpenBLAS the process has loaded (numpy's
and scipy's copies are found in ``/proc/self/maps``) to one thread, once,
through whichever of ``scipy_openblas_set_num_threads64_``,
``scipy_openblas_set_num_threads`` and ``openblas_set_num_threads`` the
library exports. The pin is not toggled around calls, which would race
between threads, and forked children inherit it. Without procfs, an
OpenBLAS or such a setter, nothing is pinned.

The dense cache's GEMM, full width, the Cholesky factorisation of ``fit``
and the small triangular solves of ``fit``, ``append`` and ``state`` run
on the calling thread. The three small solves of every append (z, the new
factor row and c) call LAPACK's ``dtrtrs`` directly, with the arguments
``scipy.linalg.solve_triangular`` would pass it, which skips that
wrapper's ~25 us of checks per call; ``append`` and ``fit`` reject a
non-finite told value or point themselves, as its check did. The
new sample's factors are computed on the calling thread too; they are
small. So is every call of the kernel's matrix methods: ``eval_matrix``
(the kernel matrix in ``fit``, the new sample's row in ``append``),
``grad_tensor`` (the rebuild in ``fit``) and ``joint_blocks_batch`` (the
prior blocks at construction; in ``append``, a non-stationary kernel's
k(x, x), which a stationary one reads from its packed prior column).
Workers run numpy on slices of the cross terms and the GEMM output, and
in a rebuild over more than one chunk (below) each chunk's triangular
solve and einsums on the kernel rows the calling thread built for it:
of the kernel they call ``fill_cross``, ``finish_dot`` and
``joint_column``, never ``eval_matrix``, ``grad_tensor`` or
``joint_blocks_batch``; over the factors they run their block's GEMM
products and form kernel values as products of factor entries. They call
``acquisition.values``, ``improvement_bound`` and ``band_bound``, which
use nothing in ``gp`` and, of ``numerics``, only the private Gaussian tail
and density; for n <= 4
they are elementwise numpy too, and for n >= 5 the gradient solve calls
numpy's batched LAPACK in the workers. So anything that wraps the kernel's
matrix methods or the public ``gp`` and ``numerics`` functions sees calls
from one thread. No arithmetic of the per-step sweep depends on the block
bounds, so what ``append`` and ``acquisition_values`` compute does not
depend on the block size or the worker count, but for which candidates
the pruned acquisition sets to -inf. For the factored form's GEMM this
rests on the blocks being whole grid rows, two or more wherever the grid
has two: products over blocks of 2 to 1,300 grid rows gave the full
GEMM's bits on the engine's layout, but a one-row product takes numpy's
gemv path, which rounds differently. A full rebuild does depend on them:
``fit`` rebuilds the packed covariances and the mean in chunks of their
own, ``_CHUNK`` (20,000) rows, and the rounding of each chunk's triangular
solve depends on its row count, so the covariances and the mean after a
fit or refit can move in the last bits when ``_CHUNK`` changes, but not
when ``_SWEEP`` does. The rebuild is a pipeline over the chunks: the
calling thread builds a chunk's kernel rows (``grad_tensor`` and the
cross terms' values), and over more than one chunk hands them to the pool
for the solve and the einsums, then builds the next. It builds them into
one of W reused buffers, W the pool's worker count, after the chunk that
last used that buffer is done, so at most W chunks are alive at once, the
one being built included, and a refit's transient memory is at most W
times one chunk's. Which thread conditions a chunk does not change its
bits. The construction packs a non-stationary
kernel's prior blocks in ``_CHUNK``-row blocks too.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from collections import deque
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np
from scipy.linalg import solve_triangular
from scipy.linalg.lapack import dtrtrs

from . import acquisition, numerics
from .errors import GridTooLarge
from .gp import GPState
from .numerics import CholeskyFactor

_CHUNK = 20_000  # candidate rows per block of a rebuild and of the prior blocks
_SWEEP = 65_536  # candidate rows per block of the per-step sweeps

_pool = None
_pool_lock = threading.Lock()


def _workers() -> int:
    """The CPUs this process may run on: the pool's size."""
    return len(os.sched_getaffinity(0))


def _executor() -> ThreadPoolExecutor:
    """The sweep's worker pool, one thread per CPU this process may run on."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(_workers(), thread_name_prefix="multibo-sweep")
        return _pool


def _forget_pool():
    # a forked child inherits the pool object but none of its threads
    global _pool, _pool_lock
    _pool = None
    _pool_lock = threading.Lock()


os.register_at_fork(after_in_child=_forget_pool)

# thread-count setters of OpenBLAS builds: numpy's (64-bit integers), scipy's, plain
_BLAS_SETTERS = ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                 "openblas_set_num_threads")


def _openblas_libraries():
    """Paths of the OpenBLAS libraries loaded in this process; none without procfs."""
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            return sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    except OSError:
        return []


def _pin_blas(libraries):
    """Set each of ``libraries`` to one thread through the first setter of
    ``_BLAS_SETTERS`` it exports; a library without one is left alone."""
    for path in libraries:
        lib = ctypes.CDLL(path)
        for symbol in _BLAS_SETTERS:
            setter = getattr(lib, symbol, None)
            if setter is not None:
                setter.argtypes, setter.restype = [ctypes.c_int], None
                setter(1)
                break


_pin_blas(_openblas_libraries())


def _blocks(n_cand, row):
    """The sweep's blocks of ``n_cand`` candidate rows, as slices: blocks of
    at most ``_SWEEP`` rows, and over more than ``_CHUNK`` candidates at
    least one per worker, so that a set between the two still runs on the
    pool and takes the pruned acquisition. Each block holds a whole number
    of ``row``-candidate rows, and for ``row`` > 1 at least two of them
    wherever there are two: a one-row GEMM takes BLAS's gemv path, which
    rounds differently. That floor may leave fewer, larger blocks."""
    count = -(-n_cand // _SWEEP)
    if n_cand > _CHUNK:
        count = max(count, min(_workers(), -(-n_cand // _CHUNK)))
    rows = n_cand // row
    if row > 1:
        count = max(1, min(count, rows // 2))
    return [slice(b * rows // count * row, (b + 1) * rows // count * row) for b in range(count)]


def _trtrs(a, b, lower, trans):
    """LAPACK's triangular solve with the arguments ``scipy.linalg.solve_triangular``
    would pass it, without that wrapper's checks and their ~25 us per call."""
    x, info = dtrtrs(a, b, lower=lower, trans=trans)
    if info != 0:
        raise np.linalg.LinAlgError(f"triangular solve failed: LAPACK info {info}")
    return x


class _DenseCross:
    """Cross terms as a dense cache ``cache`` (capacity, cross_rows, N):
    [j] holds sample j's cache rows against every candidate, row 0 the
    kernel value, so the GEMM reads each row contiguously. The GEMM runs
    full width, before the sweep, into ``raw`` (1 + n, N), kept for every
    append: GEMMs over blocks of columns would round differently."""

    row = 1  # the sweep's blocks may start at any candidate

    def __init__(self, kernel, cands, cache, axes):
        self.kernel, self.cands, self.cache = kernel, cands, cache
        self.raw = np.empty((1 + cands.shape[1], cands.shape[0]))

    @staticmethod
    def shape(kernel, capacity, n_cand, axes):
        return (capacity, kernel.cross_rows, n_cand)

    def add(self, first, X, sweep):
        def fill(rows):
            for j, x in enumerate(X, first):
                self.kernel.fill_cross(self.cache[j, :, rows], x, self.cands[rows])

        sweep(fill)

    def dot(self, X, w):
        """The raw GEMM rows of A(x) @ w over the samples ``X``, as a
        function of a block of candidate rows."""
        raw = self.kernel.joint_dot(self.cache[:X.shape[0]], X, w, out=self.raw)
        return lambda rows: raw[:, rows]

    def values(self, samples, rows):
        return self.cache[samples, 0, rows]

    def column(self, j, x, rows):
        return self.kernel.joint_column(self.cache[j, :, rows], x, self.cands[rows])


class _GridCross:
    """Per-axis factors of a separable kernel on the tensor grid ``axes``
    (candidates in C order, last axis fastest). Row r of ``cache``
    (capacity, M + m) holds sample r's head, the flattened outer product of
    its factors over the first n - 1 axes (M entries), then its tail, its
    factor over the last axis (m entries): its kernel value at the grid
    point with index i' over the first n - 1 axes and i over the last is
    head[r, i'] tail[r, i]. Over a block of whole grid rows, each raw GEMM
    row is one (M_b, k) @ (k, m) product, written as an (M_b, m) block."""

    def __init__(self, kernel, cands, cache, axes):
        self.kernel, self.cands, self.axes = kernel, cands, axes
        m = len(axes[-1])
        self.row = m  # the sweep's blocks are whole grid rows
        self.head, self.tail = cache[:, :-m], cache[:, -m:]

    @staticmethod
    def shape(kernel, capacity, n_cand, axes):
        m = len(axes[-1])
        return (capacity, n_cand // m + m)

    def add(self, first, X, sweep):
        for j, x in enumerate(X, first):
            factors = self.kernel.axis_factors(x, self.axes)
            head = np.ones(1)
            for factor in factors[:-1]:
                head = np.multiply.outer(head, factor).ravel()
            self.head[j] = head
            self.tail[j] = factors[-1]

    def dot(self, X, w):
        """The raw GEMM rows of A(x) @ w over the samples ``X``, as a
        function of a block of whole grid rows: the weighted tails are
        formed here, once, and each block runs its own products."""
        k, m = X.shape[0], self.row
        head = self.head[:k].T
        W = self.kernel.dot_weights(X, w)
        tails = [W[:, c, None] * self.tail[:k] for c in range(W.shape[1])]

        def products(rows):
            raw = np.empty((len(tails), rows.stop - rows.start))
            for c, tail in enumerate(tails):
                np.matmul(head[rows.start // m:rows.stop // m], tail,
                          out=raw[c].reshape(-1, m))
            return raw

        return products

    def values(self, samples, rows):
        # outer products over the grid rows the block touches, cut to the block
        m = self.tail.shape[1]
        lo, hi = rows.start // m, -(-rows.stop // m)
        outer = self.head[samples, lo:hi, None] * self.tail[samples, None, :]
        return outer.reshape(*outer.shape[:-2], -1)[..., rows.start - lo * m:rows.stop - lo * m]

    def column(self, j, x, rows):
        return self.kernel.joint_column(self.values(j, rows)[None], x, self.cands[rows])


class CandidateEvaluator:
    """Joint posterior statistics for a fixed candidate stack, updated per sample.

    ``axes``, when given, are the axes of the tensor grid the candidates
    enumerate in C order; with a separable kernel the cross terms are then
    kept as per-axis factors instead of a dense cache. The per-candidate
    arrays ``_scov`` and ``_mu`` are entry-major.
    """

    def __init__(self, kernel, candidates, prior_mean, capacity,
                 jitter_schedule=numerics.DEFAULT_JITTER_SCHEDULE, axes=None):
        self.kernel = kernel
        self.cands = np.ascontiguousarray(np.atleast_2d(np.asarray(candidates, dtype=float)))
        self.prior_mean = float(prior_mean)
        self.jitter_schedule = tuple(jitter_schedule)
        self.capacity = int(capacity)
        n_cand, n = self.cands.shape
        self.n = n
        if axes is not None and (len(axes) != n or math.prod(len(a) for a in axes) != n_cand):
            raise ValueError(f"grid axes of lengths {[len(a) for a in axes]} do not "
                             f"enumerate {n_cand} candidates in {n} dimensions")
        # packed upper triangle of the (1+n) x (1+n) joint covariance, entry-major
        self._pairs = acquisition.packed_pairs(n)
        # per-axis factors where the kernel factorises and they are the
        # smaller representation (never on a 1-D grid: 1 + N against N)
        terms = _DenseCross
        if axes is not None and kernel.separable and \
                math.prod(_GridCross.shape(kernel, 1, n_cand, axes)) < n_cand:
            terms = _GridCross
        self._terms_type, self._axes = terms, axes
        shape = self._cross_shape(self.capacity)
        self._X = np.empty((self.capacity, n))
        self._f = np.empty(self.capacity)
        self._L = np.zeros((self.capacity, self.capacity))
        self._k = 0
        self._jitter = 0.0
        self._z = np.empty(0)
        # the cross terms' arrays are the evaluator's own, like every array it keeps
        self._cross = np.empty(shape)
        self._terms = terms(kernel, self.cands, self._cross, axes)
        self._scov = np.empty((len(self._pairs), n_cand))
        # a stationary kernel's blocks are candidate-independent; keep one
        # column. Otherwise pack them block by block: the dense blocks of
        # every candidate at once would be a transient (1 + n)^2 doubles each
        width = 1 if kernel.stationary else n_cand
        self._k0p = np.empty((len(self._pairs), width))
        for start in range(0, width, _CHUNK):
            block = slice(start, min(start + _CHUNK, width))
            k0 = kernel.joint_blocks_batch(self.cands[block])
            for p, (i, j) in enumerate(self._pairs):
                self._k0p[p, block] = k0[:, i, j]
        self._mu = np.empty((1 + n, n_cand))

    def _cross_shape(self, capacity):
        """Shape of the cross terms at ``capacity`` samples; raises
        ``GridTooLarge``, before anything is allocated, when the evaluator's
        arrays at that capacity would not fit in physical memory."""
        n_cand = self.cands.shape[0]
        shape = self._terms_type.shape(self.kernel, capacity, n_cand, self._axes)
        need = self._bytes_needed(capacity, math.prod(shape))
        have = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        if need > have:
            raise GridTooLarge(
                f"{n_cand} candidates at capacity {capacity} need about {need} bytes; "
                f"this machine has {have} bytes of physical memory"
            )
        return shape

    def _grow(self, capacity):
        """Reallocate the sample arrays and the cross terms for ``capacity``
        samples and copy the filled rows over: the posterior is unchanged and
        nothing is recomputed."""
        shape = self._cross_shape(capacity)
        k = self._k
        X, f, L = np.empty((capacity, self.n)), np.empty(capacity), np.zeros((capacity, capacity))
        X[:k], f[:k], L[:k, :k] = self._X[:k], self._f[:k], self._L[:k, :k]
        cross = np.empty(shape)
        cross[:k] = self._cross[:k]
        self._X, self._f, self._L, self._cross = X, f, L, cross
        self._terms = self._terms_type(self.kernel, self.cands, cross, self._axes)
        self.capacity = capacity

    def _bytes_needed(self, capacity, cross_floats):
        """Bytes of the evaluator's arrays at ``capacity`` samples: the cross
        terms (``cross_floats`` doubles), the Cholesky factor, the samples,
        their values and the mean's weights z, the packed prior blocks (one
        column for a stationary kernel), the packed covariances, the
        posterior mean and the sweep's full-width buffers: the acquisition
        values and, for the dense form, the GEMM output."""
        n_cand, n = self.cands.shape
        width = 1 + n
        packed = width * (width + 1) // 2
        k0_cols = 1 if self.kernel.stationary else n_cand
        rows = packed + width + 1 + (width if self._terms_type is _DenseCross else 0)
        return 8 * (cross_floats + packed * k0_cols + rows * n_cand
                    + capacity * (capacity + n + 2))

    # -- candidate sweep -----------------------------------------------------

    def _blocks(self):
        """The sweep's blocks of candidate rows (see ``_blocks``)."""
        return _blocks(self.cands.shape[0], self._terms.row)

    def _sweep(self, fn):
        """``fn(rows)`` for each block of candidate rows, results in block
        order: on the pool over more than one block, else in this thread."""
        blocks = self._blocks()
        if len(blocks) == 1:
            return [fn(blocks[0])]
        return list(_executor().map(fn, blocks))

    # -- fitting -------------------------------------------------------------

    def fit(self, X, f):
        """Full (re)fit on samples ``X`` (k, n), values ``f``; rebuilds all caches."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        f = np.asarray(f, dtype=float).ravel()
        if not np.isfinite(f).all():
            raise ValueError("sample values must be finite")
        k = X.shape[0]
        if k > self.capacity:
            raise ValueError(f"sample count {k} exceeds evaluator capacity {self.capacity}")
        K = self.kernel.eval_matrix(X, X)
        K = 0.5 * (K + K.T)
        factor = numerics.cholesky(K, self.jitter_schedule)
        self._k = k
        self._jitter = factor.jitter
        self._X[:k] = X
        self._f[:k] = f
        self._L[:k, :k] = factor.lower
        self._refresh_z()
        self._terms.add(0, X, self._sweep)
        self._rebuild_scov()

    def _refresh_z(self):
        """z = L^-1 (f - m), the mean's weights on the rows L^-1 A(x)^T."""
        k = self._k
        self._z = _trtrs(self._L[:k, :k].T, self._f[:k] - self.prior_mean, lower=0, trans=1)

    def _back_solve(self, b):
        """x with L^T x = b for the filled k x k factor. A Fortran-ordered
        copy keeps LAPACK on one (lower, transposed) path at every capacity;
        a full, C-contiguous slice would take another that rounds differently."""
        k = self._k
        return _trtrs(np.asfortranarray(self._L[:k, :k]), b, lower=1, trans=1)

    def _rebuild_scov(self):
        """Rebuild the packed covariances and the mean in ``_CHUNK``-row
        chunks, pipelined (see "Candidate sweep"): chunk c builds its kernel
        rows in buffer c mod W once chunk c - W is done."""
        n_cand = self.cands.shape[0]
        chunks = [slice(start, min(start + _CHUNK, n_cand)) for start in range(0, n_cand, _CHUNK)]
        buffers = np.empty((min(len(chunks), _workers()), min(_CHUNK, n_cand), 1 + self.n, self._k))
        if len(chunks) == 1:
            self._condition(chunks[0], self._kernel_rows(chunks[0], buffers[0]))
            return
        pool, pending = _executor(), deque()
        try:
            for c, block in enumerate(chunks):
                if len(pending) == len(buffers):
                    pending.popleft().result()
                a = self._kernel_rows(block, buffers[c % len(buffers)])
                pending.append(pool.submit(self._condition, block, a))
            while pending:
                pending.popleft().result()
        finally:
            # no chunk may still write once this returns, nor after an error
            wait(pending)

    def _kernel_rows(self, block, out):
        """A(x) of the candidates ``block`` against the samples, (rows, 1 + n, k),
        written into the leading rows of ``out``."""
        k = self._k
        a = out[:block.stop - block.start]
        a[:, 0, :] = self._terms.values(slice(0, k), block).T
        a[:, 1:, :] = self.kernel.grad_tensor(self.cands[block], self._X[:k]).transpose(0, 2, 1)
        return a

    def _condition(self, block, a):
        """The packed covariances and the mean of the candidates ``block``
        from their kernel rows ``a``."""
        k = self._k
        v = solve_triangular(self._L[:k, :k], a.reshape(-1, k).T, lower=True).T.reshape(a.shape)
        for p, (i, j) in enumerate(self._pairs):
            k0 = self._k0p[p, block] if self._k0p.shape[1] > 1 else self._k0p[p, 0]
            self._scov[p, block] = k0 - np.einsum("ak,ak->a", v[:, i, :], v[:, j, :])
        np.einsum("aik,k->ia", v, self._z, out=self._mu[:, block])
        self._mu[0, block] += self.prior_mean

    def append(self, x_new, f_new):
        """Add one observation; falls back to a full refit when the factor degrades."""
        x_new = np.asarray(x_new, dtype=float).ravel()
        if not (np.isfinite(x_new).all() and np.isfinite(f_new)):
            raise ValueError(f"a told point and value must be finite, got {x_new.tolist()}, {f_new}")
        k = self._k
        if k + 1 > self.capacity:
            self._grow(max(1, 2 * self.capacity))
        if k == 0:
            self.fit(x_new[None, :], [f_new])
            return
        k_vec = self.kernel.eval_matrix(x_new[None, :], self._X[:k])[0]
        # a stationary kernel's k(x, x) is the packed prior column's first entry
        if self.kernel.stationary:
            k_self = self._k0p[0, 0]
        else:
            k_self = self.kernel.joint_blocks_batch(x_new[None, :])[0, 0, 0]
        L = self._L[:k, :k]
        l_row = _trtrs(L.T, k_vec, lower=0, trans=1)
        lam2 = k_self + self._jitter - float(l_row @ l_row)
        if lam2 <= 1e-12 * max(k_self, 1.0):
            # near-duplicate sample: refactor everything through the schedule
            X = np.vstack([self._X[:k], x_new])
            f = np.append(self._f[:k], f_new)
            self.fit(X, f)
            return
        lam = np.sqrt(lam2)
        c = self._back_solve(l_row)
        # extend the sample set first so the downdate sees the new cross terms
        self._terms.add(k, x_new[None, :], self._sweep)
        self._X[k] = x_new
        self._f[k] = f_new
        self._L[k, :k] = l_row
        self._L[k, k] = lam
        self._k = k + 1
        self._refresh_z()
        raw = self._terms.dot(self._X[:k], c)
        self._sweep(lambda rows: self._downdate(rows, raw, x_new, lam, self._z[k]))

    def _downdate(self, rows, raw, x_new, lam, z_new):
        """Finish the GEMM A(x) c for candidate ``rows``, whose raw rows
        ``raw(rows)`` gives, into v(x) of the newest sample ``x_new``: add
        v z_new to the posterior mean and downdate the packed covariances
        by v v^T."""
        u = self.kernel.finish_dot(raw(rows), self.cands[rows])
        v = self._terms.column(self._k - 1, x_new, rows)
        mu, scov = self._mu[:, rows], self._scov[:, rows]
        for i in range(1 + self.n):
            v[i] -= u[i]
            v[i] /= lam
            mu[i] += v[i] * z_new
        for p, (i, j) in enumerate(self._pairs):
            scov[p] -= v[i] * v[j]

    # -- posterior statistics --------------------------------------------------

    @property
    def n_samples(self) -> int:
        return self._k

    @property
    def jitter(self) -> float:
        return self._jitter

    def gradient_mean_at(self, index: int) -> np.ndarray:
        """Posterior-mean gradient at candidate ``index``, shape (n,): the
        optimum flag's input. A view of the posterior mean, kept as a method
        because ``bench/tracer.py`` wraps it by name and its run workloads
        require that layer."""
        return self._mu[1:, index]

    def state(self) -> GPState:
        """Snapshot of the current fit as an immutable GPState."""
        k = self._k
        return GPState(
            inputs=self._X[:k].copy(),
            values=self._f[:k].copy(),
            prior_mean=self.prior_mean,
            kernel=self.kernel,
            factor=CholeskyFactor(lower=self._L[:k, :k].copy(), jitter=self._jitter),
            alpha_vec=self._back_solve(self._z),
        )

    def posterior_mean(self) -> np.ndarray:
        """Joint posterior mean per candidate, shape (N, 1 + n): a view of
        the entry-major mean."""
        return self._mu.T

    def joint_cov(self, index: int) -> np.ndarray:
        """Unpacked joint covariance of one candidate (testing hook)."""
        m = np.empty((1 + self.n, 1 + self.n))
        for p, (i, j) in enumerate(self._pairs):
            m[i, j] = m[j, i] = self._scov[p, index]
        return m

    def acquisition_values(self, cfg, mask=None) -> np.ndarray:
        """Acquisition of the configured family at every candidate. With a
        feasibility ``mask``, -inf where it is False, and for a family with
        a band over more than one block, -inf also wherever the candidate
        cannot reach the feasible maximum (see "Candidate sweep"): the
        argmax and the value there are those of the full sweep."""
        n_cand = self.cands.shape[0]
        out = np.empty(n_cand)
        if mask is None or not cfg.uses_band or len(self._blocks()) == 1:
            def acquire(rows):
                out[rows] = acquisition.values(cfg, self._mu[:, rows], self._scov[:, rows])

            self._sweep(acquire)
            if mask is not None:
                out[~mask] = -np.inf
            return out

        def bound(rows):
            # an upper bound on each candidate's value; NaN may hide a NaN value
            mu, scov, ub = self._mu[:, rows], self._scov[:, rows], out[rows]
            exact = np.empty(ub.shape, dtype=bool)
            np.multiply(acquisition.improvement_bound(cfg, mu, scov, exact),
                        acquisition.band_bound(mu, scov, cfg.epsilon), out=ub)
            ub[np.isnan(ub)] = np.inf
            ub[~mask[rows]] = -np.inf
            # the block's top bound, and its top where the improvement factor
            # is exact: a bound that tight often leads to a higher threshold
            return rows.start + np.array([np.argmax(ub), np.argmax(np.where(exact, ub, -np.inf))])

        tops = np.unique(np.concatenate(self._sweep(bound)))
        tops = tops[out[tops] > -np.inf]
        top_values = acquisition.values(cfg, self._mu[:, tops], self._scov[:, tops])
        # a NaN value has an infinite bound and survives any threshold
        threshold = max(top_values[~np.isnan(top_values)], default=np.inf)

        def acquire_survivors(rows):
            keep = rows.start + np.flatnonzero(out[rows] >= threshold)
            out[rows] = -np.inf
            acquisition.gather(lambda m, p: acquisition.values(cfg, m, p),
                               out, keep, self._mu, self._scov)

        self._sweep(acquire_survivors)
        return out
