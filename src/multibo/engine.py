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
GEMM's output (1 + n, N). The optimum flag reads its gradient mean from
that mean (``gradient_mean_at``); alpha = L^-T z is formed only in ``state``.

The cross terms take one of two forms, chosen once from the input:

* a dense cache (``_DenseCross``), (capacity, cross_rows, N):
  ``cross_rows`` rows per sample against every candidate, so the GEMM reads
  each row contiguously;
* per-axis factors (``_GridCross``), when the candidates are a tensor grid
  with axes of lengths m_1, ..., m_n and the kernel is ``separable``: per
  sample, the outer product of its factors over the first n - 1 axes
  (M = N / m_n entries) and its factor over the last axis (m_n entries).
  Each GEMM output row is then one (M x k) @ (k x m_n) product, and a kernel
  value at a candidate is the product of two factor entries. On the
  1,030,301-point 3-D grid that is k x 10,302 doubles instead of
  k x 1,030,301. The factors are used only where they are the smaller form,
  so a 1-D grid keeps the dense cache.

Both forms give the same posterior up to rounding: the kernel values and
the order of the GEMM's sums differ in the last bits. The GEMM output is one
buffer per evaluator, reused by every append.

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
candidates are split into equal blocks of at most ``_CHUNK`` (20,000)
candidates, whose temporaries stay in cache, and the blocks are spread over
a module-level thread pool with one worker per CPU the process may run on
(numpy releases the GIL inside its loops). Over the factors, the append
GEMM's 1 + n output rows are independent (M x k) @ (k x m_n) products, and
they are spread over the same pool. Where the candidates fit in one block,
everything runs in the calling thread.

The select step needs only the feasible argmax and the value there, and
the gradient band is narrow, so over more than one block, with a
feasibility mask and a family with a band, ``acquisition_values`` scores
exactly only the candidates that can win, in two passes over the pool. The
first computes, per block, the exact improvement factor f and the bound
max(f, 0) * ``acquisition.band_bound``, -inf where infeasible and +inf
where NaN (a NaN value stays a candidate), keeps it in the output buffer
and returns the block's top bound. The largest exact value at those tops,
taken in one call, is at most the feasible maximum. The second pass
writes the exact value (f recomputed, not kept N wide) wherever the bound
reaches it and -inf everywhere else: no candidate it prunes can reach the
maximum or tie it. The argmax (ties to the lowest index) and the value
there are therefore the full sweep's, whatever the block size; which other
candidates read -inf depends on the block bounds, not on the worker count.
Without a mask, for the vanilla families or within one block, every
candidate is scored, and the mask then sets -inf: over a few hundred
candidates the extra pass costs more than the band it skips.

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

The remaining BLAS calls (the dense cache's GEMM, full width, and the
triangular solves of ``fit`` and ``state``) run on the calling thread. The
new sample's factors are computed on the calling thread too; they are
small. Workers run numpy on slices of the cross terms and the GEMM output
only: of the kernel they call ``fill_cross``, ``finish_dot`` and
``joint_column``, never ``eval_matrix``, ``grad_tensor`` or
``joint_blocks_batch``; over the factors they form kernel values for their
block as products of factor entries. They call ``acquisition.values``,
``improvement_factor`` and ``band_bound``, which use nothing in ``gp`` and,
of ``numerics``, only the private Gaussian tail and density; for n <= 4
they are elementwise numpy too, and for n >= 5 the gradient solve calls
numpy's batched LAPACK in the workers. So anything that wraps the kernel's
matrix methods or the public ``gp`` and ``numerics`` functions sees calls
from one thread. No arithmetic of the per-step sweep depends on the block
bounds, so what ``append`` and ``acquisition_values`` compute does not
depend on the block size or the worker count, but for which candidates
the pruned acquisition sets to -inf. A full rebuild does depend on them:
``fit`` rebuilds the packed covariances and the mean in ``_CHUNK``-row
blocks, and the rounding of each block's triangular solve depends on its
row count, so the covariances and the mean after a fit or refit can move
in the last bits when ``_CHUNK`` changes.
"""

from __future__ import annotations

import ctypes
import math
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np
from scipy.linalg import solve_triangular

from . import acquisition, numerics
from .errors import GridTooLarge
from .gp import GPState
from .numerics import CholeskyFactor

_CHUNK = 20_000  # candidate rows per block in full rebuilds and sweeps

_pool = None
_pool_lock = threading.Lock()


def _executor() -> ThreadPoolExecutor:
    """The sweep's worker pool, one thread per CPU this process may run on."""
    global _pool
    with _pool_lock:
        if _pool is None:
            _pool = ThreadPoolExecutor(len(os.sched_getaffinity(0)),
                                       thread_name_prefix="multibo-sweep")
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


class _DenseCross:
    """Cross terms as a dense cache ``cache`` (capacity, cross_rows, N):
    [j] holds sample j's cache rows against every candidate, row 0 the
    kernel value, so the GEMM reads each row contiguously."""

    def __init__(self, kernel, cands, cache, axes):
        self.kernel, self.cands, self.cache = kernel, cands, cache

    @staticmethod
    def shape(kernel, capacity, n_cand, axes):
        return (capacity, kernel.cross_rows, n_cand)

    def add(self, first, X, sweep):
        def fill(rows):
            for j, x in enumerate(X, first):
                self.kernel.fill_cross(self.cache[j, :, rows], x, self.cands[rows])

        sweep(fill)

    def dot(self, X, w, raw, spread):
        return self.kernel.joint_dot(self.cache[:X.shape[0]], X, w, out=raw)

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
    head[r, i'] tail[r, i]. One GEMM writes each row of the GEMM output as
    an (M, m) block."""

    def __init__(self, kernel, cands, cache, axes):
        self.kernel, self.cands, self.axes = kernel, cands, axes
        m = len(axes[-1])
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

    def dot(self, X, w, raw, spread):
        k = X.shape[0]
        head, tail = self.head[:k].T, self.tail[:k]
        W = self.kernel.dot_weights(X, w)

        def product(c):
            np.matmul(head, W[:, c, None] * tail, out=raw[c].reshape(head.shape[0], -1))

        spread(product, range(W.shape[1]))
        return raw

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
    arrays ``_scov``, ``_mu`` and ``_raw`` are entry-major.
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
        # output of the GEMM A(x) c, reused by every append
        self._raw = np.empty((1 + n, n_cand))
        self._scov = np.empty((len(self._pairs), n_cand))
        # a stationary kernel's blocks are candidate-independent; keep one column
        k0_val, k0_cross, k0_hess = kernel.joint_blocks_batch(
            self.cands[:1] if kernel.stationary else self.cands)
        self._k0p = np.empty((len(self._pairs), len(k0_val)))
        for p, (i, j) in enumerate(self._pairs):
            if i == 0 and j == 0:
                self._k0p[p] = k0_val
            elif i == 0:
                self._k0p[p] = k0_cross[:, j - 1]
            else:
                self._k0p[p] = k0_hess[:, i - 1, j - 1]
        self._mu = np.empty((1 + n, n_cand))

    def _cross_shape(self, capacity):
        """Shape of the cross terms at ``capacity`` samples; raises
        ``GridTooLarge``, before anything is allocated, when the evaluator's
        arrays at that capacity would not fit in physical memory."""
        n_cand = self.cands.shape[0]
        shape = self._terms_type.shape(self.kernel, capacity, n_cand, self._axes)
        need = self._bytes_needed(n_cand, self.n, capacity, math.prod(shape))
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

    @staticmethod
    def _bytes_needed(n_cand, n, capacity, cross_floats):
        """Bytes of the evaluator's arrays: the cross terms (``cross_floats``
        doubles), the Cholesky factor, samples and weights, the packed
        covariances with their prior blocks, the posterior mean and the
        sweep's full-width buffers (the GEMM output and the acquisition
        values)."""
        width = 1 + n
        packed = width * (width + 1) // 2
        rows = 2 * packed + width + (width + 1)
        return 8 * (cross_floats + rows * n_cand + capacity * (capacity + n + 3))

    # -- candidate sweep -----------------------------------------------------

    def _sweep(self, fn):
        """``fn(rows)`` for each block of candidate rows; results in block order."""
        n_cand = self.cands.shape[0]
        count = -(-n_cand // _CHUNK)
        return self._spread(fn, [slice(b * n_cand // count, (b + 1) * n_cand // count)
                                 for b in range(count)])

    def _spread(self, fn, items):
        """``fn(item)`` for each of ``items``, results in order: on the pool
        when the candidates span more than one block, else in this thread."""
        if self.cands.shape[0] <= _CHUNK:
            return [fn(item) for item in items]
        return list(_executor().map(fn, items))

    # -- fitting -------------------------------------------------------------

    def fit(self, X, f):
        """Full (re)fit on samples ``X`` (k, n), values ``f``; rebuilds all caches."""
        X = np.atleast_2d(np.asarray(X, dtype=float))
        f = np.asarray(f, dtype=float).ravel()
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
        self._z = solve_triangular(self._L[:k, :k], self._f[:k] - self.prior_mean, lower=True)

    def _back_solve(self, b):
        """x with L^T x = b for the filled k x k factor. A Fortran-ordered
        copy keeps LAPACK on one (lower, transposed) path at every capacity;
        a full, C-contiguous slice would take another that rounds differently."""
        k = self._k
        return solve_triangular(np.asfortranarray(self._L[:k, :k]), b, lower=True, trans="T")

    def _rebuild_scov(self):
        k = self._k
        L = self._L[:k, :k]
        X = self._X[:k]
        n_cand = self.cands.shape[0]
        for start in range(0, n_cand, _CHUNK):
            stop = min(start + _CHUNK, n_cand)
            block = slice(start, stop)
            a = np.empty((stop - start, 1 + self.n, k))
            a[:, 0, :] = self._terms.values(slice(0, k), block).T
            a[:, 1:, :] = self.kernel.grad_tensor(self.cands[block], X).transpose(0, 2, 1)
            flat = a.reshape(-1, k)
            v = solve_triangular(L, flat.T, lower=True).T.reshape(stop - start, 1 + self.n, k)
            for p, (i, j) in enumerate(self._pairs):
                k0 = self._k0p[p, block] if self._k0p.shape[1] > 1 else self._k0p[p, 0]
                self._scov[p, block] = k0 - np.einsum("ak,ak->a", v[:, i, :], v[:, j, :])
            np.einsum("aik,k->ia", v, self._z, out=self._mu[:, block])
            self._mu[0, block] += self.prior_mean

    def append(self, x_new, f_new):
        """Add one observation; falls back to a full refit when the factor degrades."""
        x_new = np.asarray(x_new, dtype=float).ravel()
        k = self._k
        if k + 1 > self.capacity:
            self._grow(max(1, 2 * self.capacity))
        if k == 0:
            self.fit(x_new[None, :], [f_new])
            return
        k_vec = self.kernel.eval_matrix(x_new[None, :], self._X[:k])[0]
        k_self = self.kernel.eval(x_new, x_new)
        L = self._L[:k, :k]
        l_row = solve_triangular(L, k_vec, lower=True)
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
        raw = self._terms.dot(self._X[:k], c, self._raw, self._spread)
        self._sweep(lambda rows: self._downdate(rows, raw, x_new, lam, self._z[k]))

    def _downdate(self, rows, raw, x_new, lam, z_new):
        """Finish the GEMM A(x) c for candidate ``rows`` into v(x) of the
        newest sample ``x_new``: add v z_new to the posterior mean and
        downdate the packed covariances by v v^T."""
        u = self.kernel.finish_dot(raw[:, rows], self.cands[rows])
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
        if mask is None or not cfg.uses_band or n_cand <= _CHUNK:
            def acquire(rows):
                out[rows] = acquisition.values(cfg, self._mu[:, rows], self._scov[:, rows])

            self._sweep(acquire)
            if mask is not None:
                out[~mask] = -np.inf
            return out

        def bound(rows):
            # an upper bound on each candidate's value; NaN may hide a NaN value
            mu, scov, ub = self._mu[:, rows], self._scov[:, rows], out[rows]
            factor = acquisition.improvement_factor(cfg, mu, scov)
            np.multiply(np.maximum(factor, 0.0, out=factor),
                        acquisition.band_bound(mu, scov, cfg.epsilon), out=ub)
            ub[np.isnan(ub)] = np.inf
            ub[~mask[rows]] = -np.inf
            return rows.start + int(np.argmax(ub))

        tops = np.array([i for i in self._sweep(bound) if out[i] > -np.inf], dtype=int)
        top_values = acquisition.values(cfg, self._mu[:, tops], self._scov[:, tops])
        # a NaN value has an infinite bound and survives any threshold
        threshold = max(top_values[~np.isnan(top_values)], default=np.inf)

        def acquire_survivors(rows):
            keep = rows.start + np.flatnonzero(out[rows] >= threshold)
            out[rows] = -np.inf
            if keep.size:
                out[keep] = acquisition.values(cfg, self._mu[:, keep], self._scov[:, keep])

        self._sweep(acquire_survivors)
        return out
