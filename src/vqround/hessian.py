"""Curvature-aware rounding initialization.

Builds the calibration Hessian ``2 X X^T`` from layer inputs and takes
the upper Cholesky factor of its damped inverse: one Cholesky of the
damped matrix in reversed order, ``Hd = R R^T`` with R upper
triangular, then one triangular inverse, ``R^{-1}``, both in place in
one float64 buffer, of which the factor is a reversed view. A
column-sequential quantization sweep (GPTQ's lazy-batch sweep) then
pushes each column's quantization error into the not-yet-processed
columns through that factor. The curvature-normalized residual of every
column seeds the soft rounding matrix. ``curvature_init`` runs the whole
chain for one layer.

On large layers the Hessian product and the sweep's trailing updates
use both cores through the package's thread pool, with the bytes of the
single-product path; ``recon_err``'s two halves do too, with the bytes
of one core.

The init holds little beyond its outputs, H and W. ``curvature_init``
casts the calibration to float64 before the Hessian products, so a
float32 calibration passed straight in is freed there, not kept beside
its copy. The sweep writes the dequantized weights into its working
copy of W and keeps the integer base in float32, the dtype of its file.
It reads the factor as one block row per block, each in an anonymous
mapping of its own, and unmaps each once that block's trailing update
is done: ``curvature_init`` holds no n x n factor while it sweeps, and
the OS gets the block rows' pages back as the sweep passes, where
freed heap memory would stay resident. ``recon_err`` takes ``E @ H``
by chunks of rows.
"""

from __future__ import annotations

import mmap
from concurrent.futures import wait
from dataclasses import dataclass
from functools import partial

import numpy as np
import scipy.linalg.lapack

from . import parallel
from .errors import DomainError, EmptyCalibration, NotPositiveDefinite, OutOfRange, ShapeMismatch
from .quantize import QuantParams, _check_rows, round_half_away
from .tensor_io import _all_finite, _tiled_copy

# Columns per block of the sweep. Only speed depends on it; the outputs
# do not, beyond float accumulation.
_BLOCKSIZE = 128
# The Hessian product and the sweep's updates split into pieces for the
# two cores from _SPLIT_WORK multiply-adds on, and only when every
# dimension is a multiple of _SPLIT_ALIGN: on every such shape tried,
# OpenBLAS's pieces reproduced the single product bit for bit, while on
# others (n = 517, 700, 2049; N = 1031) its edge kernels rounded some
# entries apart. The pieces depend on the shape alone, never on the
# core count, so one usable core runs the same pieces inline and gets
# the same bytes. recon_err takes the same chunks on either side of the
# gate, so its gate is the work alone.
_SPLIT_WORK = 2**27
_SPLIT_ALIGN = 128
# The sweep looks ahead from _LOOKAHEAD_ROWS rows and _LOOKAHEAD_COLUMNS
# columns on. Below 512 rows numpy's elementwise loops keep the GIL
# (they release it above 500 elements), so the column loop starves the
# pool thread; below 768 columns too few blocks have a trailing update.
_LOOKAHEAD_ROWS = 512
_LOOKAHEAD_COLUMNS = 768
# recon_err takes E, E @ H and their product by chunks of _CHUNK_ROWS
# rows, into buffers of that many rows: 2 MB each at n = 2048.
_CHUNK_ROWS = 128


def _splits(work: int, *dims: int) -> bool:
    """Whether a product of ``work`` multiply-adds over ``dims`` splits."""
    return work >= _SPLIT_WORK and all(d % _SPLIT_ALIGN == 0 for d in dims)


@dataclass
class InitResult:
    """The sweep's outputs, m x n transposed views. ``w_q`` and
    ``h_tilde`` are float64. ``base`` is float32, the dtype of its file:
    it equals the sweep's float64 floor wherever ``|base| < 2^24``, and
    beyond that the floor rounded to float32, the value its file holds."""

    w_q: np.ndarray  # dequantized, error-compensated weights
    base: np.ndarray  # integer floor matrix
    h_tilde: np.ndarray  # soft rounding seed in [0, 1]


def _check_percdamp(percdamp: float) -> None:
    if not 0 < percdamp < np.inf:
        raise DomainError(f"percdamp must be positive and finite, got {percdamp}")


def accumulate_hessian(X) -> np.ndarray:
    """``2 X X^T`` over checked calibration columns, in float64.

    Above the split gate the product is taken in 2x2 blocks over the two
    cores, every block written into H in place.
    """
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch(f"expected 2-d calibration, got shape {X.shape}")
    if X.shape[1] < 1:
        raise EmptyCalibration("calibration must contain at least one column")
    n, N = X.shape
    H = np.empty((n, n))
    if not _splits(n * n * N, n, N):
        np.matmul(X, X.T, out=H)
    else:
        # 2x2 blocks: each task takes one diagonal block (numpy's syrk
        # path) and half of the upper off-diagonal block; the lower one
        # is its mirror, as numpy's syrk mirrors its upper triangle.
        h = n // 2
        q = h + (n - h) // 2

        def task(r0, r1, c0, c1):
            np.matmul(X[r0:r1], X[r0:r1].T, out=H[r0:r1, r0:r1])
            np.matmul(X[:h], X[c0:c1].T, out=H[:h, c0:c1])

        parallel.run([partial(task, 0, h, h, q), partial(task, h, n, q, n)])
        H[h:, :h] = H[:h, h:].T
        # A pool thread can hold its task for a moment after it returns;
        # emptying the closure's cell keeps the calibration from living
        # on through it.
        del X
    with np.errstate(over="ignore"):
        H *= 2.0
    return H


def damped_inverse_factor(Hmat, percdamp: float = 0.01) -> np.ndarray:
    """Upper Cholesky factor of ``(H + damp*I)^{-1}``.

    With P the order reversal, the lower Cholesky factor L of
    ``P Hd P`` gives ``Hd = R R^T`` with ``R = P L P`` upper triangular,
    so ``Hd^{-1} = R^{-T} R^{-1}`` and the factor is the triangular
    inverse ``R^{-1} = P L^{-1} P``: one ``dpotrf`` and one ``dtrtri``.
    The factor is returned as the reversed view of the buffer LAPACK
    factored and inverted in place, with no copy: it is neither row- nor
    column-major. A non-finite or empty matrix, or failure after
    damping, signals degenerate calibration and raises instead of
    silently re-damping; so does a damping term that overflows.
    """
    _check_percdamp(percdamp)
    H = np.asarray(Hmat)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {H.shape}")
    if not H.size:
        raise ShapeMismatch("expected a matrix with at least one row, got shape (0, 0)")
    # One reversed float64 copy, from the input in its own dtype.
    rev = np.array(H[::-1, ::-1], dtype=np.float64, order="C")
    if not _all_finite(rev):
        raise NotPositiveDefinite("matrix has non-finite entries")
    n = H.shape[0]
    damp = percdamp * float(np.mean(np.diagonal(H).astype(np.float64)))
    if not np.isfinite(damp):
        raise OutOfRange(f"damping {percdamp} * mean(diag) is not finite")
    rev.flat[:: n + 1] += damp
    # rev is symmetric, so its Fortran-ordered view is the same matrix and
    # LAPACK can factor and invert it in place.
    chol, info = scipy.linalg.lapack.dpotrf(rev.T, lower=1, clean=1, overwrite_a=1)
    if info == 0:
        chol, info = scipy.linalg.lapack.dtrtri(chol, lower=1, overwrite_c=1)
    if info != 0:
        raise NotPositiveDefinite(
            "matrix not positive definite after damping; calibration too degenerate"
        )
    # LAPACK factored and inverted rev in place; reversed, its
    # column-major buffer is the factor.
    return chol[::-1, ::-1]


def _float32_factor(H, percdamp: float) -> np.ndarray:
    """The factor of H rounded to float32, which must be finite. The
    float32 copy is freed on return."""
    with np.errstate(over="ignore"):
        H32 = H.astype(np.float32)
    if not _all_finite(H32):
        raise OutOfRange("calibration Hessian 2 X X^T is not finite in float32; "
                         "calibration values too large")
    return damped_inverse_factor(H32, percdamp)


def curvature_init(W, X, p: QuantParams, percdamp: float = 0.01) -> tuple[InitResult, float]:
    """The whole curvature init of one layer: Hessian, factor, sweep.

    Returns the sweep's result and ``recon_err = ||(W - w_q) X||_F``,
    taken in the Hessian form ``sqrt(<E H, E> / 2)``. The calibration is
    cast to float64 before the Hessian products and released once the
    Hessian exists. A caller that passes it without keeping a reference
    of its own thus frees a float32 calibration before the products and
    the float64 one after them. The factor is taken from the Hessian
    rounded to float32, which must be finite. It goes to the sweep with
    no reference kept here, so the sweep frees it once it has copied its
    block rows, and each block row is unmapped as the sweep passes it.
    ``<E H, E>`` equals ``np.sum((E @ H) * E)`` up to the order of its
    additions, with the same bytes on one core and on two, and must be
    finite.
    """
    _check_percdamp(percdamp)
    if np.shape(X)[:1] != np.shape(W)[1:]:
        raise ShapeMismatch(f"calibration {np.shape(X)} does not feed weights {np.shape(W)}")
    if np.shape(W)[1:] == (0,):
        raise ShapeMismatch(f"weights of shape {np.shape(W)} have no columns")
    X = np.asarray(X, dtype=np.float64)
    H = accumulate_hessian(X)
    del X
    result = hessian_aware_init(W, p, _float32_factor(H, percdamp))
    total = _error_form(np.asarray(W), result.w_q, H)
    if not np.isfinite(total):
        raise OutOfRange("<E H, E> of the init's error is not finite; weights too large")
    # Rounding can push <E H, E> a hair below zero when E X vanishes.
    err = float(np.sqrt(max(total / 2, 0.0)))
    return result, err


def _error_form(W, w_q, H) -> float:
    """``<E H, E>`` for ``E = W - w_q``, by chunks of ``_CHUNK_ROWS`` rows.

    The chunks fall into two halves at the middle chunk boundary. Each
    half takes E, ``E @ H`` and their product into buffers of its own
    and adds the chunk sums in row order; the result is the first half's
    sum plus the second's. From ``_SPLIT_WORK`` multiply-adds on the
    halves run one per core. The chunks depend on the shape alone, so
    the bytes do not. w_q is a transposed view; the tiles read it, and W
    in its own dtype, without a float64 copy of W.
    """
    m, n = W.shape
    mid = min(m, -(-m // _CHUNK_ROWS) // 2 * _CHUNK_ROWS)
    E = np.empty((2, min(_CHUNK_ROWS, m), n))
    EH = np.empty_like(E)
    sums = [0.0, 0.0]

    def half(t, r0, r1):
        # The caller refuses a sum that is not finite; numpy's error
        # state is per thread, so each half sets its own.
        with np.errstate(over="ignore", invalid="ignore"):
            for r in range(r0, r1, _CHUNK_ROWS):
                r2 = min(r + _CHUNK_ROWS, r1)
                e = _tiled_copy(E[t, :r2 - r], W[r:r2], minus=w_q[r:r2])
                eh = np.matmul(e, H, out=EH[t, :r2 - r])
                # In place, as numpy's temporary elision does for (E @ H) * E.
                sums[t] += np.sum(np.multiply(eh, e, out=eh))

    halves = [partial(half, 0, 0, mid), partial(half, 1, mid, m)]
    if m * n * n >= _SPLIT_WORK:
        parallel.run(halves)
    else:
        for task in halves:
            task()
    return sums[0] + sums[1]


def hessian_aware_init(W, p: QuantParams, upper) -> InitResult:
    """Column-sequential quantization with error compensation.

    Columns are processed left to right in blocks. For each column the
    round-to-nearest error, normalized by the local curvature
    ``d = upper[j, j]``, is subtracted from the remaining columns via
    the factor's row. The compensated column also seeds the rounding
    matrix: base = floor(w/s) and h_tilde = clip(frac - err/s, 0, 1),
    with the error brought onto the integer grid by the per-row scale.

    The sweep reads the factor only as its block rows from the diagonal
    on, ``upper[i1:i2, i1:]``. It copies them before the first column,
    and refuses a factor with an entry that is not finite or a diagonal
    entry that is not positive (``NotPositiveDefinite``). A factor passed
    straight in, with no reference kept by the caller, is freed then.
    Each block row lives in an anonymous mapping of its own and is
    unmapped once that block's trailing update is done, so its pages go
    back to the OS during the sweep.

    The sweep runs on a transposed copy of W, so each column is a
    contiguous row. Within a block a column catches up on the earlier
    columns' errors with one product just before it is quantized; the
    later blocks take the whole block's errors in one product after it.
    A block's grid values wait in a buffer until its base and h_tilde
    are taken, then replace its rows of the copy, which becomes w_q.
    The floor and the fraction are taken in float64; base keeps the
    floor in float32, so it takes half the memory of a float64 base.
    The outputs are transposed views. The result is independent of the
    block size up to float accumulation.

    From ``_LOOKAHEAD_ROWS`` rows and ``_LOOKAHEAD_COLUMNS`` columns on
    (both multiples of ``_SPLIT_ALIGN``) that product looks ahead: the
    next block's rows take it at once, and the rows after them take it
    128 at a time on a pool thread while the next block sweeps. The next
    trailing update waits for it, so every row takes the blocks' errors
    in the same order as inline.
    """
    W = np.asarray(W)
    _check_rows(W, p)
    m, n = W.shape
    U = np.asarray(upper, dtype=np.float64)
    if U.shape != (n, n):
        raise ShapeMismatch(f"factor shape {U.shape} does not match {n} columns")
    panels = _block_rows(U)
    del upper, U

    s = p.scale
    z = p.zero.astype(np.float64)
    q_max = float(p.q_max)

    Wt = _tiled_copy(np.empty((n, m)), W.T)
    base = np.empty((n, m), dtype=np.float32)
    h_tilde = np.empty((n, m))
    grid = np.empty((min(_BLOCKSIZE, n), m))

    lookahead = m >= _LOOKAHEAD_ROWS and n >= _LOOKAHEAD_COLUMNS and _splits(m * n * n, m, n)
    if lookahead:
        # The pool thread holds it from the submit to the next wait, when
        # the calling thread does not use it.
        buf = np.empty((_BLOCKSIZE, m))
    two = parallel.workers() > 1
    pending = None
    try:
        for b, i1 in enumerate(range(0, n, _BLOCKSIZE)):
            i2 = min(i1 + _BLOCKSIZE, n)
            k = i2 - i1
            # The block row P holds the factor from column i1 on; the
            # list lets it go once P moves on and no update reads it.
            P, panels[b] = panels[b], None
            W1 = Wt[i1:i2]
            # Row j of U1t holds column j of the block's factor, contiguous.
            U1t = P[:, :k].T.copy()
            err = np.empty_like(W1)

            for j in range(k):
                w = W1[j]
                if j:
                    w -= U1t[j, :j] @ err[:j]
                qi = np.clip(round_half_away(w / s) + z, 0.0, q_max)
                q = s * (qi - z)
                grid[j] = q
                err[j] = (w - q) / U1t[j, j]

            # W1's rows become the grid values, so the seed is taken in
            # them. h_tilde's rows hold the float64 floor, which base
            # takes in float32, then err / s until the clip.
            u = np.divide(W1, s, out=W1)
            h1 = np.floor(u, out=h_tilde[i1:i2])
            base[i1:i2] = h1
            u -= h1
            u -= np.divide(err, s, out=h1)
            np.clip(u, 0.0, 1.0, out=h1)
            W1[...] = grid[:k]

            if i2 == n:
                break
            if pending is not None:
                # The previous block's update is done: its block row goes.
                pending.result()
                pending = None
            if not lookahead:
                Wt[i2:] -= P[:, k:].T @ err
                continue
            # The next block's rows now, the rest on a pool thread while
            # the next block sweeps; its rows are disjoint from those.
            i3 = min(i2 + _BLOCKSIZE, n)
            _subtract_product(Wt[i2:i3], P[:, k:i3 - i1].T, err, buf)
            if i3 < n:
                args = (Wt[i3:], P[:, i3 - i1:].T, err, buf)
                if two:
                    pending = parallel.submit(_subtract_product, *args)
                else:
                    _subtract_product(*args)
                del args
    finally:
        # Nothing returns or raises while the pool still writes into Wt.
        if pending is not None:
            wait([pending])

    return InitResult(w_q=Wt.T, base=base.T, h_tilde=h_tilde.T)


def _block_rows(U) -> list:
    """The sweep's block rows ``U[i1:i2, i1:]``, copied row-major, each
    checked as it is copied: finite, with a positive diagonal.

    Each block row is an array over an anonymous mapping of its own
    (:func:`_mapped`), which is unmapped once nothing views it. From the
    heap, a dropped block row would stay resident: glibc serves blocks
    below its mmap threshold there, and the frees of larger arrays
    before the sweep raise that threshold above every block row.
    """
    n = len(U)
    panels = []
    for i1 in range(0, n, _BLOCKSIZE):
        i2 = min(i1 + _BLOCKSIZE, n)
        P = _tiled_copy(_mapped(i2 - i1, n - i1), U[i1:i2, i1:])
        if not (_all_finite(P) and P[:, :i2 - i1].diagonal().min() > 0.0):
            raise NotPositiveDefinite(
                "factor must be finite with a positive diagonal; got a non-finite "
                f"entry or a diagonal entry <= 0 in rows {i1}:{i2}"
            )
        panels.append(P)
    return panels


def _mapped(rows: int, cols: int) -> np.ndarray:
    """A zero-filled row-major float64 array in an anonymous mapping of
    its own, which is unmapped when its last view is dropped."""
    return np.frombuffer(mmap.mmap(-1, rows * cols * 8)).reshape(rows, cols)


def _subtract_product(target, A, B, out) -> None:
    """``target -= A @ B`` by chunks of ``len(out)`` rows, each chunk's
    product written into ``out``, so that no temporary is allocated."""
    step = len(out)
    for r in range(0, len(target), step):
        rows = slice(r, r + step)
        t = target[rows]
        np.subtract(t, np.matmul(A[rows], B, out=out[:len(t)]), out=t)


def residual_init(W, p: QuantParams) -> np.ndarray:
    """Plain floor-residual rounding seed: clip(W/s - floor(W/s), 0, 1)."""
    W = np.asarray(W, dtype=np.float64)
    _check_rows(W, p)
    u = W / p.scale[:, None]
    return np.clip(u - np.floor(u), 0.0, 1.0)
