"""Curvature-aware rounding initialization.

Builds the calibration Hessian ``2 X X^T`` from layer inputs and takes
the upper Cholesky factor of its damped inverse: one Cholesky of the
damped matrix in reversed order, ``Hd = R R^T`` with R upper
triangular, then one triangular inverse, ``R^{-1}``. A
column-sequential quantization sweep (GPTQ's lazy-batch sweep) then
pushes each column's quantization error into the not-yet-processed
columns through that factor. The curvature-normalized residual of every
column seeds the soft rounding matrix. ``curvature_init`` runs the whole
chain for one layer.

On large layers the Hessian product, the sweep's trailing updates and
``recon_err``'s ``E @ H`` use both cores through the package's thread
pool, with the bytes of the single-product path.

The init holds little beyond its outputs, H and W. The sweep writes the
dequantized weights into its working copy of W. It reads the factor as
one block row per block, and frees each once that block's trailing
update is done, so ``curvature_init`` holds no n x n factor while it
sweeps. ``recon_err`` takes ``E @ H`` by chunks of rows.
"""

from __future__ import annotations

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
# A product splits into pieces for the two cores from _SPLIT_WORK
# multiply-adds on, and only when every dimension is a multiple of
# _SPLIT_ALIGN: on every such shape tried, OpenBLAS's pieces reproduced
# the single product bit for bit, while on others (n = 517, 700, 2049;
# N = 1031) its edge kernels rounded some entries apart. The pieces
# depend on the shape alone, never on the core count, so one usable
# core runs the same pieces inline and gets the same bytes.
_SPLIT_WORK = 2**27
_SPLIT_ALIGN = 128
# The sweep looks ahead from _LOOKAHEAD_ROWS rows and _LOOKAHEAD_COLUMNS
# columns on. Below 512 rows numpy's elementwise loops keep the GIL
# (they release it above 500 elements), so the column loop starves the
# pool thread; below 768 columns too few blocks have a trailing update.
_LOOKAHEAD_ROWS = 512
_LOOKAHEAD_COLUMNS = 768
# Above the split gate recon_err takes E, E @ H and their product by
# pieces of at most _CHUNK_ROWS rows where the sum allows (_sum_tree),
# into buffers of that many rows: 2 MB each at n = 2048.
_CHUNK_ROWS = 128
# numpy's pairwise sum adds ranges of up to _PAIRWISE_BLOCK entries in
# one unrolled loop and halves longer ones.
_PAIRWISE_BLOCK = 128


def _splits(work: int, *dims: int) -> bool:
    """Whether a product of ``work`` multiply-adds over ``dims`` splits."""
    return work >= _SPLIT_WORK and all(d % _SPLIT_ALIGN == 0 for d in dims)


@dataclass
class InitResult:
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
    A non-finite matrix, or failure after damping, signals degenerate
    calibration and raises instead of silently re-damping; so does a
    damping term that overflows.
    """
    _check_percdamp(percdamp)
    H = np.asarray(Hmat)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {H.shape}")
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
    # The factor reversed is a column-major view; tiles copy it row-major.
    return _tiled_copy(np.empty((n, n)), chol[::-1, ::-1])


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
    released as soon as the Hessian exists, so a caller that passes it
    without keeping a reference of its own frees it there. The factor
    is taken from the Hessian rounded to float32, which must be finite.
    It goes to the sweep with no reference kept here, so the sweep frees
    it once it has copied its block rows. Above the split gate
    ``<E H, E>`` is taken by chunks of rows, in two halves, one per
    core, and summed in numpy's pairwise order, so it equals
    ``np.sum((E @ H) * E)`` byte for byte. It must be finite.
    """
    _check_percdamp(percdamp)
    if np.shape(X)[:1] != np.shape(W)[1:]:
        raise ShapeMismatch(f"calibration {np.shape(X)} does not feed weights {np.shape(W)}")
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
    """``np.sum((E @ H) * E)`` for ``E = W - w_q``, byte for byte.

    Below the split gate one product over all rows. Above it the two
    halves of numpy's pairwise sum run one per core, each by the pieces
    of :func:`_sum_tree`. A piece takes E, ``E @ H`` and their product
    into buffers the calling thread allocates, and its sum is numpy's
    over those rows. w_q is a transposed view; the tiles read it, and W
    in its own dtype, without a float64 copy of W.
    """
    m, n = W.shape
    trees = _sum_halves(m, n) if _splits(m * n * n, m, n) else [(0, m)]
    rows = max(r1 - r0 for tree in trees for r0, r1 in _leaves(tree))
    E = np.empty((len(trees), rows, n))
    EH = np.empty_like(E)
    sums = [0.0] * len(trees)

    def task(t):
        def piece(r0, r1):
            e = _tiled_copy(E[t, :r1 - r0], W[r0:r1], minus=w_q[r0:r1])
            eh = np.matmul(e, H, out=EH[t, :r1 - r0])
            # In place, as numpy's temporary elision does for (E @ H) * E.
            return np.sum(np.multiply(eh, e, out=eh))

        # The caller refuses a sum that is not finite; numpy's error
        # state is per thread, so each task sets its own.
        with np.errstate(over="ignore", invalid="ignore"):
            sums[t] = _tree_sum(trees[t], piece)

    parallel.run([partial(task, t) for t in range(len(trees))])
    return sums[0] if len(sums) == 1 else sums[0] + sums[1]


def _split_row(r0: int, r1: int, n: int):
    """Where numpy's pairwise sum halves rows r0:r1 of a row-major array
    of n columns, or None where that is not between two rows.

    The sum splits a range of more than ``_PAIRWISE_BLOCK`` entries at
    half of them, rounded down to a multiple of 8. None too where a side
    would keep one row: a one-row product with H is a matrix-vector
    product, whose bytes differ from a row of the matrix product.
    """
    size = (r1 - r0) * n
    half = size // 2 - size // 2 % 8
    if size <= _PAIRWISE_BLOCK:
        return None
    mid, within = divmod(half, n)
    return r0 + mid if not within and mid >= 2 else None


def _sum_tree(r0: int, r1: int, n: int):
    """numpy's pairwise-sum tree over rows r0:r1, cut at row boundaries:
    a leaf ``(r0, r1)`` that sums whole, or a pair of subtrees whose
    sums add. Ranges of more than ``_CHUNK_ROWS`` rows split where
    :func:`_split_row` allows; any other range is a leaf."""
    mid = _split_row(r0, r1, n) if r1 - r0 > _CHUNK_ROWS else None
    if mid is None:
        return (r0, r1)
    return (_sum_tree(r0, mid, n), _sum_tree(mid, r1, n))


def _sum_halves(m: int, n: int) -> list:
    """The two subtrees of the sum over an m x n row-major array, one per
    task: its pairwise halves, or the whole and an empty range where the
    top split is not between two rows."""
    mid = _split_row(0, m, n)
    mid = m if mid is None else mid
    return [_sum_tree(0, mid, n), _sum_tree(mid, m, n)]


def _leaves(tree) -> list:
    if isinstance(tree[0], tuple):
        return _leaves(tree[0]) + _leaves(tree[1])
    return [tree]


def _tree_sum(tree, piece) -> float:
    """The sum over ``tree`` from ``piece(r0, r1)``, each leaf's sum."""
    if isinstance(tree[0], tuple):
        return _tree_sum(tree[0], piece) + _tree_sum(tree[1], piece)
    return piece(*tree)


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
    straight in, with no reference kept by the caller, is freed then,
    and each block row once that block's trailing update is done.

    The sweep runs on a transposed copy of W, so each column is a
    contiguous row. Within a block a column catches up on the earlier
    columns' errors with one product just before it is quantized; the
    later blocks take the whole block's errors in one product after it.
    A block's grid values wait in a buffer until its base and h_tilde
    are taken, then replace its rows of the copy, which becomes w_q.
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
    base = np.empty((n, m))
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
            # them; err / s waits in h_tilde's rows until the clip.
            u = np.divide(W1, s, out=W1)
            scaled_err = np.divide(err, s, out=h_tilde[i1:i2])
            u -= np.floor(u, out=base[i1:i2])
            u -= scaled_err
            np.clip(u, 0.0, 1.0, out=h_tilde[i1:i2])
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
    checked as it is copied: finite, with a positive diagonal."""
    n = len(U)
    panels = []
    for i1 in range(0, n, _BLOCKSIZE):
        i2 = min(i1 + _BLOCKSIZE, n)
        P = _tiled_copy(np.empty((i2 - i1, n - i1)), U[i1:i2, i1:])
        if not (_all_finite(P) and P[:, :i2 - i1].diagonal().min() > 0.0):
            raise NotPositiveDefinite(
                "factor must be finite with a positive diagonal; got a non-finite "
                f"entry or a diagonal entry <= 0 in rows {i1}:{i2}"
            )
        panels.append(P)
    return panels


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
