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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg.lapack

from .errors import DomainError, EmptyCalibration, NotPositiveDefinite, OutOfRange, ShapeMismatch
from .quantize import QuantParams, _check_rows, round_half_away

# Columns per block of the sweep. Only speed depends on it; the outputs
# do not, beyond float accumulation.
_BLOCKSIZE = 128


@dataclass
class InitResult:
    w_q: np.ndarray  # dequantized, error-compensated weights
    base: np.ndarray  # integer floor matrix
    h_tilde: np.ndarray  # soft rounding seed in [0, 1]


def _check_percdamp(percdamp: float) -> None:
    if not 0 < percdamp < np.inf:
        raise DomainError(f"percdamp must be positive and finite, got {percdamp}")


def accumulate_hessian(X) -> np.ndarray:
    """``2 X X^T`` over checked calibration columns, in float64."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch(f"expected 2-d calibration, got shape {X.shape}")
    if X.shape[1] < 1:
        raise EmptyCalibration("calibration must contain at least one column")
    H = X @ X.T
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
    H = np.asarray(Hmat, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {H.shape}")
    if not np.isfinite(H).all():
        raise NotPositiveDefinite("matrix has non-finite entries")
    n = H.shape[0]
    damp = percdamp * float(np.mean(np.diag(H)))
    if not np.isfinite(damp):
        raise OutOfRange(f"damping {percdamp} * mean(diag) is not finite")
    rev = H[::-1, ::-1].copy()
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
    return np.ascontiguousarray(chol[::-1, ::-1])


def curvature_init(W, X, p: QuantParams, percdamp: float = 0.01) -> tuple[InitResult, float]:
    """The whole curvature init of one layer: Hessian, factor, sweep.

    Returns the sweep's result and ``recon_err = ||(W - w_q) X||_F``,
    taken in the Hessian form ``sqrt(<E H, E> / 2)``. The calibration is
    released as soon as the Hessian exists, so a caller that passes it
    without keeping a reference of its own frees it there. The factor
    is taken from the Hessian rounded to float32, which must be finite.
    """
    _check_percdamp(percdamp)
    if np.shape(X)[:1] != np.shape(W)[1:]:
        raise ShapeMismatch(f"calibration {np.shape(X)} does not feed weights {np.shape(W)}")
    H = accumulate_hessian(X)
    del X
    with np.errstate(over="ignore"):
        H32 = H.astype(np.float32)
    if not np.isfinite(H32).all():
        raise OutOfRange("calibration Hessian 2 X X^T is not finite in float32; "
                         "calibration values too large")
    upper = damped_inverse_factor(H32, percdamp)
    del H32
    result = hessian_aware_init(W, p, upper)
    # Rounding can push <E H, E> a hair below zero when E X vanishes.
    E = np.asarray(W, dtype=np.float64) - result.w_q
    err = float(np.sqrt(max(np.sum((E @ H) * E) / 2, 0.0)))
    return result, err


def hessian_aware_init(W, p: QuantParams, upper) -> InitResult:
    """Column-sequential quantization with error compensation.

    Columns are processed left to right in blocks. For each column the
    round-to-nearest error, normalized by the local curvature
    ``d = upper[j, j]``, is subtracted from the remaining columns via
    the factor's row. The compensated column also seeds the rounding
    matrix: base = floor(w/s) and h_tilde = clip(frac - err/s, 0, 1),
    with the error brought onto the integer grid by the per-row scale.

    The sweep runs on a transposed copy of W, so each column is a
    contiguous row. Within a block a column catches up on the earlier
    columns' errors with one product just before it is quantized; the
    later blocks take the whole block's errors in one product after it.
    The outputs are transposed views. The result is independent of the
    block size up to float accumulation.
    """
    W = np.asarray(W)
    _check_rows(W, p)
    Wt = np.array(W.T, dtype=np.float64, order="C")
    n, m = Wt.shape
    U = np.asarray(upper, dtype=np.float64)
    if U.shape != (n, n):
        raise ShapeMismatch(f"factor shape {U.shape} does not match {n} columns")

    s = p.scale
    z = p.zero.astype(np.float64)
    q_max = float(p.q_max)

    w_q = np.empty((n, m))
    base = np.empty((n, m))
    h_tilde = np.empty((n, m))

    for i1 in range(0, n, _BLOCKSIZE):
        i2 = min(i1 + _BLOCKSIZE, n)
        W1 = Wt[i1:i2]
        # Row j of U1t holds column j of the block's factor, contiguous.
        U1t = U[i1:i2, i1:i2].T.copy()
        err = np.empty_like(W1)

        for j in range(i2 - i1):
            w = W1[j]
            if j:
                w -= U1t[j, :j] @ err[:j]
            qi = np.clip(round_half_away(w / s) + z, 0.0, q_max)
            q = s * (qi - z)
            w_q[i1 + j] = q
            err[j] = (w - q) / U1t[j, j]

        u = W1 / s
        b = np.floor(u, out=base[i1:i2])
        u -= b
        u -= err / s
        np.clip(u, 0.0, 1.0, out=h_tilde[i1:i2])

        if i2 < n:
            Wt[i2:] -= U[i1:i2, i2:].T @ err

    return InitResult(w_q=w_q.T, base=base.T, h_tilde=h_tilde.T)


def residual_init(W, p: QuantParams) -> np.ndarray:
    """Plain floor-residual rounding seed: clip(W/s - floor(W/s), 0, 1)."""
    W = np.asarray(W, dtype=np.float64)
    _check_rows(W, p)
    u = W / p.scale[:, None]
    return np.clip(u - np.floor(u), 0.0, 1.0)
