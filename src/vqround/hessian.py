"""Curvature-aware rounding initialization.

Builds the calibration Hessian ``2 X X^T`` from layer inputs, factors
its damped inverse, and runs a column-sequential quantization sweep
that pushes each column's quantization error into the not-yet-processed
columns through the inverse-Hessian coupling. The curvature-normalized
residual of every column seeds the soft rounding matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .errors import DomainError, EmptyCalibration, NotPositiveDefinite, ShapeMismatch
from .quantize import QuantParams, round_half_away


@dataclass
class HessianConfig:
    percdamp: float = 0.01
    blocksize: int = 128

    def __post_init__(self):
        if not self.percdamp > 0:
            raise DomainError(f"percdamp must be positive, got {self.percdamp}")
        if self.blocksize < 1:
            raise DomainError(f"blocksize must be >= 1, got {self.blocksize}")


@dataclass
class HessianFactor:
    """Upper Cholesky factor of the damped inverse Hessian."""

    upper: np.ndarray  # (n, n), upper triangular, positive diagonal


@dataclass
class InitResult:
    w_q: np.ndarray  # dequantized, error-compensated weights
    base: np.ndarray  # integer floor matrix
    h_tilde: np.ndarray  # soft rounding seed in [0, 1]


def accumulate_hessian(X) -> np.ndarray:
    """2 X X^T over calibration columns, accumulated in f64, cast to f32."""
    X = np.asarray(X, dtype=np.float64)
    if X.ndim != 2:
        raise ShapeMismatch(f"expected 2-d calibration, got shape {X.shape}")
    if X.shape[1] < 1:
        raise EmptyCalibration("calibration must contain at least one column")
    return (2.0 * (X @ X.T)).astype(np.float32)


def damped_inverse_factor(Hmat, cfg: HessianConfig = HessianConfig()) -> HessianFactor:
    """Upper Cholesky factor of ``(H + damp*I)^{-1}``.

    Mirrors the factor-invert-refactor sequence: Cholesky of the damped
    matrix, inverse from that factor, then the upper Cholesky of the
    inverse. Failure after damping signals ill-conditioned calibration
    and raises instead of silently re-damping.
    """
    H = np.asarray(Hmat, dtype=np.float64)
    if H.ndim != 2 or H.shape[0] != H.shape[1]:
        raise ShapeMismatch(f"expected a square matrix, got shape {H.shape}")
    damp = cfg.percdamp * float(np.mean(np.diag(H)))
    Hd = H + damp * np.eye(H.shape[0])
    try:
        chol = scipy.linalg.cho_factor(Hd, lower=True)
        Hinv = scipy.linalg.cho_solve(chol, np.eye(H.shape[0]))
        upper = scipy.linalg.cholesky(Hinv, lower=False)
    except scipy.linalg.LinAlgError as exc:
        raise NotPositiveDefinite(
            "matrix not positive definite after damping; calibration too degenerate"
        ) from exc
    return HessianFactor(upper=upper)


def hessian_aware_init(
    W,
    p: QuantParams,
    factor: HessianFactor,
    cfg: HessianConfig = HessianConfig(),
) -> InitResult:
    """Column-sequential quantization with error compensation.

    Columns are processed left to right in blocks. For each column the
    round-to-nearest error, normalized by the local curvature
    ``d = upper[j, j]``, is subtracted from the remaining columns via
    the factor's row. The compensated column also seeds the rounding
    matrix: base = floor(w/s) and h_tilde = clip(frac - err/s, 0, 1),
    with the error brought onto the integer grid by the per-row scale.

    The result is independent of the block size up to float accumulation.
    """
    W = np.asarray(W, dtype=np.float64).copy()
    if W.ndim != 2:
        raise ShapeMismatch(f"expected 2-d weights, got shape {W.shape}")
    m, n = W.shape
    U = np.asarray(factor.upper, dtype=np.float64)
    if U.shape != (n, n):
        raise ShapeMismatch(f"factor shape {U.shape} does not match {n} columns")
    if p.scale.shape != (m,):
        raise ShapeMismatch(f"per-row scale length {p.scale.shape} != {m} rows")

    s = p.scale
    z = p.zero.astype(np.float64)
    q_max = float(p.q_max)

    w_q = np.zeros((m, n))
    base = np.zeros((m, n))
    h_tilde = np.zeros((m, n))

    for i1 in range(0, n, cfg.blocksize):
        i2 = min(i1 + cfg.blocksize, n)
        count = i2 - i1
        W1 = W[:, i1:i2]
        U1 = U[i1:i2, i1:i2]
        err_block = np.zeros((m, count))

        for j in range(count):
            w = W1[:, j].copy()
            d = U1[j, j]

            qi = np.clip(round_half_away(w / s) + z, 0.0, q_max)
            q = s * (qi - z)
            w_q[:, i1 + j] = q

            err = (w - q) / d
            W1[:, j:] -= np.outer(err, U1[j, j:])
            err_block[:, j] = err

            u = w / s
            b = np.floor(u)
            base[:, i1 + j] = b
            h_tilde[:, i1 + j] = np.clip(u - b - err / s, 0.0, 1.0)

        if i2 < n:
            W[:, i2:] -= err_block @ U[i1:i2, i2:]

    return InitResult(w_q=w_q, base=base, h_tilde=h_tilde)


def residual_init(W, p: QuantParams) -> np.ndarray:
    """Plain floor-residual rounding seed: clip(W/s - floor(W/s), 0, 1)."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ShapeMismatch(f"expected 2-d weights, got shape {W.shape}")
    if p.scale.shape != (W.shape[0],):
        raise ShapeMismatch(f"per-row scale length {p.scale.shape} != {W.shape[0]} rows")
    u = W / p.scale[:, None]
    return np.clip(u - np.floor(u), 0.0, 1.0)
