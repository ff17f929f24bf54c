"""Executable checks of the rounding transform's error-propagation
properties, plus error-density, singular-spectrum and worst-case-norm
reports.

Every check function both returns its measurements and raises
:class:`TheoremViolation` when an inequality that must hold
analytically fails on the data, so report generation doubles as a
regression trap for the transform implementation.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    BudgetInfeasible,
    ShapeMismatch,
    TheoremViolation,
)
from .quantize import GAMMA, ZETA, _stretched_sigmoid, rectified_sigmoid
from .reparam import (
    balanced_factors,
    flatten_blocks,
    kmeans_fit,
    kronecker_approx,
    param_count,
    svd_lowrank,
    vq_reconstruct,
)

#: Slack for inequalities that are exact in real arithmetic but cross
#: float rounding boundaries.
DETERMINISTIC_TOL = 1e-9


#: Global contraction constant of the stretched sigmoid, the largest
#: slope of ``GAMMA + (ZETA - GAMMA) * sigmoid(a)``, at a = 0.
LIPSCHITZ = (ZETA - GAMMA) / 4.0


@dataclass
class LipschitzCheck:
    max_elementwise_ratio: float  # nan when every latent delta is zero


def verify_lipschitz(A, A_tilde) -> LipschitzCheck:
    """Assert |dH| <= L * |dA| elementwise and in sup-norm.

    Entries with dA == 0 are skipped in the ratio (0/0); the sup-norm
    form is always evaluated.
    """
    A = np.asarray(A, dtype=np.float64)
    At = np.asarray(A_tilde, dtype=np.float64)
    if A.shape != At.shape:
        raise ShapeMismatch(f"shapes differ: {A.shape} vs {At.shape}")
    L = LIPSCHITZ
    dA = np.abs(At - A)
    dH = np.abs(rectified_sigmoid(At) - rectified_sigmoid(A))

    nz = dA > 0.0
    max_ratio = float(np.max(dH[nz] / dA[nz])) if np.any(nz) else float("nan")
    if np.any(nz) and max_ratio > L + DETERMINISTIC_TOL:
        raise TheoremViolation(
            f"elementwise ratio {max_ratio} exceeds contraction constant {L}"
        )

    sup_da = float(np.max(dA)) if dA.size else 0.0
    sup_dh = float(np.max(dH)) if dH.size else 0.0
    if sup_dh > L * sup_da + DETERMINISTIC_TOL:
        raise TheoremViolation(
            f"sup-norm {sup_dh} exceeds {L} * {sup_da} + {DETERMINISTIC_TOL}"
        )
    return LipschitzCheck(max_elementwise_ratio=max_ratio)


def margins(A) -> np.ndarray:
    """Distance of each pre-clip value to its nearest saturation boundary.

    Zero where the entry is already saturated (pre-clip value outside
    (0, 1)).
    """
    _, g = _stretched_sigmoid(A)
    return np.maximum(np.minimum(g, 1.0 - g), 0.0)


@dataclass
class ClippingCheck:
    clip_rate: float  # saturated fraction among initially interior entries
    clip_bound: float  # fraction with displacement beyond margin/constant


def clipping_check(A, A_tilde) -> ClippingCheck:
    """Check the saturation/displacement relation on initially interior
    entries.

    The transform moves outputs by at most L*|dA|, so an entry whose
    rounding value saturated to 0 or 1 must have traveled at least
    margin/L in latent space; that implication is asserted per entry.
    The converse is false -- the slope near the boundaries is below the
    global constant, so a displacement beyond margin/L need not reach a
    boundary (A = 0, A~ = 2 travels 2 > 5/3 yet stays interior under
    the fixed stretch). Aggregated, the inclusion gives
    clip_rate <= clip_bound on the same samples, up to entries landing
    exactly on a boundary (measure zero for continuous perturbations).
    """
    A = np.asarray(A, dtype=np.float64)
    At = np.asarray(A_tilde, dtype=np.float64)
    if A.shape != At.shape:
        raise ShapeMismatch(f"shapes differ: {A.shape} vs {At.shape}")
    L = LIPSCHITZ
    _, g0 = _stretched_sigmoid(A)
    interior = (g0 > 0.0) & (g0 < 1.0)
    if not np.any(interior):
        return ClippingCheck(clip_rate=0.0, clip_bound=0.0)

    delta = margins(A)[interior]
    dA = np.abs(At - A)[interior]
    _, g1 = _stretched_sigmoid(At)
    g1 = g1[interior]
    saturated = (g1 <= 0.0) | (g1 >= 1.0)
    beyond = dA > delta / L

    bad = saturated & (dA < delta / L - DETERMINISTIC_TOL)
    if np.any(bad):
        idx = int(np.flatnonzero(bad)[0])
        raise TheoremViolation(
            f"saturated entry moved only {dA[idx]} < margin/L = {delta[idx] / L}"
        )
    return ClippingCheck(
        clip_rate=float(np.mean(saturated)),
        clip_bound=float(np.mean(beyond)),
    )


def tail_transfer(dA, dH, eps_grid, L: float) -> list[tuple[float, float, float]]:
    """Empirical tail frequencies of |dH| vs |dA| over an epsilon grid.

    For every eps, the event |dH| > eps is contained in |dA| > eps/L
    sample by sample, so the left frequency can never exceed the right
    one; that is asserted with zero tolerance.
    """
    dA = np.abs(np.asarray(dA, dtype=np.float64))
    dH = np.abs(np.asarray(dH, dtype=np.float64))
    if dA.shape != dH.shape:
        raise ShapeMismatch(f"shapes differ: {dA.shape} vs {dH.shape}")
    rows = []
    for eps in eps_grid:
        eps = float(eps)
        lhs = float(np.mean(dH > eps))
        rhs = float(np.mean(dA > eps / L))
        if lhs > rhs:
            raise TheoremViolation(f"tail inversion at eps={eps}: {lhs} > {rhs}")
        rows.append((eps, lhs, rhs))
    return rows


@dataclass
class TheoryReport:
    lipschitz_L: float
    max_observed_ratio: float
    epsilon_grid: list[float]
    tail_lhs: list[float]
    tail_rhs: list[float]
    clip_rate: float
    clip_bound: float


#: Thresholds of the tail-transfer check in :func:`theory_report`.
_EPS_GRID = np.linspace(0.01, 1.0, 20)


def theory_report(A, A_tilde) -> TheoryReport:
    """Run all checks on one latent pair and collect the measurements."""
    lip = verify_lipschitz(A, A_tilde)
    clip = clipping_check(A, A_tilde)
    dA = np.asarray(A_tilde, dtype=np.float64) - np.asarray(A, dtype=np.float64)
    dH = rectified_sigmoid(A_tilde) - rectified_sigmoid(A)
    tail = tail_transfer(dA, dH, _EPS_GRID, LIPSCHITZ)
    return TheoryReport(
        lipschitz_L=LIPSCHITZ,
        max_observed_ratio=lip.max_elementwise_ratio,
        epsilon_grid=[row[0] for row in tail],
        tail_lhs=[row[1] for row in tail],
        tail_rhs=[row[2] for row in tail],
        clip_rate=clip.clip_rate,
        clip_bound=clip.clip_bound,
    )


@dataclass
class HistogramReport:
    edges_delta_a: np.ndarray
    edges_delta_h: np.ndarray
    densities_delta_a: dict
    densities_delta_h: dict


def _symmetric_edges(deltas: list[np.ndarray], bins: int) -> np.ndarray:
    peak = max((float(np.max(np.abs(d))) if d.size else 0.0) for d in deltas)
    if peak == 0.0:
        peak = 1e-12
    return np.linspace(-peak, peak, bins + 1)


def error_histograms(
    A,
    approximations: dict,
    bins: int = 64,
) -> HistogramReport:
    """Normalized error densities of the latent and rounding matrices.

    All methods share one symmetric bin range per quantity so the
    densities are directly comparable; each integrates to 1.
    """
    A = np.asarray(A, dtype=np.float64)
    H = rectified_sigmoid(A)
    d_a, d_h = {}, {}
    for name, At in approximations.items():
        At = np.asarray(At, dtype=np.float64)
        if At.shape != A.shape:
            raise ShapeMismatch(f"{name}: shape {At.shape} != {A.shape}")
        d_a[name] = (A - At).ravel()
        d_h[name] = (H - rectified_sigmoid(At)).ravel()
    edges_a = _symmetric_edges(list(d_a.values()), bins)
    edges_h = _symmetric_edges(list(d_h.values()), bins)
    dens_a = {n: np.histogram(v, bins=edges_a, density=True)[0] for n, v in d_a.items()}
    dens_h = {n: np.histogram(v, bins=edges_h, density=True)[0] for n, v in d_h.items()}
    return HistogramReport(
        edges_delta_a=edges_a,
        edges_delta_h=edges_h,
        densities_delta_a=dens_a,
        densities_delta_h=dens_h,
    )


def singular_spectrum(W) -> np.ndarray:
    """Full singular-value spectrum in descending order."""
    W = np.asarray(W, dtype=np.float64)
    if W.ndim != 2:
        raise ShapeMismatch(f"expected a 2-d matrix, got shape {W.shape}")
    return np.linalg.svd(W, compute_uv=False)


@dataclass
class MethodNorms:
    method: str
    params: int
    norm_inf: float
    norm_2: float
    norm_fro: float


def budgeted_approximations(
    A,
    param_budget: int,
    *,
    d: int = 8,
    kmeans_iters: int = 100,
    seed: int = 0,
) -> dict:
    """vq, low-rank and Kronecker approximations at the largest settings
    fitting the budget; returns {method: (params, approx)}. Every
    method's settings are checked before anything is fitted."""
    A = np.asarray(A, dtype=np.float64)
    blocks = flatten_blocks(A, d)
    m, n = A.shape
    k = min(param_budget // d, blocks.shape[0])
    if k < 1:
        raise BudgetInfeasible(f"budget {param_budget} too small for vq with d={d}")
    r = min(param_budget // (m + n), min(m, n))
    if r < 1:
        raise BudgetInfeasible(f"budget {param_budget} too small for rank >= 1")
    factors = balanced_factors(m, n)
    kron_params = param_count("kronecker", m, n, factors=factors)
    if kron_params > param_budget:
        raise BudgetInfeasible(
            f"balanced factor split needs {kron_params} params > budget {param_budget}"
        )
    cb = kmeans_fit(blocks, k, iters=kmeans_iters, seed=seed, shape=A.shape)
    return {
        "vq": (param_count("vq", m, n, k=k, d=d), vq_reconstruct(cb)),
        "lowrank": (param_count("lowrank", m, n, r=r), svd_lowrank(A, r).reconstruct()),
        "kronecker": (kron_params, kronecker_approx(A, *factors).reconstruct()),
    }


def compare_methods(A, approximations: dict) -> list[MethodNorms]:
    """Max-abs, spectral and Frobenius error norms per method, asserting
    max-abs <= spectral <= Frobenius."""
    A = np.asarray(A, dtype=np.float64)
    rows = []
    for method, (params, approx) in approximations.items():
        E = A - np.asarray(approx, dtype=np.float64)
        inf = float(np.max(np.abs(E))) if E.size else 0.0
        two = float(np.linalg.norm(E, 2))
        fro = float(np.linalg.norm(E, "fro"))
        if inf > two * (1.0 + DETERMINISTIC_TOL) + 1e-12 or two > fro * (1.0 + DETERMINISTIC_TOL) + 1e-12:
            raise TheoremViolation(
                f"{method}: norm chain broken: inf={inf}, two={two}, fro={fro}"
            )
        rows.append(MethodNorms(method=method, params=int(params),
                                norm_inf=inf, norm_2=two, norm_fro=fro))
    return rows
