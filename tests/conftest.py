import numpy as np
import pytest

from vqround.analysis import budgeted_approximations

HEAVY_TAIL_SEEDS = tuple(range(10))
HEAVY_TAIL_BUDGET = 2048


@pytest.fixture(scope="session")
def heavy_tail_sweep():
    """Per-seed Student-t(3) 256x256 latents with budget-matched vq,
    low-rank (2048 params each) and Kronecker approximations. Shared
    between the analysis tests and the acceptance suite so the clustering
    runs once.
    """
    sweep = []
    for seed in HEAVY_TAIL_SEEDS:
        rng = np.random.default_rng(seed)
        A = rng.standard_t(3, size=(256, 256))
        approx = budgeted_approximations(A, HEAVY_TAIL_BUDGET, d=8, kmeans_iters=100, seed=seed)
        sweep.append((A, approx))
    return sweep
